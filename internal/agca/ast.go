// Package agca implements AGCA, the AGgregate CAlculus of DBToaster
// (paper §3): an algebraic query language over generalized multiset relations
// with three effective operations — addition (bag union), multiplication
// (natural join with sideways binding) and group-by summation — plus
// interpreted atoms for constants, variables, comparisons and assignments
// ("lifts", x := Q).
//
// The package provides the AST, the evaluation semantics of §3.2, and the
// static analyses (output/input variables, relations used, degree) that the
// delta transform and the compiler rely on.
package agca

import (
	"dbtoaster/internal/types"
)

// Expr is an AGCA expression. Expressions evaluate to generalized multiset
// relations (package gmr) under a database and an environment of bound
// variables.
type Expr interface {
	// isExpr restricts the implementations to this package's node types.
	isExpr()
}

// Const is a constant; when used multiplicatively it denotes the nullary GMR
// 〈〉 ↦ c.
type Const struct {
	V types.Value
}

// Var references a bound variable; multiplicatively it denotes 〈〉 ↦ value.
type Var struct {
	Name string
}

// Rel is a base-relation atom R(x1,...,xk); evaluation renames R's columns to
// the given variables and restricts to tuples consistent with the context.
type Rel struct {
	Name string
	Vars []string
}

// MapRef references a materialized view maintained by the runtime. It
// evaluates exactly like Rel (a lookup in the view store keyed by Keys) but
// the delta transform treats it as constant: statements always read the old
// version of other views, which the trigger scheduler orders correctly.
type MapRef struct {
	Name string
	Keys []string
}

// Sum is bag union / addition of GMRs: Q1 + Q2 + ...
type Sum struct {
	Terms []Expr
}

// Prod is the natural-join product Q1 * Q2 * ... with sideways information
// passing: each factor is evaluated in the context extended by the bindings
// produced by the factors to its left.
type Prod struct {
	Factors []Expr
}

// Neg is additive negation, equivalent to multiplication by -1.
type Neg struct {
	E Expr
}

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the SQL spelling of the operator.
func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	default:
		return "?"
	}
}

// cmpOutcomes[op] has bit c+1 set when a comparison whose operands compare
// as c (types.Compare's sign) satisfies op.
var cmpOutcomes = [...]uint8{
	OpEq: 0b010,
	OpNe: 0b101,
	OpLt: 0b001,
	OpLe: 0b011,
	OpGt: 0b100,
	OpGe: 0b110,
}

// Holds reports whether a comparison whose operands compare as c (the sign
// types.Compare returns: -1, 0 or 1) satisfies op. It is the one definition
// of the comparison semantics: the interpreter, the simplifier's constant
// folding and the compiled executors' outcome masks all read it.
func (op CmpOp) Holds(c int) bool {
	return int(op) < len(cmpOutcomes) && cmpOutcomes[op]&(1<<uint(c+1)) != 0
}

// Negate returns the complementary operator (used when rewriting NOT).
func (op CmpOp) Negate() CmpOp {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpLe:
		return OpGt
	case OpGt:
		return OpLe
	case OpGe:
		return OpLt
	default:
		return op
	}
}

// Swap returns the operator with its operands exchanged (a op b == b Swap(op) a).
func (op CmpOp) Swap() CmpOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		return op
	}
}

// Cmp is an interpreted comparison atom; it evaluates to the nullary GMR with
// multiplicity 1 when the (scalar) operands satisfy the comparison, and to the
// empty GMR otherwise. Operands must be scalar expressions (no output
// variables) whose variables are bound by the context.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Lift is the assignment x := Q ("lifting" a scalar query value into a
// variable). It evaluates Q to a scalar v and yields the singleton 〈x:v〉 ↦ 1.
// If x is already bound in the context it acts as an equality test.
type Lift struct {
	Var string
	E   Expr
}

// AggSum is the group-by summation Sum_{GroupBy}(E): project E's result onto
// the group-by variables, summing multiplicities.
type AggSum struct {
	GroupBy []string
	E       Expr
}

// Exists maps the multiplicity of every tuple of E to 1 if it is non-zero
// (and drops zero entries). It is the domain-extraction operator used when
// translating EXISTS / IN and the FROM-clause subqueries whose aggregate
// value lives in the multiplicity but whose tuples should count once.
type Exists struct {
	E Expr
}

// Div is scalar division L / R (0 when R = 0). It is not incrementalizable —
// the compiler re-evaluates Div nodes from materialized sub-aggregates, which
// is how the paper maintains AVG and ratio queries piecewise.
type Div struct {
	L, R Expr
}

// Func is an interpreted scalar function (value arguments only): arithmetic
// helpers, EXTRACT(YEAR ...), SUBSTRING, LIKE, the MDDB geometry functions,
// and so on. Its delta is zero because it contains no relation atoms.
type Func struct {
	Name string
	Args []Expr
}

func (Const) isExpr()  {}
func (Var) isExpr()    {}
func (Rel) isExpr()    {}
func (MapRef) isExpr() {}
func (Sum) isExpr()    {}
func (Prod) isExpr()   {}
func (Neg) isExpr()    {}
func (Cmp) isExpr()    {}
func (Lift) isExpr()   {}
func (AggSum) isExpr() {}
func (Exists) isExpr() {}
func (Div) isExpr()    {}
func (Func) isExpr()   {}

// Convenience constructors keep query-building code readable.

// C returns an integer constant expression.
func C(v int64) Expr { return Const{V: types.Int(v)} }

// CF returns a float constant expression.
func CF(v float64) Expr { return Const{V: types.Float(v)} }

// CS returns a string constant expression.
func CS(v string) Expr { return Const{V: types.Str(v)} }

// V returns a variable reference.
func V(name string) Expr { return Var{Name: name} }

// R returns a relation atom.
func R(name string, vars ...string) Expr { return Rel{Name: name, Vars: vars} }

// Mul returns the product of the given expressions (flattening nested products).
func Mul(es ...Expr) Expr {
	factors := make([]Expr, 0, len(es))
	for _, e := range es {
		if p, ok := e.(Prod); ok {
			factors = append(factors, p.Factors...)
			continue
		}
		factors = append(factors, e)
	}
	if len(factors) == 1 {
		return factors[0]
	}
	return Prod{Factors: factors}
}

// Add returns the sum of the given expressions (flattening nested sums).
func Add(es ...Expr) Expr {
	terms := make([]Expr, 0, len(es))
	for _, e := range es {
		if s, ok := e.(Sum); ok {
			terms = append(terms, s.Terms...)
			continue
		}
		terms = append(terms, e)
	}
	if len(terms) == 1 {
		return terms[0]
	}
	return Sum{Terms: terms}
}

// Subtract returns a - b.
func Subtract(a, b Expr) Expr { return Add(a, Neg{E: b}) }

// Eq builds an equality comparison.
func Eq(l, r Expr) Expr { return Cmp{Op: OpEq, L: l, R: r} }

// Lt builds a less-than comparison.
func Lt(l, r Expr) Expr { return Cmp{Op: OpLt, L: l, R: r} }

// Gt builds a greater-than comparison.
func Gt(l, r Expr) Expr { return Cmp{Op: OpGt, L: l, R: r} }

// SumOver builds a group-by aggregation.
func SumOver(groupBy []string, e Expr) Expr { return AggSum{GroupBy: groupBy, E: e} }

// Zero is the empty query (the constant 0).
var Zero Expr = Const{V: types.Int(0)}

// One is the constant 1, the multiplicative identity.
var One Expr = Const{V: types.Int(1)}

// IsZero reports whether e is literally the constant zero.
func IsZero(e Expr) bool {
	c, ok := e.(Const)
	return ok && c.V.IsNumeric() && c.V.AsFloat() == 0
}
