// Package opt implements the AGCA expression simplifications of paper §5.3
// (partial evaluation, algebraic identities, unification of equalities into
// assignments, assignment propagation) together with polynomial expansion and
// the factor ordering the interpreter needs for sideways binding.
package opt

import (
	"sort"
	"strings"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/types"
)

// Simplify applies algebraic identities and partial evaluation bottom-up:
// Q*1 = Q, Q*0 = 0, Q+0 = Q, constant folding of products/sums/comparisons of
// constants, double negation elimination, and collapsing of nested AggSums.
// It is idempotent.
func Simplify(e agca.Expr) agca.Expr {
	return agca.Transform(e, simplifyNode)
}

func simplifyNode(e agca.Expr) agca.Expr {
	switch n := e.(type) {
	case agca.Prod:
		return simplifyProd(n)
	case agca.Sum:
		return simplifySum(n)
	case agca.Neg:
		return simplifyNeg(n)
	case agca.Cmp:
		if l, ok := n.L.(agca.Const); ok {
			if r, ok := n.R.(agca.Const); ok {
				return boolExpr(n.Op.Holds(types.Compare(l.V, r.V)))
			}
		}
		if sameOperand(n.L, n.R) {
			// types.Compare(v, v) == 0 for every value, NaN and null
			// included, so {t op t} holds exactly when op admits equality.
			return boolExpr(n.Op.Holds(0))
		}
		return n
	case agca.AggSum:
		return simplifyAggSum(n)
	case agca.Lift:
		return n
	default:
		return e
	}
}

func boolExpr(b bool) agca.Expr {
	if b {
		return agca.One
	}
	return agca.Zero
}

// sameOperand reports whether two comparison operands are syntactically
// equal, and therefore evaluate to the same value.
func sameOperand(l, r agca.Expr) bool {
	if lv, ok := l.(agca.Var); ok {
		rv, ok := r.(agca.Var)
		return ok && lv.Name == rv.Name
	}
	if _, ok := r.(agca.Var); ok {
		return false
	}
	return agca.String(l) == agca.String(r)
}

func simplifyProd(n agca.Prod) agca.Expr {
	coeff := 1.0
	coeffInt := true
	factors := make([]agca.Expr, 0, len(n.Factors))
	for _, f := range n.Factors {
		switch x := f.(type) {
		case agca.Const:
			if !x.V.IsNumeric() {
				factors = append(factors, f)
				continue
			}
			if x.V.AsFloat() == 0 {
				return agca.Zero
			}
			coeff *= x.V.AsFloat()
			if x.V.Kind() == types.KindFloat {
				coeffInt = false
			}
		case agca.Prod:
			factors = append(factors, x.Factors...)
		case agca.Neg:
			coeff = -coeff
			if agca.IsZero(x.E) {
				return agca.Zero
			}
			factors = append(factors, x.E)
		default:
			factors = append(factors, f)
		}
	}
	if coeff != 1 {
		factors = append([]agca.Expr{coeffConst(coeff, coeffInt)}, factors...)
	}
	switch len(factors) {
	case 0:
		return agca.One
	case 1:
		return factors[0]
	default:
		return agca.Prod{Factors: factors}
	}
}

func simplifySum(n agca.Sum) agca.Expr {
	coeff := 0.0
	coeffInt := true
	hasConst := false
	terms := make([]agca.Expr, 0, len(n.Terms))
	for _, t := range n.Terms {
		switch x := t.(type) {
		case agca.Const:
			if !x.V.IsNumeric() {
				terms = append(terms, t)
				continue
			}
			if x.V.AsFloat() == 0 {
				continue
			}
			hasConst = true
			coeff += x.V.AsFloat()
			if x.V.Kind() == types.KindFloat {
				coeffInt = false
			}
		case agca.Sum:
			terms = append(terms, x.Terms...)
		default:
			terms = append(terms, t)
		}
	}
	if hasConst && coeff != 0 {
		terms = append(terms, coeffConst(coeff, coeffInt))
	}
	switch len(terms) {
	case 0:
		return agca.Zero
	case 1:
		return terms[0]
	default:
		return agca.Sum{Terms: terms}
	}
}

// coeffConst renders a folded numeric coefficient: an integer constant when
// every folded operand was an integer and the result is integral.
func coeffConst(coeff float64, isInt bool) agca.Expr {
	if isInt && coeff == float64(int64(coeff)) {
		return agca.C(int64(coeff))
	}
	return agca.CF(coeff)
}

// CombineLikeTerms simplifies e and, when the result is a value sum, adds up
// its terms that differ only in their constant coefficient
// (0.5*v*p + 0.5*v*p = v*p, x + -1*x = 0), keeping each surviving term at its
// first position; a sum whose terms all cancel becomes 0. Value products
// commute, so factor order does not distinguish terms. Combining assumes
// finite values (x + -x is NaN for an infinite x), so Simplify itself leaves
// like terms alone and only the merge of increments combines them.
func CombineLikeTerms(e agca.Expr) agca.Expr {
	e = Simplify(e)
	if !IsValueSum(e) {
		return e
	}
	return simplifySum(agca.Sum{Terms: combineLikeTerms(e.(agca.Sum).Terms)})
}

func combineLikeTerms(terms []agca.Expr) []agca.Expr {
	type like struct {
		coeff float64
		isInt bool
		rest  []agca.Expr
	}
	var groups []*like
	byKey := map[string]*like{}
	for _, t := range terms {
		coeff, isInt, rest := splitCoefficient(t)
		parts := make([]string, len(rest))
		for i, f := range rest {
			parts[i] = agca.String(f)
		}
		sort.Strings(parts)
		key := strings.Join(parts, "*")
		if g, ok := byKey[key]; ok {
			g.coeff += coeff
			g.isInt = g.isInt && isInt
			continue
		}
		g := &like{coeff: coeff, isInt: isInt, rest: rest}
		byKey[key] = g
		groups = append(groups, g)
	}
	if len(groups) == len(terms) {
		return terms
	}
	out := make([]agca.Expr, 0, len(groups))
	for _, g := range groups {
		if g.coeff == 0 {
			continue
		}
		out = append(out, simplifyProd(agca.Prod{Factors: append([]agca.Expr{coeffConst(g.coeff, g.isInt)}, g.rest...)}))
	}
	return out
}

// splitCoefficient separates a simplified term into its numeric coefficient
// and its remaining factors.
func splitCoefficient(t agca.Expr) (coeff float64, isInt bool, rest []agca.Expr) {
	coeff, isInt = 1, true
	for {
		switch x := t.(type) {
		case agca.Neg:
			coeff = -coeff
			t = x.E
			continue
		case agca.Prod:
			for _, f := range x.Factors {
				if c, ok := f.(agca.Const); ok && c.V.IsNumeric() {
					coeff *= c.V.AsFloat()
					isInt = isInt && c.V.Kind() != types.KindFloat
					continue
				}
				rest = append(rest, f)
			}
			return coeff, isInt, rest
		case agca.Const:
			if x.V.IsNumeric() {
				return coeff * x.V.AsFloat(), isInt && x.V.Kind() != types.KindFloat, nil
			}
		}
		return coeff, isInt, []agca.Expr{t}
	}
}

func simplifyNeg(n agca.Neg) agca.Expr {
	switch x := n.E.(type) {
	case agca.Const:
		if x.V.IsNumeric() {
			return agca.Const{V: types.Neg(x.V)}
		}
	case agca.Neg:
		return x.E
	}
	if agca.IsZero(n.E) {
		return agca.Zero
	}
	return n
}

func simplifyAggSum(n agca.AggSum) agca.Expr {
	if agca.IsZero(n.E) {
		return agca.Zero
	}
	// Sum[A](Sum[B](Q)) == Sum[A](Q) when A ⊆ B.
	if inner, ok := n.E.(agca.AggSum); ok {
		subset := true
		innerGB := types.Schema(inner.GroupBy)
		for _, g := range n.GroupBy {
			if !innerGB.Contains(g) {
				subset = false
				break
			}
		}
		if subset {
			return agca.AggSum{GroupBy: n.GroupBy, E: inner.E}
		}
	}
	// Sum[A](Q) == Q when Q's outputs are exactly A (no collapsing happens)
	// and Q is a single atom; keep the wrapper otherwise for clarity.
	if r, ok := n.E.(agca.Rel); ok {
		if types.Schema(n.GroupBy).Equal(agca.OutputVars(r, agca.VarSet{})) {
			return n.E
		}
	}
	if r, ok := n.E.(agca.MapRef); ok {
		if types.Schema(n.GroupBy).Equal(agca.OutputVars(r, agca.VarSet{})) {
			return n.E
		}
	}
	return n
}
