package agca

import (
	"fmt"
	"math"
	"strings"

	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

// Database provides the relations (base tables and materialized views) that
// relation atoms and map references evaluate against.
type Database interface {
	// Relation returns the GMR stored under the given name; it must return an
	// empty GMR (not nil) for unknown names so that evaluation of a view that
	// has not been touched yet behaves like an empty view.
	Relation(name string) *gmr.GMR
}

// Prober is an optional fast path a Database can implement: return only the
// entries of the named relation whose columns at the given positions equal
// the given values. Engines back this with secondary hash indexes.
type Prober interface {
	Probe(name string, cols []int, vals []types.Value) []gmr.Entry
}

// Binder is the probe path of the compiled executors: a Database that
// implements it resolves an access path for (name, probe columns) once, and
// every later probe through the returned Handle skips that resolution.
// Implementations must be comparable (pointer types): an executor machine
// keeps its handles only while it runs against the same Binder. They may
// retain cols, which callers never mutate.
type Binder interface {
	Bind(name string, cols []int) Handle
}

// Handle is one bound access path: the entries of one relation whose columns
// at the bound positions, encoded with types.Tuple.AppendKey, equal key.
type Handle interface {
	// Probe returns the store holding the matching entries and their slot ids
	// (gmr.GMR.SlotEntry). Both stay valid while the store is not mutated; a
	// one-entry result may be handle state that the next Probe rewrites, so
	// read each id before probing the same handle again.
	Probe(key []byte) (*gmr.GMR, []int32)
}

// MapDB is a trivial Database backed by a Go map; handy for tests and for the
// REP baseline.
type MapDB map[string]*gmr.GMR

// Relation implements Database.
func (m MapDB) Relation(name string) *gmr.GMR {
	if g, ok := m[name]; ok && g != nil {
		return g
	}
	return gmr.New(nil)
}

// EvalError reports a semantic error during evaluation, e.g. an unbound
// variable. Queries are validated at compile time, so an EvalError indicates
// a bug in the compiler or a malformed hand-built expression.
type EvalError struct {
	Msg string
}

func (e *EvalError) Error() string { return "agca: " + e.Msg }

func evalPanic(format string, args ...any) {
	panic(&EvalError{Msg: fmt.Sprintf(format, args...)})
}

// Eval evaluates e against db under the environment env of bound variables
// and returns the resulting GMR. It panics with *EvalError on semantic
// errors; use EvalChecked to receive them as error values.
func Eval(e Expr, db Database, env types.Env) *gmr.GMR {
	return evalExpr(e, db, env)
}

// EvalChecked is Eval with panics converted to errors.
func EvalChecked(e Expr, db Database, env types.Env) (g *gmr.GMR, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ee, ok := r.(*EvalError); ok {
				err = ee
				return
			}
			panic(r)
		}
	}()
	return Eval(e, db, env), nil
}

func evalExpr(e Expr, db Database, env types.Env) *gmr.GMR {
	switch n := e.(type) {
	case Const:
		return gmr.NewScalar(n.V.AsFloat())
	case Var:
		v, ok := env[n.Name]
		if !ok {
			evalPanic("unbound variable %q", n.Name)
		}
		return gmr.NewScalar(v.AsFloat())
	case Rel:
		return evalAtom(n.Name, n.Vars, db, env)
	case MapRef:
		return evalAtom(n.Name, n.Keys, db, env)
	case Neg:
		return gmr.Negate(evalExpr(n.E, db, env))
	case Sum:
		return evalSum(n, db, env)
	case Prod:
		return evalProd(n, db, env)
	case Cmp:
		l := EvalScalar(n.L, db, env)
		r := EvalScalar(n.R, db, env)
		if n.Op.Holds(types.Compare(l, r)) {
			return gmr.NewScalar(1)
		}
		return gmr.NewScalar(0)
	case Lift:
		v := EvalScalar(n.E, db, env)
		if bound, ok := env[n.Var]; ok {
			if !bound.Equal(v) {
				return gmr.New(types.Schema{n.Var})
			}
		}
		out := gmr.New(types.Schema{n.Var})
		out.Add(types.Tuple{v}, 1)
		return out
	case AggSum:
		inner := evalExpr(n.E, db, env)
		if inner.IsEmpty() {
			// A truncated empty result may not carry all group-by columns;
			// the projection of an empty GMR is empty regardless.
			return gmr.New(types.Schema(n.GroupBy))
		}
		return gmr.Project(inner, types.Schema(n.GroupBy))
	case Exists:
		inner := evalExpr(n.E, db, env)
		out := gmr.New(inner.Schema())
		inner.Foreach(func(t types.Tuple, m float64) {
			if math.Abs(m) > gmr.Epsilon {
				out.Add(t, 1)
			}
		})
		return out
	case Div:
		l := EvalScalar(n.L, db, env)
		r := EvalScalar(n.R, db, env)
		return gmr.NewScalar(types.Div(l, r).AsFloat())
	case Func:
		return gmr.NewScalar(evalFunc(n, db, env).AsFloat())
	default:
		evalPanic("unknown expression node %T", e)
		return nil
	}
}

// evalAtom evaluates a relation atom or map reference: rename the stored
// columns to the given variable names, keep only tuples consistent with the
// environment, and enforce equality for repeated variables.
func evalAtom(name string, vars []string, db Database, env types.Env) *gmr.GMR {
	// Deduplicate the schema (R(x,x) constrains both columns to be equal).
	outSchema := make(types.Schema, 0, len(vars))
	seen := map[string]bool{}
	for _, v := range vars {
		if !seen[v] {
			seen[v] = true
			outSchema = append(outSchema, v)
		}
	}
	out := gmr.New(outSchema)

	// Determine bound positions for index probing and consistency filtering.
	var boundCols []int
	var boundVals []types.Value
	for i, v := range vars {
		if val, ok := env[v]; ok {
			boundCols = append(boundCols, i)
			boundVals = append(boundVals, val)
		}
	}

	var entries []gmr.Entry
	if p, ok := db.(Prober); ok && len(boundCols) > 0 {
		entries = p.Probe(name, boundCols, boundVals)
	} else {
		rel := db.Relation(name)
		entries = make([]gmr.Entry, 0, rel.Len())
		rel.Foreach(func(t types.Tuple, m float64) {
			entries = append(entries, gmr.Entry{Tuple: t, Mult: m})
		})
	}

entryLoop:
	for _, e := range entries {
		if len(e.Tuple) != len(vars) {
			evalPanic("relation %q arity mismatch: tuple has %d columns, atom has %d variables",
				name, len(e.Tuple), len(vars))
		}
		// Consistency with the environment.
		for i, v := range vars {
			if val, ok := env[v]; ok && !val.Equal(e.Tuple[i]) {
				continue entryLoop
			}
		}
		// Build the projected/deduplicated tuple, enforcing intra-tuple
		// equality for repeated variables.
		t := make(types.Tuple, 0, len(outSchema))
		firstPos := map[string]int{}
		for i, v := range vars {
			if j, ok := firstPos[v]; ok {
				if !e.Tuple[j].Equal(e.Tuple[i]) {
					continue entryLoop
				}
				continue
			}
			firstPos[v] = i
			t = append(t, e.Tuple[i])
		}
		out.Add(t, e.Mult)
	}
	return out
}

func evalSum(n Sum, db Database, env types.Env) *gmr.GMR {
	var out *gmr.GMR
	var firstEmpty *gmr.GMR
	for _, term := range n.Terms {
		r := evalExpr(term, db, env)
		// Empty results act as the additive identity regardless of schema
		// (a product that found no matching bindings may report a truncated
		// schema).
		if r.IsEmpty() {
			if firstEmpty == nil {
				firstEmpty = r
			}
			continue
		}
		if out == nil {
			out = r
			continue
		}
		if out.Schema().Equal(r.Schema()) {
			out.MergeInto(r, 1)
			continue
		}
		aligned := alignSchema(r, out.Schema())
		out.MergeInto(aligned, 1)
	}
	if out == nil {
		if firstEmpty != nil {
			return firstEmpty
		}
		return gmr.NewScalar(0)
	}
	return out
}

// alignSchema reorders r's columns to match the target schema; it panics if
// the variable sets differ.
func alignSchema(r *gmr.GMR, target types.Schema) *gmr.GMR {
	if len(r.Schema()) != len(target) {
		evalPanic("union of incompatible schemas %v and %v", r.Schema(), target)
	}
	for _, c := range target {
		if !r.Schema().Contains(c) {
			evalPanic("union of incompatible schemas %v and %v", r.Schema(), target)
		}
	}
	return gmr.Project(r, target)
}

// evalProd evaluates a product left to right with sideways binding: every
// factor is evaluated once per distinct binding produced by the factors to
// its left, and consistent tuples are concatenated with multiplicities
// multiplied.
func evalProd(n Prod, db Database, env types.Env) *gmr.GMR {
	type partial struct {
		vals types.Tuple
		mult float64
		env  types.Env
	}
	// The accumulated output schema is determined statically so that every
	// partial binding is extended consistently even when some partials find
	// no matching tuples for a factor.
	bound := VarSet{}
	for k := range env {
		bound[k] = true
	}
	schema := types.Schema{}
	partials := []partial{{vals: types.Tuple{}, mult: 1, env: env}}

	for _, f := range n.Factors {
		factorOut := OutputVars(f, bound)
		var newCols types.Schema
		for _, c := range factorOut {
			if !schema.Contains(c) {
				newCols = append(newCols, c)
			}
		}
		nextSchema := append(schema.Clone(), newCols...)

		var next []partial
		for _, p := range partials {
			r := evalExpr(f, db, p.env)
			rs := r.Schema()
			// Positions of the new columns within r's schema.
			newPos := make([]int, len(newCols))
			usable := true
			for i, c := range newCols {
				j := rs.Index(c)
				if j < 0 {
					usable = false
					break
				}
				newPos[i] = j
			}
			if !usable {
				// Only possible when r is empty (a truncated product); it
				// contributes nothing.
				continue
			}
			r.Foreach(func(t types.Tuple, m float64) {
				// Check consistency on columns already present.
				vals := p.vals
				for i, c := range rs {
					if j := schema.Index(c); j >= 0 {
						if !vals[j].Equal(t[i]) {
							return
						}
					}
				}
				newVals := make(types.Tuple, len(newCols))
				for i, j := range newPos {
					newVals[i] = t[j]
				}
				combined := make(types.Tuple, 0, len(nextSchema))
				combined = append(combined, vals...)
				combined = append(combined, newVals...)
				newEnv := p.env
				if len(newVals) > 0 {
					newEnv = p.env.Extend(newCols, newVals)
				}
				next = append(next, partial{vals: combined, mult: p.mult * m, env: newEnv})
			})
		}
		schema = nextSchema
		bound.AddAll(newCols)
		partials = next
		if len(partials) == 0 {
			break
		}
	}

	out := gmr.New(schema)
	for _, p := range partials {
		out.Add(p.vals, p.mult)
	}
	return out
}

// EvalScalar evaluates an expression that denotes a single value: constants,
// bound variables, scalar arithmetic, interpreted functions, and nullary
// queries (whose value is the multiplicity of the empty tuple).
func EvalScalar(e Expr, db Database, env types.Env) types.Value {
	switch n := e.(type) {
	case Const:
		return n.V
	case Var:
		v, ok := env[n.Name]
		if !ok {
			evalPanic("unbound variable %q in scalar context", n.Name)
		}
		return v
	case Neg:
		return types.Neg(EvalScalar(n.E, db, env))
	case Div:
		return types.Div(EvalScalar(n.L, db, env), EvalScalar(n.R, db, env))
	case Func:
		return evalFunc(n, db, env)
	case Sum:
		acc := types.Int(0)
		for _, t := range n.Terms {
			acc = types.Add(acc, EvalScalar(t, db, env))
		}
		return acc
	case Prod:
		acc := types.Value(types.Int(1))
		for _, f := range n.Factors {
			acc = types.Mul(acc, EvalScalar(f, db, env))
		}
		return acc
	case Cmp:
		l := EvalScalar(n.L, db, env)
		r := EvalScalar(n.R, db, env)
		if n.Op.Holds(types.Compare(l, r)) {
			return types.Int(1)
		}
		return types.Int(0)
	default:
		// Fall back to full evaluation: the expression must be nullary, or a
		// correlated subquery all of whose output variables are bound by the
		// context (it then has at most one consistent group, whose
		// multiplicity is the value).
		g := evalExpr(e, db, env)
		if len(g.Schema()) == 0 {
			return types.Float(g.ScalarValue())
		}
		for _, col := range g.Schema() {
			if _, ok := env[col]; !ok {
				evalPanic("expression with unbound output variables %v used in scalar context", g.Schema())
			}
		}
		total := 0.0
		g.Foreach(func(_ types.Tuple, m float64) { total += m })
		return types.Float(total)
	}
}

// evalFunc dispatches the interpreted scalar functions.
func evalFunc(f Func, db Database, env types.Env) types.Value {
	args := make([]types.Value, len(f.Args))
	for i, a := range f.Args {
		args[i] = EvalScalar(a, db, env)
	}
	return applyFunc(f.Name, args)
}

// ScalarFunc is one interpreted scalar function applied to already-evaluated
// arguments.
type ScalarFunc func(args []types.Value) types.Value

// scalarFuncs maps lower-cased function names to their implementations.
var scalarFuncs = map[string]ScalarFunc{
	"year": func(args []types.Value) types.Value {
		// Dates are encoded as yyyymmdd integers.
		return types.Int(args[0].AsInt() / 10000)
	},
	"substring": func(args []types.Value) types.Value {
		s := args[0].AsString()
		start := int(args[1].AsInt())
		length := int(args[2].AsInt())
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := start + length
		if end > len(s) {
			end = len(s)
		}
		return types.Str(s[start:end])
	},
	"like": func(args []types.Value) types.Value {
		return boolVal(likeMatch(args[0].AsString(), args[1].AsString()))
	},
	"notlike": func(args []types.Value) types.Value {
		return boolVal(!likeMatch(args[0].AsString(), args[1].AsString()))
	},
	"listmax": func(args []types.Value) types.Value {
		max := args[0]
		for _, a := range args[1:] {
			if types.Compare(a, max) > 0 {
				max = a
			}
		}
		return max
	},
	"listmin": func(args []types.Value) types.Value {
		min := args[0]
		for _, a := range args[1:] {
			if types.Compare(a, min) < 0 {
				min = a
			}
		}
		return min
	},
	"abs": func(args []types.Value) types.Value {
		return types.Float(math.Abs(args[0].AsFloat()))
	},
	"vec_length": func(args []types.Value) types.Value {
		// vec_length(dx, dy, dz): Euclidean norm, used by MDDB1.
		dx, dy, dz := args[0].AsFloat(), args[1].AsFloat(), args[2].AsFloat()
		return types.Float(math.Sqrt(dx*dx + dy*dy + dz*dz))
	},
	"dihedral_angle": func(args []types.Value) types.Value {
		// Simplified dihedral angle over four points (x,y,z each); only the
		// statistical shape matters for the MDDB workload.
		if len(args) >= 12 {
			v := 0.0
			for i := 0; i < 12; i++ {
				v += args[i].AsFloat() * float64(i%3+1)
			}
			return types.Float(math.Mod(v, math.Pi))
		}
		return types.Float(0)
	},
	"in_list": func(args []types.Value) types.Value {
		// in_list(x, c1, c2, ...): membership test.
		for _, a := range args[1:] {
			if args[0].Equal(a) {
				return types.Int(1)
			}
		}
		return types.Int(0)
	},
}

// ResolveFunc returns the implementation of the named scalar function, if
// any. The compiled executors resolve the name once at statement-compile
// time instead of paying the case-folded dispatch per row.
func ResolveFunc(name string) (ScalarFunc, bool) {
	fn, ok := scalarFuncs[strings.ToLower(name)]
	return fn, ok
}

// applyFunc applies the named interpreted scalar function to already-evaluated
// arguments. The compiled executors (package exec) resolve the same
// implementation once, through ResolveFunc, so both dispatch the same
// function semantics.
func applyFunc(name string, args []types.Value) types.Value {
	fn, ok := ResolveFunc(name)
	if !ok {
		evalPanic("unknown function %q", name)
	}
	return fn(args)
}

func boolVal(b bool) types.Value {
	if b {
		return types.Int(1)
	}
	return types.Int(0)
}

// likeMatch implements SQL LIKE: % matches any run of characters, _ any one.
// It backtracks only to the last %, so a match takes O(len(s)*len(pattern)).
func likeMatch(str, pat string) bool {
	s, pattern := []rune(str), []rune(pat)
	i, j, star, mark := 0, 0, -1, 0
	for i < len(s) {
		switch {
		case j < len(pattern) && pattern[j] == '%':
			star, mark = j, i
			j++
		case j < len(pattern) && (pattern[j] == '_' || pattern[j] == s[i]):
			i, j = i+1, j+1
		case star >= 0:
			mark++
			i, j = mark, star+1
		default:
			return false
		}
	}
	for j < len(pattern) && pattern[j] == '%' {
		j++
	}
	return j == len(pattern)
}
