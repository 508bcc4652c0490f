package opt

import (
	"dbtoaster/internal/agca"
)

// OrderFactors reorders the factors of a monomial so that the interpreter's
// left-to-right sideways-binding evaluation is both correct (no factor is
// evaluated before its parameters are bound) and efficient: cheap bindings
// and filters run first, then fully-bound lookups, then nested aggregates
// whose inputs are bound — loop-invariant scheduling: a lift is evaluated
// before, not inside, any loop it does not depend on — and only then the atoms
// that open a loop, probed with as many bound keys as possible.
func OrderFactors(factors []agca.Expr, bound agca.VarSet) []agca.Expr {
	return orderFactors(factors, bound.Clone())
}

// orderFactors is OrderFactors over a scratch bound set, which it extends
// while it schedules and restores before it returns.
func orderFactors(factors []agca.Expr, cur agca.VarSet) []agca.Expr {
	remaining := make([]agca.Expr, len(factors))
	copy(remaining, factors)
	out := make([]agca.Expr, 0, len(factors))
	var added []string

	for len(remaining) > 0 {
		best, bestScore := -1, -1
		for i, f := range remaining {
			score, ok := factorScore(f, cur)
			if !ok || score <= bestScore || score == nestedScore && awaitsSibling(remaining, i, cur) {
				continue
			}
			best, bestScore = i, score
		}
		if best < 0 {
			// No factor is fully parameterized; fall back to the original
			// order for the rest (the expression has genuine input variables
			// that the caller binds at evaluation time).
			out = append(out, remaining...)
			break
		}
		chosen := remaining[best]
		out = append(out, chosen)
		remaining = append(remaining[:best], remaining[best+1:]...)
		added = bind(cur, chosen, added)
	}
	for _, v := range added {
		delete(cur, v)
	}
	return out
}

// bind adds the outputs of f that cur does not hold yet to cur, and appends
// them to added so that the caller can take them out again.
func bind(cur agca.VarSet, f agca.Expr, added []string) []string {
	for _, v := range agca.OutputVars(f, cur) {
		if !cur[v] {
			cur[v] = true
			added = append(added, v)
		}
	}
	return added
}

// nestedScore is the score of a ready scalar-context factor (lift, comparison,
// division, function) that holds a nested query: below the fully-bound
// lookups, above every atom that opens a loop.
const nestedScore = 70

// awaitsSibling reports whether the nested query inside the scalar-context
// factor remaining[i] mentions a variable that a pending sibling still has to
// bind. Such a variable is not an *input* of the factor — "sq := Sum[](M[k])"
// is evaluable with k unbound, summing over every k — but the query means the
// correlated lookup, so the factor must wait for the sibling that produces k.
func awaitsSibling(remaining []agca.Expr, i int, cur agca.VarSet) bool {
	vars := agca.AllVars(remaining[i])
	for j, f := range remaining {
		if j == i {
			continue
		}
		for _, v := range agca.OutputVars(f, cur) {
			if vars[v] && !cur[v] {
				return true
			}
		}
	}
	return false
}

// factorScore rates a factor for scheduling under the current bound set. The
// boolean is false when the factor's parameters are not yet bound.
func factorScore(f agca.Expr, bound agca.VarSet) (int, bool) {
	inputsReady := len(agca.InputVars(f, bound)) == 0
	switch n := f.(type) {
	case agca.Lift, agca.Cmp, agca.Var, agca.Const, agca.Func, agca.Div:
		if !inputsReady {
			return 0, false
		}
		ready, nested := scalarOperandsBound(f, bound)
		_, isLift := f.(agca.Lift)
		switch {
		case !ready:
			return 0, false
		case nested:
			return nestedScore, true // not free, but cheaper outside a loop
		case isLift:
			return 100, true // cheap binding (constant / trigger argument)
		default:
			return 90, true // filters and value factors prune early
		}
	case agca.Rel, agca.MapRef:
		// Atoms are always evaluable; prefer those with more bound keys.
		var keys []string
		if r, ok := n.(agca.Rel); ok {
			keys = r.Vars
		} else {
			keys = n.(agca.MapRef).Keys
		}
		boundKeys := 0
		for _, k := range keys {
			if bound[k] {
				boundKeys++
			}
		}
		if len(keys) > 0 && boundKeys == len(keys) {
			return 80, true // fully-bound lookup
		}
		return 20 + boundKeys, true
	default:
		if !inputsReady {
			return 0, false
		}
		return 5, true
	}
}

// scalarOperandsBound reports whether a factor used in scalar context (a
// comparison, division, function, or lift) can be evaluated under the given
// bound set: any correlated subquery among its operands must have all of its
// output variables bound, because its value is the multiplicity of the single
// consistent group. nested reports whether any operand holds such a subquery.
func scalarOperandsBound(f agca.Expr, bound agca.VarSet) (ready, nested bool) {
	var operands []agca.Expr
	switch n := f.(type) {
	case agca.Lift:
		operands = []agca.Expr{n.E}
	case agca.Cmp:
		operands = []agca.Expr{n.L, n.R}
	case agca.Div:
		operands = []agca.Expr{n.L, n.R}
	case agca.Func:
		operands = n.Args
	default:
		operands = []agca.Expr{f}
	}
	for _, op := range operands {
		if !agca.HasRelOrMap(op) {
			continue
		}
		nested = true
		for _, v := range agca.OutputVars(op, bound) {
			if !bound[v] {
				return false, true
			}
		}
	}
	return true, nested
}

// NormalizeOrder applies OrderFactors to every product in the expression,
// threading the binding context top-down (bound holds the variables provided
// by the evaluation environment, e.g. trigger arguments).
func NormalizeOrder(e agca.Expr, bound agca.VarSet) agca.Expr {
	return normalizeOrder(e, bound.Clone())
}

// normalizeOrder is NormalizeOrder over a scratch bound set: each product
// extends it for its later factors and restores it before it returns.
func normalizeOrder(e agca.Expr, bound agca.VarSet) agca.Expr {
	switch n := e.(type) {
	case agca.Prod:
		ordered := orderFactors(n.Factors, bound)
		out := make([]agca.Expr, len(ordered))
		var added []string
		for i, f := range ordered {
			out[i] = normalizeOrder(f, bound)
			added = bind(bound, f, added)
		}
		for _, v := range added {
			delete(bound, v)
		}
		return agca.Prod{Factors: out}
	case agca.Sum:
		out := make([]agca.Expr, len(n.Terms))
		for i, t := range n.Terms {
			out[i] = normalizeOrder(t, bound)
		}
		return agca.Sum{Terms: out}
	case agca.Neg:
		return agca.Neg{E: normalizeOrder(n.E, bound)}
	case agca.Exists:
		return agca.Exists{E: normalizeOrder(n.E, bound)}
	case agca.AggSum:
		return agca.AggSum{GroupBy: n.GroupBy, E: normalizeOrder(n.E, bound)}
	case agca.Lift:
		return agca.Lift{Var: n.Var, E: normalizeOrder(n.E, bound)}
	case agca.Cmp:
		return agca.Cmp{Op: n.Op, L: normalizeOrder(n.L, bound), R: normalizeOrder(n.R, bound)}
	case agca.Div:
		return agca.Div{L: normalizeOrder(n.L, bound), R: normalizeOrder(n.R, bound)}
	case agca.Func:
		args := make([]agca.Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = normalizeOrder(a, bound)
		}
		return agca.Func{Name: n.Name, Args: args}
	default:
		return e
	}
}
