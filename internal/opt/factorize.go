package opt

import (
	"fmt"

	"dbtoaster/internal/agca"
)

// Factorize applies query decomposition (paper §5.1,
// Sum_AB(Q1*Q2) = Sum_A(Q1) * Sum_B(Q2) when Q1 and Q2 share no variable) to
// the evaluation of a statement: in every aggregated monomial of rhs, a group
// of factors that opens a loop, shares no unbound variable with the rest and
// exports none of the variables the statement needs (its group-by variables
// and keep, the target keys) is summed on its own,
//
//	Sum[k](A[k,x] * B[y] * {y > 3})  ==>  Sum[k](A[k,x] * (c1 := Sum[](B[y] * {y > 3})) * c1)
//
// so that OrderFactors evaluates it once, before the remaining loops, instead
// of once per row of them. bound holds the variables the context provides
// (trigger arguments). Monomials with fewer than two loop-bearing groups are
// returned unchanged. Fresh variables are numbered per call, so equal
// right-hand sides rewrite to equal right-hand sides.
func Factorize(rhs agca.Expr, bound agca.VarSet, keep []string) agca.Expr {
	fz := &factorizer{rhs: rhs, bound: bound, keep: keep}
	return fz.expr(rhs)
}

type factorizer struct {
	rhs   agca.Expr
	bound agca.VarSet
	keep  []string
	taken agca.VarSet // names a fresh variable must avoid; filled on first use
	n     int
}

func (fz *factorizer) expr(e agca.Expr) agca.Expr {
	switch n := e.(type) {
	case agca.Sum:
		terms := make([]agca.Expr, len(n.Terms))
		for i, t := range n.Terms {
			terms[i] = fz.expr(t)
		}
		return agca.Sum{Terms: terms}
	case agca.Neg:
		return agca.Neg{E: fz.expr(n.E)}
	case agca.AggSum:
		p, ok := n.E.(agca.Prod)
		if !ok {
			return e
		}
		return agca.AggSum{GroupBy: n.GroupBy, E: agca.Prod{Factors: fz.monomial(p.Factors, n.GroupBy)}}
	default:
		return e
	}
}

// opensLoop reports whether f, in relational position, binds a variable the
// context does not: evaluating it iterates.
func opensLoop(f agca.Expr, cur agca.VarSet) bool {
	switch f.(type) {
	case agca.Lift, agca.Cmp, agca.Var, agca.Const, agca.Func, agca.Div:
		return false
	}
	for _, v := range agca.OutputVars(f, cur) {
		if !cur[v] {
			return true
		}
	}
	return false
}

func (fz *factorizer) monomial(factors []agca.Expr, groupBy []string) []agca.Expr {
	loopy := 0
	for _, f := range factors {
		if opensLoop(f, fz.bound) {
			loopy++
		}
	}
	if loopy < 2 {
		return factors // the common case: nothing to separate
	}
	// A factor is tied to the others through the variables some factor of the
	// monomial produces; anything else it mentions is bound by the context or
	// private to a nested query.
	produced := agca.VarSet{}
	outs := make([][]string, len(factors))
	for i, f := range factors {
		outs[i] = agca.OutputVars(f, agca.VarSet{})
		produced.AddAll(outs[i])
	}
	links := make([][]string, len(factors))
	for i, f := range factors {
		for v := range agca.AllVars(f) {
			if produced[v] {
				links[i] = append(links[i], v)
			}
		}
	}
	// Cut points: bound variables, and the variables of lifts that depend on
	// nothing unbound (sq1 := M1[]) — those are evaluated once, up front.
	cur := fz.bound.Clone()
	free := func(i int) (out []string) {
		for _, v := range links[i] {
			if !cur[v] {
				out = append(out, v)
			}
		}
		return out
	}
	for changed := true; changed; {
		changed = false
		for i, f := range factors {
			l, ok := f.(agca.Lift)
			if !ok || cur[l.Var] {
				continue
			}
			if fv := free(i); len(fv) == 1 && fv[0] == l.Var {
				cur[l.Var] = true
				changed = true
			}
		}
	}
	// Components: factors connected through shared unbound variables.
	group := make([]int, len(factors))
	owner := map[string]int{}
	for i := range factors {
		group[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if group[x] != x {
			group[x] = find(group[x])
		}
		return group[x]
	}
	for i := range factors {
		for _, v := range free(i) {
			if j, ok := owner[v]; ok {
				group[find(i)] = find(j)
			} else {
				owner[v] = i
			}
		}
	}
	// A group exports when it produces a group-by variable (the aggregation
	// projects onto those, so they must stay outputs even when bound) or an
	// unbound target key.
	needed := agca.NewVarSet(groupBy...)
	for _, k := range fz.keep {
		if !cur[k] {
			needed[k] = true
		}
	}
	loops, exports := map[int]bool{}, map[int]bool{}
	for i, f := range factors {
		g := find(i)
		if opensLoop(f, cur) {
			loops[g] = true
		}
		for _, v := range outs[i] {
			if needed[v] {
				exports[g] = true
			}
		}
	}
	if len(loops) < 2 {
		return factors
	}
	out := make([]agca.Expr, 0, len(factors)+2)
	done := map[int]bool{}
	for i, f := range factors {
		g := find(i)
		if !loops[g] || exports[g] {
			out = append(out, f)
			continue
		}
		if done[g] {
			continue
		}
		done[g] = true
		var members []agca.Expr
		for j := i; j < len(factors); j++ {
			if find(j) == g {
				members = append(members, factors[j])
			}
		}
		name := fz.fresh()
		out = append(out,
			agca.Lift{Var: name, E: agca.AggSum{GroupBy: []string{}, E: agca.Mul(members...)}},
			agca.Var{Name: name})
	}
	return out
}

func (fz *factorizer) fresh() string {
	if fz.taken == nil {
		fz.taken = agca.AllVars(fz.rhs)
	}
	for {
		fz.n++
		name := fmt.Sprintf("c%d", fz.n)
		if !fz.taken[name] && !fz.bound[name] {
			fz.taken[name] = true
			return name
		}
	}
}
