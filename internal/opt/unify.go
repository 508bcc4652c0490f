package opt

import (
	"slices"

	"dbtoaster/internal/agca"
)

// UnifyResult is the outcome of unifying a monomial: the rewritten factor
// list plus the variable substitution that was applied. Callers that hold
// references to the monomial's variables outside the expression (for example
// the key variables of the map a trigger statement updates, or the group-by
// list peeled off before unification) must apply Subst to those references as
// well — this is the paper's "extracting range restrictions" (§5.3).
type UnifyResult struct {
	Factors []agca.Expr
	Subst   map[string]string
}

// ApplyTo maps a variable name through the substitution (transitively).
func (u UnifyResult) ApplyTo(name string) string {
	seen := map[string]bool{}
	for {
		next, ok := u.Subst[name]
		if !ok || seen[name] {
			return name
		}
		seen[name] = true
		name = next
	}
}

// ApplyToAll maps every name of a list through the substitution.
func (u UnifyResult) ApplyToAll(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = u.ApplyTo(n)
	}
	return out
}

// UnifyMonomial implements unification (paper §5.3) on one multiplicative
// clause: assignments of variables to other variables are propagated and
// removed, equality comparisons between column variables are turned into
// natural-join constraints by renaming, and equalities with constants become
// assignments so that they can seed index lookups.
//
// protect lists variables that are visible outside the monomial and must not
// silently disappear: they may only be renamed onto a variable that is
// guaranteed to be bound at evaluation time — either a member of bound
// (trigger arguments and other externally bound parameters) or an output of
// another factor. bound lists the externally bound variables.
func UnifyMonomial(factors []agca.Expr, protect, bound agca.VarSet) UnifyResult {
	fs := make([]agca.Expr, len(factors))
	copy(fs, factors)
	subst := map[string]string{}

	rename := func(from, to string) {
		sub := map[string]string{from: to}
		for i, f := range fs {
			if mentions(f, from) {
				fs[i] = agca.RenameVars(f, sub)
			}
		}
		for k, v := range subst {
			if v == from {
				subst[k] = to
			}
		}
		subst[from] = to
	}
	// available reports whether a variable has a runtime value without the
	// factor at position skip: it is externally bound or produced by another
	// factor's output.
	available := func(v string, skip int) bool {
		return bound[v] || producesVar(fs, v, skip)
	}

	changed := true
	for changed {
		changed = false
		for i, f := range fs {
			switch n := f.(type) {
			case agca.Lift:
				// (x := y) where y is a plain variable.
				rhs, ok := n.E.(agca.Var)
				if !ok {
					continue
				}
				if n.Var == rhs.Name {
					fs = append(fs[:i], fs[i+1:]...)
					changed = true
					break
				}
				if !bound[n.Var] && available(rhs.Name, i) {
					// Substituting x by y is safe: y has a value and x is not
					// an externally bound name whose meaning must survive.
					fs = append(fs[:i], fs[i+1:]...)
					rename(n.Var, rhs.Name)
					changed = true
					break
				}
				if !bound[rhs.Name] && !protect[rhs.Name] && available(n.Var, i) {
					// The lifted variable is produced elsewhere; rename the
					// free right-hand side onto it.
					fs = append(fs[:i], fs[i+1:]...)
					rename(rhs.Name, n.Var)
					changed = true
					break
				}
			case agca.Cmp:
				if n.Op != agca.OpEq {
					continue
				}
				lv, lok := n.L.(agca.Var)
				rv, rok := n.R.(agca.Var)
				switch {
				case lok && rok:
					if lv.Name == rv.Name {
						fs = append(fs[:i], fs[i+1:]...)
						changed = true
						break
					}
					victim, keeper, ok := chooseRename(lv.Name, rv.Name, protect, bound, func(v string) bool {
						return available(v, i)
					})
					if !ok {
						continue
					}
					fs = append(fs[:i], fs[i+1:]...)
					rename(victim, keeper)
					changed = true
				case lok && !rok:
					if c, isConst := n.R.(agca.Const); isConst && producesVar(fs, lv.Name, i) {
						fs[i] = agca.Lift{Var: lv.Name, E: c}
						changed = true
					}
				case rok && !lok:
					if c, isConst := n.L.(agca.Const); isConst && producesVar(fs, rv.Name, i) {
						fs[i] = agca.Lift{Var: rv.Name, E: c}
						changed = true
					}
				}
			}
			if changed {
				break
			}
		}
	}
	return UnifyResult{Factors: fs, Subst: subst}
}

// chooseRename picks which side of an equality a=b to rename away. The keeper
// must have a runtime value (hasValue) and an externally bound variable may
// never be the victim — renaming it away would detach the expression from the
// value the context supplies. Among valid choices, renaming an unprotected
// variable onto a protected one is preferred so that externally visible names
// survive where possible.
func chooseRename(a, b string, protect, bound agca.VarSet, hasValue func(string) bool) (victim, keeper string, ok bool) {
	aVictim := !bound[a]
	bVictim := !bound[b]
	aKeeper := hasValue(a)
	bKeeper := hasValue(b)
	switch {
	case aVictim && bVictim && aKeeper && bKeeper:
		// Both directions are legal; keep the protected one if exactly one is.
		if protect[b] && !protect[a] {
			return a, b, true
		}
		return b, a, true
	case bVictim && aKeeper:
		return b, a, true
	case aVictim && bKeeper:
		return a, b, true
	default:
		return "", "", false
	}
}

// producesVar reports whether some factor other than the one at position skip
// produces v as an output variable.
func producesVar(fs []agca.Expr, v string, skip int) bool {
	for i, f := range fs {
		if i == skip {
			continue
		}
		if agca.OutputVars(f, agca.VarSet{}).Contains(v) {
			return true
		}
	}
	return false
}

// mentions reports whether v occurs anywhere in e.
func mentions(e agca.Expr, v string) bool {
	found := false
	agca.Walk(e, func(x agca.Expr) {
		switch n := x.(type) {
		case agca.Var:
			found = found || n.Name == v
		case agca.Rel:
			found = found || slices.Contains(n.Vars, v)
		case agca.MapRef:
			found = found || slices.Contains(n.Keys, v)
		case agca.Lift:
			found = found || n.Var == v
		case agca.AggSum:
			found = found || slices.Contains(n.GroupBy, v)
		}
	})
	return found
}
