package opt

import (
	"dbtoaster/internal/agca"
)

// ExpandPolynomial rewrites e into a sum of multiplicative clauses
// ("monomials", paper §5.1 rule 2): products and group-by aggregations are
// distributed over additions so that every returned term is free of top-level
// Sum nodes — except value sums (see IsValueSum), which stay one factor of
// their monomial: l_price * (1 + -(0.01 * l_disc)) is one monomial, not two.
// A value sum's delta with respect to every relation is 0, so keeping it
// factored changes no delta; the monomial's statement or map simply carries
// the factored value term. Lift bodies (nested aggregates) are left untouched
// — they are opaque scalar values from the point of view of the outer
// polynomial.
func ExpandPolynomial(e agca.Expr) []agca.Expr {
	return expandTerms(e, true)
}

// ExpandFully is ExpandPolynomial without the value-sum exception: every
// monomial it returns is free of Sum factors.
func ExpandFully(e agca.Expr) []agca.Expr {
	return expandTerms(e, false)
}

func expandTerms(e agca.Expr, keepValueSums bool) []agca.Expr {
	terms := expand(e, keepValueSums)
	out := make([]agca.Expr, 0, len(terms))
	for _, t := range terms {
		t = Simplify(t)
		if agca.IsZero(t) {
			continue
		}
		out = append(out, t)
	}
	return out
}

// IsValueSum reports whether e is a value sum: a Sum that IsValue.
func IsValueSum(e agca.Expr) bool {
	_, ok := e.(agca.Sum)
	return ok && IsValue(e)
}

// IsValue reports whether e is a pure value: no relation atom, map reference
// or lift anywhere under it. Its value depends only on the variables it
// mentions, never on the database, and its delta is 0.
func IsValue(e agca.Expr) bool {
	pure := true
	agca.Walk(e, func(x agca.Expr) {
		switch x.(type) {
		case agca.Rel, agca.MapRef, agca.Lift:
			pure = false
		}
	})
	return pure
}

func expand(e agca.Expr, keepValueSums bool) []agca.Expr {
	switch n := e.(type) {
	case agca.Sum:
		if keepValueSums && IsValueSum(n) {
			return []agca.Expr{e}
		}
		var out []agca.Expr
		for _, t := range n.Terms {
			out = append(out, expand(t, keepValueSums)...)
		}
		return out
	case agca.Neg:
		inner := expand(n.E, keepValueSums)
		out := make([]agca.Expr, len(inner))
		for i, t := range inner {
			out[i] = agca.Neg{E: t}
		}
		return out
	case agca.Prod:
		// Cartesian product of the factor expansions, preserving order. Each
		// monomial is accumulated as a factor list (a Prod term contributes
		// its factors) and becomes one Prod at the end. A partial product
		// extended by several terms is cloned for all but the last of them,
		// so that the resulting monomials share no nodes.
		acc := [][]agca.Expr{{agca.One}}
		for _, f := range n.Factors {
			fTerms := expand(f, keepValueSums)
			next := make([][]agca.Expr, 0, len(acc)*len(fTerms))
			for _, a := range acc {
				for j, ft := range fTerms {
					tail := []agca.Expr{ft}
					if p, ok := ft.(agca.Prod); ok {
						tail = p.Factors
					}
					m := a
					if j < len(fTerms)-1 {
						m = make([]agca.Expr, len(a), len(a)+len(tail))
						for k, x := range a {
							m[k] = agca.Clone(x)
						}
					}
					next = append(next, append(m, tail...))
				}
			}
			acc = next
		}
		out := make([]agca.Expr, len(acc))
		for i, m := range acc {
			if len(m) == 1 {
				out[i] = m[0]
			} else {
				out[i] = agca.Prod{Factors: m}
			}
		}
		return out
	case agca.AggSum:
		inner := expand(n.E, keepValueSums)
		out := make([]agca.Expr, len(inner))
		for i, t := range inner {
			out[i] = agca.AggSum{GroupBy: append([]string(nil), n.GroupBy...), E: t}
		}
		return out
	default:
		return []agca.Expr{e}
	}
}

// Factors returns the multiplicative factors of a monomial: the factor list
// of a product, or the expression itself. A wrapping AggSum or Neg is peeled
// and reported through the other results; groupBy is nil exactly when there
// is no wrapping AggSum.
func Factors(e agca.Expr) (groupBy []string, negated bool, factors []agca.Expr) {
	cur := e
	for {
		switch n := cur.(type) {
		case agca.AggSum:
			if groupBy == nil {
				groupBy = append([]string{}, n.GroupBy...)
			}
			cur = n.E
			continue
		case agca.Neg:
			negated = !negated
			cur = n.E
			continue
		case agca.Prod:
			return groupBy, negated, n.Factors
		default:
			return groupBy, negated, []agca.Expr{cur}
		}
	}
}

// Rebuild reassembles a monomial from the pieces returned by Factors.
func Rebuild(groupBy []string, negated bool, factors []agca.Expr) agca.Expr {
	var e agca.Expr
	switch len(factors) {
	case 0:
		e = agca.One
	case 1:
		e = factors[0]
	default:
		e = agca.Prod{Factors: factors}
	}
	if negated {
		e = agca.Neg{E: e}
	}
	if groupBy != nil {
		e = agca.AggSum{GroupBy: groupBy, E: e}
	}
	return e
}
