package opt

import (
	"dbtoaster/internal/agca"
)

// ExpandPolynomial rewrites e into a sum of multiplicative clauses
// ("monomials", paper §5.1 rule 2): products and group-by aggregations are
// distributed over additions so that every returned term is free of top-level
// Sum nodes. Lift bodies (nested aggregates) are left untouched — they are
// opaque scalar values from the point of view of the outer polynomial.
func ExpandPolynomial(e agca.Expr) []agca.Expr {
	terms := expand(e)
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

func expand(e agca.Expr) []agca.Expr {
	switch n := e.(type) {
	case agca.Sum:
		var out []agca.Expr
		for _, t := range n.Terms {
			out = append(out, expand(t)...)
		}
		return out
	case agca.Neg:
		inner := expand(n.E)
		out := make([]agca.Expr, len(inner))
		for i, t := range inner {
			out[i] = agca.Neg{E: t}
		}
		return out
	case agca.Prod:
		// Cartesian product of the factor expansions, preserving order.
		acc := []agca.Expr{agca.One}
		for _, f := range n.Factors {
			fTerms := expand(f)
			var next []agca.Expr
			for _, a := range acc {
				for _, ft := range fTerms {
					next = append(next, agca.Mul(agca.Clone(a), ft))
				}
			}
			acc = next
		}
		return acc
	case agca.AggSum:
		inner := expand(n.E)
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
// and reported through the returned callbacks.
func Factors(e agca.Expr) (groupBy []string, negated bool, factors []agca.Expr) {
	cur := e
	for {
		switch n := cur.(type) {
		case agca.AggSum:
			if groupBy == nil {
				groupBy = append([]string(nil), n.GroupBy...)
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
