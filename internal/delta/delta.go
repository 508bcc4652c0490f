// Package delta implements the delta transform of AGCA expressions
// (paper §3.4): for an update event u and a query Q it constructs the query
// ∆uQ with Q(D + u) = Q(D) + ∆uQ(D, u).
//
// The package focuses on single-tuple updates, whose deltas have the
// strongest optimization potential (paper §4): the insertion or deletion of
// one tuple into relation R replaces each R atom with a product of
// assignments binding the atom's variables to the trigger arguments.
package delta

import (
	"errors"
	"fmt"
	"sort"

	"dbtoaster/internal/agca"
)

// Event is a single-tuple update event: the insertion (Insert=true) or
// deletion of one tuple into/from Relation. Args names the trigger variables
// carrying the tuple's column values; there must be one per column of the
// relation's schema.
type Event struct {
	Relation string
	Insert   bool
	Args     []string
}

// String renders the event like "+R(x,y)" or "-R(x,y)".
func (e Event) String() string {
	sign := "+"
	if !e.Insert {
		sign = "-"
	}
	s := sign + e.Relation + "("
	for i, a := range e.Args {
		if i > 0 {
			s += ","
		}
		s += a
	}
	return s + ")"
}

// InsertEvent builds an insertion event.
func InsertEvent(rel string, args ...string) Event {
	return Event{Relation: rel, Insert: true, Args: args}
}

// TriggerArgs returns canonical trigger variable names for a relation with
// the given column names, e.g. orders.ORDERKEY -> "orders__orderkey_t".
func TriggerArgs(rel string, cols []string) []string {
	args := make([]string, len(cols))
	for i, c := range cols {
		args[i] = fmt.Sprintf("%s_%s_t", rel, c)
	}
	return args
}

// ErrNonIncremental reports that the expression contains a construct whose
// delta is not expressible in AGCA (division of aggregates, Exists over a
// changing subquery). Callers fall back to re-evaluation for such
// expressions, as the paper's compiler does.
var ErrNonIncremental = errors.New("delta: expression is not incrementally maintainable")

// Apply returns ∆event(e). The result still needs simplification (package
// opt); in particular products with the constant 0 are produced liberally.
// It returns ErrNonIncremental when e (restricted to the parts affected by
// the event) cannot be incrementalized.
func Apply(e agca.Expr, ev Event) (agca.Expr, error) {
	return deltaExpr(e, ev, nil)
}

// context is the chain of products an expression sits in: at each level the
// product's factors and the position of the one holding the expression.
type context struct {
	outer   *context
	factors []agca.Expr
	self    int
}

// binds reports whether the context binds v: some sibling factor of an
// enclosing product outputs it. A nested aggregate is correlated with the
// outer query exactly on the variables of its body that its context binds.
func (c *context) binds(v string) bool {
	for ; c != nil; c = c.outer {
		for i, f := range c.factors {
			if i != c.self && agca.OutputVars(f, agca.VarSet{}).Contains(v) {
				return true
			}
		}
	}
	return false
}

// deltaExpr computes ∆ev(e) for an expression in the context outer.
func deltaExpr(e agca.Expr, ev Event, outer *context) (agca.Expr, error) {
	switch n := e.(type) {
	case agca.Const, agca.Var, agca.Cmp, agca.Func, agca.MapRef:
		return agca.Zero, nil

	case agca.Rel:
		if n.Name != ev.Relation {
			return agca.Zero, nil
		}
		if len(n.Vars) != len(ev.Args) {
			return nil, fmt.Errorf("delta: relation %s has %d columns but event carries %d arguments",
				n.Name, len(n.Vars), len(ev.Args))
		}
		factors := make([]agca.Expr, 0, len(n.Vars))
		for i, v := range n.Vars {
			factors = append(factors, agca.Lift{Var: v, E: agca.Var{Name: ev.Args[i]}})
		}
		var out agca.Expr = agca.Mul(factors...)
		if len(factors) == 0 {
			out = agca.One
		}
		if !ev.Insert {
			out = agca.Neg{E: out}
		}
		return out, nil

	case agca.Neg:
		d, err := deltaExpr(n.E, ev, outer)
		if err != nil {
			return nil, err
		}
		return agca.Neg{E: d}, nil

	case agca.Sum:
		terms := make([]agca.Expr, 0, len(n.Terms))
		for _, t := range n.Terms {
			d, err := deltaExpr(t, ev, outer)
			if err != nil {
				return nil, err
			}
			terms = append(terms, d)
		}
		return agca.Add(terms...), nil

	case agca.Prod:
		return deltaProd(n.Factors, ev, outer)

	case agca.AggSum:
		d, err := deltaExpr(n.E, ev, outer)
		if err != nil {
			return nil, err
		}
		return agca.AggSum{GroupBy: append([]string(nil), n.GroupBy...), E: d}, nil

	case agca.Lift:
		if !agca.UsesRelation(n.E, ev.Relation) {
			return agca.Zero, nil
		}
		d, err := deltaExpr(n.E, ev, outer)
		if err != nil {
			return nil, err
		}
		// ∆(x := Q) = Dom(∆Q) * ((x := Q + ∆Q) − (x := Q)): the two lifts
		// cancel wherever ∆Q is empty, so the delta is restricted to the slice
		// of correlation bindings ∆Q imposes. Unification then turns the outer
		// query's scan into a probe of that slice. Only correlation variables
		// may be bound out here; the nested query's own variables stay inside.
		newLift := agca.Lift{Var: n.Var, E: agca.Add(agca.Clone(n.E), d)}
		oldLift := agca.Lift{Var: n.Var, E: agca.Clone(n.E)}
		dom, _ := domain(d, ev)
		var slice []string
		for v := range dom {
			if outer.binds(v) {
				slice = append(slice, v)
			}
		}
		sort.Strings(slice)
		factors := make([]agca.Expr, 0, len(slice)+1)
		for _, v := range slice {
			factors = append(factors, agca.Lift{Var: v, E: agca.Var{Name: dom[v]}})
		}
		return agca.Mul(append(factors, agca.Subtract(newLift, oldLift))...), nil

	case agca.Exists:
		if !agca.UsesRelation(n.E, ev.Relation) {
			return agca.Zero, nil
		}
		return nil, ErrNonIncremental

	case agca.Div:
		if !agca.UsesRelation(n.L, ev.Relation) && !agca.UsesRelation(n.R, ev.Relation) {
			return agca.Zero, nil
		}
		return nil, ErrNonIncremental

	default:
		return nil, fmt.Errorf("delta: unknown expression node %T", e)
	}
}

// deltaProd applies the product rule
// ∆(Q1*Q2) = ∆Q1*Q2 + Q1*∆Q2 + ∆Q1*∆Q2, folded over the factor list. Each
// factor's delta has its siblings as context.
func deltaProd(factors []agca.Expr, ev Event, outer *context) (agca.Expr, error) {
	deltas := make([]agca.Expr, len(factors))
	ctx := &context{outer: outer, factors: factors}
	for i, f := range factors {
		ctx.self = i
		d, err := deltaExpr(f, ev, ctx)
		if err != nil {
			return nil, err
		}
		deltas[i] = d
	}
	return foldProductRule(factors, deltas), nil
}

func foldProductRule(factors, deltas []agca.Expr) agca.Expr {
	if len(factors) == 0 {
		return agca.Zero
	}
	if len(factors) == 1 {
		return deltas[0]
	}
	head, dHead := factors[0], deltas[0]
	rest := factors[1:]
	restExpr := agca.Mul(append([]agca.Expr(nil), rest...)...)
	dRest := foldProductRule(rest, deltas[1:])

	var terms []agca.Expr
	if !agca.IsZero(dHead) {
		terms = append(terms, agca.Mul(dHead, agca.Clone(restExpr)))
	}
	if !agca.IsZero(dRest) {
		terms = append(terms, agca.Mul(agca.Clone(head), dRest))
	}
	if !agca.IsZero(dHead) && !agca.IsZero(dRest) {
		terms = append(terms, agca.Mul(agca.Clone(dHead), agca.Clone(dRest)))
	}
	if len(terms) == 0 {
		return agca.Zero
	}
	return agca.Add(terms...)
}

// domain returns the bindings (v := trigger argument) that every non-zero
// term of the delta query d multiplies in, as a map from v to the argument;
// zero reports that d is identically zero (it then imposes every binding).
func domain(d agca.Expr, ev Event) (dom map[string]string, zero bool) {
	switch n := d.(type) {
	case agca.Const:
		return nil, agca.IsZero(n)
	case agca.Lift:
		if a, ok := n.E.(agca.Var); ok {
			for _, arg := range ev.Args {
				if arg == a.Name {
					return map[string]string{n.Var: arg}, false
				}
			}
		}
		return nil, false
	case agca.Neg:
		return domain(n.E, ev)
	case agca.AggSum:
		return domain(n.E, ev)
	case agca.Prod:
		dom = map[string]string{}
		for _, f := range n.Factors {
			fd, fz := domain(f, ev)
			if fz {
				return nil, true
			}
			for v, a := range fd {
				dom[v] = a
			}
		}
		return dom, false
	case agca.Sum:
		zero = true
		for _, t := range n.Terms {
			td, tz := domain(t, ev)
			if tz {
				continue
			}
			if zero {
				dom, zero = td, false
				continue
			}
			for v, a := range dom {
				if td[v] != a {
					delete(dom, v)
				}
			}
		}
		return dom, zero
	default:
		return nil, false
	}
}
