package agca

import (
	"slices"
	"sort"

	"dbtoaster/internal/types"
)

// VarSet is a set of variable names.
type VarSet map[string]bool

// NewVarSet builds a set from names.
func NewVarSet(names ...string) VarSet {
	s := make(VarSet, len(names))
	for _, n := range names {
		s[n] = true
	}
	return s
}

// Clone copies the set.
func (s VarSet) Clone() VarSet {
	out := make(VarSet, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

// AddAll inserts every name of the schema into the set.
func (s VarSet) AddAll(names []string) {
	for _, n := range names {
		s[n] = true
	}
}

// Sorted returns the members in sorted order.
func (s VarSet) Sorted() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// OutputVars returns the output variables (the result schema) of e when the
// variables in bound are provided by the evaluation context. The order
// matches the schema produced by Eval; it does not depend on bound.
func OutputVars(e Expr, bound VarSet) types.Schema {
	var buf, scope [16]string
	b := binder{outputsOnly: true}
	out := b.outputs(e, buf[:0], scope[:0])
	if len(out) == 0 {
		return emptySchema(e)
	}
	return slices.Clone(out)
}

// InputVars returns the input variables (parameters) of e: variables that
// must be bound by the context for e to be evaluable, beyond those in bound.
// It is nil when there are none.
func InputVars(e Expr, bound VarSet) VarSet {
	var buf, scope [16]string
	b := binder{bound: bound}
	b.outputs(e, buf[:0], scope[:0])
	return b.in
}

// binder is the state of one walk of the binding analysis: the caller's
// bound set and the inputs found so far, a set allocated when the first
// appears (never, when only outputs are asked for). The outputs of every
// sub-expression are appended to one buffer and truncated away once their
// parent has used them.
type binder struct {
	bound       VarSet
	in          VarSet
	outputsOnly bool
}

// input records v as an input unless the context or scope binds it.
func (b *binder) input(v string, scope []string) {
	if b.outputsOnly || b.bound[v] || slices.Contains(scope, v) {
		return
	}
	if b.in == nil {
		b.in = VarSet{}
	}
	b.in[v] = true
}

// outputs appends the output variables of e to buf, in schema order, and
// records the inputs of e. scope holds the variables that earlier factors of
// the enclosing products bind; a product extends its own copy factor by
// factor. Scalar operands contribute inputs only.
func (b *binder) outputs(e Expr, buf types.Schema, scope []string) types.Schema {
	start := len(buf)
	switch n := e.(type) {
	case Var:
		b.input(n.Name, scope)
	case Rel:
		buf = appendNew(append(buf, n.Vars...), start, start)
	case MapRef:
		buf = appendNew(append(buf, n.Keys...), start, start)
	case Neg:
		buf = b.outputs(n.E, buf, scope)
	case Exists:
		buf = b.outputs(n.E, buf, scope)
	case Cmp:
		buf = b.outputs(n.R, b.outputs(n.L, buf, scope)[:start], scope)[:start]
	case Div:
		buf = b.outputs(n.R, b.outputs(n.L, buf, scope)[:start], scope)[:start]
	case Func:
		for _, a := range n.Args {
			buf = b.outputs(a, buf, scope)[:start]
		}
	case Lift:
		buf = append(b.outputs(n.E, buf, scope)[:start], n.Var)
	case AggSum:
		// Group-by variables must be produced by the inner expression; any
		// that are not are parameters.
		buf = b.outputs(n.E, buf, scope)
		for _, g := range n.GroupBy {
			if !slices.Contains(buf[start:], g) {
				b.input(g, scope)
			}
		}
		buf = append(buf[:start], n.GroupBy...)
	case Sum:
		for _, t := range n.Terms {
			from := len(buf)
			buf = appendNew(b.outputs(t, buf, scope), start, from)
		}
	case Prod:
		for _, f := range n.Factors {
			from := len(buf)
			buf = b.outputs(f, buf, scope)
			scope = append(scope, buf[from:]...)
			buf = appendNew(buf, start, from)
		}
	}
	return buf
}

// appendNew keeps, of buf[from:], the variables that buf[start:] does not
// already hold before them, in order.
func appendNew(buf types.Schema, start, from int) types.Schema {
	w := from
	for _, v := range buf[from:] {
		if !slices.Contains(buf[start:w], v) {
			buf[w] = v
			w++
		}
	}
	return buf[:w]
}

// emptySchema is the schema OutputVars reports for an e without outputs: an
// atom or an aggregation (under any negation or existence test) has an
// empty, non-nil schema; every other expression has none.
func emptySchema(e Expr) types.Schema {
	switch n := e.(type) {
	case Neg:
		return emptySchema(n.E)
	case Exists:
		return emptySchema(n.E)
	case Rel, MapRef, AggSum:
		return types.Schema{}
	}
	return nil
}

// AllVars returns every variable mentioned anywhere in e.
func AllVars(e Expr) VarSet {
	s := VarSet{}
	Walk(e, func(x Expr) {
		switch n := x.(type) {
		case Var:
			s[n.Name] = true
		case Rel:
			s.AddAll(n.Vars)
		case MapRef:
			s.AddAll(n.Keys)
		case Lift:
			s[n.Var] = true
		case AggSum:
			s.AddAll(n.GroupBy)
		}
	})
	return s
}

// Relations returns the names of base relations referenced by e, in sorted
// order without duplicates.
func Relations(e Expr) []string {
	set := map[string]bool{}
	Walk(e, func(x Expr) {
		if r, ok := x.(Rel); ok {
			set[r.Name] = true
		}
	})
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// MapRefs returns the names of materialized views referenced by e.
func MapRefs(e Expr) []string {
	set := map[string]bool{}
	Walk(e, func(x Expr) {
		if r, ok := x.(MapRef); ok {
			set[r.Name] = true
		}
	})
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// UsesRelation reports whether e references the base relation name.
func UsesRelation(e Expr, name string) bool {
	found := false
	Walk(e, func(x Expr) {
		if r, ok := x.(Rel); ok && r.Name == name {
			found = true
		}
	})
	return found
}

// HasRelOrMap reports whether e contains any relation atom or map reference.
func HasRelOrMap(e Expr) bool {
	found := false
	Walk(e, func(x Expr) {
		switch x.(type) {
		case Rel, MapRef:
			found = true
		}
	})
	return found
}

// HasNestedAggregate reports whether e contains a Lift whose body references
// a relation or map (a nested aggregate subquery in the paper's sense).
func HasNestedAggregate(e Expr) bool {
	found := false
	Walk(e, func(x Expr) {
		if l, ok := x.(Lift); ok && HasRelOrMap(l.E) {
			found = true
		}
	})
	return found
}

// Degree returns the degree of the query (paper §4): the maximum number of
// base-relation atoms multiplied together in any union-free clause. Nested
// aggregates count through their bodies.
func Degree(e Expr) int {
	switch n := e.(type) {
	case Rel:
		return 1
	case MapRef, Const, Var, Cmp, Func:
		return 0
	case Div:
		d := Degree(n.L)
		if dr := Degree(n.R); dr > d {
			d = dr
		}
		return d
	case Neg:
		return Degree(n.E)
	case Exists:
		return Degree(n.E)
	case Lift:
		return Degree(n.E)
	case AggSum:
		return Degree(n.E)
	case Sum:
		max := 0
		for _, t := range n.Terms {
			if d := Degree(t); d > max {
				max = d
			}
		}
		return max
	case Prod:
		total := 0
		for _, f := range n.Factors {
			total += Degree(f)
		}
		return total
	default:
		return 0
	}
}

// Walk calls fn for e and every sub-expression, pre-order.
func Walk(e Expr, fn func(Expr)) {
	fn(e)
	switch n := e.(type) {
	case Sum:
		for _, t := range n.Terms {
			Walk(t, fn)
		}
	case Prod:
		for _, f := range n.Factors {
			Walk(f, fn)
		}
	case Neg:
		Walk(n.E, fn)
	case Exists:
		Walk(n.E, fn)
	case Cmp:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case Div:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case Func:
		for _, a := range n.Args {
			Walk(a, fn)
		}
	case Lift:
		Walk(n.E, fn)
	case AggSum:
		Walk(n.E, fn)
	}
}

// Transform rebuilds e bottom-up, replacing every node x with fn(x) after its
// children have been transformed. fn may return its argument unchanged.
func Transform(e Expr, fn func(Expr) Expr) Expr {
	switch n := e.(type) {
	case Sum:
		terms := make([]Expr, len(n.Terms))
		for i, t := range n.Terms {
			terms[i] = Transform(t, fn)
		}
		return fn(Sum{Terms: terms})
	case Prod:
		factors := make([]Expr, len(n.Factors))
		for i, f := range n.Factors {
			factors[i] = Transform(f, fn)
		}
		return fn(Prod{Factors: factors})
	case Neg:
		return fn(Neg{E: Transform(n.E, fn)})
	case Exists:
		return fn(Exists{E: Transform(n.E, fn)})
	case Cmp:
		return fn(Cmp{Op: n.Op, L: Transform(n.L, fn), R: Transform(n.R, fn)})
	case Div:
		return fn(Div{L: Transform(n.L, fn), R: Transform(n.R, fn)})
	case Func:
		args := make([]Expr, len(n.Args))
		for i, a := range n.Args {
			args[i] = Transform(a, fn)
		}
		return fn(Func{Name: n.Name, Args: args})
	case Lift:
		return fn(Lift{Var: n.Var, E: Transform(n.E, fn)})
	case AggSum:
		return fn(AggSum{GroupBy: append([]string(nil), n.GroupBy...), E: Transform(n.E, fn)})
	default:
		return fn(e)
	}
}

// RenameVars returns e with every variable occurrence renamed through subst
// (names absent from subst are unchanged). Lift-bound variables and group-by
// variables are renamed too, so the substitution must be capture-free.
func RenameVars(e Expr, subst map[string]string) Expr {
	ren := func(name string) string {
		if n, ok := subst[name]; ok {
			return n
		}
		return name
	}
	return Transform(e, func(x Expr) Expr {
		switch n := x.(type) {
		case Var:
			return Var{Name: ren(n.Name)}
		case Rel:
			vars := make([]string, len(n.Vars))
			for i, v := range n.Vars {
				vars[i] = ren(v)
			}
			return Rel{Name: n.Name, Vars: vars}
		case MapRef:
			keys := make([]string, len(n.Keys))
			for i, v := range n.Keys {
				keys[i] = ren(v)
			}
			return MapRef{Name: n.Name, Keys: keys}
		case Lift:
			return Lift{Var: ren(n.Var), E: n.E}
		case AggSum:
			gb := make([]string, len(n.GroupBy))
			for i, v := range n.GroupBy {
				gb[i] = ren(v)
			}
			return AggSum{GroupBy: gb, E: n.E}
		default:
			return x
		}
	})
}

// Clone returns a deep copy of e.
func Clone(e Expr) Expr {
	return Transform(e, func(x Expr) Expr { return x })
}
