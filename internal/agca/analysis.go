package agca

import (
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
// matches the schema produced by Eval.
func OutputVars(e Expr, bound VarSet) types.Schema {
	out, _ := binding(e, bound)
	return out
}

// InputVars returns the input variables (parameters) of e: variables that
// must be bound by the context for e to be evaluable, beyond those in bound.
func InputVars(e Expr, bound VarSet) VarSet {
	_, in := binding(e, bound)
	return in
}

// binding computes output and input variables simultaneously.
func binding(e Expr, bound VarSet) (types.Schema, VarSet) {
	in := VarSet{}
	switch n := e.(type) {
	case Const:
		return nil, in
	case Var:
		if !bound[n.Name] {
			in[n.Name] = true
		}
		return nil, in
	case Rel:
		return dedupSchema(n.Vars), in
	case MapRef:
		return dedupSchema(n.Keys), in
	case Neg:
		return binding(n.E, bound)
	case Exists:
		return binding(n.E, bound)
	case Cmp:
		collectScalarInputs(n.L, bound, in)
		collectScalarInputs(n.R, bound, in)
		return nil, in
	case Div:
		collectScalarInputs(n.L, bound, in)
		collectScalarInputs(n.R, bound, in)
		return nil, in
	case Func:
		for _, a := range n.Args {
			collectScalarInputs(a, bound, in)
		}
		return nil, in
	case Lift:
		_, ein := binding(n.E, bound)
		for k := range ein {
			in[k] = true
		}
		return types.Schema{n.Var}, in
	case AggSum:
		innerOut, innerIn := binding(n.E, bound)
		for k := range innerIn {
			in[k] = true
		}
		// Group-by variables must be produced by the inner expression; any
		// that are not are parameters.
		out := make(types.Schema, 0, len(n.GroupBy))
		for _, g := range n.GroupBy {
			out = append(out, g)
			if !innerOut.Contains(g) && !bound[g] {
				in[g] = true
			}
		}
		return out, in
	case Sum:
		var out types.Schema
		for _, t := range n.Terms {
			tOut, tIn := binding(t, bound)
			for k := range tIn {
				in[k] = true
			}
			for _, v := range tOut {
				if !out.Contains(v) {
					out = append(out, v)
				}
			}
		}
		return out, in
	case Prod:
		cur := bound.Clone()
		var out types.Schema
		for _, f := range n.Factors {
			fOut, fIn := binding(f, cur)
			for k := range fIn {
				if !cur[k] {
					in[k] = true
				}
			}
			for _, v := range fOut {
				if !out.Contains(v) {
					out = append(out, v)
				}
				cur[v] = true
			}
		}
		return out, in
	default:
		return nil, in
	}
}

// collectScalarInputs gathers the unbound variables of a scalar operand.
func collectScalarInputs(e Expr, bound VarSet, into VarSet) {
	out, in := binding(e, bound)
	for k := range in {
		into[k] = true
	}
	// A nullary subquery in scalar position contributes its (lack of)
	// outputs; output variables of a scalar operand would be a compile-time
	// error detected later, not an input.
	_ = out
}

func dedupSchema(vars []string) types.Schema {
	out := make(types.Schema, 0, len(vars))
	for _, v := range vars {
		if !out.Contains(v) {
			out = append(out, v)
		}
	}
	return out
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
