package compiler

import (
	"fmt"
	"slices"
	"sort"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/delta"
	"dbtoaster/internal/opt"
	"dbtoaster/internal/trigger"
)

// emitIncremental compiles one monomial of a delta query into an incremental
// update statement ("foreach keys: M[keys] += RHS"), materializing the
// monomial's relational pieces as auxiliary views according to the heuristics
// of paper §5.1.
func (c *compileState) emitIncremental(def *trigger.MapDef, ev delta.Event, monomial agca.Expr) error {
	gb, neg, factors := opt.Factors(monomial)
	argSet := agca.NewVarSet(ev.Args...)
	protect := agca.NewVarSet(def.Keys...)
	protect.AddAll(gb)

	targetKeys := append([]string(nil), def.Keys...)
	if c.opts.Mode != ModeNaive {
		// Unification / range-restriction extraction: trigger arguments and
		// join equalities are propagated; the substitution is applied to the
		// statement's target keys and group-by list so that loops over
		// variables fixed by the update are eliminated.
		ures := opt.UnifyMonomial(factors, protect, argSet)
		factors = ures.Factors
		targetKeys = ures.ApplyToAll(targetKeys)
		gb = ures.ApplyToAll(gb)
	}
	if gb == nil {
		// A map defined without an aggregation (M1[a] := R(a, a)) groups
		// by its keys; an empty group-by would project the keys away.
		gb = targetKeys
	}
	if !c.valueSumsStayWhole(factors, argSet) {
		for _, m := range opt.ExpandFully(monomial) {
			if err := c.emitIncremental(def, ev, m); err != nil {
				return err
			}
		}
		return nil
	}

	needed := agca.NewVarSet(targetKeys...)
	needed.AddAll(gb)

	newFactors, err := c.materializeFactors(factors, argSet, needed, def.Depth)
	if err != nil {
		return err
	}

	// Group-by variables that were unified onto trigger arguments are no
	// longer produced by the right-hand side: their value is fixed by the
	// update, so they are dropped from the aggregation (the statement's
	// target key picks them up from the trigger environment instead).
	gb, err = filterGroupBy(gb, newFactors, argSet)
	if err != nil {
		return fmt.Errorf("statement for %s: %w", def.Name, err)
	}

	rhs := opt.Rebuild(dedupStrings(gb), neg, newFactors)
	rhs = opt.Simplify(rhs)
	if agca.IsZero(rhs) {
		return nil // e.g. a self-comparison {t < t} left by unification
	}
	rhs = opt.Factorize(rhs, argSet, targetKeys)
	rhs = opt.NormalizeOrder(rhs, argSet)

	// Every target key must have a value at execution time: either a trigger
	// argument or an output column of the right-hand side.
	outs := agca.OutputVars(rhs, argSet)
	for _, k := range targetKeys {
		if !argSet[k] && !outs.Contains(k) {
			return fmt.Errorf("statement for %s loses key variable %q (rhs %s)", def.Name, k, agca.String(rhs))
		}
	}

	c.addStatement(ev, trigger.Statement{
		TargetMap:  def.Name,
		TargetKeys: targetKeys,
		Kind:       trigger.StmtIncrement,
		RHS:        rhs,
		Depth:      def.Depth,
	})
	return nil
}

// emitReevaluation compiles a full-recomputation statement "M := RHS" for the
// given event (the paper's re-evaluation strategy / Generalized HO-IVM). The
// right-hand side is the map's definition rewritten over materialized pieces;
// in REP mode the pieces are simply the base tables.
func (c *compileState) emitReevaluation(def *trigger.MapDef, ev delta.Event) error {
	var rhs agca.Expr
	var err error
	if c.overBaseTables() {
		rhs, err = c.inlineBaseTables(def.Definition)
	} else {
		rhs, err = c.materializeQueryExpr(def.Definition, def.Keys, agca.VarSet{}, def.Depth)
	}
	if err != nil {
		return err
	}
	rhs = opt.Simplify(rhs)
	rhs = opt.Factorize(rhs, agca.VarSet{}, def.Keys)
	rhs = opt.NormalizeOrder(rhs, agca.VarSet{})
	c.addStatement(ev, trigger.Statement{
		TargetMap:  def.Name,
		TargetKeys: append([]string(nil), def.Keys...),
		Kind:       trigger.StmtReplace,
		RHS:        rhs,
		Depth:      def.Depth,
	})
	return nil
}

// overBaseTables reports whether the mode evaluates every expression over
// materialized base tables: REP and IVM materialize no auxiliary maps, so
// the only maps they keep are the query results and the base tables.
func (c *compileState) overBaseTables() bool {
	return c.opts.Mode == ModeREP || c.opts.Mode == ModeIVM
}

// materializeQueryExpr rewrites an arbitrary expression (a map definition
// being re-evaluated, a nested-aggregate body, or one side of a division)
// over materialized views. extraBound lists variables bound by the enclosing
// context at runtime (trigger arguments, correlation variables); protectKeys
// lists output variables that must survive with their original names.
func (c *compileState) materializeQueryExpr(e agca.Expr, protectKeys []string, extraBound agca.VarSet, depth int) (agca.Expr, error) {
	if c.overBaseTables() {
		return c.inlineBaseTables(e)
	}
	corr := agca.InputVars(e, extraBound)
	bound := extraBound.Clone()
	for v := range corr {
		bound[v] = true
	}
	protect := agca.NewVarSet(protectKeys...)
	for v := range corr {
		protect[v] = true
	}

	pending := c.expand(e)
	if len(pending) == 0 {
		return agca.Zero, nil
	}
	terms := make([]agca.Expr, 0, len(pending))
	for len(pending) > 0 {
		m := pending[0]
		pending = pending[1:]
		gb, neg, factors := opt.Factors(m)
		localProtect := protect.Clone()
		localProtect.AddAll(gb)

		ures := opt.UnifyMonomial(factors, localProtect, bound)
		factors = ures.Factors
		if !c.valueSumsStayWhole(factors, bound) {
			pending = append(opt.ExpandFully(m), pending...)
			continue
		}
		gb = ures.ApplyToAll(gb)

		// Output variables that were unified away but are required by the
		// caller (protectKeys) are restored with explicit assignments so that
		// every monomial of the rewritten expression exposes the same schema.
		// restore[i] is what protectKeys[i] was renamed to ("" if it kept its
		// name, or repeats an earlier key); walking it in protectKeys order
		// keeps the statement independent of map iteration order.
		restore := make([]string, len(protectKeys))
		for i, k := range protectKeys {
			if to := ures.ApplyTo(k); to != k && !slices.Contains(protectKeys[:i], k) {
				restore[i] = to
			}
		}

		needed := agca.NewVarSet(protectKeys...)
		needed.AddAll(gb)
		for v := range corr {
			needed[v] = true
		}
		for _, to := range restore {
			if to != "" {
				needed[to] = true
			}
		}

		newFactors, err := c.materializeFactors(factors, bound, needed, depth)
		if err != nil {
			return nil, err
		}
		for i, to := range restore {
			if to != "" {
				newFactors = append(newFactors, agca.Lift{Var: protectKeys[i], E: agca.Var{Name: to}})
			}
		}
		for i, g := range gb {
			if j := slices.Index(restore, g); j >= 0 {
				gb[i] = protectKeys[j]
			}
		}
		gb, err = filterGroupBy(gb, newFactors, bound)
		if err != nil {
			return nil, err
		}
		terms = append(terms, opt.Rebuild(dedupStrings(gb), neg, newFactors))
	}
	return opt.Simplify(agca.Add(terms...)), nil
}

// filterGroupBy drops group-by variables that no factor produces, provided
// they are bound at runtime (trigger arguments or correlation parameters); an
// unproduced, unbound group-by variable is a compilation error.
func filterGroupBy(gb []string, factors []agca.Expr, bound agca.VarSet) ([]string, error) {
	if len(gb) == 0 {
		return gb, nil
	}
	produced := agca.OutputVars(agca.Mul(append([]agca.Expr(nil), factors...)...), bound)
	out := make([]string, 0, len(gb))
	for _, g := range gb {
		if produced.Contains(g) {
			out = append(out, g)
			continue
		}
		if !bound[g] {
			return nil, fmt.Errorf("group-by variable %q is neither produced nor bound", g)
		}
	}
	return out, nil
}

// materializeFactors implements the materialization decision for the factors
// of one monomial: relational factors are grouped into join-graph components
// (query decomposition), each component becomes — or reuses — an auxiliary
// map, nested aggregates and divisions are materialized recursively, and
// value factors (comparisons, variables, constants) stay inline.
func (c *compileState) materializeFactors(factors []agca.Expr, bound, needed agca.VarSet, depth int) ([]agca.Expr, error) {
	if c.overBaseTables() {
		out := make([]agca.Expr, len(factors))
		for i, f := range factors {
			inl, err := c.inlineBaseTables(f)
			if err != nil {
				return nil, err
			}
			out[i] = inl
		}
		return out, nil
	}

	type class int
	const (
		classValue class = iota
		classAtom        // Rel eligible for component materialization
		classSpecial
	)

	// Output variables each factor produces; a nested subexpression (lift
	// body, division operand) that mentions a variable produced by a sibling
	// factor or bound by the trigger is *correlated* on that variable, and the
	// correlation variables act as bound parameters when the nested piece is
	// materialized — they become the keys of the auxiliary view (the paper's
	// decorrelation of equality-correlated nested aggregates).
	factorOuts := make([]agca.VarSet, len(factors))
	for i, f := range factors {
		factorOuts[i] = agca.NewVarSet(agca.OutputVars(f, agca.VarSet{})...)
	}
	boundFor := func(i int, sub agca.Expr) agca.VarSet {
		local := bound.Clone()
		vars := agca.AllVars(sub)
		for j, outs := range factorOuts {
			if j == i {
				continue
			}
			for v := range outs {
				if vars[v] {
					local[v] = true
				}
			}
		}
		return local
	}

	classes := make([]class, len(factors))
	specials := make([]agca.Expr, len(factors))
	for i, f := range factors {
		switch n := f.(type) {
		case agca.Rel:
			classes[i] = classAtom
		case agca.MapRef:
			classes[i] = classValue // already materialized
		case agca.Lift:
			if agca.HasRelOrMap(n.E) {
				body, err := c.materializeQueryExpr(n.E, nil, boundFor(i, n.E), depth+1)
				if err != nil {
					return nil, err
				}
				classes[i] = classSpecial
				specials[i] = agca.Lift{Var: n.Var, E: body}
			} else {
				classes[i] = classValue
			}
		case agca.Div:
			if agca.HasRelOrMap(n.L) || agca.HasRelOrMap(n.R) {
				l, err := c.materializeQueryExpr(n.L, nil, boundFor(i, n.L), depth+1)
				if err != nil {
					return nil, err
				}
				r, err := c.materializeQueryExpr(n.R, nil, boundFor(i, n.R), depth+1)
				if err != nil {
					return nil, err
				}
				classes[i] = classSpecial
				specials[i] = agca.Div{L: l, R: r}
			} else {
				classes[i] = classValue
			}
		case agca.Exists:
			if agca.HasRelOrMap(n.E) {
				outs := agca.OutputVars(n.E, agca.VarSet{})
				body, err := c.materializeQueryExpr(n.E, outs, boundFor(i, n.E), depth+1)
				if err != nil {
					return nil, err
				}
				classes[i] = classSpecial
				specials[i] = agca.Exists{E: body}
			} else {
				classes[i] = classValue
			}
		case agca.AggSum, agca.Sum, agca.Prod, agca.Neg:
			if agca.HasRelOrMap(f) {
				outs := agca.OutputVars(f, bound)
				body, err := c.materializeQueryExpr(f, outs, boundFor(i, f), depth+1)
				if err != nil {
					return nil, err
				}
				classes[i] = classSpecial
				specials[i] = body
			} else {
				classes[i] = classValue
			}
		default:
			classes[i] = classValue
		}
	}

	rootOf := c.joinComponents(factors, bound)
	components := map[int][]int{}     // component root -> its atoms
	compOuts := map[int]agca.VarSet{} // component root -> their outputs
	for i := range factors {
		if r, ok := rootOf[i]; ok {
			components[r] = append(components[r], i)
			if compOuts[r] == nil {
				compOuts[r] = agca.VarSet{}
			}
			for v := range factorOuts[i] {
				compOuts[r][v] = true
			}
		}
	}

	// Attach value factors whose variables are fully produced by a single
	// component and involve no bound variables: filters and per-tuple value
	// terms are pushed into the materialized view (predicate/aggregate
	// push-down).
	attached := map[int]int{} // value factor index -> component root
	if c.opts.Mode != ModeNaive {
		for i, cl := range classes {
			if cl != classValue {
				continue
			}
			if _, isMapRef := factors[i].(agca.MapRef); isMapRef {
				continue
			}
			vars := agca.AllVars(factors[i])
			if len(vars) == 0 {
				continue
			}
			usesBound := false
			for v := range vars {
				if bound[v] {
					usesBound = true
					break
				}
			}
			if usesBound {
				continue
			}
			owner, count := -1, 0
			for root, outs := range compOuts {
				all := true
				for v := range vars {
					if !outs[v] {
						all = false
						break
					}
				}
				if all {
					owner = root
					count++
				}
			}
			if count == 1 {
				attached[i] = owner
			}
		}
	}

	// Variables used outside each component (by other components, by
	// unattached value factors, by specials, or required by the caller)
	// become that component's key variables.
	varUsers := map[string]map[int]bool{} // var -> set of component roots / -1 for "outside"
	noteUse := func(v string, who int) {
		if varUsers[v] == nil {
			varUsers[v] = map[int]bool{}
		}
		varUsers[v][who] = true
	}
	for root, outs := range compOuts {
		for v := range outs {
			noteUse(v, root)
		}
	}
	for i, cl := range classes {
		if cl == classAtom {
			continue
		}
		owner := -1
		if root, ok := attached[i]; ok {
			owner = root
		}
		f := factors[i]
		if cl == classSpecial {
			f = specials[i]
		}
		for v := range agca.AllVars(f) {
			noteUse(v, owner)
		}
	}

	out := make([]agca.Expr, 0, len(factors))
	emittedComponent := map[int]bool{}
	for i, f := range factors {
		switch classes[i] {
		case classValue:
			if _, isAttached := attached[i]; isAttached {
				continue // folded into its component's definition
			}
			out = append(out, f)
		case classSpecial:
			out = append(out, specials[i])
		case classAtom:
			root := rootOf[i]
			if emittedComponent[root] {
				continue
			}
			emittedComponent[root] = true
			members := components[root]
			ref, err := c.materializeComponent(factors, members, attached, root, bound, needed, varUsers, depth)
			if err != nil {
				return nil, err
			}
			out = append(out, ref)
		}
	}
	return out, nil
}

// joinComponents groups the relation atoms among factors into connected
// components of the join graph and returns each atom's component root, keyed
// by factor position. Bound variables (trigger arguments, correlation
// variables) are cut points: sharing only a bound variable does not connect
// two atoms, which is what lets the paper decompose deltas into independent
// pieces. Naive mode puts every atom into one component.
func (c *compileState) joinComponents(factors []agca.Expr, bound agca.VarSet) map[int]int {
	parent := map[int]int{}
	var atomIdx []int
	var free [][]string // the unbound variables of each atom, by atomIdx position
	for i, f := range factors {
		if r, ok := f.(agca.Rel); ok {
			atomIdx = append(atomIdx, i)
			parent[i] = i
			var vs []string
			for _, v := range r.Vars {
				if !bound[v] {
					vs = append(vs, v)
				}
			}
			free = append(free, vs)
		}
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for x := 0; x < len(atomIdx); x++ {
		for y := x + 1; y < len(atomIdx); y++ {
			i, j := atomIdx[x], atomIdx[y]
			if c.opts.Mode == ModeNaive || slices.ContainsFunc(free[x], func(v string) bool {
				return slices.Contains(free[y], v)
			}) {
				parent[find(i)] = find(j)
			}
		}
	}
	for _, i := range atomIdx {
		parent[i] = find(i)
	}
	return parent
}

// valueSumsStayWhole is the guard of value-sum factoring, applied to the
// unified factors of one monomial: a value-sum factor (opt.IsValueSum) may
// stay one factor only when every variable it mentions is bound (it is then a
// per-event scalar), or when none is and one relational component produces
// them all (it is then pushed into that component's map, whose keys it leaves
// alone). Any other value sum would put its variables on some map's keys —
// SUM(a.VOLUME - b.VOLUME) would widen AXF's M1[broker,b_price] by b_volume —
// so its monomial is expanded into value-sum-free monomials instead.
func (c *compileState) valueSumsStayWhole(factors []agca.Expr, bound agca.VarSet) bool {
	var rootOf map[int]int
	for _, f := range factors {
		if !opt.IsValueSum(f) {
			continue
		}
		vars := agca.AllVars(f)
		unbound := 0
		for v := range vars {
			if !bound[v] {
				unbound++
			}
		}
		if unbound == 0 {
			continue
		}
		if unbound < len(vars) || c.opts.Mode == ModeNaive {
			return false
		}
		if rootOf == nil {
			rootOf = c.joinComponents(factors, bound)
		}
		root := -1
		for v := range vars {
			producer := -1
			for i, r := range rootOf {
				if agca.OutputVars(factors[i], agca.VarSet{}).Contains(v) {
					producer = r
					break
				}
			}
			if producer < 0 || root >= 0 && producer != root {
				return false
			}
			root = producer
		}
	}
	return true
}

// materializeComponent registers (or reuses) the auxiliary view for one
// join-graph component and returns the expression that replaces it in the
// statement.
func (c *compileState) materializeComponent(factors []agca.Expr, members []int, attached map[int]int, root int,
	bound, needed agca.VarSet, varUsers map[string]map[int]bool, depth int) (agca.Expr, error) {

	compFactors := make([]agca.Expr, 0, len(members))
	sort.Ints(members)
	for _, i := range members {
		compFactors = append(compFactors, agca.Clone(factors[i]))
	}
	var attachedIdx []int
	for i, r := range attached {
		if r == root {
			attachedIdx = append(attachedIdx, i)
		}
	}
	sort.Ints(attachedIdx)
	for _, i := range attachedIdx {
		compFactors = append(compFactors, agca.Clone(factors[i]))
	}

	compExpr := agca.Mul(compFactors...)
	outs := agca.OutputVars(compExpr, agca.VarSet{})

	// A component that still has unbound parameters of its own cannot be
	// materialized (input-variable rule); evaluate it over base tables.
	if ins := agca.InputVars(compExpr, bound); len(ins) > 0 {
		return c.inlineBaseTables(compExpr)
	}

	// Key variables: outputs that are bound at runtime (probe keys) or used
	// anywhere outside this component.
	var keys []string
	for _, v := range outs {
		if bound[v] || needed[v] {
			keys = append(keys, v)
			continue
		}
		users := varUsers[v]
		external := false
		for who := range users {
			if who != root {
				external = true
				break
			}
		}
		if external {
			keys = append(keys, v)
		}
	}

	defExpr := opt.Simplify(agca.SumOver(keys, compExpr))
	defExpr = opt.NormalizeOrder(defExpr, agca.VarSet{})

	// A single-atom component over a full base relation is just the base
	// table; reuse the base-table map to avoid duplicated storage.
	if rel, ok := singleFullRelation(compFactors, keys); ok && !c.cat.IsStatic(rel.Name) {
		name, err := c.registerBaseTable(rel.Name)
		if err != nil {
			return nil, err
		}
		return agca.MapRef{Name: name, Keys: rel.Vars}, nil
	}

	name := c.registerMap(defExpr, keys, depth+1)
	return agca.MapRef{Name: name, Keys: keys}, nil
}

// singleFullRelation reports whether the component is exactly one relation
// atom keyed by all of its columns (i.e. a verbatim copy of the relation).
func singleFullRelation(compFactors []agca.Expr, keys []string) (agca.Rel, bool) {
	if len(compFactors) != 1 {
		return agca.Rel{}, false
	}
	rel, ok := compFactors[0].(agca.Rel)
	if !ok {
		return agca.Rel{}, false
	}
	if len(keys) != len(rel.Vars) {
		return agca.Rel{}, false
	}
	keySet := agca.NewVarSet(keys...)
	for _, v := range rel.Vars {
		if !keySet[v] {
			return agca.Rel{}, false
		}
	}
	return rel, true
}

// inlineBaseTables rewrites every dynamic relation atom into a reference to
// its materialized base table (registering the table and its maintenance);
// static relations remain direct references resolved by the engine.
func (c *compileState) inlineBaseTables(e agca.Expr) (agca.Expr, error) {
	var err error
	out := agca.Transform(e, func(x agca.Expr) agca.Expr {
		r, ok := x.(agca.Rel)
		if !ok || c.cat.IsStatic(r.Name) {
			return x
		}
		name, e2 := c.registerBaseTable(r.Name)
		if e2 != nil {
			err = e2
			return x
		}
		return agca.MapRef{Name: name, Keys: r.Vars}
	})
	return out, err
}

func dedupStrings(in []string) []string {
	out := make([]string, 0, len(in))
	seen := map[string]bool{}
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
