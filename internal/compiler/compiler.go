// Package compiler turns an AGCA query into a trigger program that keeps its
// materialized view fresh under single-tuple inserts and deletes. It
// implements the paper's compilation strategies:
//
//   - ModeDBToaster — Higher-Order IVM (Algorithm 2/3): the deltas of the
//     query are materialized piecewise (query decomposition, input-variable
//     extraction, nested-aggregate decorrelation, duplicate-view elimination)
//     and each materialized piece is itself maintained by its own deltas,
//     recursively.
//   - ModeIVM — classical first-order IVM: base relations are materialized
//     and the first-order delta is evaluated over them on every update.
//   - ModeREP — re-evaluation: the query is recomputed over materialized base
//     relations on every update.
//   - ModeNaive — the naive viewlet transform: deltas are materialized
//     aggressively as single maps, without join-graph decomposition.
//
// Queries arrive as AGCA expressions — written directly against package
// agca, or translated from SQL text by package sql (the paper's input
// language; see docs/sql.md).
package compiler

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/catalog"
	"dbtoaster/internal/delta"
	"dbtoaster/internal/opt"
	"dbtoaster/internal/trigger"
)

// Mode selects the compilation strategy.
type Mode int

// Compilation strategies.
const (
	ModeDBToaster Mode = iota
	ModeIVM
	ModeREP
	ModeNaive
)

// String names the mode as used in the paper's figures.
func (m Mode) String() string {
	switch m {
	case ModeDBToaster:
		return "DBToaster"
	case ModeIVM:
		return "IVM"
	case ModeREP:
		return "REP"
	case ModeNaive:
		return "Naive"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configure compilation. The mode alone decides how deep the
// viewlet transform recurses: ModeDBToaster and ModeNaive materialize deltas
// of deltas without bound, while ModeIVM and ModeREP materialize no
// auxiliary maps and evaluate every delta (or the whole query) over
// materialized base tables. The zero value is full Higher-Order IVM.
type Options struct {
	Mode Mode
}

// DefaultOptions returns the options for full Higher-Order IVM.
func DefaultOptions() Options { return Options{} }

// OptionsFor returns the options that emulate the given system.
func OptionsFor(mode Mode) Options { return Options{Mode: mode} }

// Query is a named AGCA query to compile.
type Query struct {
	Name string
	Expr agca.Expr
}

// Compile produces the trigger program maintaining q under the given options.
func Compile(q Query, cat *catalog.Catalog, opts Options) (*trigger.Program, error) {
	c := newCompileState(cat, opts)
	if err := c.compileQuery(q); err != nil {
		return nil, err
	}
	prog, err := c.assemble()
	if err != nil {
		return nil, fmt.Errorf("compiler: query %q: %w", q.Name, err)
	}
	return prog, nil
}

// compileState carries the mutable state of one compilation. CompileSet
// shares one state across a whole query set, which is what makes maps with
// equal canonical definitions materialize (and be maintained) exactly once.
type compileState struct {
	cat  *catalog.Catalog
	opts Options

	mapByDef  map[string]string          // CanonicalKey -> map name
	defs      map[string]*trigger.MapDef // map name -> definition
	order     []string                   // map names in creation order
	queue     []string                   // maps whose maintenance is pending
	processed map[string]bool
	counter   int

	stmts    map[string][]trigger.Statement // trigger key (+R / -R) -> statements
	stmtSeen map[string]bool                // dedup of (trigger, statement) pairs

	queries []trigger.QueryDef // one entry per compiled query, in order
}

func newCompileState(cat *catalog.Catalog, opts Options) *compileState {
	return &compileState{
		cat:       cat,
		opts:      opts,
		mapByDef:  map[string]string{},
		defs:      map[string]*trigger.MapDef{},
		processed: map[string]bool{},
		stmts:     map[string][]trigger.Statement{},
		stmtSeen:  map[string]bool{},
	}
}

// compileQuery registers one query's result map (or aliases it onto an
// already-materialized map with the same canonical definition) and drains the
// materialization queue, generating maintenance for every newly registered
// map.
func (c *compileState) compileQuery(q Query) error {
	if q.Expr == nil {
		return fmt.Errorf("compiler: query %q has no expression", q.Name)
	}
	for _, prev := range c.queries {
		if prev.Name == q.Name {
			return fmt.Errorf("compiler: duplicate query name %q", q.Name)
		}
	}
	expr := opt.Simplify(q.Expr)
	if in := agca.InputVars(expr, agca.VarSet{}); len(in) > 0 {
		return fmt.Errorf("compiler: query %q has unbound parameters %v", q.Name, in.Sorted())
	}
	for _, r := range agca.Relations(expr) {
		if !c.cat.Has(r) {
			return fmt.Errorf("compiler: query %q references unknown relation %q", q.Name, r)
		}
	}

	resultKeys := []string(agca.OutputVars(expr, agca.VarSet{}))
	key := CanonicalKey(expr, resultKeys)
	resultName := ""
	if existing, ok := c.mapByDef[key]; ok {
		// The whole query is an alias of a map an earlier query already
		// materializes (its result, or one of its auxiliary views).
		resultName = existing
	} else {
		resultName = sanitizeName(q.Name)
		if resultName == "" {
			resultName = "Q"
		}
		for i := 2; ; i++ {
			if _, taken := c.defs[resultName]; !taken {
				break
			}
			resultName = fmt.Sprintf("%s_%d", sanitizeName(q.Name), i)
		}
		c.addMap(key, resultName, resultKeys, expr, 0)
	}

	for len(c.queue) > 0 {
		name := c.queue[0]
		c.queue = c.queue[1:]
		if c.processed[name] {
			continue
		}
		c.processed[name] = true
		if err := c.processMap(name); err != nil {
			return fmt.Errorf("compiler: query %q: %w", q.Name, err)
		}
	}

	c.queries = append(c.queries, trigger.QueryDef{
		Name:       q.Name,
		ResultMap:  resultName,
		ResultKeys: resultKeys,
	})
	return nil
}

func (c *compileState) enqueue(name string) {
	if !c.processed[name] {
		c.queue = append(c.queue, name)
	}
}

// addMap registers a new map under its CanonicalKey and queues its
// maintenance.
func (c *compileState) addMap(key, name string, keys []string, def agca.Expr, depth int) {
	c.defs[name] = &trigger.MapDef{Name: name, Keys: append([]string(nil), keys...), Definition: def, Depth: depth}
	c.order = append(c.order, name)
	c.mapByDef[key] = name
	c.enqueue(name)
}

// registerMap registers (or reuses) a materialized view for the given
// definition and key variables, returning its name. def must already be
// simplified and ordered, as materializeComponent leaves it, since it is
// keyed by normalizedKey.
func (c *compileState) registerMap(def agca.Expr, keys []string, depth int) string {
	canon := normalizedKey(def, keys)
	if name, ok := c.mapByDef[canon]; ok {
		if existing := c.defs[name]; depth < existing.Depth {
			existing.Depth = depth
		}
		return name
	}
	c.counter++
	name := fmt.Sprintf("M%d", c.counter)
	for c.defs[name] != nil { // a query result may occupy the name
		c.counter++
		name = fmt.Sprintf("M%d", c.counter)
	}
	c.addMap(canon, name, keys, def, depth)
	return name
}

// registerBaseTable registers the materialized copy of a base relation.
func (c *compileState) registerBaseTable(rel string) (string, error) {
	name := "BASE_" + rel
	if _, ok := c.defs[name]; ok {
		return name, nil
	}
	cols, err := c.cat.Columns(rel)
	if err != nil {
		return "", err
	}
	md := &trigger.MapDef{
		Name:        name,
		Keys:        append([]string(nil), cols...),
		Definition:  agca.Rel{Name: rel, Vars: append([]string(nil), cols...)},
		Depth:       0,
		IsBaseTable: true,
		BaseRel:     rel,
	}
	c.defs[name] = md
	c.order = append(c.order, name)
	c.enqueue(name)
	return name, nil
}

// addStatement records a maintenance statement for the given trigger event.
// Replacement statements are deduplicated per (trigger, target map) — there
// is no point recomputing the same view twice for one event — while
// incremental statements are kept verbatim: a delta whose polynomial
// expansion yields the same monomial twice (a self-join, Example 12) really
// does contribute twice.
func (c *compileState) addStatement(ev delta.Event, s trigger.Statement) {
	tkey := triggerKey(ev)
	if s.Kind == trigger.StmtReplace {
		key := tkey + "|replace|" + s.TargetMap
		if c.stmtSeen[key] {
			return
		}
		c.stmtSeen[key] = true
	}
	c.stmts[tkey] = append(c.stmts[tkey], s)
}

func triggerKey(ev delta.Event) string {
	if ev.Insert {
		return "+" + ev.Relation
	}
	return "-" + ev.Relation
}

// dynamicRelations returns the stream-updated relations used by e, sorted.
func (c *compileState) dynamicRelations(e agca.Expr) []string {
	var out []string
	for _, r := range agca.Relations(e) {
		if !c.cat.IsStatic(r) {
			out = append(out, r)
		}
	}
	sort.Strings(out)
	return out
}

// processMap generates the maintenance statements for one materialized view.
func (c *compileState) processMap(name string) error {
	def := c.defs[name]
	if def.IsBaseTable {
		return c.maintainBaseTable(def)
	}
	rels := c.dynamicRelations(def.Definition)
	for _, rel := range rels {
		cols, err := c.cat.Columns(rel)
		if err != nil {
			return err
		}
		args := delta.TriggerArgs(rel, cols)
		for _, insert := range []bool{true, false} {
			ev := delta.Event{Relation: rel, Insert: insert, Args: args}
			if err := c.maintain(def, ev); err != nil {
				return fmt.Errorf("map %s, event %s: %w", name, ev, err)
			}
		}
	}
	return nil
}

// maintainBaseTable emits the trivial statements that mirror a base relation.
func (c *compileState) maintainBaseTable(def *trigger.MapDef) error {
	cols, err := c.cat.Columns(def.BaseRel)
	if err != nil {
		return err
	}
	args := delta.TriggerArgs(def.BaseRel, cols)
	for _, insert := range []bool{true, false} {
		rhs := agca.Expr(agca.One)
		if !insert {
			rhs = agca.Neg{E: agca.One}
		}
		ev := delta.Event{Relation: def.BaseRel, Insert: insert, Args: args}
		c.addStatement(ev, trigger.Statement{
			TargetMap:  def.Name,
			TargetKeys: args,
			Kind:       trigger.StmtIncrement,
			RHS:        rhs,
			Depth:      def.Depth,
		})
	}
	return nil
}

// maintain generates the maintenance of one map for one update event,
// choosing between incremental maintenance and re-evaluation.
func (c *compileState) maintain(def *trigger.MapDef, ev delta.Event) error {
	strategy := c.chooseStrategy(def, ev)

	if strategy == strategyReevaluate {
		return c.emitReevaluation(def, ev)
	}

	fresh := freeOfArgs(def, ev.Args)
	d, err := delta.Apply(fresh.Definition, ev)
	if err != nil {
		// Not incrementally maintainable: fall back to re-evaluation.
		return c.emitReevaluation(def, ev)
	}
	d = opt.Simplify(d)
	if agca.IsZero(d) {
		return nil
	}
	for _, m := range c.expand(d) {
		if err := c.emitIncremental(fresh, ev, m); err != nil {
			return err
		}
	}
	return nil
}

// The two value-sum rules are always on; the switches exist so that a test
// can turn one off and name the rule a failing query depends on.
var (
	// keepValueSums leaves value sums factored in the monomials of deltas
	// and definitions (opt.ExpandPolynomial, guarded by valueSumsStayWhole).
	keepValueSums = true
	// mergeAccessPaths merges the increments of one trigger that share an
	// access path (mergeIncrements).
	mergeAccessPaths = true
)

// expand splits a delta or definition into the monomials the compiler turns
// into statements and maps.
func (c *compileState) expand(e agca.Expr) []agca.Expr {
	if keepValueSums {
		return opt.ExpandPolynomial(e)
	}
	return opt.ExpandFully(e)
}

// freeOfArgs returns def with every variable spelled like one of the trigger
// arguments renamed to a fresh name, in its definition and its keys (the
// statement's target keys), or def itself when nothing collides. A
// self-join's maps are keyed by variables named after the trigger arguments
// of their own relation (M1[R0_A_t] := Sum[R0_A_t](R0(a, R0_A_t))); when such
// a map is maintained on R0's own events, the argument R0_A_t that the delta
// binds to another column must not capture its key.
func freeOfArgs(def *trigger.MapDef, args []string) *trigger.MapDef {
	vars := agca.AllVars(def.Definition)
	subst := map[string]string{}
	for _, a := range args {
		if !vars[a] {
			continue
		}
		name := a + "_k"
		for vars[name] || slices.Contains(args, name) {
			name += "_k"
		}
		subst[a] = name
	}
	if len(subst) == 0 {
		return def
	}
	out := *def
	out.Definition = agca.RenameVars(def.Definition, subst)
	out.Keys = make([]string, len(def.Keys))
	for i, k := range def.Keys {
		out.Keys[i] = k
		if to, ok := subst[k]; ok {
			out.Keys[i] = to
		}
	}
	return &out
}

type strategy int

const (
	strategyIncremental strategy = iota
	strategyReevaluate
)

// chooseStrategy implements the paper's re-evaluate vs incrementally-maintain
// heuristic (§5.1, "Deltas of Nested Aggregates"): deltas of queries whose
// nested aggregates over the updated relation are uncorrelated or correlated
// only through inequalities are more expensive than recomputation, so those
// maps are re-evaluated; equality-correlated nested aggregates (which become
// group-by keyed maps after unification) and plain join queries are
// maintained incrementally.
func (c *compileState) chooseStrategy(def *trigger.MapDef, ev delta.Event) strategy {
	if c.opts.Mode == ModeREP {
		return strategyReevaluate
	}
	if c.opts.Mode == ModeNaive || c.opts.Mode == ModeIVM {
		// Naive materializes deltas aggressively; IVM evaluates first-order
		// deltas over base tables. Neither re-evaluates unless forced by a
		// non-incremental construct (handled by the delta error path).
		if hasNonIncrementalOver(def.Definition, ev.Relation) {
			return strategyReevaluate
		}
		return strategyIncremental
	}
	if hasNonIncrementalOver(def.Definition, ev.Relation) {
		return strategyReevaluate
	}
	reeval := false
	agca.Walk(def.Definition, func(x agca.Expr) {
		l, ok := x.(agca.Lift)
		if !ok || !agca.UsesRelation(l.E, ev.Relation) {
			return
		}
		if !liftIsEqualityCorrelated(def.Definition, l) {
			reeval = true
		}
	})
	if reeval {
		return strategyReevaluate
	}
	return strategyIncremental
}

// liftIsEqualityCorrelated implements the paper's heuristic for deltas of
// nested aggregates: the incremental approach pays off only when the nested
// query is correlated with the outer query on an equality, because then the
// delta touches a restricted slice of the auxiliary view. A nested aggregate
// that is uncorrelated, or correlated only through comparisons
// (inequalities), is cheaper to handle by re-evaluating the enclosing view.
func liftIsEqualityCorrelated(def agca.Expr, l agca.Lift) bool {
	liftStr := agca.String(l)
	// Variables of the definition outside this lift.
	outside := agca.AllVars(agca.Transform(def, func(x agca.Expr) agca.Expr {
		if agca.String(x) == liftStr {
			return agca.One
		}
		return x
	}))
	bodyVars := agca.AllVars(l.E)
	var corr []string
	for v := range bodyVars {
		if outside[v] {
			corr = append(corr, v)
		}
	}
	if len(corr) == 0 {
		return false // uncorrelated
	}
	// Equality correlation: every correlation variable is bound inside the
	// body by a relation column or an assignment (not merely compared).
	bodyBinds := agca.VarSet{}
	agca.Walk(l.E, func(x agca.Expr) {
		switch n := x.(type) {
		case agca.Rel:
			bodyBinds.AddAll(n.Vars)
		case agca.MapRef:
			bodyBinds.AddAll(n.Keys)
		case agca.Lift:
			bodyBinds[n.Var] = true
		}
	})
	for _, v := range corr {
		if !bodyBinds[v] {
			return false
		}
	}
	return true
}

// hasNonIncrementalOver reports whether e contains a Div or Exists node whose
// body references the given relation (their deltas do not exist in AGCA).
func hasNonIncrementalOver(e agca.Expr, rel string) bool {
	found := false
	agca.Walk(e, func(x agca.Expr) {
		switch n := x.(type) {
		case agca.Div:
			if agca.UsesRelation(n.L, rel) || agca.UsesRelation(n.R, rel) {
				found = true
			}
		case agca.Exists:
			if agca.UsesRelation(n.E, rel) {
				found = true
			}
		}
	})
	return found
}

func sanitizeName(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		}
	}
	return b.String()
}

// assemble builds the final Program from the collected state. Every query's
// definition (with its map attribution) is recorded in Program.Queries, in
// compile order, so the first compiled query is the primary one.
func (c *compileState) assemble() (*trigger.Program, error) {
	if len(c.queries) == 0 {
		return nil, fmt.Errorf("no queries compiled")
	}
	prog := &trigger.Program{Relations: map[string][]string{}}
	for _, name := range c.order {
		prog.Maps = append(prog.Maps, *c.defs[name])
	}
	// Collect dynamic relations across all map definitions and all statement
	// right-hand sides (fallback statements may reference base relations that
	// no definition mentions directly).
	dyn := map[string]bool{}
	for _, md := range prog.Maps {
		for _, r := range c.dynamicRelations(md.Definition) {
			dyn[r] = true
		}
	}
	var dynNames []string
	for r := range dyn {
		dynNames = append(dynNames, r)
	}
	sort.Strings(dynNames)
	for _, r := range dynNames {
		cols, err := c.cat.Columns(r)
		if err != nil {
			return nil, err
		}
		prog.Relations[r] = cols
	}

	// Build one trigger per (dynamic relation, ±), even if it has no
	// statements (the engine still consumes the event).
	for _, r := range dynNames {
		args := delta.TriggerArgs(r, prog.Relations[r])
		for _, insert := range []bool{true, false} {
			key := triggerKey(delta.Event{Relation: r, Insert: insert})
			prog.Triggers = append(prog.Triggers, trigger.Trigger{
				Relation: r,
				Insert:   insert,
				Args:     args,
				Stmts:    c.stmts[key],
			})
		}
	}
	if !depthOrdered(prog) {
		recomputeDepths(prog)
	}
	prog.SortStatements()
	mergeIncrements(prog)

	// Per-query map attribution: the maps a query depends on are those
	// reachable from its result map through the statements' map references
	// (the result map itself included). This is what the shared-view
	// reference counts and the per-query memory reports are built from.
	reads := map[string][]string{} // target map -> maps its statements read
	for _, t := range prog.Triggers {
		for _, s := range t.Stmts {
			reads[s.TargetMap] = append(reads[s.TargetMap], agca.MapRefs(s.RHS)...)
		}
	}
	prog.Queries = make([]trigger.QueryDef, len(c.queries))
	for i, q := range c.queries {
		seen := map[string]bool{}
		stack := []string{q.ResultMap}
		for len(stack) > 0 {
			name := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[name] || c.defs[name] == nil {
				continue
			}
			seen[name] = true
			stack = append(stack, reads[name]...)
		}
		q.Maps = make([]string, 0, len(seen))
		for name := range seen {
			q.Maps = append(q.Maps, name)
		}
		sort.Strings(q.Maps)
		prog.Queries[i] = q
	}
	return prog, nil
}
