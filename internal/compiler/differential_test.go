package compiler

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/catalog"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/sql"
	"dbtoaster/internal/sqlref"
	"dbtoaster/internal/trigger"
	"dbtoaster/internal/types"
)

var (
	plannerQueries = flag.Int("planner.queries", 200, "random queries TestPlannerDifferential generates, spread over -planner.seeds")
	plannerSeeds   = flag.String("planner.seeds", "1", "comma-separated generator seeds of TestPlannerDifferential")
	plannerWrite   = flag.Bool("planner.write-fixtures", false, "write each shrunk failure of TestPlannerDifferential under testdata/planner")
)

// TestPlannerDifferential holds the two value-sum rules — value sums stay
// factored (keepValueSums) and increments sharing an access path merge
// (mergeAccessPaths) — against the reference on queries nobody hand-picked:
// random SUM(<value expression>) queries over 2- and 3-way equi-joins of
// random small schemas, in docs/sql.md's dialect. Every query is compiled in
// DBToaster and IVM modes and run on a sawtooth stream (the same protocol as
// the engine's TestPlannedReevalEquivalence: random inserts, then their
// inverses in reverse order, so every view drains to zero); after every event
// the compiled engine must agree with two references over the base relations
// the test accumulates — agca.Eval of the translated query, and sqlref's
// direct evaluation of the SQL, which shares nothing with the translator —
// and so must ApplyBatch at windows of 1, 7 and 64. A failure names the
// reference the engine left: sqlref alone points at the translator. The guard
// of rule (a) is asserted directly: no map of a program has more key columns
// than the widest map over the same relations with both rules off. A failure
// is re-run with each rule off to name the rule, shrunk to minimal SQL plus a
// stream, and reported as a fixture for testdata/planner (see
// TestPlannerFixtures).
func TestPlannerDifferential(t *testing.T) {
	seeds := parseSeeds(t, *plannerSeeds)
	perSeed := (*plannerQueries + len(seeds) - 1) / len(seeds)
	failures := 0
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < perSeed && failures < 3; i++ {
			q := genQuery(rng)
			events := q.sawtooth(rng)
			for _, mode := range []Mode{ModeDBToaster, ModeIVM} {
				err := checkPlanned(q, events, mode)
				if err == nil {
					continue
				}
				failures++
				label := fmt.Sprintf("seed %d query %d (%s)", seed, i, mode)
				small, smallEvents := shrink(q, events, mode)
				fixture := formatFixture(small, smallEvents, mode)
				if *plannerWrite {
					path := filepath.Join("testdata", "planner", fmt.Sprintf("seed%d_q%d_%s.txt", seed, i, strings.ToLower(mode.String())))
					if werr := os.WriteFile(path, []byte(fixture), 0o644); werr != nil {
						t.Errorf("%s: write fixture: %v", label, werr)
					}
				}
				t.Errorf("%s: %v\nrule: %s\nshrunk fixture (run with -planner.write-fixtures to add it under testdata/planner):\n%s",
					label, err, blame(small, smallEvents, mode), fixture)
				break
			}
		}
	}
}

// TestPlannerFixtures replays the shrunk failures of TestPlannerDifferential
// checked in under testdata/planner, each in the mode it failed in.
func TestPlannerFixtures(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "planner", "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no fixtures under testdata/planner")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			q, events, mode, err := parseFixture(string(data))
			if err != nil {
				t.Fatalf("fixture: %v", err)
			}
			if err := checkPlanned(q, events, mode); err != nil {
				t.Errorf("%v\nrule: %s", err, blame(q, events, mode))
			}
		})
	}
}

func parseSeeds(t *testing.T, list string) []int64 {
	var seeds []int64
	for _, f := range strings.Split(list, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("-planner.seeds: %v", err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// setRules switches the two value-sum rules and returns a function that
// restores them.
func setRules(keep, merge bool) (restore func()) {
	k, m := keepValueSums, mergeAccessPaths
	keepValueSums, mergeAccessPaths = keep, merge
	return func() { keepValueSums, mergeAccessPaths = k, m }
}

// blame names the rule a failing query depends on: the failure is re-run
// with each rule off in turn.
func blame(q *rquery, events []engine.Event, mode Mode) string {
	var out []string
	for _, c := range []struct {
		name        string
		keep, merge bool
	}{
		{"value sums factored off", false, true},
		{"access-path merge off", true, false},
		{"both off", false, false},
	} {
		restore := setRules(c.keep, c.merge)
		err := checkPlanned(q, events, mode)
		restore()
		verdict := "still fails"
		if err == nil {
			verdict = "passes"
		}
		out = append(out, c.name+": "+verdict)
	}
	return strings.Join(out, "; ")
}

// checkPlanned compiles q under the current rule switches and runs events
// through it: per event against agca.Eval and sqlref over the accumulated base
// relations, then through ApplyBatch windows against the per-event results.
// With value sums factored it also checks the guard of rule (a) against a
// compilation with both rules off.
func checkPlanned(q *rquery, events []engine.Event, mode Mode) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	expr, cat, err := q.translate()
	if err != nil {
		return fmt.Errorf("translate: %v\n%s", err, q.sql())
	}
	query := Query{Name: "Q", Expr: expr}
	prog, err := Compile(query, cat, OptionsFor(mode))
	if err != nil {
		return fmt.Errorf("compile: %v\n%s", err, q.sql())
	}
	if keepValueSums {
		restore := setRules(false, false)
		plain, err := Compile(query, cat, OptionsFor(mode))
		restore()
		if err != nil {
			return fmt.Errorf("compile with the rules off: %v\n%s", err, q.sql())
		}
		if err := keysNoWider(prog.Maps, plain.Maps); err != nil {
			return fmt.Errorf("%v\n%s", err, q.sql())
		}
	}

	script, err := sql.Parse(q.sql())
	if err != nil {
		return err
	}
	base, ref := agca.MapDB{}, sqlref.DB{}
	for _, r := range cat.Relations() {
		base[r.Name] = gmr.New(types.Schema(r.Columns))
	}
	seq := engine.New(prog)
	if err := seq.Init(); err != nil {
		return fmt.Errorf("init: %v", err)
	}
	after := []sqlref.Bag{flatten(seq.Result())}
	for i, ev := range events {
		if err := seq.Apply(ev); err != nil {
			return fmt.Errorf("event %d: %v", i, err)
		}
		mult := 1.0
		if !ev.Insert {
			mult = -1
		}
		base[ev.Relation].Add(ev.Tuple, mult)
		ref.Add(ev.Relation, ev.Tuple, mult)
		want, err := sqlref.Eval(script, script.Selects[0], ref)
		if err != nil {
			return fmt.Errorf("sqlref: %v\n%s", err, q.sql())
		}
		var left []string
		if d := viewDiff(flatten(agca.Eval(expr, base, types.Env{})), seq.Result()); d != "" {
			left = append(left, "left agca.Eval: "+d)
		}
		if d := viewDiff(want, seq.Result()); d != "" {
			left = append(left, "left sqlref: "+d)
		}
		if len(left) > 0 {
			return fmt.Errorf("after event %d %s: compiled engine %s\n%s", i, formatEvent(ev), strings.Join(left, "; "), q.sql())
		}
		after = append(after, flatten(seq.Result()))
	}
	for _, window := range []int{1, 7, 64} {
		eng := engine.New(prog)
		if err := eng.Init(); err != nil {
			return fmt.Errorf("init: %v", err)
		}
		for start := 0; start < len(events); start += window {
			end := min(start+window, len(events))
			if err := eng.ApplyBatch(engine.NewBatch(events[start:end])); err != nil {
				return fmt.Errorf("window %d at %d: %v", window, start, err)
			}
			if d := viewDiff(after[end], eng.Result()); d != "" {
				return fmt.Errorf("window %d, events [%d,%d): batched left per-event: %s\n%s", window, start, end, d, q.sql())
			}
		}
	}
	return nil
}

// keysNoWider checks the guard of value-sum factoring: a map of the program
// compiled with the rules on has no more key columns than the widest map over
// the same relations compiled with them off.
func keysNoWider(on, off []trigger.MapDef) error {
	widest := map[string]int{}
	for _, m := range off {
		body := relationBody(m.Definition)
		widest[body] = max(widest[body], len(m.Keys))
	}
	for _, m := range on {
		body := relationBody(m.Definition)
		if w, ok := widest[body]; ok && len(m.Keys) > w {
			return fmt.Errorf("map %s[%s] over %s has %d key columns; with the rules off the widest has %d",
				m.Name, strings.Join(m.Keys, ","), body, len(m.Keys), w)
		}
	}
	return nil
}

// relationBody names the relations a map definition ranges over, with
// multiplicity.
func relationBody(def agca.Expr) string {
	var rels []string
	agca.Walk(def, func(x agca.Expr) {
		if r, ok := x.(agca.Rel); ok {
			rels = append(rels, r.Name)
		}
	})
	sort.Strings(rels)
	return strings.Join(rels, "*")
}

// viewDiff describes how got differs from want (entries with a multiplicity
// of 0 are absent), or returns "" when they agree within a relative 1e-6.
func viewDiff(want sqlref.Bag, got *gmr.GMR) string {
	g := flatten(got)
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	for k := range g {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		a, b := want[k], g[k]
		if math.Abs(a-b) > 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b))) {
			t, _ := types.DecodeKey([]byte(k))
			return fmt.Sprintf("key %v: want %v, got %v", t, a, b)
		}
	}
	return ""
}

func flatten(g *gmr.GMR) sqlref.Bag {
	out := sqlref.Bag{}
	g.Foreach(func(t types.Tuple, m float64) { out.Add(t, m) })
	return out
}

// --- random queries ---------------------------------------------------------

// rquery is a generated query: a schema of streams and one
// SELECT [group columns,] SUM(value) FROM ... WHERE ... [GROUP BY ...].
type rquery struct {
	script  string   // a checked-in fixture's SQL, replayed verbatim
	arity   []int    // schema: relation Ri has arity[i] columns
	from    []int    // FROM items: relation index per alias ai
	joins   [][2]col // equalities that chain the FROM items
	filter  *vexpr   // an optional extra WHERE conjunct (a comparison)
	value   *vexpr   // the SUM argument
	groupBy []col
}

// col is a column of a FROM item.
type col struct{ alias, col int }

// vexpr is a value expression: a column, a constant, a comparison used as a
// 0/1 value, an arithmetic node, or an equality-correlated scalar subquery.
type vexpr struct {
	op   string // "col", "const", "cmp", "+", "-", "*", "neg", "sub"
	c    col
	k    string // constant text, or the comparison operator
	l, r *vexpr
	sub  *subquery
}

// subquery is (SELECT SUM(s.<sum>) FROM R<rel> s WHERE s.<corr> = <outer>).
type subquery struct {
	rel, sum, corr int
	outer          col
}

var colNames = []string{"A", "B", "C", "D"}

func genQuery(rng *rand.Rand) *rquery {
	q := &rquery{}
	for i := 0; i < 2+rng.Intn(2); i++ {
		q.arity = append(q.arity, 2+rng.Intn(3))
	}
	n := 2 + rng.Intn(2)
	for i := 0; i < n; i++ {
		q.from = append(q.from, rng.Intn(len(q.arity)))
	}
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		q.joins = append(q.joins, [2]col{q.randCol(rng, i), q.randCol(rng, j)})
	}
	if rng.Intn(3) == 0 {
		q.filter = q.genCmp(rng, allAliases(n))
	}
	// The value draws on the columns of 0, 1 or 2 FROM items.
	pool := rng.Perm(n)[:rng.Intn(3)]
	q.value = q.genValue(rng, pool, 3)
	for a := 0; a < n; a++ {
		for c := 0; c < q.arity[q.from[a]]; c++ {
			if rng.Intn(6) == 0 && len(q.groupBy) < 2 {
				q.groupBy = append(q.groupBy, col{a, c})
			}
		}
	}
	return q
}

func allAliases(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func (q *rquery) randCol(rng *rand.Rand, alias int) col {
	return col{alias, rng.Intn(q.arity[q.from[alias]])}
}

func genConst(rng *rand.Rand) string {
	return []string{"0", "1", "2", "3", "0.5", "0.01", "-1", "1.5"}[rng.Intn(8)]
}

func (q *rquery) genCmp(rng *rand.Rand, pool []int) *vexpr {
	ops := []string{"<", "<=", ">", ">=", "=", "<>"}
	e := &vexpr{op: "cmp", k: ops[rng.Intn(len(ops))]}
	e.l = &vexpr{op: "col", c: q.randCol(rng, pool[rng.Intn(len(pool))])}
	if rng.Intn(2) == 0 {
		e.r = &vexpr{op: "const", k: genConst(rng)}
	} else {
		e.r = &vexpr{op: "col", c: q.randCol(rng, pool[rng.Intn(len(pool))])}
	}
	return e
}

func (q *rquery) genValue(rng *rand.Rand, pool []int, depth int) *vexpr {
	leaf := depth == 0 || rng.Intn(3) == 0
	if leaf {
		switch {
		case len(pool) > 0 && rng.Intn(10) == 0:
			rel := rng.Intn(len(q.arity))
			return &vexpr{op: "sub", sub: &subquery{
				rel: rel, sum: rng.Intn(q.arity[rel]), corr: rng.Intn(q.arity[rel]),
				outer: q.randCol(rng, pool[rng.Intn(len(pool))]),
			}}
		case len(pool) > 0 && rng.Intn(4) == 0:
			return q.genCmp(rng, pool)
		case len(pool) > 0 && rng.Intn(3) != 0:
			return &vexpr{op: "col", c: q.randCol(rng, pool[rng.Intn(len(pool))])}
		default:
			return &vexpr{op: "const", k: genConst(rng)}
		}
	}
	switch rng.Intn(5) {
	case 0:
		return &vexpr{op: "neg", l: q.genValue(rng, pool, depth-1)}
	case 1:
		return &vexpr{op: "*", l: q.genValue(rng, pool, depth-1), r: q.genValue(rng, pool, depth-1)}
	case 2:
		return &vexpr{op: "-", l: q.genValue(rng, pool, depth-1), r: q.genValue(rng, pool, depth-1)}
	default:
		return &vexpr{op: "+", l: q.genValue(rng, pool, depth-1), r: q.genValue(rng, pool, depth-1)}
	}
}

func (c col) sql() string {
	return fmt.Sprintf("a%d.%s", c.alias, colNames[c.col])
}

func (e *vexpr) sql() string {
	switch e.op {
	case "col":
		return e.c.sql()
	case "const":
		return e.k
	case "cmp":
		return "(" + e.l.sql() + " " + e.k + " " + e.r.sql() + ")"
	case "neg":
		return "-(" + e.l.sql() + ")"
	case "sub":
		s := e.sub
		return fmt.Sprintf("(SELECT SUM(s.%s) FROM R%d s WHERE s.%s = %s)",
			colNames[s.sum], s.rel, colNames[s.corr], s.outer.sql())
	default:
		return "(" + e.l.sql() + " " + e.op + " " + e.r.sql() + ")"
	}
}

// sql renders the query as a script in docs/sql.md's dialect, declaring the
// relations it reads.
func (q *rquery) sql() string {
	if q.script != "" {
		return q.script
	}
	var b strings.Builder
	used := map[int]bool{}
	for _, r := range q.from {
		used[r] = true
	}
	q.value.walk(func(e *vexpr) {
		if e.op == "sub" {
			used[e.sub.rel] = true
		}
	})
	for i, n := range q.arity {
		if !used[i] {
			continue
		}
		cols := make([]string, n)
		for c := range cols {
			cols[c] = colNames[c] + " int"
		}
		fmt.Fprintf(&b, "CREATE STREAM R%d (%s);\n", i, strings.Join(cols, ", "))
	}
	var items, from, where, group []string
	for _, g := range q.groupBy {
		items = append(items, g.sql())
		group = append(group, g.sql())
	}
	items = append(items, "SUM("+q.value.sql()+")")
	for a, r := range q.from {
		from = append(from, fmt.Sprintf("R%d a%d", r, a))
	}
	for _, j := range q.joins {
		where = append(where, j[0].sql()+" = "+j[1].sql())
	}
	if q.filter != nil {
		where = append(where, q.filter.sql())
	}
	fmt.Fprintf(&b, "SELECT %s\nFROM %s", strings.Join(items, ", "), strings.Join(from, ", "))
	if len(where) > 0 {
		fmt.Fprintf(&b, "\nWHERE %s", strings.Join(where, " AND "))
	}
	if len(group) > 0 {
		fmt.Fprintf(&b, "\nGROUP BY %s", strings.Join(group, ", "))
	}
	b.WriteString(";\n")
	return b.String()
}

func (q *rquery) translate() (agca.Expr, *catalog.Catalog, error) {
	script, err := sql.Parse(q.sql())
	if err != nil {
		return nil, nil, err
	}
	cat, err := script.Catalog()
	if err != nil {
		return nil, nil, err
	}
	qs, err := script.Queries("Q")
	if err != nil {
		return nil, nil, err
	}
	if len(qs) != 1 {
		return nil, nil, fmt.Errorf("%d queries, want 1", len(qs))
	}
	return qs[0].Expr, cat, nil
}

// sawtooth is a stream over the query's relations: random inserts (values
// from a small domain so that joins and groups collide, with a few floats
// and negatives among them), then their inverses in reverse order.
func (q *rquery) sawtooth(rng *rand.Rand) []engine.Event {
	vals := []types.Value{types.Int(0), types.Int(1), types.Int(2), types.Int(0), types.Int(1), types.Int(2),
		types.Int(3), types.Int(-1), types.Float(0.5), types.Float(2.5)}
	var events []engine.Event
	for i := 0; i < 10+rng.Intn(8); i++ {
		r := q.from[rng.Intn(len(q.from))]
		t := make(types.Tuple, q.arity[r])
		for c := range t {
			t[c] = vals[rng.Intn(len(vals))]
		}
		events = append(events, engine.Event{Relation: fmt.Sprintf("R%d", r), Insert: true, Tuple: t})
	}
	for i := len(events) - 1; i >= 0; i-- {
		events = append(events, engine.Event{Relation: events[i].Relation, Tuple: events[i].Tuple})
	}
	return events
}

// --- shrinking and fixtures -------------------------------------------------

// shrink reduces a failing query and stream while the failure persists:
// events are dropped one at a time, then the query loses GROUP BY columns,
// its filter, FROM items and value subtrees.
func shrink(q *rquery, events []engine.Event, mode Mode) (*rquery, []engine.Event) {
	fails := func(q *rquery, evs []engine.Event) bool {
		if _, _, err := q.translate(); err != nil {
			return false // a reduction outside the dialect is not a smaller failure
		}
		return checkPlanned(q, evs, mode) != nil
	}
	for progress := true; progress; {
		progress = false
		for i := 0; i < len(events); i++ {
			cand := append(append([]engine.Event(nil), events[:i]...), events[i+1:]...)
			if fails(q, cand) {
				events, progress = cand, true
				i--
			}
		}
		for _, cand := range q.reductions() {
			if fails(cand, events) {
				q, progress = cand, true
				break
			}
		}
	}
	return q, events
}

// reductions lists the queries one step smaller than q.
func (q *rquery) reductions() []*rquery {
	if q.script != "" {
		return nil
	}
	var out []*rquery
	for i := range q.groupBy {
		c := q.clone()
		c.groupBy = append(c.groupBy[:i:i], c.groupBy[i+1:]...)
		out = append(out, c)
	}
	if q.filter != nil {
		c := q.clone()
		c.filter = nil
		out = append(out, c)
	}
	if last := len(q.from) - 1; last >= 2 {
		out = append(out, q.withoutAlias(last))
	}
	// Replace one value node by the constant 1 or by one of its operands.
	n := 0
	q.value.walk(func(*vexpr) { n++ })
	for i := 0; i < n; i++ {
		for side := 0; side < 3; side++ {
			c := q.clone()
			var target *vexpr
			k := 0
			c.value.walk(func(e *vexpr) {
				if k == i {
					target = e
				}
				k++
			})
			repl := map[int]*vexpr{0: {op: "const", k: "1"}, 1: target.l, 2: target.r}[side]
			if repl == nil || target.op == "const" {
				continue
			}
			*target = *repl.clone()
			out = append(out, c)
		}
	}
	return out
}

// withoutAlias drops the last FROM item with everything that mentions it.
func (q *rquery) withoutAlias(a int) *rquery {
	c := q.clone()
	c.from = c.from[:a]
	var joins [][2]col
	for _, j := range c.joins {
		if j[0].alias != a && j[1].alias != a {
			joins = append(joins, j)
		}
	}
	c.joins = joins
	var gb []col
	for _, g := range c.groupBy {
		if g.alias != a {
			gb = append(gb, g)
		}
	}
	c.groupBy = gb
	if c.filter != nil && c.filter.mentions(a) {
		c.filter = nil
	}
	c.value.walk(func(e *vexpr) {
		if e.mentions(a) {
			*e = vexpr{op: "const", k: "1"}
		}
	})
	return c
}

func (e *vexpr) walk(fn func(*vexpr)) {
	if e == nil {
		return
	}
	fn(e)
	e.l.walk(fn)
	e.r.walk(fn)
}

// mentions reports whether e reads a column of FROM item a.
func (e *vexpr) mentions(a int) bool {
	found := false
	e.walk(func(x *vexpr) {
		switch {
		case x.op == "col" && x.c.alias == a, x.op == "sub" && x.sub.outer.alias == a:
			found = true
		}
	})
	return found
}

func (e *vexpr) clone() *vexpr {
	if e == nil {
		return nil
	}
	c := *e
	c.l, c.r = e.l.clone(), e.r.clone()
	if e.sub != nil {
		s := *e.sub
		c.sub = &s
	}
	return &c
}

func (q *rquery) clone() *rquery {
	c := *q
	c.arity = append([]int(nil), q.arity...)
	c.from = append([]int(nil), q.from...)
	c.joins = append([][2]col(nil), q.joins...)
	c.groupBy = append([]col(nil), q.groupBy...)
	c.filter = q.filter.clone()
	c.value = q.value.clone()
	return &c
}

// A fixture is the query's SQL script, a "-- mode: <Mode>" line and the
// stream, one "-- +R1 1 2.5" / "-- -R1 1 2.5" line per event.
func formatFixture(q *rquery, events []engine.Event, mode Mode) string {
	var b strings.Builder
	b.WriteString(q.sql())
	fmt.Fprintf(&b, "-- mode: %s\n", mode)
	for _, ev := range events {
		b.WriteString("-- " + formatEvent(ev) + "\n")
	}
	return b.String()
}

func formatEvent(ev engine.Event) string {
	sign := "-"
	if ev.Insert {
		sign = "+"
	}
	parts := []string{sign + ev.Relation}
	for _, v := range ev.Tuple {
		parts = append(parts, v.String())
	}
	return strings.Join(parts, " ")
}

// parseFixture reads a fixture back: its SQL is replayed verbatim.
func parseFixture(text string) (*rquery, []engine.Event, Mode, error) {
	var src strings.Builder
	var events []engine.Event
	mode := ModeDBToaster
	for _, line := range strings.Split(text, "\n") {
		body, isComment := strings.CutPrefix(line, "-- ")
		switch {
		case !isComment:
			src.WriteString(line + "\n")
		case strings.HasPrefix(body, "mode: "):
			name := strings.TrimPrefix(body, "mode: ")
			found := false
			for _, m := range []Mode{ModeDBToaster, ModeIVM, ModeREP, ModeNaive} {
				if m.String() == name {
					mode, found = m, true
				}
			}
			if !found {
				return nil, nil, 0, fmt.Errorf("unknown mode %q", name)
			}
		case strings.HasPrefix(body, "+") || strings.HasPrefix(body, "-"):
			f := strings.Fields(body)
			ev := engine.Event{Relation: f[0][1:], Insert: f[0][0] == '+'}
			for _, s := range f[1:] {
				if i, err := strconv.ParseInt(s, 10, 64); err == nil {
					ev.Tuple = append(ev.Tuple, types.Int(i))
				} else if x, err := strconv.ParseFloat(s, 64); err == nil {
					ev.Tuple = append(ev.Tuple, types.Float(x))
				} else {
					return nil, nil, 0, fmt.Errorf("event %q: bad value %q", body, s)
				}
			}
			events = append(events, ev)
		}
	}
	return &rquery{script: src.String()}, events, mode, nil
}
