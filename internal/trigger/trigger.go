// Package trigger defines the trigger-program intermediate representation
// produced by the compiler (paper §7.1): a set of materialized map
// definitions and, for every update event ±R, a list of update statements
// that keep those maps fresh.
package trigger

import (
	"fmt"
	"sort"
	"strings"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/exec"
)

// StmtKind distinguishes incremental updates from full replacement.
type StmtKind uint8

const (
	// StmtIncrement is "foreach keys: M[keys] += RHS".
	StmtIncrement StmtKind = iota
	// StmtReplace is "M := RHS": the map contents are recomputed from the
	// right-hand side (the paper's re-evaluation strategy).
	StmtReplace
)

// Statement is a single view-maintenance statement inside a trigger.
type Statement struct {
	TargetMap  string
	TargetKeys []string
	Kind       StmtKind
	RHS        agca.Expr
	// Depth is the recursion depth of the target map (0 = the query result);
	// it drives the execution order inside a trigger so that shallower maps
	// read the old versions of deeper maps.
	Depth int

	// compiled caches the closure-based executor for the statement's RHS (or
	// the compile error that sent it back to the interpreter). Compilation is
	// lazy and not synchronized: Executor must be called from the engine's
	// driving goroutine, matching the engine's single-writer contract.
	compiled     *exec.Executor
	compileErr   error
	compileTried bool

	// blockCompiled caches the columnar block executor the same way (or the
	// error that keeps the statement row-at-a-time within batched windows).
	blockCompiled *exec.BlockExecutor
	blockErr      error
	blockTried    bool
}

// Executor returns the compiled executor for the statement under the given
// trigger arguments, compiling on first call. A non-nil error means the
// statement's shape is not lowered by the compiler and the caller should use
// the interpreter.
func (s *Statement) Executor(args []string) (*exec.Executor, error) {
	if !s.compileTried {
		s.compileTried = true
		s.compiled, s.compileErr = exec.CompileStatement(s.RHS, s.TargetKeys, args)
	}
	return s.compiled, s.compileErr
}

// BlockExecutor returns the columnar block executor for the statement under
// the given trigger arguments, compiling on first call. A non-nil error means
// the statement's shape is not block-lowerable (it binds variables per row or
// emits keys that are not trigger arguments) and batched windows should run
// it row-at-a-time. Like Executor, compilation is lazy and unsynchronized:
// call from the engine's driving goroutine.
func (s *Statement) BlockExecutor(args []string) (*exec.BlockExecutor, error) {
	if !s.blockTried {
		s.blockTried = true
		s.blockCompiled, s.blockErr = exec.CompileBlockStatement(s.RHS, s.TargetKeys, args)
	}
	return s.blockCompiled, s.blockErr
}

// String renders the statement in the paper's notation.
func (s Statement) String() string {
	op := "+="
	if s.Kind == StmtReplace {
		op = ":="
	}
	return fmt.Sprintf("%s[%s] %s %s", s.TargetMap, strings.Join(s.TargetKeys, ","), op, agca.String(s.RHS))
}

// ReadSet returns the names of every relation and materialized map the
// statement's right-hand side reads, sorted and without duplicates. The
// engine's batch scheduler uses read sets (against EventWriteSet) to decide
// whether the statements of an event window commute.
func (s *Statement) ReadSet() []string {
	set := map[string]bool{}
	for _, r := range agca.Relations(s.RHS) {
		set[r] = true
	}
	for _, m := range agca.MapRefs(s.RHS) {
		set[m] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WriteSet returns the names written by the statement (its target map).
func (s *Statement) WriteSet() []string { return []string{s.TargetMap} }

// Trigger is the maintenance code executed when one tuple is inserted into or
// deleted from Relation. Args names the trigger variables bound to the
// tuple's column values.
type Trigger struct {
	Relation string
	Insert   bool
	Args     []string
	Stmts    []Statement
}

// Key identifies the trigger's event.
func (t Trigger) Key() string {
	if t.Insert {
		return "+" + t.Relation
	}
	return "-" + t.Relation
}

// MapDef declares a materialized view: its key variables (the map's schema)
// and its defining AGCA expression over the base relations. Definition is
// used for duplicate-view elimination, re-evaluation statements and initial
// computation over preloaded static tables.
type MapDef struct {
	Name       string
	Keys       []string
	Definition agca.Expr
	Depth      int
	// IsBaseTable marks maps that simply mirror a base relation.
	IsBaseTable bool
	BaseRel     string
}

// QueryDef names one query compiled into a (possibly multi-query) program:
// which map holds its result, that map's key columns, and the full set of
// maps the query's maintenance depends on. In a hash-consed program several
// queries may list the same maps — those are the shared views.
type QueryDef struct {
	Name       string
	ResultMap  string
	ResultKeys []string
	// Maps lists every map reachable from ResultMap through the program's
	// maintenance statements (ResultMap itself included), sorted. A map that
	// appears in more than one query's list is maintained once and shared.
	Maps []string
}

// Program is a compiled trigger program.
type Program struct {
	QueryName  string
	ResultMap  string
	ResultKeys []string
	Maps       []MapDef
	Triggers   []Trigger
	// Relations maps every dynamic base relation to its column names.
	Relations map[string][]string
	// StaticRelations lists relations treated as static (loaded once, never
	// updated by triggers), as the paper does for Nation/Region.
	StaticRelations []string
	// Queries lists every query compiled into the program, in registration
	// order. Single-query programs carry one entry mirroring
	// QueryName/ResultMap/ResultKeys; multi-query (hash-consed) programs carry
	// one entry per registered query.
	Queries []QueryDef
}

// QueryByName returns the definition of the named query.
func (p *Program) QueryByName(name string) (QueryDef, bool) {
	for _, q := range p.Queries {
		if q.Name == name {
			return q, true
		}
	}
	return QueryDef{}, false
}

// ResultMapFor resolves a query name to its result map. The empty name means
// the program's primary query. Programs without query metadata (hand-built in
// tests) accept the empty name or the program's QueryName.
func (p *Program) ResultMapFor(query string) (string, error) {
	if query == "" || query == p.QueryName {
		return p.ResultMap, nil
	}
	if q, ok := p.QueryByName(query); ok {
		return q.ResultMap, nil
	}
	return "", fmt.Errorf("trigger: unknown query %q", query)
}

// MapQueryCounts returns, for every map in the program, how many queries
// depend on it. Counts greater than one mark shared views; the engine's
// memory report and the shared-map report are built from this.
func (p *Program) MapQueryCounts() map[string]int {
	out := make(map[string]int, len(p.Maps))
	for _, m := range p.Maps {
		out[m.Name] = 0
	}
	for _, q := range p.Queries {
		for _, name := range q.Maps {
			out[name]++
		}
	}
	return out
}

// TriggerFor returns the trigger for the given event, if any.
func (p *Program) TriggerFor(relation string, insert bool) (Trigger, bool) {
	for _, t := range p.Triggers {
		if t.Relation == relation && t.Insert == insert {
			return t, true
		}
	}
	return Trigger{}, false
}

// EventWriteSet returns the union of the target maps written by the insert
// and delete triggers of relation.
func (p *Program) EventWriteSet(relation string) map[string]bool {
	out := map[string]bool{}
	for _, t := range p.Triggers {
		if t.Relation != relation {
			continue
		}
		for _, s := range t.Stmts {
			out[s.TargetMap] = true
		}
	}
	return out
}

// BatchClass classifies how a window of events on one relation may execute.
type BatchClass uint8

const (
	// BatchNone: the triggers do not commute; the engine replays the window
	// sequentially, one trigger per event (the paper's exact semantics).
	BatchNone BatchClass = iota
	// BatchCommute: every statement is an increment and no statement reads a
	// map the window writes, so per-event deltas depend only on the
	// pre-window state and can be computed in any order and summed.
	BatchCommute
	// BatchReevalTail: the triggers are a commuting increment prefix followed
	// by argument-independent replacement statements. The increments batch
	// like BatchCommute; the replacement tail is idempotent in the event (its
	// right-hand sides mention no trigger arguments, so every event's tail
	// recomputes the same maps from the same inputs) and runs once per window
	// after the merged increments — exactly the state the last sequential
	// tail would have seen. VWAP's trailing "VWAP[] := ..." re-evaluation is
	// the motivating shape.
	BatchReevalTail
)

// RelationBatchSplit classifies the triggers of relation for batched
// execution, at statement granularity.
//
// BatchCommute requires increments only; BatchReevalTail additionally allows
// a trailing run of StmtReplace statements per trigger when (a) every
// replacement RHS mentions no trigger argument, so the tail computes the same
// result regardless of which event runs it, and (b) insert and delete
// triggers carry identical tails, so the window can run any one of them.
//
// An increment that reads a map the relation's triggers write (including the
// base relation itself — a statement scanning it must not batch with its
// updates) does not commute with the window. In a merged multi-query program
// such a statement of one query would otherwise sink the whole relation to
// BatchNone for every query sharing the trigger; the split instead isolates
// the conflict closure and lets the rest of the trigger batch.
//
// It returns the batch class together with, per trigger key, the sorted
// indices of the increment statements that must run per-event: every
// increment reading a map the relation's triggers write, closed under
// "maintains a map a sequential statement reads" across both directions.
// Statements outside the closure read only maps no statement of the window
// touches, so their per-event deltas depend solely on the pre-window state
// and batch exactly as in a BatchCommute group; the closure replays with
// per-event semantics. The two sets share no maps — the closure's reads pull
// their writers in, and a batchable statement by construction reads nothing
// the window writes — so the phases commute.
//
// The hard rejections keep the whole relation on the sequential path
// (BatchNone, nil map): a replacement reading a trigger argument, an
// increment after a replacement, diverging insert/delete tails, and a
// closure statement reading a replaced map (its per-event evaluation would
// observe the once-per-window tail stale).
func (p *Program) RelationBatchSplit(relation string) (BatchClass, map[string][]int) {
	writes := p.EventWriteSet(relation)
	if len(writes) == 0 {
		return BatchNone, nil
	}
	writes[relation] = true
	hasReplace := false
	var tails [][]string // rendered replacement tail of each trigger
	replaced := map[string]bool{}
	type incRef struct {
		key string
		idx int
		s   *Statement
	}
	var incs []incRef
	for ti := range p.Triggers {
		t := &p.Triggers[ti]
		if t.Relation != relation {
			continue
		}
		var tail []string
		for si := range t.Stmts {
			s := &t.Stmts[si]
			if s.Kind == StmtReplace {
				hasReplace = true
				// The tail may read anything (it runs on the final window
				// state, like the last sequential re-evaluation would), but
				// it must not depend on the triggering event.
				vars := agca.AllVars(s.RHS)
				for _, a := range t.Args {
					if vars[a] {
						return BatchNone, nil
					}
				}
				replaced[s.TargetMap] = true
				tail = append(tail, s.String())
				continue
			}
			if len(tail) > 0 {
				// An increment after a replacement breaks the prefix/tail
				// split (SortStatements never produces this order).
				return BatchNone, nil
			}
			incs = append(incs, incRef{key: t.Key(), idx: si, s: s})
		}
		tails = append(tails, tail)
	}
	if hasReplace {
		for _, tl := range tails[1:] {
			if len(tl) != len(tails[0]) {
				return BatchNone, nil
			}
			for i := range tl {
				if tl[i] != tails[0][i] {
					return BatchNone, nil
				}
			}
		}
	}
	// Seed the closure with every increment that reads a map the window
	// writes, then grow it: a map a sequential statement reads must itself be
	// maintained sequentially, in either direction's trigger.
	seq := make([]bool, len(incs))
	for i, r := range incs {
		for _, m := range r.s.ReadSet() {
			if writes[m] {
				seq[i] = true
				break
			}
		}
	}
	for changed := true; changed; {
		changed = false
		seqReads := map[string]bool{}
		for i, r := range incs {
			if seq[i] {
				for _, m := range r.s.ReadSet() {
					seqReads[m] = true
				}
			}
		}
		for i, r := range incs {
			if !seq[i] && seqReads[r.s.TargetMap] {
				seq[i] = true
				changed = true
			}
		}
	}
	var out map[string][]int
	for i, r := range incs {
		if !seq[i] {
			continue
		}
		for _, m := range r.s.ReadSet() {
			if replaced[m] {
				return BatchNone, nil
			}
		}
		if out == nil {
			out = map[string][]int{}
		}
		out[r.key] = append(out[r.key], r.idx)
	}
	if hasReplace {
		return BatchReevalTail, out
	}
	return BatchCommute, out
}

// SortStatements orders every trigger's statements for correct execution:
// incremental statements run shallow-first (so that they read the old values
// of deeper auxiliary maps), base-table maintenance runs next, and
// replacement (re-evaluation) statements run last, deepest-first, so that
// they see the new values of the maps they are rebuilt from.
func (p *Program) SortStatements() {
	baseRels := map[string]bool{}
	for _, m := range p.Maps {
		if m.IsBaseTable {
			baseRels[m.Name] = true
		}
	}
	for ti := range p.Triggers {
		stmts := p.Triggers[ti].Stmts
		sort.SliceStable(stmts, func(i, j int) bool {
			return stmtClass(stmts[i], baseRels) < stmtClass(stmts[j], baseRels)
		})
	}
}

// stmtClass computes the ordering key for a statement: incremental
// statements by ascending depth, then base-table updates, then replacements
// by descending depth.
func stmtClass(s Statement, baseRels map[string]bool) int {
	const band = 1000
	if s.Kind == StmtIncrement {
		if baseRels[s.TargetMap] {
			return 1*band + s.Depth
		}
		return s.Depth
	}
	return 2*band + (band - s.Depth)
}

// String renders the full program (maps then triggers), matching the style
// of the paper's Figure 3/4 listings.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- program %s (result %s[%s])\n", p.QueryName, p.ResultMap, strings.Join(p.ResultKeys, ","))
	b.WriteString("-- maps:\n")
	for _, m := range p.Maps {
		fmt.Fprintf(&b, "  %s[%s] := %s\n", m.Name, strings.Join(m.Keys, ","), agca.String(m.Definition))
	}
	for _, t := range p.Triggers {
		sign := "insert into"
		if !t.Insert {
			sign = "delete from"
		}
		fmt.Fprintf(&b, "on %s %s (%s):\n", sign, t.Relation, strings.Join(t.Args, ","))
		for _, s := range t.Stmts {
			fmt.Fprintf(&b, "  %s\n", s.String())
		}
	}
	return b.String()
}

// Stats summarizes the program size (used by the Figure 2 experiment).
type Stats struct {
	NumMaps       int
	NumBaseTables int
	NumTriggers   int
	NumStatements int
	NumReevals    int
	MaxDepth      int
}

// ComputeStats returns size statistics for the program.
func (p *Program) ComputeStats() Stats {
	st := Stats{NumMaps: len(p.Maps), NumTriggers: len(p.Triggers)}
	for _, m := range p.Maps {
		if m.IsBaseTable {
			st.NumBaseTables++
		}
		if m.Depth > st.MaxDepth {
			st.MaxDepth = m.Depth
		}
	}
	for _, t := range p.Triggers {
		st.NumStatements += len(t.Stmts)
		for _, s := range t.Stmts {
			if s.Kind == StmtReplace {
				st.NumReevals++
			}
		}
	}
	return st
}
