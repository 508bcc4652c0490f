// Package trigger defines the trigger-program intermediate representation
// produced by the compiler (paper §7.1): a set of materialized map
// definitions and, for every update event ±R, a list of update statements
// that keep those maps fresh.
package trigger

import (
	"fmt"
	"slices"
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
}

// Executor compiles the statement's closure-based executor under the given
// trigger arguments. A non-nil error means the statement's shape is not
// lowered by the compiler and the caller should use the interpreter. Nothing
// is cached on the statement: a Program is read-only, so engines sharing one
// may run on different goroutines, and each compiles into its own plans.
func (s *Statement) Executor(args []string) (*exec.Executor, error) {
	return exec.CompileStatement(s.RHS, s.TargetKeys, args)
}

// BlockExecutor compiles the statement like Executor, wrapped to run over an
// exec.Block one row at a time. The engine never calls this; it serves only
// the traced exec rungs of the benchmark, and ROADMAP item 1(a) deletes it
// together with them.
func (s *Statement) BlockExecutor(args []string) (*exec.BlockExecutor, error) {
	return exec.CompileBlockStatement(s.RHS, s.TargetKeys, args)
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
// statement's right-hand side reads, sorted and without duplicates.
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

// ResultMapFor resolves a query name to its result map. The empty name means
// the program's primary query. Programs without query metadata (hand-built in
// tests) accept the empty name or the program's QueryName.
func (p *Program) ResultMapFor(query string) (string, error) {
	if query == "" || query == p.QueryName {
		return p.ResultMap, nil
	}
	for _, q := range p.Queries {
		if q.Name == query {
			return q.ResultMap, nil
		}
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

// BatchClass classifies how a window of events on one relation may execute.
// Every event of a window runs its trigger's increments in stream order, as
// Apply would; the class only says whether the replacement tail must run per
// event too.
type BatchClass uint8

const (
	// BatchNone: every event runs its whole trigger (the paper's exact
	// one-trigger-per-event semantics). Relations without a replacement
	// tail, or whose tail cannot be deferred, get this class.
	BatchNone BatchClass = iota
	// BatchReevalTail: the triggers end in a replacement tail that runs once,
	// after the window's last event, instead of once per event. The tail is
	// idempotent in the event (its right-hand sides mention no trigger
	// argument, so every event's tail recomputes the same maps from the same
	// inputs) and nothing earlier in the window reads what it replaces, so one
	// run on the post-window state leaves exactly what the last per-event
	// tail would have. VWAP's trailing "VWAP[] := ..." re-evaluation is the
	// motivating shape.
	BatchReevalTail
)

// RelationBatchSplit classifies the triggers of relation for windowed
// execution. It returns BatchReevalTail when the triggers carry a replacement
// tail that may be deferred to the end of a window:
//
//   - no replacement RHS mentions a trigger argument;
//   - the insert and delete triggers carry identical tails, so the window can
//     run either one;
//   - no increment follows a replacement, so the tail is a suffix;
//   - no increment reads a map the tail replaces — it would observe the tail
//     stale for every event but the first.
//
// Anything else, including a relation without triggers or without
// replacements, is BatchNone.
func (p *Program) RelationBatchSplit(relation string) BatchClass {
	var tails [][]string // rendered replacement tail of each trigger
	replaced := map[string]bool{}
	var incs []*Statement
	for ti := range p.Triggers {
		t := &p.Triggers[ti]
		if t.Relation != relation {
			continue
		}
		var tail []string
		for si := range t.Stmts {
			s := &t.Stmts[si]
			if s.Kind == StmtIncrement {
				if len(tail) > 0 {
					return BatchNone
				}
				incs = append(incs, s)
				continue
			}
			vars := agca.AllVars(s.RHS)
			for _, a := range t.Args {
				if vars[a] {
					return BatchNone
				}
			}
			replaced[s.TargetMap] = true
			tail = append(tail, s.String())
		}
		tails = append(tails, tail)
	}
	if len(replaced) == 0 {
		return BatchNone
	}
	for _, tl := range tails[1:] {
		if !slices.Equal(tl, tails[0]) {
			return BatchNone
		}
	}
	for _, s := range incs {
		for _, m := range s.ReadSet() {
			if replaced[m] {
				return BatchNone
			}
		}
	}
	return BatchReevalTail
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
