// Package engine executes compiled trigger programs: it owns the materialized
// views (the paper's map data structures with secondary indexes), applies
// update events by running the corresponding trigger's statements, and exposes
// the continuously fresh query result.
//
// The engine is split into a write-side runtime and a read-side serving
// layer. The write side (Apply, ApplyBatch) maintains the views and must be
// driven from one goroutine. The read side is safe from any number of
// goroutines concurrently with maintenance: Acquire pins the current epoch —
// a consistent, immutable cross-view Snapshot published at event/batch
// boundaries — and Subscribe streams per-view change batches to push-style
// consumers (see subscribe.go).
package engine

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/trigger"
	"dbtoaster/internal/types"
)

// Engine is an in-memory view maintenance runtime for one compiled trigger
// program. Single events are applied with Apply; windows of events can be
// applied with ApplyBatch, which runs every event through the same per-event
// plan, grouped by relation, and amortises only deferrable re-evaluation
// tails, logging and publication over the window. The write side must be
// driven from one goroutine (Apply and ApplyBatch are not safe to call
// concurrently with each other); readers use Acquire and Subscribe, which are
// safe concurrently with the write side.
type Engine struct {
	prog  *trigger.Program
	views map[string]*View
	// statics are the engine's own copies of the static tables (LoadStatic
	// clones them), shared read-only with snapshots.
	statics map[string]*gmr.GMR
	// handles holds the bound probe paths (Bind), one per name and column
	// list.
	handles map[string]*viewHandle
	// triggers indexed by event key for O(1) dispatch.
	triggers map[string]*trigger.Trigger
	// mu serializes the write side (Apply/ApplyBatch/Init/LoadStatic) with
	// epoch acquisition and subscription changes. Writers hold it for the
	// duration of an event or batch, so Acquire observes only event/batch
	// boundaries; it is uncontended on the per-event hot path.
	mu sync.Mutex
	// serveActive is the maintain/serve mode switch. It starts false: the
	// write path then takes no lock and counts events in eventsPlain — the
	// exact single-threaded hot path of an engine nobody reads concurrently.
	// The first Acquire or Subscribe flips it (permanently): writers then
	// serialize on mu per event/batch and maintain the atomic events
	// counter, which serving-side readers use as the lock-free epoch clock.
	// The flip itself must not race with a write — acquire the first
	// snapshot (or subscription) before concurrent maintenance begins, e.g.
	// during setup or from the writer goroutine; from then on Acquire and
	// Subscribe are safe from any goroutine.
	serveActive atomic.Bool
	eventsPlain uint64
	// events counts processed update events in serving mode; it is atomic so
	// readers measure staleness lock-free, and it doubles as the epoch
	// invalidation clock: state changes exactly when events advances (or,
	// for non-stream mutations like Init/LoadStatic, when adminGen does).
	// snapVersion numbers the distinct snapshots built, purely for
	// identification; it is only touched under mu.
	events      atomic.Uint64
	adminGen    atomic.Uint64
	snapVersion uint64
	// current caches the snapshot of the newest published epoch; Acquire
	// returns it without locking while no write has intervened.
	current atomic.Pointer[Snapshot]
	// subs and capture implement the change-stream hub (subscribe.go): both
	// are guarded by mu. capture holds, for each view with at least one
	// subscriber, the delta accumulated since the last publication;
	// capturing mirrors len(capture) != 0 as one plain bool so the
	// per-statement check costs a single load (it only flips under mu, and
	// only in serving mode, where writers hold mu too).
	subs      map[string][]*Subscription
	capture   map[string]*gmr.GMR
	capturing bool
	// plans caches the per-relation execution plans (batch class plus
	// per-statement compiled executors), built lazily on first use and
	// shared by Apply and ApplyBatch; lastRel/lastPlan are a
	// one-entry lookup cache over it.
	plans    map[string]*relationPlan
	lastRel  string
	lastPlan *relationPlan
	// execMode selects compiled executors or the interpreter.
	execMode ExecMode
	// dur is the armed durability state (durable.go): non-nil after
	// SetDurability, at which point Apply/ApplyBatch tee events through the
	// write-ahead log before executing them. Written from the writer
	// goroutine only.
	dur *durability
	// recoveredLSN is the committed log position Recover reconstructed;
	// SetDurability resumes logging there.
	recoveredLSN uint64
}

// ExecMode selects how trigger statements are executed.
type ExecMode int

const (
	// ExecCompiled (the default) runs each statement through its compiled
	// closure executor, falling back to the interpreter per statement when
	// the compiler does not lower its shape.
	ExecCompiled ExecMode = iota
	// ExecInterp forces the tree-walking AGCA interpreter for every
	// statement.
	ExecInterp
)

// SetExecMode switches between compiled executors and the interpreter.
// Cached plans are rebuilt on next use.
func (e *Engine) SetExecMode(m ExecMode) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.execMode = m
	e.plans = map[string]*relationPlan{}
	e.lastRel, e.lastPlan = "", nil
}

// SetColumnar is a no-op, kept so existing callers build: ApplyBatch runs
// every event through the per-event compiled plan, so there is no columnar
// window path to switch on or off.
func (e *Engine) SetColumnar(on bool) {}

// ExecStats reports, across the relation plans built so far, how many
// statements run compiled and how many fell back to the interpreter.
type ExecStats struct {
	CompiledStmts int
	InterpStmts   int
}

// ExecStats summarizes the executor coverage of the plans built so far.
func (e *Engine) ExecStats() ExecStats {
	var st ExecStats
	for _, p := range e.plans {
		if p == nil {
			continue
		}
		for _, tp := range []*triggerPlan{p.insert, p.delete} {
			if tp == nil {
				continue
			}
			for i := range tp.stmts {
				if tp.stmts[i].exec != nil {
					st.CompiledStmts++
				} else {
					st.InterpStmts++
				}
			}
		}
	}
	return st
}

// New creates an engine for the program. Views whose definitions reference
// only static relations are initialized eagerly once the static tables have
// been loaded with LoadStatic; call Init after loading them.
func New(prog *trigger.Program) *Engine {
	e := &Engine{
		prog:     prog,
		views:    make(map[string]*View, len(prog.Maps)),
		statics:  map[string]*gmr.GMR{},
		handles:  map[string]*viewHandle{},
		triggers: map[string]*trigger.Trigger{},
		plans:    map[string]*relationPlan{},
	}
	for i := range prog.Maps {
		m := prog.Maps[i]
		e.views[m.Name] = NewView(m.Name, m.Keys)
	}
	for i := range prog.Triggers {
		t := &prog.Triggers[i]
		e.triggers[t.Key()] = t
	}
	return e
}

// SetShards is a no-op, kept so existing callers build: ApplyBatch runs on
// the driving goroutine and starts no workers.
func (e *Engine) SetShards(n int) {}

// Program returns the compiled program the engine runs.
func (e *Engine) Program() *trigger.Program { return e.prog }

// LoadStatic installs the contents of a static relation (loaded before the
// stream starts, like TPC-H's Nation/Region in the paper's setup). The engine
// stores a clone, so the caller keeps its GMR and may load it into other
// engines; the clone gets the same secondary indexes as maintained views, so
// probes against it are hash lookups rather than full scans. Snapshots share
// the static tables, so the map is replaced copy-on-write: snapshots acquired
// before the load keep the old table set.
func (e *Engine) LoadStatic(name string, data *gmr.GMR) {
	e.mu.Lock()
	defer e.mu.Unlock()
	statics := make(map[string]*gmr.GMR, len(e.statics)+1)
	for n, g := range e.statics {
		statics[n] = g
	}
	statics[name] = data.Clone()
	e.statics = statics
	e.adminGen.Add(1)
}

// Init evaluates the definitions of views that depend only on static
// relations (they receive no trigger statements) so that they are correct
// before the first update arrives.
func (e *Engine) Init() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.adminGen.Add(1)
	for _, m := range e.prog.Maps {
		if m.IsBaseTable {
			continue
		}
		rels := agca.Relations(m.Definition)
		if len(rels) == 0 {
			continue
		}
		dynamic := false
		for _, r := range rels {
			if _, ok := e.prog.Relations[r]; ok {
				dynamic = true
				break
			}
		}
		if dynamic {
			continue
		}
		res, err := agca.EvalChecked(m.Definition, e, types.Env{})
		if err != nil {
			return fmt.Errorf("engine: init of %s: %w", m.Name, err)
		}
		g := e.views[m.Name].data
		g.Clear()
		if res.IsEmpty() {
			// A truncated empty result may not carry every column.
			continue
		}
		cols := make([]int, len(m.Keys))
		for i, k := range m.Keys {
			if cols[i] = res.Schema().Index(k); cols[i] < 0 {
				return fmt.Errorf("engine: init of %s: result lacks key column %q (schema %v)", m.Name, k, res.Schema())
			}
		}
		key := make(types.Tuple, len(cols))
		res.Foreach(func(t types.Tuple, mult float64) {
			for i, c := range cols {
				key[i] = t[c]
			}
			g.Add(key, mult)
		})
	}
	return nil
}

// Relation implements agca.Database: map references and relation atoms in
// statements resolve to materialized views, and names not backed by a view
// resolve to static tables (or an empty relation).
func (e *Engine) Relation(name string) *gmr.GMR {
	if g := e.lookup(name); g != nil {
		return g
	}
	return gmr.New(nil)
}

// lookup resolves a name the way Relation does: a materialized view's store
// first, then a static table; nil when neither exists.
func (e *Engine) lookup(name string) *gmr.GMR {
	if v, ok := e.views[name]; ok {
		return v.data
	}
	return e.statics[name]
}

// Probe implements agca.Prober, the interpreter's probe path, through the
// stores' secondary indexes; static tables get them too.
func (e *Engine) Probe(name string, cols []int, vals []types.Value) []gmr.Entry {
	if g := e.lookup(name); g != nil {
		return probe(g, cols, vals)
	}
	return nil
}

// Bind implements agca.Binder, the compiled executors' probe path: the
// handle resolves the name and the column list to a store and its secondary
// index once, so a probe through it only encodes, looks up and visits. The
// engine keeps one handle per (name, columns), shared by every statement. It
// belongs to the write side, like Apply.
func (e *Engine) Bind(name string, cols []int) agca.Handle {
	key := []byte(name)
	for _, c := range cols {
		key = strconv.AppendInt(append(key, '|'), int64(c), 10)
	}
	h := e.handles[string(key)]
	if h == nil {
		h = &viewHandle{e: e, name: name, cols: cols}
		h.resolve()
		e.handles[string(key)] = h
	}
	return h
}

// Event is one single-tuple update of the input stream.
type Event struct {
	Relation string
	Insert   bool
	Tuple    types.Tuple
}

// Apply processes one update event through the relation's cached execution
// plan: compiled statements run their closure executors, the rest bind the
// trigger arguments to the tuple's values and take the interpreter. In
// serving mode a new epoch is published after the event, so snapshot readers
// and subscribers observe per-event granularity when events are applied one
// at a time; an engine nobody serves runs the unlocked single-threaded path.
func (e *Engine) Apply(ev Event) error {
	if e.dur != nil {
		// Durable engines log the event ahead of executing it (durable.go);
		// the nil check is the only cost on the memory-only path.
		return e.applyDurable(ev)
	}
	if e.serveActive.Load() {
		return e.applyServing(ev)
	}
	plan := e.planFor(ev.Relation)
	if plan == nil {
		// Relations that the query does not reference (or static relations)
		// are ignored, like events the paper's generated engines drop.
		return nil
	}
	// The body below mirrors applyPlanned (the serving and durable paths'
	// helper) with the serving branches resolved away: Apply is the per-event
	// hot loop of every single-threaded replay, and the extra call layer is
	// measurable there.
	tp := plan.delete
	if ev.Insert {
		tp = plan.insert
	}
	if tp == nil {
		return nil
	}
	if len(tp.trig.Args) != len(ev.Tuple) {
		return fmt.Errorf("engine: event on %s carries %d values, trigger expects %d",
			ev.Relation, len(ev.Tuple), len(tp.trig.Args))
	}
	e.eventsPlain++
	var env types.Env
	for si := range tp.stmts {
		if err := e.executeStmt(&tp.stmts[si], ev.Tuple, tp.trig.Args, &env); err != nil {
			return fmt.Errorf("engine: %s: statement %q: %w", tp.trig.Key(), tp.stmts[si].stmt.String(), err)
		}
	}
	return nil
}

// applyServing is Apply's serving-mode path: serialized against snapshot
// acquisition and subscription changes, publishing an epoch after the event.
func (e *Engine) applyServing(ev Event) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	plan := e.planFor(ev.Relation)
	if plan == nil {
		return nil
	}
	err := e.applyPlanned(plan, &ev, true)
	e.publishLocked()
	return err
}

// applyPlanned runs one event through its relation plan. In serving mode
// (serve true), callers hold e.mu and publish the epoch afterwards. Apply's
// unobserved fast path mirrors this body — keep the two in sync.
func (e *Engine) applyPlanned(plan *relationPlan, ev *Event, serve bool) error {
	tp := plan.triggerFor(ev)
	if tp == nil {
		return nil
	}
	if err := checkEvent(tp, ev); err != nil {
		return err
	}
	if serve {
		e.events.Add(1)
	} else {
		e.eventsPlain++
	}
	return e.runStmts(tp, tp.stmts, ev.Tuple)
}

// executeStmt runs one statement of the sequential path. Compiled increments
// whose RHS does not read their own target emit straight into the view;
// everything else goes through the plan's scratch delta first (replacement
// statements must fully evaluate before the target is cleared). A compiled
// statement that fails mid-emission on a semantic error (a malformed program)
// may leave a partial direct-emit delta applied; valid programs never hit
// this.
func (e *Engine) executeStmt(sp *stmtPlan, tuple types.Tuple, args []string, env *types.Env) error {
	var cap *gmr.GMR
	if e.capturing {
		cap = e.capture[sp.stmt.TargetMap]
	}
	if sp.exec == nil || e.execMode == ExecInterp {
		if *env == nil {
			*env = make(types.Env, len(args))
			for i, a := range args {
				(*env)[a] = tuple[i]
			}
		}
		return e.execute(sp.stmt, *env, cap)
	}
	if sp.directEmit && cap == nil {
		return sp.exec.RunCached(&sp.cache, e, tuple, sp.target.data)
	}
	if sp.directEmit {
		// A subscribed target cannot take the straight-into-view emission
		// path: the rows are teed into the view's capture delta as they are
		// emitted.
		return sp.exec.RunCached(&sp.cache, e, tuple, teeAccum{g: sp.target.data, delta: cap})
	}
	if sp.scratch == nil {
		sp.scratch = gmr.New(types.Schema(sp.target.Keys()))
	} else {
		sp.scratch.Reset()
	}
	if err := sp.exec.RunCached(&sp.cache, e, tuple, sp.scratch); err != nil {
		return err
	}
	if sp.stmt.Kind == trigger.StmtReplace {
		if cap != nil {
			// A replacement's change is the difference: retract the old
			// contents, then the new ones are added below.
			cap.MergeInto(sp.target.data, -1)
		}
		sp.target.data.Clear()
	}
	sp.target.data.MergeInto(sp.scratch, 1)
	if cap != nil {
		cap.MergeInto(sp.scratch, 1)
	}
	return nil
}

// execute runs one maintenance statement under the trigger environment. When
// cap is non-nil the statement's net change to the target is additionally
// accumulated into it (the subscription hub's capture delta).
func (e *Engine) execute(s *trigger.Statement, env types.Env, cap *gmr.GMR) error {
	res, err := agca.EvalChecked(s.RHS, e, env)
	if err != nil {
		return err
	}
	v, ok := e.views[s.TargetMap]
	if !ok {
		return fmt.Errorf("unknown target map %q", s.TargetMap)
	}
	target := v.data
	if s.Kind == trigger.StmtReplace {
		if cap != nil {
			cap.MergeInto(target, -1)
		}
		target.Clear()
	}

	schema := res.Schema()
	// Pre-compute, for every target key, whether it comes from the trigger
	// environment or from a result column.
	type keySrc struct {
		fromEnv bool
		val     types.Value
		col     int
	}
	srcs := make([]keySrc, len(s.TargetKeys))
	for i, k := range s.TargetKeys {
		if v, bound := env[k]; bound {
			srcs[i] = keySrc{fromEnv: true, val: v}
			continue
		}
		col := schema.Index(k)
		if col < 0 {
			if res.IsEmpty() {
				// Nothing to apply; a truncated empty result may not carry
				// every column.
				return nil
			}
			return fmt.Errorf("result lacks key column %q (schema %v)", k, schema)
		}
		srcs[i] = keySrc{col: col}
	}

	res.Foreach(func(t types.Tuple, m float64) {
		key := make(types.Tuple, len(srcs))
		for i, src := range srcs {
			if src.fromEnv {
				key[i] = src.val
			} else {
				key[i] = t[src.col]
			}
		}
		target.Add(key, m)
		if cap != nil {
			cap.Add(key, m)
		}
	})
	return nil
}

// publishLocked flushes the captured per-view deltas to subscribers at the
// end of a write-side mutation. Callers hold e.mu. Epoch invalidation itself
// needs no work here — Acquire compares its snapshot's (events, adminGen)
// pair against the engine's, so a publication with no subscribers costs the
// write path nothing beyond the events counter it already maintains, and the
// freeze of the new state is deferred to the next Acquire.
func (e *Engine) publishLocked() {
	if e.capturing {
		e.flushSubscribersLocked(e.events.Load())
	}
}

// Result returns the live GMR of the query result view. It belongs to the
// write side: the returned store aliases the engine's mutable state, so it
// must only be read from the goroutine driving Apply/ApplyBatch, between
// calls. Concurrent readers use Acquire().Result() instead.
func (e *Engine) Result() *gmr.GMR {
	return e.Relation(e.prog.ResultMap)
}

// View returns the named materialized view (nil if unknown). Like Result,
// the view is live write-side state.
func (e *Engine) View(name string) *View { return e.views[name] }

// countEvents bumps the live event counter: the atomic epoch clock in
// serving mode, a plain increment on the unobserved single-threaded path.
func (e *Engine) countEvents(n uint64) {
	if e.serveActive.Load() {
		e.events.Add(n)
	} else {
		e.eventsPlain += n
	}
}

// Events returns the number of update events processed. In serving mode it
// is safe to call concurrently with the write side (serving readers use it
// to measure staleness against a snapshot's Events).
func (e *Engine) Events() uint64 {
	if e.serveActive.Load() {
		return e.events.Load()
	}
	return e.eventsPlain
}

// MemoryBytes estimates the memory held by all materialized views (each
// store with its secondary-index postings), mirroring the paper's per-query
// memory traces. It takes the writer lock, so it observes the views at an
// event/batch boundary and is safe concurrently with the write side.
func (e *Engine) MemoryBytes() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	total := 0
	for _, v := range e.views {
		total += v.data.MemSize()
	}
	return total
}

// ViewSizes returns the entry count of every materialized view. In serving
// mode it reads the current epoch's snapshot and is safe concurrently with
// the write side; before serving starts it reads the live views directly
// (single-goroutine, like the rest of the write-side API) rather than
// flipping the engine into serving mode as a side effect.
func (e *Engine) ViewSizes() map[string]int {
	if !e.serveActive.Load() {
		out := make(map[string]int, len(e.views))
		for name, v := range e.views {
			out[name] = v.data.Len()
		}
		return out
	}
	return e.Acquire().ViewSizes()
}
