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
	"dbtoaster/internal/exec"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/trigger"
	"dbtoaster/internal/types"
	"dbtoaster/internal/wal"
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
	// subs is the change-stream hub (subscribe.go), guarded by mu: the
	// subscriptions of each subscribed view, whose View carries the capture
	// delta accumulated since the last publication.
	subs map[string][]*Subscription
	// plans caches the per-relation execution plans (batch class plus one
	// compiled program per trigger), built lazily on first use and shared by
	// Apply and ApplyBatch; lastRel/lastPlan are a one-entry lookup cache
	// over it.
	plans    map[string]*relationPlan
	lastRel  string
	lastPlan *relationPlan
	// one is the writer-owned one-event unit a durable or served Apply
	// commits through, and grouping the scratch every unit is grouped in,
	// both reused so that a commit allocates no window.
	one      [1]Event
	grouping grouping
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
	// ExecCompiled (the default) runs each trigger as one compiled program,
	// in which a statement whose shape the compiler does not lower is an
	// interpreted step.
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
			for i := range tp.trig.Stmts {
				if tp.prog.Compiled(i) {
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
		subs:     map[string][]*Subscription{},
	}
	for i := range prog.Maps {
		m := prog.Maps[i]
		e.views[m.Name] = newView(m.Name, m.Keys)
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
		// The definition runs as an interpreted replacement statement.
		def := exec.CompileTrigger([]exec.Stmt{{RHS: m.Definition, TargetKeys: m.Keys,
			Target: e.views[m.Name], Replace: true, Interpret: true}}, nil)
		if _, err := def.Run(e, nil, 0, 1); err != nil {
			return fmt.Errorf("engine: init of %s: %w", m.Name, err)
		}
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

// Event is one single-tuple update of the input stream. It is the log's
// event type, so a commit unit is logged as it stands and a recovered record
// replays as it was decoded.
type Event = wal.Event

// Apply processes one update event through the relation's cached execution
// plan: the trigger's compiled program binds the tuple to the trigger
// arguments once and runs every statement, compiled or interpreted. A durable
// or served engine commits the event as a one-event unit (commit, batch.go):
// logged before it runs and, in serving mode, published as its own epoch, so
// snapshot readers and subscribers observe per-event granularity when events
// are applied one at a time. An engine nobody serves or logs runs the
// unlocked single-threaded path below.
func (e *Engine) Apply(ev Event) error {
	if e.dur != nil || e.serveActive.Load() {
		e.one[0] = ev
		return e.commit(e.one[:], false)
	}
	plan := e.planFor(ev.Relation)
	if plan == nil {
		// Relations that the query does not reference (or static relations)
		// are ignored, like events the paper's generated engines drop.
		return nil
	}
	// The body below is commit for a one-event unit with logging and serving
	// resolved away: Apply is the per-event hot loop of every single-threaded
	// replay, and the extra call layer is measurable there.
	tp := plan.triggerFor(&ev)
	if tp == nil {
		return nil
	}
	if len(tp.trig.Args) != len(ev.Tuple) {
		return fmt.Errorf("engine: event on %s carries %d values, trigger expects %d",
			ev.Relation, len(ev.Tuple), len(tp.trig.Args))
	}
	e.eventsPlain++
	return e.runTrigger(tp, ev.Tuple, 0, len(tp.trig.Stmts))
}

// publishLocked flushes the captured per-view deltas to subscribers at the
// end of a write-side mutation. Callers hold e.mu. Epoch invalidation itself
// needs no work here — Acquire compares its snapshot's (events, adminGen)
// pair against the engine's, so a publication with no subscribers costs the
// write path nothing beyond the events counter it already maintains, and the
// freeze of the new state is deferred to the next Acquire.
func (e *Engine) publishLocked() {
	if len(e.subs) != 0 {
		e.flushSubscribersLocked(e.events.Load())
	}
}

// Result returns the live GMR of the query result view. It belongs to the
// write side: the returned store aliases the engine's mutable state, so it
// must only be read from the goroutine driving Apply/ApplyBatch, between
// calls. Concurrent readers use Acquire().Result() instead. Like Relation,
// it returns an empty store when the program has no queries.
func (e *Engine) Result() *gmr.GMR {
	name, _ := e.prog.ResultMapFor("")
	return e.Relation(name)
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
