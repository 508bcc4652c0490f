package engine

import (
	"fmt"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/trigger"
	"dbtoaster/internal/types"
)

// Snapshot is one published epoch of the engine: an immutable, mutually
// consistent image of every materialized view, pinned at an event/batch
// boundary. All methods are read-only and safe for any number of goroutines,
// concurrently with continued maintenance on the engine — the view stores are
// frozen copy-on-write headers (gmr.Freeze), so acquisition copies no data
// and holding a snapshot costs the writer one slot/probe-table copy per view
// it subsequently mutates.
//
// A Snapshot implements agca.Database and agca.Prober, so ad-hoc AGCA
// expressions can be evaluated against a pinned epoch with Eval while the
// engine keeps processing updates. It is not an agca.Binder: secondary
// indexes are writer-only state of the live stores, so compiled executors
// run against a snapshot scan what they probe.
type Snapshot struct {
	version uint64
	events  uint64
	admin   uint64
	prog    *trigger.Program
	views   map[string]*gmr.GMR
	statics map[string]*gmr.GMR
}

// Acquire pins the current epoch and returns its snapshot. Acquisition is
// O(#views), independent of the data held in them: each view contributes one
// frozen header (reused as-is when the view did not change since the last
// acquisition). While no write intervenes, repeated Acquire calls return the
// same *Snapshot without taking the writer lock. Snapshots need no release —
// dropping the last reference lets the garbage collector reclaim the frozen
// state.
//
// The first Acquire (or Subscribe) switches the engine into serving mode and
// must not race with a write: pin the first snapshot during setup or from
// the writer goroutine. Every later Acquire is safe from any goroutine,
// concurrently with maintenance.
func (e *Engine) Acquire() *Snapshot {
	if s := e.current.Load(); s != nil && s.fresh(e) {
		return s
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.acquireLocked()
}

// fresh reports whether the snapshot still describes the engine's current
// state: the state changes exactly when the events counter advances (stream
// mutations) or adminGen does (Init/LoadStatic). Two lock-free loads, so the
// quiescent re-acquire path costs nanoseconds.
func (s *Snapshot) fresh(e *Engine) bool {
	return s.events == e.events.Load() && s.admin == e.adminGen.Load()
}

// enterServeLocked flips the engine into serving mode (idempotent): the
// plain event count migrates to the atomic epoch clock and every subsequent
// write takes the serialized path. Callers hold e.mu; per the serving
// contract the first flip does not race with a write.
func (e *Engine) enterServeLocked() {
	if e.serveActive.Load() {
		return
	}
	e.events.Store(e.eventsPlain)
	e.serveActive.Store(true)
}

// acquireLocked builds (or reuses) the snapshot of the current epoch.
// Callers hold e.mu, so the epoch cannot advance mid-freeze and the snapshot
// is consistent across views.
func (e *Engine) acquireLocked() *Snapshot {
	e.enterServeLocked()
	if s := e.current.Load(); s != nil && s.fresh(e) {
		return s
	}
	e.snapVersion++
	s := &Snapshot{
		version: e.snapVersion,
		events:  e.events.Load(),
		admin:   e.adminGen.Load(),
		prog:    e.prog,
		views:   make(map[string]*gmr.GMR, len(e.views)),
		statics: e.statics,
	}
	for name, view := range e.views {
		s.views[name] = view.data.Freeze()
	}
	e.current.Store(s)
	return s
}

// Version identifies the snapshot: it increases with every distinct snapshot
// the engine builds, so a larger version means a later epoch. Use Events for
// stream positions.
func (s *Snapshot) Version() uint64 { return s.version }

// Events returns the number of update events the engine had processed when
// this epoch was published. engine.Events() minus it is the snapshot's
// staleness in events.
func (s *Snapshot) Events() uint64 { return s.events }

// Result returns the frozen result view of the primary query (an empty
// store when the program has no queries).
func (s *Snapshot) Result() *gmr.GMR {
	name, _ := s.prog.ResultMapFor("")
	return s.Relation(name)
}

// View returns the frozen store of the named materialized view (nil if
// unknown).
func (s *Snapshot) View(name string) *gmr.GMR { return s.views[name] }

// Relation implements agca.Database over the frozen state: materialized
// views resolve to their frozen stores, other names to the static tables (or
// an empty relation), mirroring Engine.Relation.
func (s *Snapshot) Relation(name string) *gmr.GMR {
	if g, ok := s.views[name]; ok {
		return g
	}
	if g, ok := s.statics[name]; ok {
		return g
	}
	return gmr.New(nil)
}

// Probe implements agca.Prober. Fully-bound in-order probes go through the
// store's hash table; partial bindings scan, since frozen views and the
// shared statics carry no secondary indexes a reader may use — snapshots
// serve consumers, which overwhelmingly read whole results or point-look
// them up.
func (s *Snapshot) Probe(name string, cols []int, vals []types.Value) []gmr.Entry {
	g := s.Relation(name)
	if fullInOrder(cols, len(g.Schema())) {
		return probe(g, cols, vals)
	}
	var out []gmr.Entry
	g.Foreach(func(t types.Tuple, m float64) {
		for i, c := range cols {
			if !t[c].Equal(vals[i]) {
				return
			}
		}
		out = append(out, gmr.Entry{Tuple: t, Mult: m})
	})
	return out
}

// Eval evaluates an ad-hoc AGCA expression against the snapshot — a
// consistent read of an arbitrary query over the pinned epoch, served
// concurrently with maintenance.
func (s *Snapshot) Eval(expr agca.Expr) (*gmr.GMR, error) {
	return agca.EvalChecked(expr, s, types.Env{})
}

// ViewSizes returns the entry count of every materialized view at this
// epoch.
func (s *Snapshot) ViewSizes() map[string]int {
	out := make(map[string]int, len(s.views))
	for name, g := range s.views {
		out[name] = g.Len()
	}
	return out
}

// MemoryBytes estimates the bytes held by the frozen stores of all views.
// Frozen stores carry no secondary indexes — those belong to the live stores,
// and Engine.MemoryBytes includes them.
func (s *Snapshot) MemoryBytes() int {
	total := 0
	for _, g := range s.views {
		total += g.MemSize()
	}
	return total
}

// String summarizes the snapshot.
func (s *Snapshot) String() string {
	return fmt.Sprintf("Snapshot{epoch %d, %d events, %d views}", s.version, s.events, len(s.views))
}
