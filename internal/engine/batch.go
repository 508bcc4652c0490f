package engine

import (
	"fmt"
	"slices"

	"dbtoaster/internal/exec"
	"dbtoaster/internal/trigger"
	"dbtoaster/internal/types"
)

// Batch is a window of stream events for ApplyBatch. It refers to the
// caller's slice instead of copying it: the caller must not modify the
// window's elements until ApplyBatch returns, and may overwrite them after.
// The events' tuples are shared with the engine, as Apply's are: the caller
// must not modify them at all, since a durable engine may still be logging
// them. ApplyBatch groups the window by target relation as it commits it;
// grouping preserves the relative order of events on the same relation and
// the first-appearance order of the relations, and because every trigger
// program maintains its maps exactly, the final view contents after a window
// do not depend on the interleaving of events on different relations, which
// is what makes the per-relation grouping sound.
type Batch struct {
	events []Event
}

// NewBatch wraps a window of events for ApplyBatch. It neither copies nor
// groups them, so it costs one small allocation however long the window.
func NewBatch(events []Event) *Batch { return &Batch{events: events} }

// Len returns the number of events in the batch.
func (b *Batch) Len() int { return len(b.events) }

// grouping is the writer-owned scratch a commit unit is grouped in, reused
// across units: order lists the unit's event indexes in grouped order, and
// each group is one contiguous run of it. The index slices hold no pointers,
// so a reused grouping keeps no tuple alive.
type grouping struct {
	groups []eventGroup
	gid    []int32 // the group of each event, in stream order
	order  []int32
}

// eventGroup is the run order[lo:hi] of one relation's events, with the
// relation's plan (nil when the program ignores the relation).
type eventGroup struct {
	relation string
	plan     *relationPlan
	lo, hi   int
}

// group groups events by relation with a stable counting sort: the
// relations are found by a linear scan of the groups seen so far (windows
// touch a handful of relations; runs of one relation hit the previous
// event's group first), and a second pass over the group ids places the
// indexes.
func (g *grouping) group(e *Engine, events []Event) {
	n := len(events)
	g.gid = slices.Grow(g.gid[:0], n)[:n]
	g.order = slices.Grow(g.order[:0], n)[:n]
	g.groups = g.groups[:0]
	gi := -1
	for i := range events {
		rel := events[i].Relation
		if gi < 0 || g.groups[gi].relation != rel {
			gi = slices.IndexFunc(g.groups, func(grp eventGroup) bool { return grp.relation == rel })
			if gi < 0 {
				gi = len(g.groups)
				g.groups = append(g.groups, eventGroup{relation: rel, plan: e.planFor(rel)})
			}
		}
		g.groups[gi].hi++
		g.gid[i] = int32(gi)
	}
	off := 0
	for i := range g.groups {
		grp := &g.groups[i]
		grp.lo, grp.hi, off = off, off, off+grp.hi
	}
	for i, gi := range g.gid {
		grp := &g.groups[gi]
		g.order[grp.hi] = int32(i)
		grp.hi++
	}
}

// relationPlan is the cached execution plan for one relation's events, shared
// by Apply and ApplyBatch.
type relationPlan struct {
	// class is trigger.Program.RelationBatchSplit's verdict on the relation:
	// BatchReevalTail groups defer the replacement tail to the end of the
	// group, BatchNone groups run every event's whole trigger.
	class  trigger.BatchClass
	insert *triggerPlan
	delete *triggerPlan
}

// triggerPlan is one trigger compiled into one program (exec.Trigger), its
// statements' sinks fixed to their target views.
type triggerPlan struct {
	trig *trigger.Trigger
	prog *exec.Trigger
	// incEnd is the end of the increment prefix: statements [incEnd:] are the
	// replacement tail a BatchReevalTail group runs once per window.
	incEnd int
}

// planFor returns (building and caching if necessary) the execution plan for
// the relation's events, or nil when the program has no triggers for it. A
// one-entry cache short-circuits the common case of long runs of events on
// the same relation.
func (e *Engine) planFor(relation string) *relationPlan {
	if relation == e.lastRel && e.lastPlan != nil {
		return e.lastPlan
	}
	if p, ok := e.plans[relation]; ok {
		if p != nil {
			e.lastRel, e.lastPlan = relation, p
		}
		return p
	}
	ins := e.triggers["+"+relation]
	del := e.triggers["-"+relation]
	if ins == nil && del == nil {
		e.plans[relation] = nil
		return nil
	}
	p := &relationPlan{class: e.prog.RelationBatchSplit(relation)}
	if ins != nil {
		p.insert = e.planTrigger(ins)
	}
	if del != nil {
		p.delete = e.planTrigger(del)
	}
	e.plans[relation] = p
	e.lastRel, e.lastPlan = relation, p
	return p
}

func (e *Engine) planTrigger(t *trigger.Trigger) *triggerPlan {
	tp := &triggerPlan{trig: t, incEnd: len(t.Stmts)}
	stmts := make([]exec.Stmt, len(t.Stmts))
	for si := range t.Stmts {
		s := &t.Stmts[si]
		replace := s.Kind == trigger.StmtReplace
		if replace && tp.incEnd == len(t.Stmts) {
			tp.incEnd = si
		}
		stmts[si] = exec.Stmt{
			RHS:         s.RHS,
			TargetKeys:  s.TargetKeys,
			Replace:     replace,
			ReadsTarget: slices.Contains(s.ReadSet(), s.TargetMap),
			Interpret:   e.execMode == ExecInterp,
		}
		if v := e.views[s.TargetMap]; v != nil {
			stmts[si].Target = v
		}
	}
	tp.prog = exec.CompileTrigger(stmts, t.Args)
	return tp
}

// triggerFor returns the plan of the event's direction, or nil when the
// relation has no trigger for it.
func (p *relationPlan) triggerFor(ev *Event) *triggerPlan {
	if ev.Insert {
		return p.insert
	}
	return p.delete
}

// checkEvent reports an event its trigger would reject. Apply and ApplyBatch
// check every event of a commit unit before logging or running any of it.
func checkEvent(tp *triggerPlan, ev *Event) error {
	if tp != nil && len(tp.trig.Args) != len(ev.Tuple) {
		return fmt.Errorf("engine: event on %s carries %d values, trigger expects %d",
			ev.Relation, len(ev.Tuple), len(tp.trig.Args))
	}
	return nil
}

// ApplyBatch processes a window of events group by group, one group per
// relation in first-appearance order. Every event of a group runs its
// trigger's statements through the same compiled plan Apply uses, in stream
// order; only a deferrable replacement tail (trigger.BatchReevalTail —
// VWAP's, MST's and PSP's re-evaluations) is amortised, running once at the
// end of the group instead of once per event. The window's events are read
// in place: the caller must not modify them until ApplyBatch returns, and
// may reuse the slice afterwards.
//
// The window is checked whole before any of it runs: an event its trigger
// rejects fails the call with no view, Events count or log position changed.
// A statement failing at run time (a malformed program, not a malformed
// event) leaves the window partly applied.
//
// A durable engine logs the window as one record, in grouped order; a served
// engine publishes one epoch per window, so snapshot readers and subscribers
// observe window boundaries, never a half-applied window. An empty window
// logs nothing and changes no view.
func (e *Engine) ApplyBatch(b *Batch) error { return e.commit(b.events, true) }

// commit applies one commit unit — a single Apply event (batch false) or a
// whole ApplyBatch window — in order: group it by relation into e.grouping,
// check every event, log the unit as one record, run its relation groups,
// publish one epoch, and start a checkpoint if one is due. An event its
// trigger rejects is caught before anything is logged, so it cannot fail a
// later Recover; an append error means the unit was not committed, and none
// of it runs. A served engine runs and publishes under e.mu, so readers
// observe unit boundaries only.
func (e *Engine) commit(events []Event, batch bool) error {
	g := &e.grouping
	g.group(e, events)
	for _, grp := range g.groups {
		if grp.plan == nil {
			continue
		}
		for _, j := range g.order[grp.lo:grp.hi] {
			if err := checkEvent(grp.plan.triggerFor(&events[j]), &events[j]); err != nil {
				return err
			}
		}
	}
	if e.dur != nil {
		if err := e.dur.append(batch, events, g.order); err != nil {
			return err
		}
	}
	if err := e.runUnit(events); err != nil || e.dur == nil {
		return err
	}
	return e.dur.maybeCheckpoint(e)
}

// runUnit runs a checked unit's relation groups. A served engine runs them
// under e.mu, released even if a statement panics, and publishes one epoch
// after them, also when a statement fails partway.
func (e *Engine) runUnit(events []Event) error {
	if e.serveActive.Load() {
		e.mu.Lock()
		defer e.mu.Unlock()
		defer e.publishLocked()
	}
	g := &e.grouping
	for _, grp := range g.groups {
		// Relations the query does not reference are ignored, as the
		// paper's generated engines drop them.
		if grp.plan == nil {
			continue
		}
		if err := e.applyGroup(grp.plan, events, g.order[grp.lo:grp.hi]); err != nil {
			return err
		}
	}
	return nil
}

// applyGroup runs one relation's events, events[j] for j in group, through
// their triggers in stream order. In a BatchReevalTail group each event runs
// only its increments, and the tail runs once after the last of them: the
// tails of both directions are identical and read no trigger argument, and
// no increment reads a map they replace, so that one run leaves exactly the
// maps the last event's tail would have left. A one-event group therefore
// runs the increments and then the tail: the whole trigger, statement for
// statement.
func (e *Engine) applyGroup(plan *relationPlan, events []Event, group []int32) error {
	deferTail := plan.class == trigger.BatchReevalTail
	var tail *triggerPlan
	var tailArgs types.Tuple
	n := 0
	for _, j := range group {
		ev := &events[j]
		tp := plan.triggerFor(ev)
		if tp == nil {
			continue
		}
		end := len(tp.trig.Stmts)
		if deferTail {
			end = tp.incEnd
			tail, tailArgs = tp, ev.Tuple
		}
		n++
		if err := e.runTrigger(tp, ev.Tuple, 0, end); err != nil {
			// The failing event is partly applied: it counts, so the epoch
			// clock moves with the state, as on Apply's unserved path.
			e.countEvents(uint64(n))
			return err
		}
	}
	e.countEvents(uint64(n))
	if tail != nil {
		return e.runTrigger(tail, tailArgs, tail.incEnd, len(tail.trig.Stmts))
	}
	return nil
}

// runTrigger runs statements [lo, hi) of a trigger for one event tuple.
func (e *Engine) runTrigger(tp *triggerPlan, tuple types.Tuple, lo, hi int) error {
	if at, err := tp.prog.Run(e, tuple, lo, hi); err != nil {
		return fmt.Errorf("engine: %s: statement %q: %w", tp.trig.Key(), tp.trig.Stmts[at].String(), err)
	}
	return nil
}
