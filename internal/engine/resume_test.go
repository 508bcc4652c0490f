package engine_test

import (
	"testing"

	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/gmr"
)

// TestSubscribeResumeFrom pins the engine-level resume-token contract: a
// token equal to the engine's current position skips the catch-up batch (the
// consumer's copy is already current), while a stale token falls back to the
// full catch-up, since the engine retains no per-epoch delta history.
func TestSubscribeResumeFrom(t *testing.T) {
	spec := mustSpec(t, "Q1")
	eng := newEngineFor(t, spec, compiler.ModeDBToaster)
	events := spec.Stream(0.1, 1)
	if len(events) < 60 {
		t.Fatalf("stream too short: %d", len(events))
	}
	if err := eng.ApplyBatch(engine.NewBatch(events[:40])); err != nil {
		t.Fatal(err)
	}
	view := eng.Program().Queries[0].ResultMap

	// Current token: no catch-up, first delivery is the next delta.
	pos := eng.Events()
	cur, err := eng.Subscribe(view, engine.SubscribeOptions{Buffer: 8, ResumeFrom: &pos})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Cancel()
	select {
	case cb := <-cur.C:
		t.Fatalf("current token still delivered a batch: %+v", cb)
	default:
	}

	// Stale token: full catch-up (the view's absolute state).
	stale := pos - 1
	full, err := eng.Subscribe(view, engine.SubscribeOptions{Buffer: 8, ResumeFrom: &stale})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Cancel()
	cb := <-full.C
	if !cb.Initial {
		t.Fatalf("stale token skipped the catch-up: %+v", cb)
	}
	state := gmr.New(eng.Result().Schema())
	for _, e := range cb.Entries {
		state.Add(e.Tuple, e.Mult)
	}
	if !gmr.Equal(state, eng.Result(), 0) {
		t.Fatal("catch-up does not match the view")
	}

	// Both subscriptions see subsequent deltas; the resumed-current consumer
	// reconstructs the same state as catch-up + deltas.
	if err := eng.ApplyBatch(engine.NewBatch(events[40:60])); err != nil {
		t.Fatal(err)
	}
	resumed := gmr.New(eng.Result().Schema())
	// Seed with the state at subscription (what a real resuming consumer
	// already holds), then apply its deltas.
	for _, e := range cb.Entries {
		resumed.Add(e.Tuple, e.Mult)
	}
	for {
		select {
		case d := <-cur.C:
			for _, e := range d.Entries {
				resumed.Add(e.Tuple, e.Mult)
			}
			continue
		default:
		}
		break
	}
	for {
		select {
		case d := <-full.C:
			for _, e := range d.Entries {
				state.Add(e.Tuple, e.Mult)
			}
			continue
		default:
		}
		break
	}
	if !gmr.Equal(resumed, eng.Result(), 1e-9) {
		t.Fatal("resumed subscription diverged")
	}
	if !gmr.Equal(state, eng.Result(), 1e-9) {
		t.Fatal("catch-up subscription diverged")
	}
}
