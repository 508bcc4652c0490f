package engine_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/workload"
)

// maxExecEquivEvents caps the replayed stream prefix per (query, mode, seed)
// cell; interpBudget further truncates the prefix to what the interpreter
// baseline manages within the budget (the MST worst case is super-linear per
// event), so every replay works on exactly the same events.
const (
	maxExecEquivEvents = 120
	interpBudget       = 500 * time.Millisecond
)

// execEquivStream builds a randomized event stream for the spec: a seeded
// prefix of the workload stream, shuffled within itself so that the compiled
// and interpreted executors see event interleavings the generator never
// produces on its own.
func execEquivStream(spec workload.Spec, seed int64) []engine.Event {
	events := spec.Stream(0.1, seed)
	if len(events) > maxExecEquivEvents {
		events = events[:maxExecEquivEvents]
	}
	rng := rand.New(rand.NewSource(seed * 7919))
	rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
	return events
}

// TestCompiledEquivalentToInterpreter is the equivalence property behind the
// compiled executors: for every workload query (under both DBToaster and IVM
// compilation) and randomized event streams, replaying through the compiled
// engine — sequentially, compared after every event, and batched at several
// batch sizes — must leave every materialized view with exactly the contents
// the tree-walking interpreter produces.
func TestCompiledEquivalentToInterpreter(t *testing.T) {
	modes := []struct {
		name string
		mode compiler.Mode
	}{
		{"DBToaster", compiler.ModeDBToaster},
		{"IVM", compiler.ModeIVM},
	}
	for _, spec := range workload.All() {
		for _, m := range modes {
			t.Run(spec.Name+"/"+m.name, func(t *testing.T) {
				for _, seed := range []int64{1, 5} {
					events := execEquivStream(spec, seed)
					if len(events) == 0 {
						t.Skip("empty stream at this scale")
					}

					// The interpreter and a sequential compiled engine replay
					// in lockstep and every view is compared after every
					// event, so a divergence is located to the event (and, by
					// the views that differ, to the statement) that caused it.
					// Only the interpreter's time counts against its budget.
					interp := newEngineFor(t, spec, m.mode)
					interp.SetExecMode(engine.ExecInterp)
					seq := newEngineFor(t, spec, m.mode)
					var spent time.Duration
					processed := 0
					for i, ev := range events {
						start := time.Now()
						err := interp.Apply(ev)
						spent += time.Since(start)
						if err != nil {
							t.Fatalf("seed %d: interp apply event %d: %v", seed, i, err)
						}
						if err := seq.Apply(ev); err != nil {
							t.Fatalf("seed %d: compiled apply event %d: %v", seed, i, err)
						}
						compareViews(t, fmt.Sprintf("seed %d: compiled apply, after event %d (%v)", seed, i, ev), interp, seq)
						if t.Failed() {
							t.FailNow()
						}
						processed++
						if spent > interpBudget {
							break
						}
					}
					events = events[:processed]

					for _, batch := range []int{1, 7, 64} {
						comp := newEngineFor(t, spec, m.mode)
						comp.SetExecMode(engine.ExecCompiled)
						for start := 0; start < len(events); start += batch {
							end := min(start+batch, len(events))
							if err := comp.ApplyBatch(engine.NewBatch(events[start:end])); err != nil {
								t.Fatalf("seed %d: compiled batch [%d:%d]: %v", seed, start, end, err)
							}
						}
						compareViews(t, fmt.Sprintf("seed %d: compiled batch=%d", seed, batch), interp, comp)
					}
				}
			})
		}
	}
}

// compareViews asserts that every materialized view of want and got match.
func compareViews(t *testing.T, label string, want, got *engine.Engine) {
	t.Helper()
	if want.Events() != got.Events() {
		t.Errorf("%s: processed %d events, interpreter processed %d", label, got.Events(), want.Events())
	}
	for name := range want.ViewSizes() {
		w := want.View(name).Data()
		g := got.View(name).Data()
		if !gmr.Equal(w, g, 1e-6) {
			t.Errorf("%s: view %s diverged\ninterpreter: %v\ncompiled:    %v", label, name, w, g)
		}
	}
}
