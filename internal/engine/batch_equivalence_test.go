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

// maxEquivEvents caps the replayed stream prefix so the full query × mode ×
// batch-size matrix stays fast; seqBudget further truncates the prefix for
// queries whose per-event cost is super-linear (MST and friends), so that
// every batched replay works on exactly the prefix the sequential baseline
// managed within the budget.
const (
	maxEquivEvents = 150
	seqBudget      = time.Second
)

func newEngineFor(t *testing.T, spec workload.Spec, mode compiler.Mode) *engine.Engine {
	t.Helper()
	prog, err := compiler.Compile(spec.Query, spec.Catalog, compiler.OptionsFor(mode))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	eng := engine.New(prog)
	for name, data := range spec.Statics() {
		eng.LoadStatic(name, data)
	}
	if err := eng.Init(); err != nil {
		t.Fatalf("init: %v", err)
	}
	return eng
}

// shuffledPrefix returns the first maxEquivEvents events of spec's stream in
// a seeded random order, so ApplyBatch's grouping by relation sees an
// adversarial interleaving, not the generator's relation order.
func shuffledPrefix(spec workload.Spec, qi int) []engine.Event {
	events := spec.Stream(0.1, 1)
	if len(events) > maxEquivEvents {
		events = events[:maxEquivEvents]
	}
	rng := rand.New(rand.NewSource(int64(qi+1) * 7919))
	rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
	return events
}

// applySequential feeds events one Apply at a time until seqBudget runs out
// and returns the prefix it managed.
func applySequential(t *testing.T, eng *engine.Engine, events []engine.Event) []engine.Event {
	t.Helper()
	deadline := time.Now().Add(seqBudget)
	processed := 0
	for i, ev := range events {
		if err := eng.Apply(ev); err != nil {
			t.Fatalf("sequential apply event %d: %v", i, err)
		}
		processed++
		if time.Now().After(deadline) {
			break
		}
	}
	return events[:processed]
}

// applyWindows feeds events through ApplyBatch in windows of the given size.
func applyWindows(t *testing.T, eng *engine.Engine, events []engine.Event, window int) {
	t.Helper()
	for start := 0; start < len(events); start += window {
		end := min(start+window, len(events))
		if err := eng.ApplyBatch(engine.NewBatch(events[start:end])); err != nil {
			t.Fatalf("batch apply [%d:%d]: %v", start, end, err)
		}
	}
}

// assertSameViews checks that got processed as many events as want and holds
// every one of want's views with the same contents.
func assertSameViews(t *testing.T, label string, want, got *engine.Engine) {
	t.Helper()
	if got.Events() != want.Events() {
		t.Errorf("%s processed %d events, sequential processed %d", label, got.Events(), want.Events())
	}
	for name := range want.ViewSizes() {
		w := want.View(name).Data()
		g := got.View(name).Data()
		if !gmr.Equal(w, g, 1e-6) {
			t.Errorf("%s: view %s diverged\nsequential: %v\nbatched:    %v", label, name, w, g)
		}
	}
}

// TestBatchEquivalentToSequential replays a shuffled prefix of every workload
// query's stream, in DBToaster and IVM mode, through sequential Apply and
// through ApplyBatch at several window sizes, under compiled executors and
// under the interpreter, and asserts every materialized view ends equal.
// This is the correctness property behind ApplyBatch: grouping a window by
// relation may reorder events across relations (hence the float tolerance),
// and a deferred replacement tail, run once per group, must leave exactly
// what the per-event tails would have. SetShards is a documented no-op; the
// subtests that set it pin that it stays one.
func TestBatchEquivalentToSequential(t *testing.T) {
	modes := []struct {
		name string
		mode compiler.Mode
	}{
		{"DBToaster", compiler.ModeDBToaster},
		{"IVM", compiler.ModeIVM},
	}
	execs := []struct {
		name string
		mode engine.ExecMode
	}{
		{"compiled", engine.ExecCompiled},
		{"interp", engine.ExecInterp},
	}
	for qi, spec := range workload.All() {
		for _, m := range modes {
			t.Run(spec.Name+"/"+m.name, func(t *testing.T) {
				events := shuffledPrefix(spec, qi)
				if len(events) == 0 {
					t.Skip("empty stream at this scale")
				}
				seqs := make([]*engine.Engine, len(execs))
				prefixes := make([][]engine.Event, len(execs))
				for i, x := range execs {
					seqs[i] = newEngineFor(t, spec, m.mode)
					seqs[i].SetExecMode(x.mode)
					prefixes[i] = applySequential(t, seqs[i], events)
				}

				for _, cfg := range []struct{ batch, shards int }{
					{1, 1}, {7, 1}, {64, 1}, {256, 1}, {7, 3}, {64, 4},
				} {
					t.Run(fmt.Sprintf("batch=%d,shards=%d", cfg.batch, cfg.shards), func(t *testing.T) {
						for i, x := range execs {
							eng := newEngineFor(t, spec, m.mode)
							eng.SetExecMode(x.mode)
							eng.SetShards(cfg.shards)
							applyWindows(t, eng, prefixes[i], cfg.batch)
							assertSameViews(t, x.name, seqs[i], eng)
						}
					})
				}
			})
		}
	}
}

// TestColumnarBlockEquivalence replays a shuffled prefix of every workload
// query's stream through ApplyBatch on compiled DBToaster engines over a grid
// of window sizes, shard counts and both SetColumnar settings, and asserts
// every view equals a sequential interpreter baseline. SetShards and
// SetColumnar are documented no-ops kept for callers that still set them;
// this pins that no setting of either changes what a window leaves.
func TestColumnarBlockEquivalence(t *testing.T) {
	for qi, spec := range workload.All() {
		t.Run(spec.Name, func(t *testing.T) {
			events := shuffledPrefix(spec, qi)
			if len(events) == 0 {
				t.Skip("empty stream at this scale")
			}
			base := newEngineFor(t, spec, compiler.ModeDBToaster)
			base.SetExecMode(engine.ExecInterp)
			events = applySequential(t, base, events)

			for _, cfg := range []struct{ batch, shards int }{
				{1, 1}, {7, 1}, {64, 1}, {256, 1},
				{1, 4}, {7, 4}, {64, 4}, {256, 4},
				{7, 8}, {64, 8}, {256, 8},
			} {
				t.Run(fmt.Sprintf("batch=%d,shards=%d", cfg.batch, cfg.shards), func(t *testing.T) {
					for _, path := range []struct {
						name     string
						columnar bool
					}{{"columnar", true}, {"row", false}} {
						eng := newEngineFor(t, spec, compiler.ModeDBToaster)
						eng.SetShards(cfg.shards)
						eng.SetColumnar(path.columnar)
						applyWindows(t, eng, events, cfg.batch)
						assertSameViews(t, path.name, base, eng)
					}
				})
			}
		})
	}
}
