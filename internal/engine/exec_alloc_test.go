package engine_test

import (
	"testing"

	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/workload"
)

// applyAllocsPerEvent replays a warm-up prefix and then measures the average
// allocations of Apply over a rotating window of subsequent events, so the
// measurement reflects the steady-state per-event hot path rather than view
// growth from a cold start.
func applyAllocsPerEvent(t *testing.T, query string, mode engine.ExecMode) float64 {
	t.Helper()
	spec, ok := workload.Get(query)
	if !ok {
		t.Fatalf("unknown query %s", query)
	}
	eng := newEngineFor(t, spec, compiler.ModeDBToaster)
	eng.SetExecMode(mode)
	events := spec.Stream(0.2, 1)
	const warm, window = 200, 300
	if len(events) < warm+window {
		t.Fatalf("stream too short for %s: %d events", query, len(events))
	}
	for _, ev := range events[:warm] {
		if err := eng.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	return testing.AllocsPerRun(window, func() {
		if err := eng.Apply(events[warm+i%window]); err != nil {
			t.Fatal(err)
		}
		i++
	})
}

// TestCompiledApplyAllocs asserts the allocation-lean property of the
// compiled per-event hot path: at least a 50% allocs/op reduction against the
// interpreter on every measured query, and an (almost) allocation-free steady
// state, where every map touch goes through reused key buffers and every
// probe through a handle bound once — a probe that allocates fails the joins
// and nested aggregates below.
func TestCompiledApplyAllocs(t *testing.T) {
	for _, tc := range []struct {
		query string
		// maxCompiled bounds the compiled steady-state allocs/op; a little
		// slack absorbs occasional map-bucket growth inside the views.
		maxCompiled float64
	}{
		{"Q1", 1},
		{"Q6", 1},
		{"Q12", 1},
		{"Q3", 1},
		{"Q10", 1},
		{"Q17a", 1},
		{"Q18a", 2},
		{"AXF", 1},
		{"VWAP", 8},
	} {
		interp := applyAllocsPerEvent(t, tc.query, engine.ExecInterp)
		compiled := applyAllocsPerEvent(t, tc.query, engine.ExecCompiled)
		t.Logf("%-6s allocs/op: interp=%.1f compiled=%.1f", tc.query, interp, compiled)
		if compiled > tc.maxCompiled {
			t.Errorf("%s: compiled path allocates %.1f/op, want <= %.1f", tc.query, compiled, tc.maxCompiled)
		}
		if compiled > interp/2 {
			t.Errorf("%s: compiled path allocates %.1f/op, more than half of the interpreter's %.1f",
				tc.query, compiled, interp)
		}
	}
}

// TestNewBatchAllocs pins NewBatch at a constant number of allocations per
// window, however many events and relations it carries: the Batch and its
// grouped copy of the events.
func TestNewBatchAllocs(t *testing.T) {
	events := mustSpec(t, "Q3").Stream(0.2, 1)
	if len(events) < 256 {
		t.Fatalf("stream too short: %d events", len(events))
	}
	window := events[len(events)-256:]
	if got := engine.NewBatch(window).Len(); got != 256 {
		t.Fatalf("NewBatch kept %d of 256 events", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { engine.NewBatch(window) }); allocs > 2 {
		t.Errorf("NewBatch allocates %.1f times per 256-event window, want <= 2", allocs)
	}
}

// TestServedApplyAllocs pins the served hot path: Q1 and Q3 in one engine,
// as the live workload runs them, with a live subscription on each result
// view, drained after every call. A subscribed view is its statements' own
// tee accumulator, and a key new to its capture delta lands in the delta's
// value slab, so steady state allocates little beyond what a publication
// hands the subscribers: each changed view's Entries (three allocations
// whatever its size). A per-statement allocation on the capture path (a
// boxed tee accumulator read 4 per Apply and 140 per window) or a
// per-entry one on the insert path (26 per window) fails it.
func TestServedApplyAllocs(t *testing.T) {
	ms, err := workload.Combine([]string{"Q1", "Q3"})
	if err != nil {
		t.Fatal(err)
	}
	events := ms.Stream(0.2, 1)
	const warm, window, batch = 400, 256, 64
	if len(events) < warm+window {
		t.Fatalf("stream too short: %d events", len(events))
	}
	var batches []*engine.Batch
	for lo := warm; lo < warm+window; lo += batch {
		batches = append(batches, engine.NewBatch(events[lo:lo+batch]))
	}
	for _, tc := range []struct {
		name string
		// max bounds the steady-state allocs per call.
		max  float64
		run  func(eng *engine.Engine, i int) error
		runs int
	}{
		{"Apply", 3, func(eng *engine.Engine, i int) error {
			return eng.Apply(events[warm+i%window])
		}, window},
		{"ApplyBatch", 16, func(eng *engine.Engine, i int) error {
			return eng.ApplyBatch(batches[i%len(batches)])
		}, 2 * len(batches)},
	} {
		eng := newSharedEngine(t, ms)
		var subs []*engine.Subscription
		for _, q := range []string{"Q1", "Q3"} {
			qd, _ := eng.Program().QueryByName(q)
			sub, err := eng.Subscribe(qd.ResultMap, engine.SubscribeOptions{Buffer: 1, SkipInitial: true})
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, sub)
		}
		for _, ev := range events[:warm] {
			if err := eng.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(tc.runs, func() {
			if err := tc.run(eng, i); err != nil {
				t.Fatal(err)
			}
			i++
			for _, sub := range subs {
				for len(sub.C) > 0 {
					<-sub.C
				}
			}
		})
		t.Logf("%s allocs/op with Q1 and Q3 subscribed: %.2f", tc.name, allocs)
		if allocs > tc.max {
			t.Errorf("%s: served path allocates %.2f/op, want <= %.0f", tc.name, allocs, tc.max)
		}
	}
}
