package engine_test

import (
	"runtime"
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

// batchSink keeps NewBatch's result on the heap in TestNewBatchAllocs.
var batchSink *engine.Batch

// TestNewBatchAllocs pins NewBatch at one allocation of the same size for a
// 256-event and a 4096-event window: a Batch refers to the caller's events
// and leaves grouping to ApplyBatch. Copying and grouping the window here
// cost two allocations, the larger one growing with the window.
func TestNewBatchAllocs(t *testing.T) {
	stream := mustSpec(t, "Q3").Stream(0.2, 1)
	events := make([]engine.Event, 4096)
	for i := range events {
		events[i] = stream[i%len(stream)]
	}
	bytesPerBatch := func(window []engine.Event) uint64 {
		if got := engine.NewBatch(window).Len(); got != len(window) {
			t.Fatalf("NewBatch kept %d of %d events", got, len(window))
		}
		if allocs := testing.AllocsPerRun(100, func() { batchSink = engine.NewBatch(window) }); allocs > 1 {
			t.Errorf("NewBatch allocates %.1f times per %d-event window, want <= 1", allocs, len(window))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 100 {
			batchSink = engine.NewBatch(window)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 100
	}
	small, large := bytesPerBatch(events[:256]), bytesPerBatch(events)
	t.Logf("NewBatch: %d bytes per 256-event window, %d per 4096-event window", small, large)
	if small != large {
		t.Errorf("NewBatch allocates %d bytes per 256-event window and %d per 4096-event window, want equal", small, large)
	}
}

// windowAllocs applies the windows once to warm the engine, then returns the
// average allocations of ApplyBatch(NewBatch(w)) over one more pass.
func windowAllocs(t *testing.T, eng *engine.Engine, windows [][]engine.Event) float64 {
	t.Helper()
	for _, w := range windows {
		if err := eng.ApplyBatch(engine.NewBatch(w)); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	return testing.AllocsPerRun(len(windows), func() {
		if err := eng.ApplyBatch(engine.NewBatch(windows[i%len(windows)])); err != nil {
			t.Fatal(err)
		}
		i++
	})
}

// TestApplyBatchAllocs pins the unserved, undurable window path end to end:
// ApplyBatch(NewBatch(w)) over a warmed sawtooth pass of 256-event windows
// allocates at most once per window beyond what per-event Apply of the same
// windows, regrouped by relation, allocates on a twin engine. Both run the
// same store operations in the same order, so the stores' own allocations
// (Q3's indexes compact and regrow as a pass drains and refills them, about
// 1.8 per window) cancel, and what is left is the window path's: grouping
// reuses the engine's scratch, and NewBatch's Batch does not escape. Copying
// and grouping each window in NewBatch cost 2.
func TestApplyBatchAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts do not apply under the race detector")
	}
	mallocs := func(windows [][]engine.Event, apply func(w []engine.Event) error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, w := range windows {
			if err := apply(w); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for _, q := range []string{"Q1", "Q3"} {
		eng, windows := sawtoothWindows(t, []string{q}, 1, 256)
		twin, _ := sawtoothWindows(t, []string{q}, 1, 256)
		var grouped [][]engine.Event
		for _, w := range windows {
			grouped = append(grouped, regrouped(w))
		}
		batched := func(w []engine.Event) error { return eng.ApplyBatch(engine.NewBatch(w)) }
		perEvent := func(w []engine.Event) error {
			for _, ev := range w {
				if err := twin.Apply(ev); err != nil {
					return err
				}
			}
			return nil
		}
		mallocs(windows, batched)
		mallocs(grouped, perEvent)
		b, e := mallocs(windows, batched), mallocs(grouped, perEvent)
		perWindow := (float64(b) - float64(e)) / float64(len(windows))
		t.Logf("%s: %d allocations through ApplyBatch, %d through Apply over %d windows: %.2f per window",
			q, b, e, len(windows), perWindow)
		if perWindow > 1 {
			t.Errorf("%s: ApplyBatch(NewBatch(w)) allocates %.2f times per window beyond per-event Apply, want <= 1", q, perWindow)
		}
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
// per-entry one on the insert path (26 per window) fails it. A window reads
// 8, NewBatch included (14 under the race detector): ApplyBatch groups it in
// scratch the engine reuses (grouping a copy in NewBatch made it 10 and 16).
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
	batches := workload.Batches(events[warm:warm+window], batch)
	for _, tc := range []struct {
		name string
		// max bounds the steady-state allocs per call, raceMax under the
		// race detector, whose instrumentation adds six to a window.
		max, raceMax float64
		run          func(eng *engine.Engine, i int) error
		runs         int
	}{
		{"Apply", 3, 3, func(eng *engine.Engine, i int) error {
			return eng.Apply(events[warm+i%window])
		}, window},
		{"ApplyBatch", 8, 14, func(eng *engine.Engine, i int) error {
			return eng.ApplyBatch(engine.NewBatch(batches[i%len(batches)]))
		}, 2 * len(batches)},
	} {
		eng := newSharedEngine(t, ms)
		var subs []*engine.Subscription
		for _, q := range []string{"Q1", "Q3"} {
			view, _ := eng.Program().ResultMapFor(q)
			sub, err := eng.Subscribe(view, engine.SubscribeOptions{Buffer: 1, SkipInitial: true})
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
		max := tc.max
		if raceDetector {
			max = tc.raceMax
		}
		if allocs > max {
			t.Errorf("%s: served path allocates %.2f/op, want <= %.0f", tc.name, allocs, max)
		}
	}
}
