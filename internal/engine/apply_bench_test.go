package engine_test

import (
	"testing"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/workload"
)

// sawtoothWindows builds one hash-consed engine for the named queries and
// cuts their combined stream, forward and then mirrored (every event's
// inverse, in reverse order), into windows. One pass fills the views and
// drains them back to empty, so a benchmark may repeat passes without the
// views growing.
func sawtoothWindows(b testing.TB, names []string, scale float64, window int) (*engine.Engine, [][]engine.Event) {
	b.Helper()
	ms, err := workload.Combine(names)
	if err != nil {
		b.Fatal(err)
	}
	eng := newSharedEngine(b, ms)
	events := ms.Stream(scale, 1)
	events = events[:len(events)/window*window]
	for i := len(events) - 1; i >= 0; i-- {
		events = append(events, engine.Event{Relation: events[i].Relation, Insert: !events[i].Insert, Tuple: events[i].Tuple})
	}
	return eng, workload.Batches(events, window)
}

// runWindows applies the windows in sawtooth order, one per iteration, and
// reports ns per event.
func runWindows(b *testing.B, eng *engine.Engine, windows [][]engine.Event, window int) {
	b.Helper()
	i := 0
	for b.Loop() {
		if err := eng.ApplyBatch(engine.NewBatch(windows[i%len(windows)])); err != nil {
			b.Fatal(err)
		}
		i++
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(i*window), "ns/event")
}

// BenchmarkApplyBatchShared18 times the 18-query CompileSet program — the
// longest triggers there are (35 statements on ±LINEITEM) — through
// 256-event windows.
func BenchmarkApplyBatchShared18(b *testing.B) {
	names := workload.Names("")
	if len(names) != 18 {
		b.Fatalf("%d registered queries, want 18", len(names))
	}
	eng, windows := sawtoothWindows(b, names, 0.05, 256)
	runWindows(b, eng, windows, 256)
}

// TestShared18WindowAllocs pins the allocations of BenchmarkApplyBatchShared18's
// setup, averaged over one sawtooth pass of 256-event windows: at most 124
// per window, a fifth of the 621 it made while every new view entry cloned
// its tuple onto the heap. A per-entry allocation on the insert path (tens
// of new entries per window) fails it. The race detector's instrumentation
// adds some 160 allocations per window of its own, so the pin holds only
// without it.
func TestShared18WindowAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts do not apply under the race detector")
	}
	const window, max = 256, 124
	eng, windows := sawtoothWindows(t, workload.Names(""), 0.05, window)
	allocs := windowAllocs(t, eng, windows)
	t.Logf("%.1f allocs per %d-event window over %d windows", allocs, window, len(windows))
	if allocs > max {
		t.Errorf("shared-18 allocates %.1f times per %d-event window, want <= %d", allocs, window, max)
	}
}

// BenchmarkApplyBatchServed times the live workload's program, Q1 and Q3 in
// one engine, with a drained subscriber on Q1's result, through 64-event
// windows: every window tees Q1's statements into the capture delta and
// publishes it.
func BenchmarkApplyBatchServed(b *testing.B) {
	eng, windows := sawtoothWindows(b, []string{"Q1", "Q3"}, 0.2, 64)
	q1, _ := eng.Program().QueryByName("Q1")
	sub, err := eng.Subscribe(q1.ResultMap, engine.SubscribeOptions{SkipInitial: true})
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		for range sub.C {
		}
		close(done)
	}()
	runWindows(b, eng, windows, 64)
	sub.Cancel()
	<-done
}
