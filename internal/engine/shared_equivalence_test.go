package engine_test

import (
	"fmt"
	"slices"
	"testing"

	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/trigger"
	"dbtoaster/internal/types"
	"dbtoaster/internal/workload"
)

// maxSharedEvents caps the combined stream prefix per query set so the full
// pairwise matrix (153 pairs plus the 18-query set) stays fast under -race.
const maxSharedEvents = 120

// newSharedEngine compiles the query set with hash-consing into one engine.
func newSharedEngine(t testing.TB, ms *workload.MultiSpec) *engine.Engine {
	t.Helper()
	prog, _, err := compiler.CompileSet(ms.Queries, ms.Catalog, compiler.DefaultOptions())
	if err != nil {
		t.Fatalf("CompileSet: %v", err)
	}
	eng := engine.New(prog)
	for name, data := range ms.Statics() {
		eng.LoadStatic(name, data)
	}
	if err := eng.Init(); err != nil {
		t.Fatalf("init shared: %v", err)
	}
	return eng
}

// equalIgnoringSchema compares two GMRs by contents only. A consed result map
// may carry another query's key names in its schema; the contents are what
// the equivalence property is about.
func equalIgnoringSchema(a, b *gmr.GMR) bool {
	if a.Len() != b.Len() {
		return false
	}
	index := make(map[string]float64, a.Len())
	a.Foreach(func(tup types.Tuple, mult float64) {
		index[fmt.Sprint([]types.Value(tup))] += mult
	})
	ok := true
	b.Foreach(func(tup types.Tuple, mult float64) {
		k := fmt.Sprint([]types.Value(tup))
		got, present := index[k]
		if !present || got-mult > 1e-6 || mult-got > 1e-6 {
			ok = false
			return
		}
		delete(index, k)
	})
	return ok && len(index) == 0
}

// checkSharedSet replays the combined stream of the named queries through one
// hash-consed engine and through per-query isolated engines in lockstep, and
// asserts at several truncation points that every query's result in the
// shared engine equals its isolated baseline. Isolated engines receive the
// same combined stream — events on relations a query does not reference are
// ignored, exactly as the shared engine's per-relation triggers skip
// statements of unaffected queries.
func checkSharedSet(t *testing.T, names []string) {
	t.Helper()
	ms, err := workload.Combine(names)
	if err != nil {
		t.Fatalf("Combine(%v): %v", names, err)
	}
	shared := newSharedEngine(t, ms)
	isolated := make([]*engine.Engine, len(ms.Specs))
	for i, spec := range ms.Specs {
		isolated[i] = newEngineFor(t, spec, compiler.ModeDBToaster)
	}

	events := ms.Stream(0.1, 1)
	if len(events) > maxSharedEvents {
		events = events[:maxSharedEvents]
	}
	if len(events) == 0 {
		t.Skip("empty combined stream at this scale")
	}
	check := func(applied int) {
		for i, spec := range ms.Specs {
			want := isolated[i].Result()
			got, err := shared.ResultFor(spec.Name)
			if err != nil {
				t.Fatalf("ResultFor(%s): %v", spec.Name, err)
			}
			if !equalIgnoringSchema(want, got) {
				t.Fatalf("after %d events, query %s diverged\nisolated: %v\nshared:   %v",
					applied, spec.Name, want, got)
			}
		}
	}
	checkEvery := len(events)/4 + 1
	for i, ev := range events {
		if err := shared.Apply(ev); err != nil {
			t.Fatalf("shared apply event %d: %v", i, err)
		}
		for j := range isolated {
			if err := isolated[j].Apply(ev); err != nil {
				t.Fatalf("isolated %s apply event %d: %v", ms.Specs[j].Name, i, err)
			}
		}
		if (i+1)%checkEvery == 0 {
			check(i + 1)
		}
	}
	check(len(events))
}

// TestSharedMapsEquivalence is the multi-query correctness property: for
// every pair of workload queries, and for the full 18-query set, the
// hash-consed shared engine computes byte-identical results to per-query
// isolated engines at every truncation checkpoint of the combined stream.
func TestSharedMapsEquivalence(t *testing.T) {
	names := workload.Names("")
	for i, a := range names {
		for _, b := range names[i+1:] {
			t.Run(a+"+"+b, func(t *testing.T) {
				checkSharedSet(t, []string{a, b})
			})
		}
	}
	t.Run("all", func(t *testing.T) {
		checkSharedSet(t, names)
	})
}

// TestSharedBatchedEquivalence drives the merged 18-query engine through
// ApplyBatch windows and asserts, window by window, that every query's result
// matches per-event application of the same combined stream. The merged
// triggers mix deferred replacement tails (VWAP, MST, PSP) with other
// queries' increments that read maps the window writes (Q17a's old-value
// reads on LINEITEM, the BSP/BSV statements on BIDS).
func TestSharedBatchedEquivalence(t *testing.T) {
	ms, err := workload.Combine(workload.Names(""))
	if err != nil {
		t.Fatal(err)
	}
	seqEng := newSharedEngine(t, ms)
	batchEng := newSharedEngine(t, ms)
	events := ms.Stream(0.1, 1)
	if len(events) > 384 {
		events = events[:384]
	}
	const window = 64
	for lo := 0; lo < len(events); lo += window {
		hi := lo + window
		if hi > len(events) {
			hi = len(events)
		}
		for i := lo; i < hi; i++ {
			if err := seqEng.Apply(events[i]); err != nil {
				t.Fatalf("sequential apply event %d: %v", i, err)
			}
		}
		if err := batchEng.ApplyBatch(engine.NewBatch(events[lo:hi])); err != nil {
			t.Fatalf("batched apply window %d..%d: %v", lo, hi-1, err)
		}
		for _, spec := range ms.Specs {
			want, err := seqEng.ResultFor(spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			got, err := batchEng.ResultFor(spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			if !equalIgnoringSchema(want, got) {
				t.Fatalf("after window ending at %d, query %s diverged\nsequential: %v\nbatched:    %v",
					hi, spec.Name, want, got)
			}
		}
	}
}

// TestSharedEngineSnapshotResults pins the serving layer to the multi-query
// surface: snapshots acquired mid-stream resolve per-query results, shared
// state included, and stay immutable as maintenance continues.
func TestSharedEngineSnapshotResults(t *testing.T) {
	ms, err := workload.Combine([]string{"VWAP", "MST", "PSP"})
	if err != nil {
		t.Fatal(err)
	}
	shared := newSharedEngine(t, ms)
	events := ms.Stream(0.1, 1)
	if len(events) > maxSharedEvents {
		events = events[:maxSharedEvents]
	}
	half := len(events) / 2
	for _, ev := range events[:half] {
		if err := shared.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	snap := shared.Acquire()
	frozen := map[string]string{}
	for _, spec := range ms.Specs {
		g, err := snap.ResultFor(spec.Name)
		if err != nil {
			t.Fatalf("snapshot ResultFor(%s): %v", spec.Name, err)
		}
		frozen[spec.Name] = fmt.Sprint(g)
	}
	for _, ev := range events[half:] {
		if err := shared.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	for _, spec := range ms.Specs {
		g, err := snap.ResultFor(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(g) != frozen[spec.Name] {
			t.Errorf("snapshot result of %s changed under continued maintenance", spec.Name)
		}
	}
	if _, err := snap.ResultFor("no-such-query"); err == nil {
		t.Error("snapshot ResultFor of unknown query should fail")
	}
	live, err := shared.ResultFor("")
	if err != nil {
		t.Fatalf("ResultFor(\"\"): %v", err)
	}
	if live != shared.Result() {
		t.Error("empty query name should resolve to the primary result")
	}
}

// TestProgramWithoutQueries: a program that registers no query resolves no
// name, "" included, and every result accessor answers without panicking.
func TestProgramWithoutQueries(t *testing.T) {
	eng := engine.New(&trigger.Program{})
	if _, err := eng.ResultFor(""); err == nil {
		t.Error("ResultFor(\"\") resolved on a program without queries")
	}
	if _, err := eng.Acquire().ResultFor(""); err == nil {
		t.Error("snapshot ResultFor(\"\") resolved on a program without queries")
	}
	if eng.Result().Len() != 0 || eng.Acquire().Result().Len() != 0 {
		t.Error("Result of a program without queries is not empty")
	}
	if _, err := eng.Subscribe("", engine.SubscribeOptions{}); err == nil {
		t.Error("Subscribe(\"\") succeeded on a program without queries")
	}
}

// TestMemoryReport pins Engine.MemoryReport on a shared engine of MST, PSP
// and VWAP, whose programs share auxiliary maps: the total is MemoryBytes,
// each query's map counts are its ShareReport row, and a query's shared
// bytes are part of its bytes.
func TestMemoryReport(t *testing.T) {
	ms, err := workload.Combine([]string{"MST", "PSP", "VWAP"})
	if err != nil {
		t.Fatal(err)
	}
	prog, share, err := compiler.CompileSet(ms.Queries, ms.Catalog, compiler.DefaultOptions())
	if err != nil {
		t.Fatalf("CompileSet: %v", err)
	}
	eng := engine.New(prog)
	for name, data := range ms.Statics() {
		eng.LoadStatic(name, data)
	}
	if err := eng.Init(); err != nil {
		t.Fatal(err)
	}
	events := ms.Stream(0.1, 1)
	if len(events) > maxSharedEvents {
		events = events[:maxSharedEvents]
	}
	for i, ev := range events {
		if err := eng.Apply(ev); err != nil {
			t.Fatalf("apply event %d: %v", i, err)
		}
	}

	rep := eng.MemoryReport()
	if total := eng.MemoryBytes(); rep.TotalBytes != total || total <= 0 {
		t.Fatalf("TotalBytes %d, MemoryBytes %d", rep.TotalBytes, total)
	}
	if len(rep.Queries) != len(share.Queries) {
		t.Fatalf("%d report rows, %d queries", len(rep.Queries), len(share.Queries))
	}
	sharedBytes := 0
	for _, qs := range share.Queries {
		i := slices.IndexFunc(rep.Queries, func(q engine.QueryMemory) bool { return q.Query == qs.Name })
		if i < 0 {
			t.Fatalf("no report row for %s", qs.Name)
		}
		qm := rep.Queries[i]
		if qm.Maps != qs.Maps || qm.SharedMaps != qs.Shared {
			t.Errorf("%s: %d maps, %d shared; ShareReport says %d, %d", qs.Name, qm.Maps, qm.SharedMaps, qs.Maps, qs.Shared)
		}
		if qs.Shared == 0 {
			t.Errorf("%s shares no map", qs.Name)
		}
		if qm.SharedBytes > qm.Bytes {
			t.Errorf("%s: %d shared bytes of %d", qs.Name, qm.SharedBytes, qm.Bytes)
		}
		sharedBytes += qm.SharedBytes
	}
	if sharedBytes == 0 {
		t.Error("no query attributes any shared bytes")
	}
}
