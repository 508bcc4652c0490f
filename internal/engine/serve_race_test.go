package engine_test

import (
	"sort"
	"sync"
	"testing"

	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
	"dbtoaster/internal/workload"
)

// TestServeConcurrentWithMaintenance is the serving layer's core guarantee,
// exercised for every workload query under the race detector (the CI race
// step runs it with -race): while a writer replays the stream through
// ApplyBatch windows, concurrent readers acquire snapshots and
// scan them, and subscribers consume the result change stream. Afterwards
// every sampled snapshot must equal a sequential replay of the same stream
// truncated to the snapshot's event count (cross-view, not just the result),
// and the subscriber's accumulated copy must equal the final result.
func TestServeConcurrentWithMaintenance(t *testing.T) {
	const (
		maxEvents = 300
		batchSize = 48
	)
	for _, spec := range workload.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			events := spec.Stream(0.08, 1)
			if len(events) > maxEvents {
				events = events[:maxEvents]
			}
			batches := workload.Batches(events, batchSize)

			eng := newEngineFor(t, spec, compiler.ModeDBToaster)

			// Subscriber 1: big enough buffer that nothing ever coalesces —
			// its copy must track the result exactly.
			sub, err := eng.Subscribe("", engine.SubscribeOptions{Buffer: len(batches) + 2})
			if err != nil {
				t.Fatal(err)
			}
			local := resultCopy(eng)
			var subWG sync.WaitGroup
			subWG.Add(1)
			go func() {
				defer subWG.Done()
				var last uint64
				seen := false
				for cb := range sub.C {
					if seen && cb.Events <= last {
						t.Errorf("subscriber batch positions not increasing: %d after %d", cb.Events, last)
					}
					last, seen = cb.Events, true
					applyBatchEntries(local, cb)
				}
			}()

			// Subscriber 2: tiny buffer and no completeness assertion — it
			// exists to drive the coalescing path under the race detector.
			slowSub, err := eng.Subscribe("", engine.SubscribeOptions{Buffer: 1, SkipInitial: true})
			if err != nil {
				t.Fatal(err)
			}
			subWG.Add(1)
			go func() {
				defer subWG.Done()
				for range slowSub.C {
				}
			}()

			// Snapshot readers: scan whatever epoch is current and sample
			// distinct epochs for the post-hoc consistency check.
			var (
				sampleMu sync.Mutex
				samples  = map[uint64]*engine.Snapshot{}
			)
			done := make(chan struct{})
			var readWG sync.WaitGroup
			for r := 0; r < 2; r++ {
				readWG.Add(1)
				go func() {
					defer readWG.Done()
					for {
						select {
						case <-done:
							return
						default:
						}
						s := eng.Acquire()
						// Touch the frozen state so the race detector sees
						// real concurrent reads.
						sum := 0.0
						s.Result().Foreach(func(_ types.Tuple, m float64) { sum += m })
						s.Result().Entries()
						for _, sz := range s.ViewSizes() {
							sum += float64(sz)
						}
						_ = s.MemoryBytes()
						_ = eng.Events()
						sampleMu.Lock()
						if _, ok := samples[s.Events()]; !ok && len(samples) < 24 {
							samples[s.Events()] = s
						}
						sampleMu.Unlock()
					}
				}()
			}

			for _, b := range batches {
				if err := eng.ApplyBatch(engine.NewBatch(b)); err != nil {
					t.Fatalf("batched replay: %v", err)
				}
			}
			close(done)
			readWG.Wait()
			final := eng.Acquire()
			sampleMu.Lock()
			samples[final.Events()] = final
			sampleMu.Unlock()
			sub.Cancel()
			slowSub.Cancel()
			subWG.Wait()

			if !gmr.Equal(local, final.Result(), 1e-6) {
				t.Fatalf("subscriber copy diverged from final result:\n got  %v\n want %v", local, final.Result())
			}

			// Consistency: every sampled snapshot equals a sequential replay
			// truncated to the snapshot's event count. Events not matched by
			// any trigger do not mutate state, so the matched-event count
			// identifies the state uniquely.
			var counts []uint64
			for ev := range samples {
				counts = append(counts, ev)
			}
			sort.Slice(counts, func(i, j int) bool { return counts[i] < counts[j] })

			ref := newEngineFor(t, spec, compiler.ModeDBToaster)
			idx := 0
			checkAt := func() {
				for idx < len(counts) && counts[idx] == ref.Events() {
					snap := samples[counts[idx]]
					for name, sz := range snap.ViewSizes() {
						want := ref.View(name).Data()
						got := snap.View(name)
						if got.Len() != sz {
							t.Fatalf("snapshot at %d events: view %s changed size after sampling", counts[idx], name)
						}
						if !gmr.Equal(got, want, 1e-6) {
							t.Fatalf("snapshot at %d events: view %s inconsistent with sequential replay:\n got  %v\n want %v",
								counts[idx], name, got, want)
						}
					}
					idx++
				}
			}
			checkAt()
			for i, ev := range events {
				if err := ref.Apply(ev); err != nil {
					t.Fatalf("sequential reference replay event %d: %v", i, err)
				}
				checkAt()
			}
			if idx != len(counts) {
				t.Fatalf("verified %d of %d sampled snapshots (event counts %v, reference reached %d)",
					idx, len(counts), counts, ref.Events())
			}
		})
	}
}
