package engine_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/wal"
	"dbtoaster/internal/workload"
)

// regrouped is the window stably grouped by relation, the relations in the
// order of their first events: the order ApplyBatch runs and logs a window in.
func regrouped(window []engine.Event) []engine.Event {
	var rels []string
	by := map[string][]engine.Event{}
	for _, ev := range window {
		if _, ok := by[ev.Relation]; !ok {
			rels = append(rels, ev.Relation)
		}
		by[ev.Relation] = append(by[ev.Relation], ev)
	}
	out := make([]engine.Event, 0, len(window))
	for _, rel := range rels {
		out = append(out, by[rel]...)
	}
	return out
}

// loggedRecords reads every record of the closed log in dir back through
// wal.Scan and Replay, copying each out of Replay's reused buffers.
func loggedRecords(t *testing.T, fs wal.FS) []wal.Record {
	t.Helper()
	rec, err := wal.Scan(fs, recoveryWalDir)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	var out []wal.Record
	err = rec.Replay(func(r *wal.Record) error {
		c := wal.Record{Batch: r.Batch, First: r.First}
		for _, ev := range r.Events {
			ev.Tuple = append(ev.Tuple[:0:0], ev.Tuple...)
			c.Events = append(c.Events, ev)
		}
		out = append(out, c)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

// durableEngine arms a fresh engine for spec with per-commit sync on a new
// FaultFS and returns both.
func durableEngine(t *testing.T, spec workload.Spec) (*engine.Engine, *wal.FaultFS) {
	t.Helper()
	ffs := wal.NewFaultFS()
	eng := newEngineFor(t, spec, compiler.ModeDBToaster)
	if err := eng.SetDurability(engine.DurabilityOptions{Dir: recoveryWalDir, FS: ffs, Sync: wal.SyncEachCommit}); err != nil {
		t.Fatalf("set durability: %v", err)
	}
	return eng, ffs
}

// TestBatchRunsGroupedOrder pins what ApplyBatch runs: for every workload
// query, 64-event windows leave every map byte-equal (flat-store images) to
// per-event Apply over each window stably regrouped by relation — the same
// statements in the same order, so even float sums agree to the bit. A
// durable engine logs an interleaved ORDERS/LINEITEM/CUSTOMER window as one
// record in exactly that regrouped order.
func TestBatchRunsGroupedOrder(t *testing.T) {
	const window = 64
	reordered := 0
	for _, spec := range workload.All() {
		t.Run(spec.Name, func(t *testing.T) {
			events := spec.Stream(0.5, 3)
			batched := newEngineFor(t, spec, compiler.ModeDBToaster)
			perEvent := newEngineFor(t, spec, compiler.ModeDBToaster)
			for lo := 0; lo < len(events); lo += window {
				w := events[lo:min(lo+window, len(events))]
				if err := batched.ApplyBatch(engine.NewBatch(w)); err != nil {
					t.Fatalf("window at %d: %v", lo, err)
				}
				g := regrouped(w)
				if !reflect.DeepEqual(g, w) {
					reordered++
				}
				for _, ev := range g {
					if err := perEvent.Apply(ev); err != nil {
						t.Fatalf("event in window at %d: %v", lo, err)
					}
				}
			}
			requireByteEqual(t, spec.Name, perEvent, batched)
		})
	}
	if reordered == 0 {
		t.Errorf("no window of any query needed regrouping: the test compares nothing")
	}

	t.Run("log", func(t *testing.T) {
		spec := mustSpec(t, "Q3")
		events := spec.Stream(0.1, 1)
		var w []engine.Event
		for lo := 0; lo+window <= len(events) && w == nil; lo += window {
			cand := events[lo : lo+window]
			rels := map[string]bool{}
			for _, ev := range cand {
				rels[ev.Relation] = true
			}
			if rels["ORDERS"] && rels["LINEITEM"] && rels["CUSTOMER"] && !reflect.DeepEqual(regrouped(cand), cand) {
				w = cand
			}
		}
		if w == nil {
			t.Fatal("Q3's stream has no window interleaving ORDERS, LINEITEM and CUSTOMER")
		}
		eng, ffs := durableEngine(t, spec)
		if err := eng.ApplyBatch(engine.NewBatch(w)); err != nil {
			t.Fatal(err)
		}
		if err := eng.CloseDurability(); err != nil {
			t.Fatal(err)
		}
		recs := loggedRecords(t, ffs)
		want := []wal.Record{{Batch: true, First: 0, Events: regrouped(w)}}
		if !reflect.DeepEqual(recs, want) {
			t.Errorf("logged records %v\nwant the window regrouped: %v", recs, want)
		}
	})
}

// TestReusedWindowBuffer pins the aliasing contract of ApplyBatch: a caller
// may overwrite its window's elements as soon as ApplyBatch returns. A
// durable engine with an interval-synced logger and a live subscriber is fed
// from one reused buffer, each window's events flipped to their inverses
// right after the call; recovering from a copy of its directory must give
// back the writer's views byte for byte. A logger or capture that read the
// caller's buffer after return would log inverses (and, under the race
// detector, race with the overwrite).
func TestReusedWindowBuffer(t *testing.T) {
	ms, err := workload.Combine([]string{"Q1", "Q3"})
	if err != nil {
		t.Fatal(err)
	}
	events := ms.Stream(0.2, 1)
	const window = 64
	eng := newSharedEngine(t, ms)
	q3, _ := eng.Program().QueryByName("Q3")
	sub, err := eng.Subscribe(q3.ResultMap, engine.SubscribeOptions{Buffer: 2, SkipInitial: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range sub.C {
		}
	}()
	ffs := wal.NewFaultFS()
	if err := eng.SetDurability(engine.DurabilityOptions{Dir: recoveryWalDir, FS: ffs, Sync: wal.SyncInterval,
		SyncInterval: time.Millisecond, CheckpointEvery: 500}); err != nil {
		t.Fatalf("set durability: %v", err)
	}
	buf := make([]engine.Event, window)
	for lo := 0; lo < len(events); lo += window {
		n := copy(buf, events[lo:])
		if err := eng.ApplyBatch(engine.NewBatch(buf[:n])); err != nil {
			t.Fatalf("window at %d: %v", lo, err)
		}
		for i := range buf[:n] {
			buf[i].Insert = !buf[i].Insert
		}
	}
	sub.Cancel()
	wg.Wait()
	if err := eng.CloseDurability(); err != nil {
		t.Fatalf("close durability: %v", err)
	}
	rec := newSharedEngine(t, ms)
	if _, err := rec.Recover(engine.DurabilityOptions{Dir: recoveryWalDir, FS: ffs.CrashClone()}); err != nil {
		t.Fatalf("recover: %v", err)
	}
	requireByteEqual(t, "recovered", eng, rec)
}

// TestBatchOfManyRelations pins that a window may name any number of
// relations: 300 names the program does not know, interleaved with Q3's
// ORDERS, LINEITEM and CUSTOMER events, apply exactly like per-event Apply
// over the regrouped window, are all logged in that order, and recover to
// the same views.
func TestBatchOfManyRelations(t *testing.T) {
	spec := mustSpec(t, "Q3")
	var w []engine.Event
	for i, ev := range spec.Stream(0.1, 1)[:300] {
		w = append(w, ev, engine.Event{Relation: fmt.Sprintf("UNKNOWN%03d", i), Insert: true, Tuple: ev.Tuple})
	}
	eng, ffs := durableEngine(t, spec)
	if err := eng.ApplyBatch(engine.NewBatch(w)); err != nil {
		t.Fatal(err)
	}
	ref := newEngineFor(t, spec, compiler.ModeDBToaster)
	for _, ev := range regrouped(w) {
		if err := ref.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	requireByteEqual(t, "batched", ref, eng)
	if got := eng.LogNextLSN(); got != uint64(len(w)) {
		t.Errorf("logged %d events, want %d", got, len(w))
	}
	if err := eng.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	if recs := loggedRecords(t, ffs); len(recs) != 1 || !reflect.DeepEqual(recs[0].Events, regrouped(w)) {
		t.Errorf("the window was not logged as one record in regrouped order")
	}
	rec := newEngineFor(t, spec, compiler.ModeDBToaster)
	if _, err := rec.Recover(engine.DurabilityOptions{Dir: recoveryWalDir, FS: ffs}); err != nil {
		t.Fatalf("recover: %v", err)
	}
	requireByteEqual(t, "recovered", ref, rec)
}

// TestEmptyBatch pins that an empty window is a no-op on a durable engine:
// no record is logged, and Events and the views stay as they were.
func TestEmptyBatch(t *testing.T) {
	spec := mustSpec(t, "Q3")
	events := spec.Stream(0.1, 1)[:50]
	eng, ffs := durableEngine(t, spec)
	if err := eng.ApplyBatch(engine.NewBatch(events)); err != nil {
		t.Fatal(err)
	}
	views, n, lsn := viewBytes(eng), eng.Events(), eng.LogNextLSN()
	for _, w := range [][]engine.Event{nil, events[:0]} {
		if err := eng.ApplyBatch(engine.NewBatch(w)); err != nil {
			t.Fatalf("empty window: %v", err)
		}
	}
	if !reflect.DeepEqual(viewBytes(eng), views) || eng.Events() != n || eng.LogNextLSN() != lsn {
		t.Errorf("an empty window changed the engine: Events %d -> %d, LSN %d -> %d", n, eng.Events(), lsn, eng.LogNextLSN())
	}
	if err := eng.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	if recs := loggedRecords(t, ffs); len(recs) != 1 {
		t.Errorf("logged %d records, want the one window", len(recs))
	}
}
