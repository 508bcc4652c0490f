package engine_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/wal"
	"dbtoaster/internal/workload"
)

// Crash-fault-injection property test for the durability layer.
//
// For every workload query, a durable engine streams a mixed Apply/ApplyBatch
// schedule through a wal.FaultFS whose write path is killed after a random
// byte budget — so the kill lands anywhere in the log/checkpoint lifetime,
// including inside checkpoint writes. After the crash (with a randomized
// partial page-cache writeback to produce torn log tails), a fresh engine
// recovers from the surviving bytes and must be *byte-equal* — per-view flat
// store images, not just semantically equal — to a memory-only engine that
// replayed the same schedule uninterrupted up to the recovered event count.
// The recovered engine then re-arms durability, streams the rest, and is
// crash-recovered a second time to prove the resumed log is whole.
const (
	maxRecoveryEvents = 90
	recoveryTrials    = 3
	recoveryCkptEvery = 13
	recoveryWalDir    = "wal"
)

// commitUnit is one commit boundary in the schedule: either a single Apply or
// an ApplyBatch window of n events.
type commitUnit struct {
	batch bool
	n     int
}

func commitSchedule(rng *rand.Rand, n int) []commitUnit {
	var units []commitUnit
	for done := 0; done < n; {
		if rng.Intn(100) < 30 {
			units = append(units, commitUnit{batch: false, n: 1})
			done++
			continue
		}
		sz := 1 + rng.Intn(9)
		if done+sz > n {
			sz = n - done
		}
		units = append(units, commitUnit{batch: true, n: sz})
		done += sz
	}
	return units
}

func applyUnit(eng *engine.Engine, events []engine.Event, off int, u commitUnit) error {
	if u.batch {
		return eng.ApplyBatch(engine.NewBatch(events[off : off+u.n]))
	}
	return eng.Apply(events[off])
}

// referenceAt replays the schedule memory-only up to exactly committed events.
// The recovered LSN must land on a commit-unit boundary — a recovery that
// resurrects half an ApplyBatch window broke atomicity.
func referenceAt(t *testing.T, spec workload.Spec, events []engine.Event, units []commitUnit, committed uint64) *engine.Engine {
	t.Helper()
	ref := newEngineFor(t, spec, compiler.ModeDBToaster)
	off := 0
	for _, u := range units {
		if uint64(off) == committed {
			break
		}
		if uint64(off+u.n) > committed {
			t.Fatalf("recovered LSN %d splits a commit unit [%d,%d)", committed, off, off+u.n)
		}
		if err := applyUnit(ref, events, off, u); err != nil {
			t.Fatalf("reference apply at %d: %v", off, err)
		}
		off += u.n
	}
	if uint64(off) != committed {
		t.Fatalf("recovered LSN %d beyond the %d-event schedule", committed, off)
	}
	return ref
}

// requireByteEqual asserts got's views are byte-for-byte identical to want's
// (flat-store serialization compares arena layout, slot order, probe tables —
// the strongest equivalence the engine can offer).
func requireByteEqual(t *testing.T, label string, want, got *engine.Engine) {
	t.Helper()
	if want.Events() != got.Events() {
		t.Errorf("%s: processed %d events, reference processed %d", label, got.Events(), want.Events())
	}
	for name := range want.ViewSizes() {
		w := want.View(name).Data().AppendFlat(nil)
		g := got.View(name).Data().AppendFlat(nil)
		if !bytes.Equal(w, g) {
			t.Errorf("%s: view %s not byte-equal to reference\nreference: %v\nrecovered: %v",
				label, name, want.View(name).Data(), got.View(name).Data())
		}
	}
}

func TestCrashRecovery(t *testing.T) {
	for qi, spec := range workload.All() {
		spec := spec
		qi := qi
		t.Run(spec.Name, func(t *testing.T) {
			events := spec.Stream(0.1, 1)
			if len(events) > maxRecoveryEvents {
				events = events[:maxRecoveryEvents]
			}
			if len(events) == 0 {
				t.Skip("empty stream at this scale")
			}
			rng := rand.New(rand.NewSource(int64(qi+1) * 104729))
			units := commitSchedule(rng, len(events))

			// Calibration: a fault-free durable run measures the total byte
			// volume (so trial kill points cover the whole lifetime, checkpoint
			// writes included) and pins clean-shutdown recovery.
			ffs := wal.NewFaultFS()
			eng := newEngineFor(t, spec, compiler.ModeDBToaster)
			if err := eng.SetDurability(engine.DurabilityOptions{
				Dir: recoveryWalDir, FS: ffs, Sync: wal.SyncEachCommit,
				CheckpointEvery: recoveryCkptEvery, SynchronousCheckpoints: true,
			}); err != nil {
				t.Fatalf("set durability: %v", err)
			}
			off := 0
			for _, u := range units {
				if err := applyUnit(eng, events, off, u); err != nil {
					t.Fatalf("durable apply at %d: %v", off, err)
				}
				off += u.n
			}
			if err := eng.CloseDurability(); err != nil {
				t.Fatalf("close durability: %v", err)
			}
			totalBytes := ffs.BytesWritten()

			clean := newEngineFor(t, spec, compiler.ModeDBToaster)
			stats, err := clean.Recover(engine.DurabilityOptions{Dir: recoveryWalDir, FS: ffs.CrashClone()})
			if err != nil {
				t.Fatalf("clean-shutdown recovery: %v", err)
			}
			if stats.NextLSN != uint64(len(events)) {
				t.Fatalf("clean-shutdown recovery: NextLSN %d, want %d", stats.NextLSN, len(events))
			}
			requireByteEqual(t, "clean shutdown vs original", eng, clean)
			fullRef := referenceAt(t, spec, events, units, uint64(len(events)))
			requireByteEqual(t, "clean shutdown vs memory-only", fullRef, clean)

			for trial := 0; trial < recoveryTrials; trial++ {
				trial := trial
				t.Run(fmt.Sprintf("kill=%d", trial), func(t *testing.T) {
					trng := rand.New(rand.NewSource(int64(qi+1)*7907 + int64(trial)))
					dopts := engine.DurabilityOptions{
						Dir: recoveryWalDir, Sync: wal.SyncEachCommit,
						CheckpointEvery:        recoveryCkptEvery,
						SynchronousCheckpoints: trial%2 == 0,
					}
					if trial > 0 {
						// Later trials run the incremental checkpoint path: the
						// kill can land inside a base write, a delta write, or
						// the re-base GC, and recovery must still be byte-equal.
						dopts.DeltaCheckpoints = true
						dopts.RebaseEvery = 2
					}
					if trial == 2 {
						// Group commit over an interval: the crash also loses
						// synced-policy guarantees, recovery just gets a shorter
						// committed prefix.
						dopts.Sync = wal.SyncInterval
						dopts.SyncInterval = time.Millisecond
					}
					ffs := wal.NewFaultFS()
					dopts.FS = ffs
					eng := newEngineFor(t, spec, compiler.ModeDBToaster)
					if err := eng.SetDurability(dopts); err != nil {
						t.Fatalf("set durability: %v", err)
					}
					ffs.KillAfter(1 + trng.Int63n(totalBytes))
					off := 0
					for _, u := range units {
						if err := applyUnit(eng, events, off, u); err != nil {
							break
						}
						off += u.n
					}
					// The OS may write back part of its page cache before the
					// machine dies: flush a random prefix of each unsynced file,
					// manufacturing torn tails.
					for name, n := range ffs.UnsyncedFiles() {
						if trng.Intn(2) == 0 {
							ffs.PartialFlush(name, trng.Intn(n+1))
						}
					}
					clone := ffs.CrashClone()
					// Reap the log's goroutines; every late write fails against
					// the dead filesystem and can't touch the post-crash state.
					_ = eng.CloseDurability()

					rec := newEngineFor(t, spec, compiler.ModeDBToaster)
					stats, err := rec.Recover(engine.DurabilityOptions{Dir: recoveryWalDir, FS: clone})
					if err != nil {
						t.Fatalf("recover after kill: %v", err)
					}
					ref := referenceAt(t, spec, events, units, stats.NextLSN)
					requireByteEqual(t, "crash recovery", ref, rec)

					// The recovered engine must be a full citizen: re-arm
					// durability on the surviving files, stream the remainder,
					// and recover a second time from the resumed log.
					if err := rec.SetDurability(engine.DurabilityOptions{
						Dir: recoveryWalDir, FS: clone, Sync: wal.SyncEachCommit,
						CheckpointEvery: recoveryCkptEvery, SynchronousCheckpoints: trial%2 == 0,
						DeltaCheckpoints: trial > 0, RebaseEvery: 2,
					}); err != nil {
						t.Fatalf("re-arm durability: %v", err)
					}
					off = 0
					for _, u := range units {
						if uint64(off) >= stats.NextLSN {
							if err := applyUnit(rec, events, off, u); err != nil {
								t.Fatalf("post-recovery apply at %d: %v", off, err)
							}
							if err := applyUnit(ref, events, off, u); err != nil {
								t.Fatalf("post-recovery reference apply at %d: %v", off, err)
							}
						}
						off += u.n
					}
					if err := rec.CloseDurability(); err != nil {
						t.Fatalf("close resumed durability: %v", err)
					}
					requireByteEqual(t, "post-recovery stream", ref, rec)

					final := newEngineFor(t, spec, compiler.ModeDBToaster)
					stats2, err := final.Recover(engine.DurabilityOptions{Dir: recoveryWalDir, FS: clone.CrashClone()})
					if err != nil {
						t.Fatalf("second recovery: %v", err)
					}
					if stats2.NextLSN != uint64(len(events)) {
						t.Fatalf("second recovery: NextLSN %d, want %d", stats2.NextLSN, len(events))
					}
					requireByteEqual(t, "second recovery", ref, final)
				})
			}
		})
	}
}

// TestDeltaCheckpointKillPoints sweeps deterministic FaultFS kill budgets
// evenly across the full byte volume of a delta-checkpointing run, so crashes
// land inside base-checkpoint writes, delta writes, and the re-base GC's file
// removals — not just wherever a random draw happens to fall. Every surviving
// state must recover byte-equal to the memory-only reference at the recovered
// commit boundary.
func TestDeltaCheckpointKillPoints(t *testing.T) {
	spec, ok := workload.Get("VWAP")
	if !ok {
		t.Fatal("VWAP workload missing")
	}
	events := spec.Stream(0.1, 1)
	if len(events) > maxRecoveryEvents {
		events = events[:maxRecoveryEvents]
	}
	rng := rand.New(rand.NewSource(424243))
	units := commitSchedule(rng, len(events))
	dopts := func(fs wal.FS) engine.DurabilityOptions {
		return engine.DurabilityOptions{
			Dir: recoveryWalDir, FS: fs, Sync: wal.SyncEachCommit,
			CheckpointEvery: recoveryCkptEvery, SynchronousCheckpoints: true,
			DeltaCheckpoints: true, RebaseEvery: 2,
		}
	}

	// Calibration run: measure the fault-free byte volume and prove the
	// schedule actually exercises the delta path (RebaseEvery alternates
	// base and delta links, so at least one .delta file must exist).
	ffs := wal.NewFaultFS()
	eng := newEngineFor(t, spec, compiler.ModeDBToaster)
	if err := eng.SetDurability(dopts(ffs)); err != nil {
		t.Fatalf("set durability: %v", err)
	}
	off := 0
	for _, u := range units {
		if err := applyUnit(eng, events, off, u); err != nil {
			t.Fatalf("durable apply at %d: %v", off, err)
		}
		off += u.n
	}
	if err := eng.CloseDurability(); err != nil {
		t.Fatalf("close durability: %v", err)
	}
	totalBytes := ffs.BytesWritten()
	names, err := ffs.List(recoveryWalDir)
	if err != nil {
		t.Fatalf("list wal dir: %v", err)
	}
	deltas := 0
	for _, n := range names {
		if strings.HasSuffix(n, ".delta") {
			deltas++
		}
	}
	if deltas == 0 {
		t.Fatalf("calibration run wrote no delta checkpoints (files: %v)", names)
	}

	const killPoints = 40
	for k := 0; k < killPoints; k++ {
		k := k
		t.Run(fmt.Sprintf("budget=%d/%d", k, killPoints), func(t *testing.T) {
			budget := 1 + int64(k)*totalBytes/killPoints
			trng := rand.New(rand.NewSource(int64(k)*7919 + 1))
			ffs := wal.NewFaultFS()
			eng := newEngineFor(t, spec, compiler.ModeDBToaster)
			if err := eng.SetDurability(dopts(ffs)); err != nil {
				t.Fatalf("set durability: %v", err)
			}
			ffs.KillAfter(budget)
			off := 0
			for _, u := range units {
				if err := applyUnit(eng, events, off, u); err != nil {
					break
				}
				off += u.n
			}
			for name, n := range ffs.UnsyncedFiles() {
				if trng.Intn(2) == 0 {
					ffs.PartialFlush(name, trng.Intn(n+1))
				}
			}
			clone := ffs.CrashClone()
			_ = eng.CloseDurability()

			rec := newEngineFor(t, spec, compiler.ModeDBToaster)
			stats, err := rec.Recover(engine.DurabilityOptions{Dir: recoveryWalDir, FS: clone})
			if err != nil {
				t.Fatalf("recover after kill at %d bytes: %v", budget, err)
			}
			names, _ := clone.List(recoveryWalDir)
			t.Logf("stats: next=%d chain=%d replayed=%d skipped=%v files=%v",
				stats.NextLSN, stats.ChainLength, stats.ReplayedEvents, stats.SkippedCheckpoints, names)
			ref := referenceAt(t, spec, events, units, stats.NextLSN)
			requireByteEqual(t, "delta kill-point recovery", ref, rec)
		})
	}
}

// viewBytes is every view's flat-store image, keyed by view name.
func viewBytes(eng *engine.Engine) map[string]string {
	out := map[string]string{}
	for name := range eng.ViewSizes() {
		out[name] = string(eng.View(name).Data().AppendFlat(nil))
	}
	return out
}

// TestRejectedEventLeavesNoTrace pins that an event its trigger rejects (here:
// the wrong arity) is caught before its commit unit is logged or any of it
// runs. A window whose bad event follows good events of two relations, and a
// bad single Apply, both fail with no view, Events count or log position
// changed, on a memory-only and on a durable engine; the log stays
// recoverable, byte-equal to a reference that never saw the rejected units.
func TestRejectedEventLeavesNoTrace(t *testing.T) {
	spec := mustSpec(t, "Q3")
	events := spec.Stream(0.1, 1)
	var prefix, good []engine.Event
	for i, ev := range events {
		if i < 100 {
			prefix = append(prefix, ev)
		} else if ev.Insert && (ev.Relation == "ORDERS" && len(good) == 0 || ev.Relation == "LINEITEM" && len(good) == 1) {
			good = append(good, ev)
		}
	}
	if len(good) != 2 {
		t.Fatalf("stream has no ORDERS then LINEITEM insert after the prefix")
	}
	bad := engine.Event{Relation: "LINEITEM", Insert: true, Tuple: good[1].Tuple[:1]}

	ref := newEngineFor(t, spec, compiler.ModeDBToaster)
	mem := newEngineFor(t, spec, compiler.ModeDBToaster)
	dur := newEngineFor(t, spec, compiler.ModeDBToaster)
	ffs := wal.NewFaultFS()
	if err := dur.SetDurability(engine.DurabilityOptions{Dir: recoveryWalDir, FS: ffs, Sync: wal.SyncEachCommit}); err != nil {
		t.Fatalf("set durability: %v", err)
	}
	for _, eng := range []*engine.Engine{ref, mem, dur} {
		if err := eng.ApplyBatch(engine.NewBatch(prefix)); err != nil {
			t.Fatalf("prefix: %v", err)
		}
	}
	for _, tc := range []struct {
		name string
		eng  *engine.Engine
	}{{"memory-only", mem}, {"durable", dur}} {
		views, n, lsn := viewBytes(tc.eng), tc.eng.Events(), tc.eng.LogNextLSN()
		unchanged := func(what string) {
			if got := viewBytes(tc.eng); !reflect.DeepEqual(got, views) {
				t.Errorf("%s: %s changed the views", tc.name, what)
			}
			if got := tc.eng.Events(); got != n {
				t.Errorf("%s: %s moved Events from %d to %d", tc.name, what, n, got)
			}
			if got := tc.eng.LogNextLSN(); got != lsn {
				t.Errorf("%s: %s moved the log from LSN %d to %d", tc.name, what, lsn, got)
			}
		}
		if err := tc.eng.ApplyBatch(engine.NewBatch([]engine.Event{good[0], good[1], bad})); err == nil {
			t.Errorf("%s: window with a bad event accepted", tc.name)
		}
		unchanged("the rejected window")
		if err := tc.eng.Apply(bad); err == nil {
			t.Errorf("%s: bad event accepted", tc.name)
		}
		unchanged("the rejected event")
	}
	for _, eng := range []*engine.Engine{ref, mem, dur} {
		if err := eng.ApplyBatch(engine.NewBatch(good)); err != nil {
			t.Fatalf("after the rejections: %v", err)
		}
	}
	requireByteEqual(t, "memory-only", ref, mem)
	requireByteEqual(t, "durable", ref, dur)
	if err := dur.CloseDurability(); err != nil {
		t.Fatalf("close durability: %v", err)
	}
	rec := newEngineFor(t, spec, compiler.ModeDBToaster)
	stats, err := rec.Recover(engine.DurabilityOptions{Dir: recoveryWalDir, FS: ffs.CrashClone()})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if want := uint64(len(prefix) + len(good)); stats.NextLSN != want {
		t.Errorf("recovered NextLSN %d, want %d", stats.NextLSN, want)
	}
	requireByteEqual(t, "recovered", ref, rec)
}

// TestAppendFailureIsSticky pins the log's sticky-failure contract at the
// engine: under per-commit sync a torn append fails its Apply, the next
// durable Apply — on a disk that has recovered meanwhile — returns the same
// failure instead of writing past the tear, neither event reaches a view, and
// Recover rebuilds exactly the views at the last committed event.
func TestAppendFailureIsSticky(t *testing.T) {
	spec := mustSpec(t, "Q3")
	events := spec.Stream(0.1, 1)
	const committed = 120
	if len(events) < committed+2 {
		t.Fatalf("stream too short: %d events", len(events))
	}
	ref := newEngineFor(t, spec, compiler.ModeDBToaster)
	eng := newEngineFor(t, spec, compiler.ModeDBToaster)
	ffs := wal.NewFaultFS()
	if err := eng.SetDurability(engine.DurabilityOptions{Dir: recoveryWalDir, FS: ffs, Sync: wal.SyncEachCommit}); err != nil {
		t.Fatalf("set durability: %v", err)
	}
	for _, ev := range events[:committed] {
		for _, e := range []*engine.Engine{ref, eng} {
			if err := e.Apply(ev); err != nil {
				t.Fatalf("apply: %v", err)
			}
		}
	}
	ffs.KillAfter(5)
	if err := eng.Apply(events[committed]); err == nil {
		t.Fatal("Apply with a torn log append succeeded")
	}
	ffs.KillAfter(1 << 40)
	if err := eng.Apply(events[committed+1]); err == nil || !strings.Contains(err.Error(), "logger failed") {
		t.Fatalf("Apply after the torn append: %v, want the sticky log failure", err)
	}
	requireByteEqual(t, "after the failures", ref, eng)
	if err := eng.CloseDurability(); err == nil {
		t.Error("CloseDurability reported no failure")
	}
	// Recover from the files as they stand, torn bytes included.
	rec := newEngineFor(t, spec, compiler.ModeDBToaster)
	stats, err := rec.Recover(engine.DurabilityOptions{Dir: recoveryWalDir, FS: ffs})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if stats.NextLSN != committed || !stats.TruncatedTail {
		t.Errorf("recovered to LSN %d (torn tail %v), want %d with the tear truncated", stats.NextLSN, stats.TruncatedTail, committed)
	}
	requireByteEqual(t, "recovered", ref, rec)
}

// TestEveryStreamEventIsLogged pins the logging contract of the commit path:
// every stream event is logged, events on relations the program ignores
// included, so the LSN advances for them while Events does not. It holds for
// Apply and ApplyBatch (a window of ignored events alone too) on a durable
// engine with and without serving; a served Apply of an ignored event
// publishes nothing; and Recover reaches the same NextLSN, Events and
// byte-equal views.
func TestEveryStreamEventIsLogged(t *testing.T) {
	spec := mustSpec(t, "Q3")
	stream := spec.Stream(0.1, 1)[:90]
	var events []engine.Event
	for i, ev := range stream {
		if i%4 == 0 {
			// No trigger of Q3's program reads PARTSUPP.
			events = append(events, engine.Event{Relation: "PARTSUPP", Insert: i%8 == 0, Tuple: ev.Tuple})
		}
		events = append(events, ev)
	}
	ignoredEv := events[0]
	// Units alternate one Apply with ApplyBatch windows of 2 to 7 events.
	var units []commitUnit
	for off, k := 0, 0; off < len(events); k++ {
		u := commitUnit{batch: k%3 != 0, n: 1}
		if u.batch {
			u.n = min(2+k%6, len(events)-off)
		}
		units = append(units, u)
		off += u.n
	}
	run := func(t *testing.T, eng *engine.Engine) {
		t.Helper()
		off := 0
		for _, u := range units {
			if err := applyUnit(eng, events, off, u); err != nil {
				t.Fatalf("unit at %d: %v", off, err)
			}
			off += u.n
		}
		if err := eng.ApplyBatch(engine.NewBatch([]engine.Event{ignoredEv, ignoredEv})); err != nil {
			t.Fatalf("window of ignored events: %v", err)
		}
	}
	ref := newEngineFor(t, spec, compiler.ModeDBToaster)
	run(t, ref)
	plain := newEngineFor(t, spec, compiler.ModeDBToaster)
	applyAll(t, plain, stream)
	if ref.Events() != plain.Events() {
		t.Fatalf("ignored events moved Events: %d, %d without them", ref.Events(), plain.Events())
	}
	wantLSN := uint64(len(events) + 2)
	for _, serving := range []bool{false, true} {
		t.Run(fmt.Sprintf("serving=%v", serving), func(t *testing.T) {
			ffs := wal.NewFaultFS()
			eng := newEngineFor(t, spec, compiler.ModeDBToaster)
			var sub *engine.Subscription
			if serving {
				var err error
				if sub, err = eng.Subscribe("", engine.SubscribeOptions{Buffer: 1024, SkipInitial: true}); err != nil {
					t.Fatal(err)
				}
				defer sub.Cancel()
			}
			if err := eng.SetDurability(engine.DurabilityOptions{Dir: recoveryWalDir, FS: ffs, Sync: wal.SyncEachCommit,
				CheckpointEvery: 23, SynchronousCheckpoints: true}); err != nil {
				t.Fatalf("set durability: %v", err)
			}
			run(t, eng)
			if serving {
				for len(sub.C) > 0 {
					<-sub.C
				}
			}
			if err := eng.Apply(ignoredEv); err != nil {
				t.Fatalf("ignored event: %v", err)
			}
			if serving {
				select {
				case b := <-sub.C:
					t.Errorf("a served Apply of an ignored event published %+v", b)
				default:
				}
			}
			if got := eng.LogNextLSN(); got != wantLSN+1 {
				t.Errorf("logged %d events, want %d", got, wantLSN+1)
			}
			requireByteEqual(t, "durable", ref, eng)
			if err := eng.CloseDurability(); err != nil {
				t.Fatalf("close durability: %v", err)
			}
			rec := newEngineFor(t, spec, compiler.ModeDBToaster)
			stats, err := rec.Recover(engine.DurabilityOptions{Dir: recoveryWalDir, FS: ffs})
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if !stats.HadCheckpoint || stats.NextLSN != wantLSN+1 || rec.LogNextLSN() != wantLSN+1 {
				t.Errorf("recovered to LSN %d (checkpoint %v, LogNextLSN %d), want %d from a checkpoint",
					stats.NextLSN, stats.HadCheckpoint, rec.LogNextLSN(), wantLSN+1)
			}
			requireByteEqual(t, "recovered", ref, rec)
		})
	}
}

// TestDurabilityMisuse pins the guard rails: double arming, recovering into a
// dirty or armed engine, and checkpointing without durability all fail loudly
// instead of corrupting state.
func TestDurabilityMisuse(t *testing.T) {
	spec := workload.All()[0]
	events := spec.Stream(0.1, 1)
	if len(events) < 2 {
		t.Fatalf("workload %s stream too short", spec.Name)
	}

	eng := newEngineFor(t, spec, compiler.ModeDBToaster)
	if err := eng.Checkpoint(); err == nil {
		t.Error("Checkpoint without durability should fail")
	}
	ffs := wal.NewFaultFS()
	opts := engine.DurabilityOptions{Dir: recoveryWalDir, FS: ffs, Sync: wal.SyncEachCommit}
	if err := eng.SetDurability(opts); err != nil {
		t.Fatalf("set durability: %v", err)
	}
	if err := eng.SetDurability(opts); err == nil {
		t.Error("double SetDurability should fail")
	}
	if _, err := eng.Recover(opts); err == nil {
		t.Error("Recover with durability armed should fail")
	}
	if err := eng.Apply(events[0]); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if err := eng.CloseDurability(); err != nil {
		t.Fatalf("close durability: %v", err)
	}
	if _, err := eng.Recover(opts); err == nil {
		t.Error("Recover on a non-fresh engine should fail")
	}
	// A serving engine counts events on its epoch clock and hands readers
	// frozen views, so Recover must come before the first Acquire.
	served := newEngineFor(t, spec, compiler.ModeDBToaster)
	served.Acquire()
	if _, err := served.Recover(opts); err == nil || !strings.Contains(err.Error(), "serving engine") {
		t.Errorf("Recover on a serving engine: %v, want a refusal naming the serving engine", err)
	}

	// A directory from a different program must be rejected at load time.
	other := newEngineFor(t, workload.All()[1], compiler.ModeDBToaster)
	if err := other.SetDurability(engine.DurabilityOptions{
		Dir: recoveryWalDir, FS: ffs, Sync: wal.SyncEachCommit,
	}); err != nil {
		t.Fatalf("arm other program: %v", err)
	}
	if err := other.Checkpoint(); err != nil {
		t.Fatalf("checkpoint other program: %v", err)
	}
	if err := other.CloseDurability(); err != nil {
		t.Fatalf("close other program: %v", err)
	}
	mismatched := newEngineFor(t, spec, compiler.ModeDBToaster)
	if _, err := mismatched.Recover(engine.DurabilityOptions{Dir: recoveryWalDir, FS: ffs}); err == nil {
		t.Error("recovering another program's checkpoint should fail")
	}
}

// TestRecoverRejectsFlatVersion1 pins that a checkpoint in an older flat
// format is refused by name: a full image of version 1 (the decimal text key
// format) or 2 (the serialized probe table), or a delta of version 1 (the
// serialized probe cells), makes Recover fail with an error naming the
// version and install no view.
func TestRecoverRejectsFlatVersion1(t *testing.T) {
	for _, tc := range []struct {
		name    string
		suffix  string // the checkpoint file whose payloads are patched
		magic   string // the payloads patched: images or deltas
		version byte
	}{
		{"image-v1", ".base", "GMRFLAT1", 1},
		{"image-v2", ".base", "GMRFLAT1", 2},
		{"delta-v1", ".delta", "GMRDLTA1", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := mustSpec(t, "Q3")
			events := spec.Stream(0.1, 1)[:60]
			src := newEngineFor(t, spec, compiler.ModeDBToaster)
			ffs := wal.NewFaultFS()
			if err := src.SetDurability(engine.DurabilityOptions{Dir: recoveryWalDir, FS: ffs, DeltaCheckpoints: true}); err != nil {
				t.Fatalf("set durability: %v", err)
			}
			// A base link, then a delta link on top of it.
			for _, w := range [][]engine.Event{events[:30], events[30:]} {
				if err := src.ApplyBatch(engine.NewBatch(w)); err != nil {
					t.Fatalf("apply: %v", err)
				}
				if err := src.Checkpoint(); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}
			}
			if err := src.CloseDurability(); err != nil {
				t.Fatalf("close durability: %v", err)
			}
			names, err := ffs.List(recoveryWalDir)
			if err != nil {
				t.Fatal(err)
			}
			files, payloads := 0, 0
			for _, name := range names {
				if !strings.HasSuffix(name, tc.suffix) {
					continue
				}
				c, err := wal.ReadChainCheckpoint(ffs, recoveryWalDir, name)
				if err != nil {
					t.Fatalf("read %s: %v", name, err)
				}
				for i := range c.Views {
					if d := c.Views[i].Data; strings.HasPrefix(string(d), tc.magic) {
						d[len(tc.magic)] = tc.version
						payloads++
					}
				}
				if _, _, err := wal.WriteChainCheckpoint(ffs, recoveryWalDir, c); err != nil {
					t.Fatalf("rewrite %s: %v", name, err)
				}
				files++
			}
			if files != 1 || payloads == 0 {
				t.Fatalf("patched %d payloads in %d %s checkpoints of %v, want one file", payloads, files, tc.suffix, names)
			}
			fresh := viewBytes(newEngineFor(t, spec, compiler.ModeDBToaster))
			rec := newEngineFor(t, spec, compiler.ModeDBToaster)
			want := fmt.Sprintf("version %d", tc.version)
			if _, err := rec.Recover(engine.DurabilityOptions{Dir: recoveryWalDir, FS: ffs}); err == nil {
				t.Fatalf("Recover accepted a %s payload of %s", tc.magic, want)
			} else if !strings.Contains(err.Error(), want) {
				t.Errorf("Recover error %q does not name %s", err, want)
			}
			if got := viewBytes(rec); !reflect.DeepEqual(got, fresh) {
				t.Error("failed Recover installed views")
			}
			if rec.Events() != 0 {
				t.Errorf("failed Recover moved Events to %d", rec.Events())
			}
		})
	}
}

// q1Windows is n 64-event windows of Q1's stream, cycling through one pass
// of it: Q1 groups by two flag columns, so its views stay inside a fixed key
// domain however many windows replay.
func q1Windows(spec workload.Spec, n int) [][]engine.Event {
	events := spec.Stream(0.3, 1)
	windows := make([][]engine.Event, n)
	per := len(events) / 64
	for i := range windows {
		w := i % per
		windows[i] = events[w*64 : w*64+64]
	}
	return windows
}

// writeQ1Log streams windows through a durable Q1 engine on a fresh FaultFS,
// taking a checkpoint after the first ckptAfter of them, and returns the
// closed directory.
func writeQ1Log(t *testing.T, spec workload.Spec, windows [][]engine.Event, ckptAfter int) *wal.FaultFS {
	t.Helper()
	ffs := wal.NewFaultFS()
	eng := newEngineFor(t, spec, compiler.ModeDBToaster)
	if err := eng.SetDurability(engine.DurabilityOptions{Dir: recoveryWalDir, FS: ffs, Sync: wal.SyncNone}); err != nil {
		t.Fatalf("set durability: %v", err)
	}
	for i, w := range windows {
		if i == ckptAfter {
			if err := eng.Checkpoint(); err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
		}
		if err := eng.ApplyBatch(engine.NewBatch(w)); err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
	}
	if err := eng.CloseDurability(); err != nil {
		t.Fatalf("close durability: %v", err)
	}
	return ffs
}

// TestRecoveryAllocsIndependentOfTail pins that Recover streams the log tail:
// Scan keeps the validated record bytes and Replay decodes one record at a
// time into buffers it reuses, so replaying twice the windows costs only the
// few allocations a longer segment and payload list take. Decoding the whole
// tail first cost about three objects per event.
func TestRecoveryAllocsIndependentOfTail(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own")
	}
	spec := mustSpec(t, "Q1")
	const n = 150
	mallocs := func(windows int) uint64 {
		ffs := writeQ1Log(t, spec, q1Windows(spec, windows), -1)
		eng := newEngineFor(t, spec, compiler.ModeDBToaster)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		stats, err := eng.Recover(engine.DurabilityOptions{Dir: recoveryWalDir, FS: ffs})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		if want := uint64(windows * 64); stats.ReplayedEvents != want {
			t.Fatalf("replayed %d events, want %d", stats.ReplayedEvents, want)
		}
		return after.Mallocs - before.Mallocs
	}
	one, two := mallocs(n), mallocs(2*n)
	if two > one+64 {
		t.Errorf("Recover allocated %d objects for %d windows and %d for %d: %.2f per added event",
			one, n, two, 2*n, float64(two-one)/float64(n*64))
	}
}

// TestRecoverRefusesLateCorruptionWhole pins the two-pass contract: a corrupt
// record near the end of a long tail, with a valid record after it, fails
// Recover before the checkpoint is installed or any event replays, so the
// engine is left exactly as fresh as it was.
func TestRecoverRefusesLateCorruptionWhole(t *testing.T) {
	spec := mustSpec(t, "Q1")
	ffs := writeQ1Log(t, spec, q1Windows(spec, 200), 20)
	names, err := ffs.List(recoveryWalDir)
	if err != nil {
		t.Fatal(err)
	}
	var seg string
	for _, name := range names {
		if strings.HasPrefix(name, "wal-") && name > seg {
			seg = name
		}
	}
	data, err := ffs.ReadFile(recoveryWalDir + "/" + seg)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the frames ([u32 payload length][u32 CRC][payload]) to the
	// second-to-last record and flip a byte of its payload.
	var starts []int
	for pos := 0; pos < len(data); pos += 8 + int(binary.LittleEndian.Uint32(data[pos:])) {
		starts = append(starts, pos)
	}
	if len(starts) < 100 {
		t.Fatalf("newest segment holds %d records, want the long tail", len(starts))
	}
	if !ffs.FlipByte(recoveryWalDir+"/"+seg, starts[len(starts)-2]+8+16, 0x01) {
		t.Fatal("flip failed")
	}
	fresh := newEngineFor(t, spec, compiler.ModeDBToaster)
	eng := newEngineFor(t, spec, compiler.ModeDBToaster)
	if _, err := eng.Recover(engine.DurabilityOptions{Dir: recoveryWalDir, FS: ffs}); err == nil {
		t.Fatal("Recover accepted a tail with a corrupt record before its last one")
	}
	if n := eng.Events(); n != 0 {
		t.Errorf("the refused Recover left Events at %d", n)
	}
	if !reflect.DeepEqual(viewBytes(eng), viewBytes(fresh)) {
		t.Error("the refused Recover installed or replayed state")
	}
}
