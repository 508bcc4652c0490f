package wal

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// mustWriteChain publishes one chain link, failing the test on error.
func mustWriteChain(t *testing.T, fs FS, dir string, c *ChainCheckpoint) {
	t.Helper()
	if _, _, err := WriteChainCheckpoint(fs, dir, c); err != nil {
		t.Fatalf("WriteChainCheckpoint(LSN %d): %v", c.LSN, err)
	}
}

func baseLink(lsn uint64, payload string) *ChainCheckpoint {
	return &ChainCheckpoint{
		LSN: lsn, Base: true, EngineEvents: lsn,
		Views: []ViewPayload{{Name: "V", Data: []byte(payload)}},
	}
}

func deltaLink(lsn, parent uint64, payload string) *ChainCheckpoint {
	return &ChainCheckpoint{
		LSN: lsn, ParentLSN: parent, EngineEvents: lsn,
		Views: []ViewPayload{{Name: "V", Delta: true, Data: []byte(payload)}},
	}
}

// TestChainRoundTrip writes a base plus two delta links and checks that Scan
// returns the chain base-first with payloads and flags intact. The wal layer
// treats payload bytes as opaque — composing them is the engine's job.
func TestChainRoundTrip(t *testing.T) {
	fs := NewFaultFS()
	if err := fs.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	mustWriteChain(t, fs, "d", baseLink(10, "full-10"))
	mustWriteChain(t, fs, "d", deltaLink(20, 10, "delta-20"))
	mustWriteChain(t, fs, "d", deltaLink(35, 20, "delta-35"))

	rec, err := Scan(fs, "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Chain) != 3 {
		t.Fatalf("chain length %d, want 3", len(rec.Chain))
	}
	wantLSNs := []uint64{10, 20, 35}
	for i, c := range rec.Chain {
		if c.LSN != wantLSNs[i] {
			t.Fatalf("link %d LSN %d, want %d", i, c.LSN, wantLSNs[i])
		}
		if (i == 0) != c.Base {
			t.Fatalf("link %d Base=%v", i, c.Base)
		}
	}
	if got := string(rec.Chain[2].Views[0].Data); got != "delta-35" {
		t.Fatalf("head payload %q", got)
	}
	if !rec.Chain[2].Views[0].Delta {
		t.Fatal("head payload not marked delta")
	}
	if len(rec.SkippedCheckpoints) != 0 {
		t.Fatalf("unexpected skips: %v", rec.SkippedCheckpoints)
	}
}

// TestChainFallback damages chain links in several ways; Scan must skip the
// broken head and fall back to the newest chain that validates whole.
func TestChainFallback(t *testing.T) {
	setup := func(t *testing.T) FS {
		fs := NewFaultFS()
		if err := fs.MkdirAll("d"); err != nil {
			t.Fatal(err)
		}
		mustWriteChain(t, fs, "d", baseLink(10, "full-10"))
		mustWriteChain(t, fs, "d", deltaLink(20, 10, "delta-20"))
		return fs
	}

	t.Run("corrupt-head", func(t *testing.T) {
		fs := setup(t)
		data, err := fs.ReadFile("d/" + chainDeltaName(20, 10))
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		f, err := fs.Create("d/" + chainDeltaName(20, 10))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		f.Close()
		rec, err := Scan(fs, "d")
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Chain) != 1 || rec.Chain[0].LSN != 10 {
			t.Fatalf("expected fallback to base at 10, got %+v", rec.Chain)
		}
		if len(rec.SkippedCheckpoints) == 0 {
			t.Fatal("damage not reported in SkippedCheckpoints")
		}
	})

	t.Run("missing-parent", func(t *testing.T) {
		fs := setup(t)
		mustWriteChain(t, fs, "d", deltaLink(30, 20, "delta-30"))
		if err := fs.Remove("d/" + chainDeltaName(20, 10)); err != nil {
			t.Fatal(err)
		}
		rec, err := Scan(fs, "d")
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Chain) != 1 || rec.Chain[0].LSN != 10 {
			t.Fatalf("expected fallback to base at 10, got %+v", rec.Chain)
		}
		if len(rec.SkippedCheckpoints) == 0 {
			t.Fatal("missing parent not reported")
		}
	})

	t.Run("corrupt-base-under-delta", func(t *testing.T) {
		fs := setup(t)
		// A later complete chain must win even when the newest head is fine
		// but its base is damaged.
		mustWriteChain(t, fs, "d", baseLink(15, "full-15"))
		mustWriteChain(t, fs, "d", deltaLink(30, 20, "delta-30"))
		data, _ := fs.ReadFile("d/" + chainBaseName(10))
		data[0] ^= 1
		f, _ := fs.Create("d/" + chainBaseName(10))
		f.Write(data)
		f.Close()
		rec, err := Scan(fs, "d")
		if err != nil {
			t.Fatal(err)
		}
		// Chain 30->20->10 is broken at 10; fallback order tries head 20
		// (also broken), then base 15.
		if len(rec.Chain) != 1 || rec.Chain[0].LSN != 15 {
			t.Fatalf("expected fallback to base at 15, got %+v", rec.Chain)
		}
	})
}

// TestChainGCRetention pins chain-aware GC: the chains rooted at the two
// newest head LSNs survive whole (however old their bases), everything else
// — older chains, bypassed deltas — is removed, and the returned LSN is the
// older retained head (the segment-retention floor). A file that is not a
// chain link — here a `.ckpt` image of a format this package no longer reads,
// named above every head — is neither a head candidate nor GC's to remove.
func TestChainGCRetention(t *testing.T) {
	fs := NewFaultFS()
	if err := fs.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	mustWriteChain(t, fs, "d", baseLink(5, "full-5")) // stale old chain
	mustWriteChain(t, fs, "d", baseLink(10, "full-10"))
	mustWriteChain(t, fs, "d", deltaLink(20, 10, "delta-20"))
	mustWriteChain(t, fs, "d", deltaLink(30, 20, "delta-30"))
	mustWriteChain(t, fs, "d", deltaLink(40, 30, "delta-40"))
	const stray = "ckpt-0000000000000032.ckpt"
	f, err := fs.Create(join("d", stray))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()

	oldest, err := gc(fs, "d")
	if err != nil {
		t.Fatal(err)
	}
	if oldest != 30 {
		t.Fatalf("oldest retained head %d, want 30", oldest)
	}
	names, err := fs.List("d")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, n := range names {
		got[n] = true
	}
	want := map[string]bool{
		chainBaseName(10):      true,
		chainDeltaName(20, 10): true,
		chainDeltaName(30, 20): true,
		chainDeltaName(40, 30): true,
		stray:                  true,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after GC: %v, want %v", got, want)
	}
	// Both retained heads must still recover.
	rec, err := Scan(fs, "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Chain) != 4 || rec.Chain[3].LSN != 40 || len(rec.SkippedCheckpoints) != 0 {
		t.Fatalf("post-GC chain: %+v, skipped %v", rec.Chain, rec.SkippedCheckpoints)
	}
}

// TestChainWriteRejectsMalformed pins writer-side validation: a delta whose
// parent does not precede it, and a base holding a delta payload, are caller
// bugs the writer refuses to publish.
func TestChainWriteRejectsMalformed(t *testing.T) {
	fs := NewFaultFS()
	if err := fs.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := WriteChainCheckpoint(fs, "d", deltaLink(10, 10, "x")); err == nil {
		t.Fatal("accepted delta with parent == LSN")
	}
	bad := baseLink(10, "x")
	bad.Views[0].Delta = true
	if _, _, err := WriteChainCheckpoint(fs, "d", bad); err == nil {
		t.Fatal("accepted base with delta payload")
	}
}

// TestLogStats covers the log's counters: append bytes accumulate, every
// checkpoint attempt counts, and only a successful one adds its bytes.
func TestLogStats(t *testing.T) {
	fs := NewFaultFS()
	l, err := Open(Options{Dir: "d", FS: fs}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if s := l.Stats(); s.AppendedBytes != 0 || s.NextLSN != 0 {
		t.Fatalf("fresh log stats: %+v", s)
	}
	mustAppend(t, l, false, []Event{testEvent(1)})
	mustAppend(t, l, true, []Event{testEvent(2), testEvent(3)})
	s := l.Stats()
	if s.AppendedBytes <= 0 {
		t.Fatalf("AppendedBytes = %d after appends", s.AppendedBytes)
	}
	if s.NextLSN != 3 {
		t.Fatalf("NextLSN = %d, want 3", s.NextLSN)
	}

	l.NoteCheckpoint(128, nil)
	s = l.Stats()
	if s.Checkpoints != 1 || s.CheckpointBytes != 128 {
		t.Fatalf("totals after successful note: %+v", s)
	}

	ckErr := fmt.Errorf("disk full")
	l.NoteCheckpoint(64, ckErr)
	s = l.Stats()
	if s.Checkpoints != 2 || s.CheckpointBytes != 128 {
		t.Fatalf("totals after failed note: %+v", s)
	}
}

// TestConcurrentGCRotate hammers Log.GC against concurrent appends, rotations
// and checkpoint publishes. Run under -race in CI, this is the regression
// test for the GC/Rotate directory-listing race: GC must never observe a
// half-updated directory, remove a live segment, or trip the race detector,
// and the directory must still recover cleanly afterwards.
func TestConcurrentGCRotate(t *testing.T) {
	fs := NewFaultFS()
	l, err := Open(Options{Dir: "d", FS: fs, Policy: SyncNone}, 0)
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 200
	var wg sync.WaitGroup
	wg.Add(2)
	errc := make(chan error, 2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := l.Append(false, []Event{testEvent(i)}); err != nil {
				errc <- fmt.Errorf("append %d: %w", i, err)
				return
			}
			if i%4 == 3 {
				if err := l.Rotate(); err != nil {
					errc <- fmt.Errorf("rotate %d: %w", i, err)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/4; i++ {
			lsn := l.NextLSN()
			c := baseLink(lsn, fmt.Sprintf("img-%d", i))
			if _, _, err := WriteChainCheckpoint(fs, "d", c); err != nil {
				errc <- fmt.Errorf("checkpoint %d: %w", i, err)
				return
			}
			if _, err := l.GC(); err != nil {
				errc <- fmt.Errorf("gc %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Scan(fs, "d")
	if err != nil {
		t.Fatalf("post-hammer scan: %v", err)
	}
	if rec.NextLSN != rounds {
		t.Fatalf("post-hammer NextLSN = %d, want %d", rec.NextLSN, rounds)
	}
}
