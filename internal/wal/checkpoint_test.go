package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

func testCheckpoint(lsn uint64) *ChainCheckpoint {
	g := gmr.New(types.Schema{"a", "b"})
	for i := 0; i < 50; i++ {
		g.Add(types.Tuple{types.Int(int64(i % 17)), types.Str(fmt.Sprintf("k%d", i))}, float64(i)+0.25)
	}
	return &ChainCheckpoint{
		LSN:          lsn,
		Base:         true,
		EngineEvents: lsn - 1,
		Views: []ViewPayload{
			{Name: "Q", Data: g.AppendFlat(nil)},
			{Name: "EMPTY", Data: gmr.New(types.Schema{"x"}).AppendFlat(nil)},
		},
	}
}

func ckptEqual(a, b *ChainCheckpoint) bool {
	if a.LSN != b.LSN || a.ParentLSN != b.ParentLSN || a.Base != b.Base ||
		a.EngineEvents != b.EngineEvents || len(a.Views) != len(b.Views) {
		return false
	}
	for i := range a.Views {
		if a.Views[i].Name != b.Views[i].Name || a.Views[i].Delta != b.Views[i].Delta ||
			!bytes.Equal(a.Views[i].Data, b.Views[i].Data) {
			return false
		}
	}
	return true
}

// TestCheckpointRoundTrip publishes a checkpoint and reads it back, then
// checks the view images still load as flat stores.
func TestCheckpointRoundTrip(t *testing.T) {
	fs := NewFaultFS()
	fs.MkdirAll("d")
	want := testCheckpoint(42)
	name, _, err := WriteChainCheckpoint(fs, "d", want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readChainCheckpoint(fs, "d", name)
	if err != nil {
		t.Fatal(err)
	}
	if !ckptEqual(want, got) {
		t.Fatal("checkpoint round trip differs")
	}
	if _, err := gmr.LoadFlat(got.Views[0].Data); err != nil {
		t.Fatalf("view image does not load: %v", err)
	}
}

// TestCheckpointDamageRejected truncates and bit-flips a published checkpoint
// at every byte; every damaged image must fail validation with an error,
// never panic or load partially.
func TestCheckpointDamageRejected(t *testing.T) {
	img := testCheckpoint(7).append(nil)
	for n := 0; n < len(img); n++ {
		if c, err := decodeChainCheckpoint(img[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted: %+v", n, c)
		}
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 3000; trial++ {
		mut := append([]byte(nil), img...)
		mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
		if c, err := decodeChainCheckpoint(mut); err == nil && ckptEqual(c, testCheckpoint(7)) == false {
			t.Fatal("bit flip accepted with altered content")
		}
	}
}

// TestCheckpointFallback damages the newest checkpoint; Scan must fall back
// to the older one and report the skip.
func TestCheckpointFallback(t *testing.T) {
	fs := NewFaultFS()
	l, err := Open(Options{Dir: "d", FS: fs, Policy: SyncEachCommit}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustAppend(t, l, false, []Event{testEvent(i)})
	}
	mustWriteChain(t, fs, "d", testCheckpoint(5))
	newest, _, err := WriteChainCheckpoint(fs, "d", testCheckpoint(10))
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if !fs.FlipByte(join("d", newest), 20, 0x01) {
		t.Fatal("flip failed")
	}
	rec, err := Scan(fs, "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Chain) != 1 || rec.Chain[0].LSN != 5 {
		t.Fatalf("fallback checkpoint: %+v", rec.Chain)
	}
	if len(rec.SkippedCheckpoints) != 1 {
		t.Fatalf("skipped checkpoints: %v", rec.SkippedCheckpoints)
	}
	// Replay resumes after the fallback checkpoint: records 5..9.
	if recs := records(t, rec); len(recs) != 5 || recs[0].First != 5 || rec.NextLSN != 10 {
		t.Fatalf("replay tail: %d records from %+v to %d", len(recs), recs, rec.NextLSN)
	}
}

// TestCheckpointTornWriteInvisible kills the writer inside a checkpoint
// write; the half-written temp file must not surface as a checkpoint.
func TestCheckpointTornWriteInvisible(t *testing.T) {
	fs := NewFaultFS()
	l, err := Open(Options{Dir: "d", FS: fs, Policy: SyncEachCommit}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		mustAppend(t, l, false, []Event{testEvent(i)})
	}
	fs.KillAfter(100)
	if _, _, err := WriteChainCheckpoint(fs, "d", testCheckpoint(4)); err == nil {
		t.Fatal("torn checkpoint write succeeded")
	}
	fs.Crash()
	rec, err := Scan(fs, "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Chain) != 0 {
		t.Fatalf("torn checkpoint visible: %+v", rec.Chain)
	}
	if n := len(records(t, rec)); n != 4 {
		t.Fatalf("log tail lost: %d records", n)
	}
}

// TestGCRetention keeps the newest two checkpoints plus the segments needed
// to replay from the older of them.
func TestGCRetention(t *testing.T) {
	fs := NewFaultFS()
	l, err := Open(Options{Dir: "d", FS: fs, Policy: SyncEachCommit}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for ckptAt := 5; ckptAt <= 20; ckptAt += 5 {
		for i := ckptAt - 5; i < ckptAt; i++ {
			mustAppend(t, l, false, []Event{testEvent(i)})
		}
		if err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
		mustWriteChain(t, fs, "d", testCheckpoint(uint64(ckptAt)))
		oldest, err := gc(fs, "d")
		if err != nil {
			t.Fatal(err)
		}
		if err := l.RemoveSegmentsBelow(oldest); err != nil {
			t.Fatal(err)
		}
	}
	names, _ := fs.List("d")
	var ckpts, segs int
	for _, n := range names {
		switch {
		case len(n) > 5 && n[:5] == "ckpt-":
			ckpts++
		case len(n) > 4 && n[:4] == "wal-":
			segs++
		}
	}
	if ckpts != keepCheckpoints {
		t.Fatalf("%d checkpoints retained, want %d", ckpts, keepCheckpoints)
	}
	// Retained: segments from LSN 15 (older kept checkpoint) on: wal-15, wal-20.
	if segs != 2 {
		t.Fatalf("%d segments retained, want 2: %v", segs, names)
	}
	l.Close()
	rec, err := Scan(fs, "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Chain) != 1 || rec.Chain[0].LSN != 20 || rec.NextLSN != 20 {
		t.Fatalf("post-GC scan: %+v", rec)
	}
}
