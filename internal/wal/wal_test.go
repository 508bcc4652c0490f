package wal

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dbtoaster/internal/types"
)

func testEvent(i int) Event {
	return Event{
		Relation: fmt.Sprintf("R%d", i%3),
		Insert:   i%4 != 0,
		Tuple:    types.Tuple{types.Int(int64(i)), types.Float(float64(i) + 0.5), types.Str(strings.Repeat("x", i%7))},
	}
}

// records copies the log tail out of rec through Replay, which hands each
// record over in buffers it reuses for the next one.
func records(t testing.TB, rec *Recovered) []Record {
	t.Helper()
	var out []Record
	err := rec.Replay(func(r *Record) error {
		c := Record{Batch: r.Batch, First: r.First}
		for _, ev := range r.Events {
			ev.Tuple = slices.Clone(ev.Tuple)
			c.Events = append(c.Events, ev)
		}
		out = append(out, c)
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func mustAppend(t *testing.T, l *Log, batch bool, events []Event) uint64 {
	t.Helper()
	first, err := l.Append(batch, events)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	return first
}

// TestLogRoundTrip commits a mix of single events and batch windows and
// checks that Scan returns them verbatim, with the record kind and LSN
// accounting intact.
func TestLogRoundTrip(t *testing.T) {
	fs := NewFaultFS()
	l, err := Open(Options{Dir: "d", FS: fs}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	lsn := uint64(0)
	for i := 0; i < 40; i++ {
		if i%5 == 4 {
			evs := []Event{testEvent(i), testEvent(i + 1), testEvent(i + 2)}
			if got := mustAppend(t, l, true, evs); got != lsn {
				t.Fatalf("batch %d: first LSN %d, want %d", i, got, lsn)
			}
			want = append(want, Record{Batch: true, First: lsn, Events: evs})
			lsn += 3
		} else {
			evs := []Event{testEvent(i)}
			if got := mustAppend(t, l, false, evs); got != lsn {
				t.Fatalf("event %d: first LSN %d, want %d", i, got, lsn)
			}
			want = append(want, Record{First: lsn, Events: evs})
			lsn++
		}
	}
	if l.NextLSN() != lsn {
		t.Fatalf("NextLSN = %d, want %d", l.NextLSN(), lsn)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Scan(fs, "d")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Chain != nil || rec.TruncatedTail {
		t.Fatalf("unexpected checkpoint/truncation: %+v", rec)
	}
	if rec.NextLSN != lsn {
		t.Fatalf("recovered NextLSN = %d, want %d", rec.NextLSN, lsn)
	}
	recs := records(t, rec)
	if len(recs) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		w := want[i]
		if r.Batch != w.Batch || r.First != w.First || len(r.Events) != len(w.Events) {
			t.Fatalf("record %d: got %+v, want %+v", i, r, w)
		}
		for j := range r.Events {
			g, e := r.Events[j], w.Events[j]
			if g.Relation != e.Relation || g.Insert != e.Insert || len(g.Tuple) != len(e.Tuple) {
				t.Fatalf("record %d event %d: got %+v, want %+v", i, j, g, e)
			}
			for k := range g.Tuple {
				if g.Tuple[k].Kind() != e.Tuple[k].Kind() || !g.Tuple[k].Equal(e.Tuple[k]) {
					t.Fatalf("record %d event %d value %d: got %v (%v), want %v (%v)",
						i, j, k, g.Tuple[k], g.Tuple[k].Kind(), e.Tuple[k], e.Tuple[k].Kind())
				}
			}
		}
	}
}

// TestValueKindsPreserved pins that replayed tuples carry the exact runtime
// value kinds, not canonical-key representatives.
func TestValueKindsPreserved(t *testing.T) {
	fs := NewFaultFS()
	l, err := Open(Options{Dir: "d", FS: fs}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tup := types.Tuple{types.Float(3), types.Bool(true), types.Null(), types.Int(3)}
	mustAppend(t, l, false, []Event{{Relation: "R", Insert: true, Tuple: tup}})
	l.Close()
	rec, err := Scan(fs, "d")
	if err != nil {
		t.Fatal(err)
	}
	got := records(t, rec)[0].Events[0].Tuple
	wantKinds := []types.Kind{types.KindFloat, types.KindBool, types.KindNull, types.KindInt}
	for i, k := range wantKinds {
		if got[i].Kind() != k {
			t.Fatalf("value %d: kind %v, want %v", i, got[i].Kind(), k)
		}
	}
}

// TestSyncPolicies checks the fsync counts each policy promises: per-commit
// syncs once per Append (a batch is one commit), none never syncs on the
// append path.
func TestSyncPolicies(t *testing.T) {
	fs := NewFaultFS()
	l, err := Open(Options{Dir: "d", FS: fs, Policy: SyncEachCommit}, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := fs.Syncs()
	mustAppend(t, l, false, []Event{testEvent(1)})
	mustAppend(t, l, true, []Event{testEvent(2), testEvent(3), testEvent(4)})
	if got := fs.Syncs() - base; got != 2 {
		t.Fatalf("per-commit: %d syncs for 2 commits", got)
	}
	l.Close()

	fs2 := NewFaultFS()
	l2, err := Open(Options{Dir: "d", FS: fs2, Policy: SyncNone}, 0)
	if err != nil {
		t.Fatal(err)
	}
	base = fs2.Syncs()
	for i := 0; i < 10; i++ {
		mustAppend(t, l2, false, []Event{testEvent(i)})
	}
	if got := fs2.Syncs() - base; got != 0 {
		t.Fatalf("none: %d syncs on append path", got)
	}
	// A crash before any sync loses everything — that is the policy's
	// contract. CrashClone keeps only durable bytes, however far the logger
	// has got with the queued records.
	rec, err := Scan(fs2.CrashClone(), "d")
	if err != nil {
		t.Fatal(err)
	}
	if len(records(t, rec)) != 0 || rec.NextLSN != 0 {
		t.Fatalf("unsynced data survived crash: %+v", rec)
	}
}

// TestTornTailTruncated kills the writer mid-record; the scan must drop the
// torn tail cleanly and keep every record synced before it.
func TestTornTailTruncated(t *testing.T) {
	fs := NewFaultFS()
	l, err := Open(Options{Dir: "d", FS: fs, Policy: SyncEachCommit}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustAppend(t, l, false, []Event{testEvent(i)})
	}
	// Allow 10 more bytes: the next append tears. The OS then flushes part of
	// the torn record's bytes before the crash — the durable torn tail.
	fs.KillAfter(10)
	if _, err := l.Append(false, []Event{testEvent(5)}); err == nil {
		t.Fatal("append past kill budget succeeded")
	}
	for name := range fs.UnsyncedFiles() {
		fs.PartialFlush(name, 7)
	}
	fs.Crash()
	rec, err := Scan(fs, "d")
	if err != nil {
		t.Fatal(err)
	}
	if !rec.TruncatedTail {
		t.Fatal("torn tail not detected")
	}
	if n := len(records(t, rec)); n != 5 || rec.NextLSN != 5 {
		t.Fatalf("recovered %d records to LSN %d, want 5 to 5", n, rec.NextLSN)
	}
}

// TestTransientAppendFailureIsSticky tears one append and then lets the disk
// recover: under every policy the log must stay poisoned — the later append,
// Sync and Close all report the failure — and the directory must recover to
// exactly the records committed before the tear, its torn tail truncated. A
// log that wrote on past the tear would leave a valid record after damage,
// which Scan rightly refuses as corruption.
func TestTransientAppendFailureIsSticky(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncEachCommit, SyncInterval, SyncNone} {
		t.Run(policy.String(), func(t *testing.T) {
			fs := NewFaultFS()
			l, err := Open(Options{Dir: "d", FS: fs, Policy: policy}, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				mustAppend(t, l, false, []Event{testEvent(i)})
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			fs.KillAfter(5)
			l.Append(false, []Event{testEvent(3)}) // tears; async policies report it later
			if err := l.Sync(); err == nil {
				t.Error("Sync after a torn append succeeded")
			}
			fs.KillAfter(1 << 40)
			if _, err := l.Append(false, []Event{testEvent(4)}); err == nil {
				t.Error("Append after a torn append succeeded")
			}
			if err := l.Close(); err == nil {
				t.Error("Close after a torn append reported no failure")
			}
			rec, err := Scan(fs, "d")
			if err != nil {
				t.Fatalf("scan: %v", err)
			}
			if n := len(records(t, rec)); !rec.TruncatedTail || n != 3 || rec.NextLSN != 3 {
				t.Fatalf("recovered %d records to LSN %d (torn tail %v), want 3 to 3 with the tear truncated",
					n, rec.NextLSN, rec.TruncatedTail)
			}
		})
	}
}

// TestMidLogCorruptionDetected flips a durable byte in an early record; with
// valid records after it, the scan must fail loudly instead of truncating.
func TestMidLogCorruptionDetected(t *testing.T) {
	fs := NewFaultFS()
	l, err := Open(Options{Dir: "d", FS: fs, Policy: SyncEachCommit}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mustAppend(t, l, false, []Event{testEvent(i)})
	}
	l.Close()
	seg := join("d", segmentName(0))
	if !fs.FlipByte(seg, 30, 0x40) {
		t.Fatal("flip failed")
	}
	if _, err := Scan(fs, "d"); err == nil {
		t.Fatal("mid-log corruption not detected")
	}
	// The same flip at the very tail (no valid records after) is a clean
	// crash point.
	fs2 := NewFaultFS()
	l2, _ := Open(Options{Dir: "d", FS: fs2, Policy: SyncEachCommit}, 0)
	for i := 0; i < 20; i++ {
		mustAppend(t, l2, false, []Event{testEvent(i)})
	}
	l2.Close()
	size := fs2.DurableSize(seg)
	if !fs2.FlipByte(seg, int(size)-3, 0x40) {
		t.Fatal("flip failed")
	}
	rec, err := Scan(fs2, "d")
	if err != nil {
		t.Fatal(err)
	}
	if !rec.TruncatedTail || rec.NextLSN != 19 {
		t.Fatalf("tail flip: truncated=%v nextLSN=%d, want true/19", rec.TruncatedTail, rec.NextLSN)
	}
}

// TestRotationAndGC rotates segments at checkpoint boundaries and checks that
// RemoveSegmentsBelow only drops wholly-covered segments.
func TestRotationAndGC(t *testing.T) {
	fs := NewFaultFS()
	l, err := Open(Options{Dir: "d", FS: fs, Policy: SyncEachCommit}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustAppend(t, l, false, []Event{testEvent(i)})
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		mustAppend(t, l, false, []Event{testEvent(i)})
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveSegmentsBelow(10); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.List("d")
	var segs []string
	for _, n := range names {
		if strings.HasPrefix(n, "wal-") {
			segs = append(segs, n)
		}
	}
	if len(segs) != 2 || segs[0] != segmentName(10) || segs[1] != segmentName(15) {
		t.Fatalf("segments after GC: %v", segs)
	}
	l.Close()
	// Without a checkpoint the remaining segments no longer start at LSN 0 —
	// the scan must refuse to silently resurrect a partial prefix.
	if _, err := Scan(fs, "d"); err == nil {
		t.Fatal("scan over GC'd log without checkpoint succeeded")
	}
}

// TestScanGapDetection: a missing segment between two retained ones must fail
// the scan, not yield a silently shortened stream.
func TestScanGapDetection(t *testing.T) {
	fs := NewFaultFS()
	l, _ := Open(Options{Dir: "d", FS: fs, Policy: SyncEachCommit}, 0)
	for i := 0; i < 6; i++ {
		mustAppend(t, l, false, []Event{testEvent(i)})
	}
	l.Rotate()
	for i := 6; i < 12; i++ {
		mustAppend(t, l, false, []Event{testEvent(i)})
	}
	l.Rotate()
	for i := 12; i < 15; i++ {
		mustAppend(t, l, false, []Event{testEvent(i)})
	}
	l.Close()
	if err := fs.Remove(join("d", segmentName(6))); err != nil {
		t.Fatal(err)
	}
	if _, err := Scan(fs, "d"); err == nil {
		t.Fatal("LSN gap not detected")
	}
}

// TestScanEmptyDir: an absent or empty directory is a fresh start.
func TestScanEmptyDir(t *testing.T) {
	rec, err := Scan(NewFaultFS(), "nope")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Chain != nil || len(records(t, rec)) != 0 || rec.NextLSN != 0 {
		t.Fatalf("fresh scan: %+v", rec)
	}
}

// TestRecordFuzzDecode throws random mutations at framed records; decode must
// reject or return consistent data, never panic.
func TestRecordFuzzDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := appendRecord(nil, true, 17, []Event{testEvent(1), testEvent(2)})
	for trial := 0; trial < 5000; trial++ {
		mut := append([]byte(nil), base...)
		for f := 0; f <= rng.Intn(3); f++ {
			mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
		}
		n := len(mut)
		if rng.Intn(2) == 0 {
			n = rng.Intn(len(mut) + 1)
		}
		new(decoder).decodeRecord(mut[:n]) // must not panic
	}
}
