package wal

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"dbtoaster/internal/frame"
	"dbtoaster/internal/types"
)

// TestLongRelationNameRoundTrips: a relation name longer than a u16 length
// can say is one uvarint-prefixed run header like any other, so a record
// naming it and a record after it both come back whole through Append, Scan
// and Replay.
func TestLongRelationNameRoundTrips(t *testing.T) {
	fs := NewFaultFS()
	l, err := Open(Options{Dir: "d", FS: fs}, 0)
	if err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("L", 70000)
	want := []Record{
		{First: 0, Events: []Event{{Relation: long, Insert: true, Tuple: types.Tuple{types.Int(1)}}}},
		{First: 1, Events: []Event{{Relation: "R", Tuple: types.Tuple{types.Str("short")}}}},
	}
	for _, r := range want {
		mustAppend(t, l, r.Batch, r.Events)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Scan(fs, "d")
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if rec.TruncatedTail || rec.NextLSN != 2 {
		t.Fatalf("Scan: truncated=%v next LSN %d, want a whole log ending at 2", rec.TruncatedTail, rec.NextLSN)
	}
	if got := records(t, rec); !reflect.DeepEqual(got, want) {
		t.Fatalf("long relation name did not round-trip: got %d records", len(got))
	}
}

// TestRecordRuns: a record writes one run header per maximal stretch of
// events of one relation and arity, so a window grouped by relation names
// each relation once, and the runs decode back to the events in order.
func TestRecordRuns(t *testing.T) {
	ev := func(rel string, vals ...int64) Event {
		var tup types.Tuple
		for _, v := range vals {
			tup = append(tup, types.Int(v))
		}
		return Event{Relation: rel, Insert: true, Tuple: tup}
	}
	for _, tc := range []struct {
		name   string
		events []Event
		runs   uint64
	}{
		{"empty window", nil, 0},
		{"one relation", []Event{ev("A", 1), ev("A", 2), ev("A", 3)}, 1},
		{"grouped", []Event{ev("A", 1), ev("A", 2), ev("B", 3), ev("B", 4), ev("C")}, 3},
		{"interleaved", []Event{ev("A", 1), ev("B", 2), ev("A", 3)}, 3},
		{"arity change", []Event{ev("A", 1), ev("A", 1, 2), ev("A", 3)}, 3},
	} {
		p := recordPayload(t, appendRecord(nil, true, 5, tc.events))
		r := frame.NewReader(p[9:]) // past the kind and the first LSN
		if got := r.Uvarint("run count"); got != tc.runs {
			t.Errorf("%s: %d runs, want %d", tc.name, got, tc.runs)
		}
		rec, err := new(decoder).decodePayload(p)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !rec.Batch || rec.First != 5 || !reflect.DeepEqual(rec.Events, tc.events) {
			t.Errorf("%s: decoded %+v, want %+v", tc.name, rec.Events, tc.events)
		}
	}
}

// oldRecord is a hand-built record of the fixed-width layout of kind 1 (one
// event) or 2 (a batch): u8 kind, u64 first LSN, u32 event count, and per
// event a u16-prefixed relation, u8 insert flag, u16 arity and values with
// an 8-byte int.
func oldRecord(kind byte) []byte {
	dst, start := frame.Begin(nil)
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint64(dst, 0)
	dst = binary.LittleEndian.AppendUint32(dst, 1)
	dst = binary.LittleEndian.AppendUint16(dst, 1)
	dst = append(dst, 'R', 1)
	dst = binary.LittleEndian.AppendUint16(dst, 1)
	dst = append(dst, 1)
	dst = binary.LittleEndian.AppendUint64(dst, 42)
	return frame.End(dst, start)
}

// TestScanRefusesOldRecordKinds: a whole record of kind 1 or 2 fails Scan
// with an error naming the kind, even as the last record of the log, where
// an undecodable record would otherwise be dropped as a torn tail.
func TestScanRefusesOldRecordKinds(t *testing.T) {
	for _, kind := range []byte{1, 2} {
		fs := NewFaultFS()
		if err := fs.MkdirAll("d"); err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create(join("d", segmentName(0)))
		if err != nil {
			t.Fatal(err)
		}
		seg := oldRecord(kind)
		if _, err := f.Write(seg); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		want := "record kind " + string('0'+kind)
		if _, err := Scan(fs, "d"); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("kind %d: Scan = %v, want an error naming %q", kind, err, want)
		}
	}
}

// TestDecodeRefusesNonCanonicalRecords: the decoder accepts only the bytes
// appendRecord writes, so every accepted payload re-encodes byte-equal.
func TestDecodeRefusesNonCanonicalRecords(t *testing.T) {
	head := func(kind byte, runs byte) []byte {
		return append(binary.LittleEndian.AppendUint64([]byte{kind}, 0), runs)
	}
	run := func(rel string, arity, count byte) []byte {
		return append(append([]byte{byte(len(rel))}, rel...), arity, count)
	}
	intVal := []byte{1, 2} // Int(1)
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"fixed-width event", oldRecord(1)[frame.HeaderBytes:], "record kind 1"},
		{"unknown kind", head(9, 0), "unknown record kind 9"},
		{"empty run", cat(head(recBatch, 1), run("R", 1, 0)), "run 0 is empty"},
		{"continued run", cat(head(recBatch, 2), run("R", 1, 1), []byte{1}, intVal, run("R", 1, 1), []byte{1}, intVal), "run 1 continues"},
		{"insert flag 2", cat(head(recBatch, 1), run("R", 1, 1), []byte{2}, intVal), "bad insert flag 2"},
		{"lying run count", head(recBatch, 100), "implausible run count 100"},
		{"lying event count", cat(head(recBatch, 1), run("R", 1, 100), []byte{1}, intVal), "100 events of arity 1"},
		{"event record of two", cat(head(recEvent, 1), run("R", 1, 2), []byte{1}, intVal, []byte{1}, intVal), "event record carries 2 events"},
		{"non-minimal run count", cat(head(recBatch, 0x80), []byte{0}), "non-minimal run count"},
	} {
		if _, err := new(decoder).decodePayload(tc.payload); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
