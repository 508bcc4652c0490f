package wal

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"dbtoaster/internal/frame"
	"dbtoaster/internal/types"
)

// recordPayload returns the payload of the framed record rec.
func recordPayload(t testing.TB, rec []byte) []byte {
	t.Helper()
	p, _, err := frame.Decode(rec, maxRecordBytes)
	if err != nil {
		t.Fatalf("frame: %v", err)
	}
	return p
}

// FuzzDecodePayload holds the record payload decoder — the reusing decoder
// Scan validates through and Replay replays through — to its contract behind
// the frame CRC, which a bit flip of a framed record nearly always trips
// first: any payload either fails to decode or decodes, without a panic, to a
// record that re-encodes to the very same bytes (the layout is canonical:
// maximal runs, minimal varints, flag and bool bytes of 0 or 1). Decoding with a
// decoder that has just decoded a different record (more events, longer
// tuples, other strings) gives the record a fresh decoder gives, so no stale
// event, tuple or interned string leaks from one record into the next. The
// corpus starts from single-event and batch records carrying every value
// kind, runs of one relation and of several, and a record of the refused
// fixed-width kind 1.
func FuzzDecodePayload(f *testing.F) {
	every := types.Tuple{types.Null(), types.Int(-7), types.Int(math.MaxInt64), types.Float(2.5),
		types.Float(math.NaN()), types.Float(math.Inf(-1)), types.Str(""), types.Str("héllo"),
		types.Bool(true), types.Bool(false), types.Date(1995, 3, 15)}
	for _, v := range every {
		f.Add(recordPayload(f, appendRecord(nil, false, 3, []Event{{Relation: "R", Insert: true, Tuple: types.Tuple{v}}})))
	}
	f.Add(recordPayload(f, appendRecord(nil, false, 0, []Event{{Relation: "S", Tuple: every}})))
	f.Add(recordPayload(f, appendRecord(nil, true, 17, []Event{testEvent(1), {Relation: "T"}, {Relation: "R", Tuple: every}, testEvent(6)})))
	f.Add(recordPayload(f, appendRecord(nil, true, 1<<40, nil)))
	f.Add(recordPayload(f, appendRecord(nil, true, 8, []Event{testEvent(0), testEvent(3), testEvent(6), testEvent(1), {Relation: "R1"}})))
	f.Add(recordPayload(f, oldRecord(1)))
	f.Add([]byte{})
	// The record a reused decoder decodes first: more events than any seed
	// above, arity past every seed's, and string values none of them carry.
	wide := append(types.Tuple{types.Str("stale"), types.Str("héllo!")}, every...)
	prior := recordPayload(f, appendRecord(nil, true, 99, []Event{
		{Relation: "Wide", Insert: true, Tuple: wide}, testEvent(5), {Relation: "R", Tuple: wide},
		testEvent(2), {Relation: "T", Tuple: types.Tuple{types.Str("x")}}, testEvent(4)}))
	f.Fuzz(func(t *testing.T, p []byte) {
		got, err := new(decoder).decodePayload(p)
		var reused decoder
		if _, perr := reused.decodePayload(prior); perr != nil {
			t.Fatalf("prior record: %v", perr)
		}
		again, rerr := reused.decodePayload(p)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("fresh decoder: %v; reused decoder: %v", err, rerr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("reused decoder decodes a different record:\n%+v\n%+v", got, again)
		}
		if enc := recordPayload(t, appendRecord(nil, got.Batch, got.First, got.Events)); !bytes.Equal(enc, p) {
			t.Fatalf("decoded record %+v re-encodes to other bytes:\n%x\n%x", got, p, enc)
		}
	})
}
