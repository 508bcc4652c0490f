package wal

import (
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

// FuzzDecodePayload holds the record payload parser to its contract behind
// the frame CRC, which a bit flip of a framed record nearly always trips
// first: any payload either fails to decode or decodes, without a panic, to a
// record whose re-encoded payload decodes to an equal record. The corpus
// starts from single-event and batch records carrying every value kind.
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
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		rec, err := decodePayload(p)
		if err != nil {
			return
		}
		again, err := decodePayload(recordPayload(t, appendRecord(nil, rec.Batch, rec.First, rec.Events)))
		if err != nil {
			t.Fatalf("decoded record %+v re-encodes to a payload that fails: %v", rec, err)
		}
		if !reflect.DeepEqual(again, rec) {
			t.Fatalf("record changed through re-encoding:\n%+v\n%+v", rec, again)
		}
	})
}
