package wal

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"dbtoaster/internal/types"
)

// The byte pins below hold the log segment and chain-link layouts fixed: each
// digest is the sha256 of the bytes the layout defines, so any change to a
// byte on disk — framing, record payload, value codec or chain layout — fails
// here first.

func pinDigest(t *testing.T, what string, data []byte, want string) {
	t.Helper()
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s bytes changed: sha256 %s (%d bytes), pinned %s", what, got, len(data), want)
	}
}

// everyKind is a tuple over every value kind, with the edge values of each.
func everyKind() types.Tuple {
	return types.Tuple{
		types.Null(),
		types.Int(-42), types.Int(math.MaxInt64), types.Int(0),
		types.Float(math.Inf(-1)), types.Float(math.Copysign(0, -1)), types.Float(2.5),
		types.Str(""), types.Str("ünïcode"),
		types.Bool(true), types.Bool(false),
	}
}

func TestSegmentBytesPinned(t *testing.T) {
	fs := NewFaultFS()
	l, err := Open(Options{Dir: "d", FS: fs, Policy: SyncNone}, 7)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, false, []Event{{Relation: "R", Insert: true, Tuple: everyKind()}})
	mustAppend(t, l, true, []Event{
		testEvent(1),
		{Relation: "LINEITEM", Insert: false, Tuple: everyKind()[3:9]},
		{Relation: "E", Insert: true},
	})
	mustAppend(t, l, false, []Event{testEvent(9)})
	mustAppend(t, l, true, []Event{testEvent(4)})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile(join("d", segmentName(7)))
	if err != nil {
		t.Fatal(err)
	}
	pinDigest(t, "log segment", data, "f7ecfd730feb24ec14ea9ce245b08c8236eb5ccbae7389daded167dc351f813c")
}

func TestChainLinkBytesPinned(t *testing.T) {
	fs := NewFaultFS()
	if err := fs.MkdirAll("d"); err != nil {
		t.Fatal(err)
	}
	base := &ChainCheckpoint{LSN: 10, Base: true, EngineEvents: 12, Views: []ViewPayload{
		{Name: "Q1", Data: []byte("full image of Q1")},
		{Name: "Q1_mLINEITEM1", Data: nil},
	}}
	delta := &ChainCheckpoint{LSN: 25, ParentLSN: 10, EngineEvents: 31, Views: []ViewPayload{
		{Name: "Q1", Delta: true, Data: []byte{0, 1, 2, 0xff}},
		{Name: "Q1_mLINEITEM1", Data: []byte("fresh full image")},
	}}
	for _, tc := range []struct {
		c    *ChainCheckpoint
		want string
	}{
		{base, "433203dafdbb1fc94beca679135eb707b7a9e22d0ea5bfa54983bc3e91d28ebf"},
		{delta, "1e3844682ef259d4f57aeb8aea40bb58cdbd9bdd9ee3cefd12f5357285c45803"},
	} {
		name, size, err := WriteChainCheckpoint(fs, "d", tc.c)
		if err != nil {
			t.Fatal(err)
		}
		data, err := fs.ReadFile(join("d", name))
		if err != nil {
			t.Fatal(err)
		}
		if size != len(data) {
			t.Errorf("%s: reported size %d, file holds %d bytes", name, size, len(data))
		}
		pinDigest(t, name, data, tc.want)
	}
}
