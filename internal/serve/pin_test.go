package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

// TestWireBytesPinned holds the wire format fixed: one frame of each of the
// five kinds hashes to a recorded digest, so a changed byte on the wire fails
// here first.
func TestWireBytesPinned(t *testing.T) {
	tuple := types.Tuple{
		types.Null(), types.Int(-7), types.Float(math.Copysign(0, -1)),
		types.Str("ünï"), types.Bool(true), types.Bool(false),
	}
	for _, tc := range []struct {
		frame []byte
		want  string
	}{
		{AppendHello(nil, Hello{Version: ProtocolVersion, Query: "Q3", Resume: true, ResumeEvents: 1<<40 + 3}), "156ef85269a5f97f087a11ce4af41e7eca0f5cc4ad6a715cdafc9399a1831440"},
		{AppendSubAck(nil, SubAck{Version: ProtocolVersion, Mode: ResumeDelta, Events: 99, View: "Q3", Keys: []string{"o_ok", "o_odate", ""}}), "1128741b89746bc859d98c912b223dc255a1c4b92f6059cf0a7846484fea60a0"},
		{AppendBatch(nil, Batch{Events: 1234, Reset: true, Initial: true, Resumed: true, Coalesced: 5, Entries: []gmr.Entry{
			{Tuple: tuple, Mult: -1.5},
			{Tuple: nil, Mult: 3},
			{Tuple: tuple[1:2], Mult: math.Inf(1)},
		}}), "9c95a6080df27486ff7bf888ee8e797f0635a0af583673956359873f56830362"},
		{AppendError(nil, ErrorFrame{Msg: "serve: unknown query \"nope\""}), "3963724e7a5169c2043d88897b4386e6944354292d88687eda53f3b0ad673d1e"},
		{AppendBye(nil, Bye{Reason: 7}), "6d08d44dd66f66bfdac5e5e3348ac4c21715af99b2a4220f18ec1ce63b16036a"},
	} {
		sum := sha256.Sum256(tc.frame)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("frame kind %d bytes changed: sha256 %s (%d bytes), pinned %s", tc.frame[8], got, len(tc.frame), tc.want)
		}
	}
}
