package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"dbtoaster/internal/frame"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

// sampleMessages is one well-formed message of every frame kind, exercising
// every value kind, the resume arm, flags, and an empty batch.
func sampleMessages() []any {
	return []any{
		&Hello{Version: ProtocolVersion, Query: "Q3"},
		&Hello{Version: ProtocolVersion, Query: "", Resume: true, ResumeEvents: 981273},
		&SubAck{Version: ProtocolVersion, Mode: ResumeSnapshot, Events: 42, View: "Q3", Keys: []string{"o_ok", "o_odate"}},
		&SubAck{Version: ProtocolVersion, Mode: ResumeCurrent, Events: 1 << 40, View: "V", Keys: nil},
		&Batch{Events: 7, Reset: true, Initial: true, Entries: []gmr.Entry{
			{Tuple: types.Tuple{types.Int(1), types.Str("ship")}, Mult: 2},
			{Tuple: types.Tuple{types.Float(3.5), types.Bool(true), types.Null()}, Mult: -1.25},
		}},
		&Batch{Events: 9, Resumed: true, Coalesced: 3, Entries: []gmr.Entry{
			{Tuple: nil, Mult: 1},
		}},
		&Batch{Events: 11},
		&ErrorFrame{Msg: "serve: unknown query \"nope\""},
		&Bye{Reason: 0},
	}
}

func encodeMessage(t testing.TB, msg any) []byte {
	switch m := msg.(type) {
	case *Hello:
		return AppendHello(nil, *m)
	case *SubAck:
		return AppendSubAck(nil, *m)
	case *Batch:
		return AppendBatch(nil, *m)
	case *ErrorFrame:
		return AppendError(nil, *m)
	case *Bye:
		return AppendBye(nil, *m)
	default:
		t.Fatalf("unknown message type %T", msg)
		return nil
	}
}

func TestWireRoundTrip(t *testing.T) {
	for _, msg := range sampleMessages() {
		frame := encodeMessage(t, msg)
		got, n, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("DecodeFrame(%T): %v", msg, err)
		}
		if n != len(frame) {
			t.Fatalf("DecodeFrame(%T) consumed %d of %d bytes", msg, n, len(frame))
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("round trip mismatch:\n got %#v\nwant %#v", got, msg)
		}
		// Frames are self-delimiting: decoding from a longer stream consumes
		// exactly one frame.
		double := append(append([]byte(nil), frame...), frame...)
		if _, n, err := DecodeFrame(double); err != nil || n != len(frame) {
			t.Errorf("decode from stream: n=%d err=%v", n, err)
		}
	}
}

func TestWireReadFrame(t *testing.T) {
	var stream []byte
	msgs := sampleMessages()
	for _, msg := range msgs {
		stream = append(stream, encodeMessage(t, msg)...)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	for i, want := range msgs {
		frame, err := ReadFrame(br, buf)
		if err != nil {
			t.Fatalf("ReadFrame #%d: %v", i, err)
		}
		buf = frame
		got, _, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("DecodeFrame #%d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("frame #%d mismatch: got %#v want %#v", i, got, want)
		}
	}
}

// TestDecodeFrameTruncation cuts every sample frame at every possible length:
// each prefix must produce an error, never a panic or a bogus success.
func TestDecodeFrameTruncation(t *testing.T) {
	for _, msg := range sampleMessages() {
		frame := encodeMessage(t, msg)
		for cut := 0; cut < len(frame); cut++ {
			if _, _, err := DecodeFrame(frame[:cut]); err == nil {
				t.Fatalf("%T truncated to %d/%d bytes decoded without error", msg, cut, len(frame))
			}
		}
	}
}

// TestDecodeFrameBitFlips flips every bit of every sample frame: CRC-32C
// detects any single-bit payload corruption, and header corruption trips the
// length/CRC validation, so every flip must error (and must not panic).
func TestDecodeFrameBitFlips(t *testing.T) {
	for _, msg := range sampleMessages() {
		frame := encodeMessage(t, msg)
		for i := 0; i < len(frame); i++ {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), frame...)
				mut[i] ^= 1 << bit
				if _, _, err := DecodeFrame(mut); err == nil {
					t.Fatalf("%T with bit %d of byte %d flipped decoded without error", msg, bit, i)
				}
			}
		}
	}
}

// reframe wraps a raw payload in a valid header (correct length and CRC), so
// adversarial payload shapes get past the outer checks.
func reframe(payload []byte) []byte {
	dst, start := frame.Begin(nil)
	return frame.End(append(dst, payload...), start)
}

// TestDecodeFrameAdversarial feeds hand-crafted hostile frames — CRC-valid
// payloads whose counts or fields lie — and demands a diagnostic error for
// each, with no panic and no allocation sized by the lying count.
func TestDecodeFrameAdversarial(t *testing.T) {
	u16 := func(v uint16) []byte { return binary.LittleEndian.AppendUint16(nil, v) }
	u32 := func(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }
	u64 := func(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	cases := []struct {
		name    string
		frame   []byte
		wantErr string
	}{
		{"empty", nil, "truncated frame header"},
		{"zero length", reframe(nil)[:frame.HeaderBytes], "implausible frame length"},
		{"oversized length", cat(u32(maxFrameBytes+1), u32(0)), "implausible frame length"},
		{"unknown kind", reframe([]byte{99}), "unknown frame kind"},
		{"hello bad resume flag", reframe(cat([]byte{frameHello, 1}, u16(1), []byte{'q', 2})), "bad hello resume flag"},
		{"hello trailing bytes", reframe(cat([]byte{frameHello, 1}, u16(0), []byte{0, 0xee})), "trailing bytes"},
		{"ack unknown resume mode", reframe(cat([]byte{frameAck, 1, 9}, u64(0), u16(0), u16(0))), "unknown resume mode"},
		{"ack lying key count", reframe(cat([]byte{frameAck, 1, 0}, u64(0), u16(0), u16(0xffff))), "key count 65535 exceeds payload"},
		{"ack truncated key", reframe(cat([]byte{frameAck, 1, 0}, u64(0), u16(0), u16(1), u16(500), []byte("ab"))), "truncated ack key"},
		{"batch unknown flags", reframe(cat([]byte{frameBatch}, u64(0), []byte{0x80}, u32(0), u32(0))), "unknown batch flags"},
		{"batch lying entry count", reframe(cat([]byte{frameBatch}, u64(0), []byte{0}, u32(0), u32(0xffffffff))), "entry count 4294967295 exceeds payload"},
		{"batch lying arity", reframe(cat([]byte{frameBatch}, u64(0), []byte{0}, u32(0), u32(1), u16(0xffff), u64(0))), "arity 65535 exceeds payload"},
		{"batch bad value tag", reframe(cat([]byte{frameBatch}, u64(0), []byte{0}, u32(0), u32(1), u16(1), []byte{0xee}, u64(0))), "entry 0 value 0"},
		{"batch non-minimal int", reframe(cat([]byte{frameBatch}, u64(0), []byte{0}, u32(0), u32(1), u16(1), []byte{1, 0x80, 0}, u64(0))), "non-minimal value"},
		{"batch bool byte 2", reframe(cat([]byte{frameBatch}, u64(0), []byte{0}, u32(0), u32(1), u16(1), []byte{4, 2}, u64(0))), "bad bool byte 2"},
		// arity 1 + a null value + 7 bytes: passes the 10-byte minimum-entry
		// check, then runs out inside the multiplicity.
		{"batch truncated mult", reframe(cat([]byte{frameBatch}, u64(0), []byte{0}, u32(0), u32(1), u16(1), []byte{0}, u64(0)[:7])), "truncated entry multiplicity"},
		{"error truncated message", reframe(cat([]byte{frameError}, u16(10), []byte("short"))), "truncated error message"},
		{"bye trailing bytes", reframe([]byte{frameBye, 0, 1, 2}), "trailing bytes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg, _, err := DecodeFrame(tc.frame)
			if err == nil {
				t.Fatalf("decoded hostile frame without error: %#v", msg)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestReadFrameTruncation exercises the streaming reader against torn writes:
// every prefix of a valid stream must end in an error, not a hang or panic.
func TestReadFrameTruncation(t *testing.T) {
	frame := encodeMessage(t, sampleMessages()[4])
	for cut := 0; cut < len(frame); cut++ {
		br := bufio.NewReader(bytes.NewReader(frame[:cut]))
		if _, err := ReadFrame(br, nil); err == nil {
			t.Fatalf("ReadFrame on %d/%d bytes succeeded", cut, len(frame))
		}
	}
	// A header lying about an enormous payload must be rejected before any
	// allocation of that size.
	huge := binary.LittleEndian.AppendUint32(nil, 1<<31-1)
	huge = append(huge, 0, 0, 0, 0)
	br := bufio.NewReader(bytes.NewReader(huge))
	if _, err := ReadFrame(br, nil); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("ReadFrame on lying header: %v", err)
	}
}

// FuzzDecodeFrame hammers the decoder with arbitrary bytes: it must never
// panic, and anything it accepts must re-encode to a stable fixed point
// (encode(decode(x)) decodes to the same message and the same bytes).
func FuzzDecodeFrame(f *testing.F) {
	for _, msg := range sampleMessages() {
		f.Add(encodeMessage(f, msg))
	}
	// A few shapes the generators would take a while to find.
	f.Add([]byte{})
	f.Add(make([]byte, frame.HeaderBytes))
	f.Add(encodeMessage(f, sampleMessages()[4])[:11])
	f.Add(reframe([]byte{frameBatch, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}))
	// One-entry batches whose value is a second spelling the decoder
	// refuses: a non-minimal varint int, and a bool byte of 2.
	for _, val := range [][]byte{{1, 0x80, 0x00}, {4, 2}} {
		p := append([]byte{frameBatch, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0}, val...)
		f.Add(reframe(append(p, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decoded frame size %d out of range (input %d)", n, len(data))
		}
		enc := encodeMessage(t, msg)
		again, m, err := DecodeFrame(enc)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if m != len(enc) {
			t.Fatalf("re-encoded frame size %d, decoded %d", len(enc), m)
		}
		// Byte-compare the second generation instead of DeepEqual: NaN
		// multiplicities compare unequal to themselves but their bit patterns
		// ride the codec untouched.
		if enc2 := encodeMessage(t, again); !bytes.Equal(enc, enc2) {
			t.Fatalf("encode/decode not a fixed point:\n first %x\nsecond %x", enc, enc2)
		}
	})
}

// TestBatchNaNMultRoundTrip pins the kind-exactness claim at its sharpest
// edge: multiplicity bit patterns (including NaN payloads) survive the codec
// untouched.
func TestBatchNaNMultRoundTrip(t *testing.T) {
	bits := uint64(0x7ff8dead_beef0001)
	in := Batch{Events: 1, Entries: []gmr.Entry{{Tuple: types.Tuple{types.Int(1)}, Mult: math.Float64frombits(bits)}}}
	frame := AppendBatch(nil, in)
	msg, _, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	got := msg.(*Batch).Entries[0].Mult
	if math.Float64bits(got) != bits {
		t.Fatalf("multiplicity bits %#x round-tripped to %#x", bits, math.Float64bits(got))
	}
}
