package frame

import (
	"bufio"
	"bytes"
	"math"
	"strings"
	"testing"

	"dbtoaster/internal/types"
)

// samplePayloads exercise every Reader field and every value kind.
func samplePayloads() [][]byte {
	var p []byte
	p = append(p, 7)
	p = AppendStr16(p, "relation")
	for _, v := range []types.Value{
		types.Null(), types.Int(-3), types.Int(math.MinInt64), types.Float(math.Copysign(0, -1)),
		types.Float(math.NaN()), types.Str(""), types.Str("ünï"), types.Bool(true), types.Bool(false),
	} {
		p = AppendValue(p, v)
	}
	return [][]byte{{0}, []byte("x"), p, bytes.Repeat([]byte{0xa5}, 300)}
}

func framed(payload []byte) []byte {
	dst, start := Begin([]byte("prefix"))
	return End(append(dst, payload...), start)[len("prefix"):]
}

// TestFrameRoundTrip: Begin/End frame a payload in place after existing
// bytes; Decode and Read return it whole, consuming exactly one frame.
func TestFrameRoundTrip(t *testing.T) {
	var stream []byte
	for _, p := range samplePayloads() {
		f := framed(p)
		got, n, err := Decode(f, 1<<20)
		if err != nil || n != len(f) || !bytes.Equal(got, p) {
			t.Fatalf("Decode: %q n=%d err=%v, want %q n=%d", got, n, err, p, len(f))
		}
		stream = append(stream, f...)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	for i, p := range samplePayloads() {
		f, err := Read(br, buf, 1<<20)
		if err != nil {
			t.Fatalf("Read #%d: %v", i, err)
		}
		buf = f
		if got, _, err := Decode(f, 1<<20); err != nil || !bytes.Equal(got, p) {
			t.Fatalf("Read #%d decoded %q, %v", i, got, err)
		}
	}
}

// TestFrameDamage is the framing's truncation and bit-flip table: every
// proper prefix of a frame and every single-bit flip of it fails Decode with
// the diagnostic of the check that caught it, and Read rejects each prefix.
func TestFrameDamage(t *testing.T) {
	for _, p := range samplePayloads() {
		f := framed(p)
		for cut := 0; cut < len(f); cut++ {
			want := "truncated frame payload"
			if cut < HeaderBytes {
				want = "truncated frame header"
			}
			if _, _, err := Decode(f[:cut], 1<<20); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%d/%d-byte prefix: %v, want %q", cut, len(f), err, want)
			}
			if _, err := Read(bytes.NewReader(f[:cut]), nil, 1<<20); err == nil {
				t.Fatalf("Read of a %d/%d-byte prefix succeeded", cut, len(f))
			}
		}
		for i := range f {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), f...)
				mut[i] ^= 1 << bit
				want := "frame CRC mismatch"
				if i < 4 {
					want = "frame" // a length flip is implausible or truncates
				}
				if _, _, err := Decode(mut, 1<<20); err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("bit %d of byte %d flipped: %v, want %q", bit, i, err, want)
				}
			}
		}
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		max   int
	}{
		{"zero length", make([]byte, HeaderBytes), 1 << 20},
		{"over the cap", framed(make([]byte, 65)), 64},
		{"length past 2^31", []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, 1 << 30},
	} {
		if _, _, err := Decode(tc.frame, tc.max); err == nil || !strings.Contains(err.Error(), "implausible frame length") {
			t.Errorf("%s: Decode %v", tc.name, err)
		}
		if _, err := Read(bytes.NewReader(tc.frame), nil, tc.max); err == nil || !strings.Contains(err.Error(), "implausible frame length") {
			t.Errorf("%s: Read %v", tc.name, err)
		}
	}
}

// TestReaderErrorsNameTheOffset: the first failure sticks, later reads yield
// zero values, and the error names the field and where it stopped.
func TestReaderErrorsNameTheOffset(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if got := r.U16("head"); got != 0x0201 {
		t.Fatalf("U16 = %#x", got)
	}
	if got := r.U32("count"); got != 0 {
		t.Fatalf("short U32 = %d, want 0", got)
	}
	if got := r.U8("tail"); got != 0 {
		t.Fatalf("read after a failure = %d, want 0", got)
	}
	if err := r.Err(); err == nil || err.Error() != "truncated count at offset 2 (need 4 bytes, have 1)" {
		t.Fatalf("Err = %v", err)
	}
	if r.Done("payload") != r.Err() {
		t.Fatal("Done did not report the first failure")
	}

	r = NewReader([]byte{9, 0})
	r.U8("kind")
	if err := r.Done("payload"); err == nil || err.Error() != "1 trailing bytes in payload" {
		t.Fatalf("Done = %v", err)
	}

	r = NewReader([]byte{0xee})
	r.Value("value")
	if err := r.Err(); err == nil || err.Error() != "unknown tag 238 of value at offset 0" {
		t.Fatalf("bad tag: %v", err)
	}
}

// TestValueKindsRoundTrip: every kind comes back with its exact kind and
// bits — float -0 and NaN payloads included — and every proper prefix of an
// encoded value is an error.
func TestValueKindsRoundTrip(t *testing.T) {
	for _, v := range []types.Value{
		types.Null(), types.Int(math.MaxInt64), types.Int(-1), types.Float(math.Copysign(0, -1)),
		types.Float(math.Float64frombits(0x7ff8dead_beef0001)), types.Float(math.Inf(-1)),
		types.Str(""), types.Str(strings.Repeat("s", 70000)), types.Bool(true), types.Bool(false),
	} {
		enc := AppendValue(nil, v)
		r := NewReader(enc)
		got := r.Value("value")
		if err := r.Done("value"); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if got.Kind() != v.Kind() || !bytes.Equal(AppendValue(nil, got), enc) {
			t.Fatalf("%v (%v) came back as %v (%v)", v, v.Kind(), got, got.Kind())
		}
		for cut := 0; cut < len(enc); cut++ {
			r := NewReader(enc[:cut])
			r.Value("value")
			if r.Err() == nil {
				t.Fatalf("%v: %d/%d-byte prefix decoded", v, cut, len(enc))
			}
		}
	}
}

// FuzzFrame: Decode never panics; what it accepts re-frames to the same
// bytes, and Read agrees with it on the same input.
func FuzzFrame(f *testing.F) {
	for _, p := range samplePayloads() {
		f.Add(framed(p))
	}
	f.Add([]byte{})
	f.Add(make([]byte, HeaderBytes))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, n, err := Decode(data, 1<<16)
		read, rerr := Read(bytes.NewReader(data), nil, 1<<16)
		if err != nil {
			if rerr == nil {
				if _, _, derr := Decode(read, 1<<16); derr == nil {
					t.Fatalf("Read accepted a frame Decode rejects: %v", err)
				}
			}
			return
		}
		if n != HeaderBytes+len(payload) || n > len(data) {
			t.Fatalf("frame size %d for a %d-byte payload in %d bytes", n, len(payload), len(data))
		}
		if !bytes.Equal(framed(payload), data[:n]) {
			t.Fatal("re-framing the payload changed the bytes")
		}
		if rerr != nil || !bytes.Equal(read, data[:n]) {
			t.Fatalf("Read disagrees with Decode: %v", rerr)
		}
		// The payload as a Reader: walking it as values never panics.
		r := NewReader(payload)
		for r.Err() == nil && r.Remaining() > 0 {
			r.Value("value")
		}
	})
}

// TestValueCodecRefusesNonCanonical: Reader.Value accepts only the bytes
// AppendValue writes, naming what it refuses.
func TestValueCodecRefusesNonCanonical(t *testing.T) {
	for _, tc := range []struct {
		name string
		enc  []byte
		want string
	}{
		{"non-minimal int", []byte{valInt, 0x80, 0x00}, "non-minimal value at offset 1"},
		{"non-minimal string length", []byte{valString, 0x81, 0x00, 'x'}, "non-minimal value at offset 1"},
		{"non-minimal int before more values", []byte{valInt, 0x81, 0x80, 0x00, valNull, valNull}, "non-minimal value at offset 1"},
		{"overlong int", []byte{valInt, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, "overlong value at offset 1"},
		{"eleven-byte int", append(append([]byte{valInt}, bytes.Repeat([]byte{0x80}, 10)...), 0x01), "overlong value at offset 1"},
		{"truncated int", []byte{valInt, 0x80}, "truncated value at offset 1"},
		{"string past the end", []byte{valString, 5, 'a'}, "truncated value at offset 2 (need 5 bytes, have 1)"},
		{"bool byte 2", []byte{valBool, 2}, "bad bool byte 2 of value at offset 1"},
	} {
		r := NewReader(tc.enc)
		r.Value("value")
		if err := r.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want %q", tc.name, err, tc.want)
		}
	}
	// The compact sizes: small ints of either sign and short strings take
	// one byte past the tag.
	for _, tc := range []struct {
		v    types.Value
		size int
	}{
		{types.Int(0), 2}, {types.Int(-64), 2}, {types.Int(63), 2}, {types.Int(64), 3},
		{types.Int(math.MinInt64), 11}, {types.Str("abc"), 5}, {types.Float(1), 9}, {types.Bool(true), 2},
	} {
		if got := len(AppendValue(nil, tc.v)); got != tc.size {
			t.Errorf("%v encodes to %d bytes, want %d", tc.v, got, tc.size)
		}
	}
}

// FuzzValueCodec holds the value codec to its two promises. Every value comes
// back with its kind and bits exact — the fuzzed int, float bits (NaN
// payloads, -0), string (empty, non-UTF-8) and bool, and null — read in
// sequence from one buffer. And any bytes Reader.Value accepts re-encode
// byte-equal, so the reader takes no second spelling of a value (a
// non-minimal varint, a bool byte other than 0 or 1).
func FuzzValueCodec(f *testing.F) {
	f.Add([]byte{}, int64(0), uint64(0), "", false)
	f.Add([]byte{valInt, 0x80, 0x00}, int64(math.MinInt64), uint64(0x7ff8dead_beef0001), "\xff\xfe", true)
	f.Add([]byte{valBool, 2}, int64(math.MaxInt64), math.Float64bits(math.Copysign(0, -1)), "ünï", false)
	f.Add(AppendValue(AppendValue(nil, types.Str("héllo")), types.Int(-1)), int64(-64), math.Float64bits(math.Inf(-1)), strings.Repeat("s", 200), true)
	f.Fuzz(func(t *testing.T, raw []byte, i int64, fbits uint64, s string, b bool) {
		vals := []types.Value{types.Int(i), types.Float(math.Float64frombits(fbits)), types.Str(s), types.Bool(b), types.Null()}
		var enc []byte
		for _, v := range vals {
			enc = AppendValue(enc, v)
		}
		r := NewReader(enc)
		for _, v := range vals {
			got := r.Value("value")
			if r.Err() != nil || got.Kind() != v.Kind() {
				t.Fatalf("%v (%v) read back as %v (%v): %v", v, v.Kind(), got, got.Kind(), r.Err())
			}
			switch v.Kind() {
			case types.KindInt:
				if got.AsInt() != i {
					t.Fatalf("int %d read back as %d", i, got.AsInt())
				}
			case types.KindFloat:
				if math.Float64bits(got.AsFloat()) != fbits {
					t.Fatalf("float bits %#x read back as %#x", fbits, math.Float64bits(got.AsFloat()))
				}
			case types.KindString:
				if got.AsString() != s {
					t.Fatalf("string %q read back as %q", s, got.AsString())
				}
			case types.KindBool:
				if got.AsBool() != b {
					t.Fatalf("bool %v read back as %v", b, got.AsBool())
				}
			}
		}
		if err := r.Done("values"); err != nil {
			t.Fatal(err)
		}

		r = NewReader(raw)
		for r.Remaining() > 0 {
			start := r.off
			v := r.Value("value")
			if r.Err() != nil {
				break
			}
			if again := AppendValue(nil, v); !bytes.Equal(again, raw[start:r.off]) {
				t.Fatalf("%x was read as %v, which encodes as %x", raw[start:r.off], v, again)
			}
		}
	})
}
