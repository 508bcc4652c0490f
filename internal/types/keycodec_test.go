package types

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// TestDecodeKeyRoundTrip checks that decoding a tuple's canonical key yields
// a tuple that re-encodes to exactly the same bytes and Compares equal
// value-by-value — the canonical-representative contract DecodeKey documents.
func TestDecodeKeyRoundTrip(t *testing.T) {
	cases := []Tuple{
		{},
		{Int(0)},
		{Int(-42), Int(1 << 40)},
		{Str("")},
		{Str("hello"), Str("with|pipe"), Str(string(make([]byte, 300)))},
		{Str("\x01\x02"), Str("\x03\x05abcde")}, // payloads that look like encodings
		{Int(math.MaxInt64), Int(math.MinInt64), Float(1 << 62), Float(math.Inf(1)), Float(math.NaN())},
		{Null(), Int(7), Null()},
		{Float(1.5), Float(-0.25), Float(math.Pi)},
		{Float(3), Bool(true), Bool(false)}, // canonicalize to ints
		{Date(1997, 9, 1), Str("MAIL"), Int(99)},
	}
	for _, tc := range cases {
		key := tc.AppendKey(nil)
		got, err := DecodeKey(key)
		if err != nil {
			t.Fatalf("DecodeKey(%x): %v", key, err)
		}
		if len(got) != len(tc) {
			t.Fatalf("DecodeKey(%x): arity %d, want %d", key, len(got), len(tc))
		}
		for i := range tc {
			if !got[i].Equal(tc[i]) {
				t.Fatalf("DecodeKey(%x)[%d] = %v, not equal to %v", key, i, got[i], tc[i])
			}
		}
		re := got.AppendKey(nil)
		if string(re) != string(key) {
			t.Fatalf("re-encode of %v = %x, want %x", got, re, key)
		}
	}
}

// TestDecodeKeyRandom round-trips randomly generated tuples.
func TestDecodeKeyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randValue := func() Value {
		switch rng.Intn(5) {
		case 0:
			return Int(rng.Int63n(1<<40) - 1<<39)
		case 1:
			return Float(rng.NormFloat64() * 1e6)
		case 2:
			b := make([]byte, rng.Intn(12))
			rng.Read(b)
			return Str(string(b))
		case 3:
			return Bool(rng.Intn(2) == 0)
		default:
			return Null()
		}
	}
	for trial := 0; trial < 500; trial++ {
		tup := make(Tuple, rng.Intn(6))
		for i := range tup {
			tup[i] = randValue()
		}
		key := tup.AppendKey(nil)
		got, err := DecodeKey(key)
		if err != nil {
			t.Fatalf("DecodeKey(%x): %v", key, err)
		}
		if re := got.AppendKey(nil); string(re) != string(key) {
			t.Fatalf("re-encode of %v = %x, want %x", got, re, key)
		}
	}
}

// TestDecodeKeyMalformed feeds truncated, corrupted and non-canonical keys;
// every case must return an error rather than panicking or silently
// succeeding.
func TestDecodeKeyMalformed(t *testing.T) {
	floatKey := func(bits uint64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{tagFloat}, bits)
	}
	bad := []struct {
		name string
		key  []byte
	}{
		{"unknown tag", []byte{0x04}},
		{"unknown high tag", []byte{0xff}},
		{"int without varint", []byte{tagInt}},
		{"int varint truncated", []byte{tagInt, 0x80}},
		{"int varint non-minimal", []byte{tagInt, 0x82, 0x00}},
		{"int varint non-minimal zero", []byte{tagInt, 0x80, 0x80, 0x00}},
		{"int varint overflow", []byte{tagInt, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}},
		{"int varint too long", []byte{tagInt, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}},
		{"float truncated", floatKey(math.Float64bits(1.5))[:8]},
		{"float without payload", []byte{tagFloat}},
		{"float tag holding an integer", floatKey(math.Float64bits(3))},
		{"float tag holding zero", floatKey(0)},
		{"float tag holding -0", floatKey(math.Float64bits(math.Copysign(0, -1)))},
		{"float tag holding 2^61", floatKey(math.Float64bits(1 << 61))},
		{"non-canonical NaN", floatKey(0x7ff8000000000000)},
		{"negative NaN", floatKey(nanBits | 1<<63)},
		{"string without length", []byte{tagStr}},
		{"string length truncated", []byte{tagStr, 0x80}},
		{"string length non-minimal", []byte{tagStr, 0x81, 0x00, 'x'}},
		{"string payload truncated", []byte{tagStr, 5, 'a', 'b', 'c'}},
		{"string length beyond int", []byte{tagStr, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
		{"bad value after a good one", append(Tuple{Int(7), Str("x")}.AppendKey(nil), 0x09)},
		{"truncated value after a good one", append(Tuple{Null()}.AppendKey(nil), tagInt)},
	}
	for _, tc := range bad {
		if got, err := DecodeKey(tc.key); err == nil {
			t.Errorf("%s: DecodeKey(%x) = %v, want error", tc.name, tc.key, got)
		}
	}
}

// TestDecodeKeyMutations truncates and bit-flips valid keys: every mutation
// must either be rejected or decode to a tuple that re-encodes to exactly the
// mutated bytes (canonical form), and none may panic.
func TestDecodeKeyMutations(t *testing.T) {
	keys := [][]byte{
		Tuple{Int(-300), Str("héllo"), Float(2.5), Null()}.AppendKey(nil),
		Tuple{Float(math.Inf(-1)), Float(math.NaN()), Int(math.MinInt64)}.AppendKey(nil),
		Tuple{Str(string(make([]byte, 200))), Bool(true)}.AppendKey(nil),
	}
	check := func(mut []byte) {
		got, err := DecodeKey(mut)
		if err != nil {
			return
		}
		if re := got.AppendKey(nil); string(re) != string(mut) {
			t.Fatalf("DecodeKey(%x) = %v, which re-encodes to %x", mut, got, re)
		}
	}
	for _, key := range keys {
		for n := 0; n < len(key); n++ {
			check(key[:n])
		}
		for i := range key {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), key...)
				mut[i] ^= 1 << bit
				check(mut)
			}
		}
	}
}

// TestEncodeKeyFoldsNaN checks that every NaN payload shares one key, as it
// shares one equivalence class under Compare.
func TestEncodeKeyFoldsNaN(t *testing.T) {
	want := string(Float(math.NaN()).EncodeKey(nil))
	for _, bits := range []uint64{0x7ff8000000000000, 0xfff8000000000000, 0x7ff0000000000001, 0x7fffffffffffffff} {
		if got := string(Float(math.Float64frombits(bits)).EncodeKey(nil)); got != want {
			t.Errorf("NaN %#x: key %x, want %x", bits, got, want)
		}
	}
}

// TestDecodeKeyExactConsumption mirrors how the checkpoint loader uses the
// decoder: it must consume exactly the slice it is given and never read past
// it.
func TestDecodeKeyExactConsumption(t *testing.T) {
	tup := Tuple{Int(5), Str("ab|cd"), Float(2.5)}
	key := tup.AppendKey(nil)
	// Append garbage beyond the slice bounds the decoder receives; the
	// decoder sees only key[:len(key)] and must consume it exactly.
	buf := append(append([]byte(nil), key...), "GARBAGE"...)
	got, err := DecodeKey(buf[:len(key)])
	if err != nil {
		t.Fatalf("DecodeKey: %v", err)
	}
	if re := got.AppendKey(nil); string(re) != string(key) {
		t.Fatalf("re-encode = %x, want %x", re, key)
	}
}
