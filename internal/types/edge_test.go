package types_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"dbtoaster/internal/frame"
	"dbtoaster/internal/types"
)

// edgeRows are the values at the edges of every payload a Value carries. The
// expected renderings and coercions were recorded with the earlier
// four-field layout (separate int and float words), so the table holds the
// one-word payload to exactly the old behaviour. The key column is the
// binary key codec's; which rows share a key is pinned by edgeKeyEqual. The
// frame column is the compact kind-exact codec's (zigzag varint ints, uvarint
// string lengths), so an int or string frames as its key does.
var edgeRows = []struct {
	name   string
	v      types.Value
	kind   types.Kind
	key    string // EncodeKey, hex
	frame  string // frame.AppendValue, hex
	str    string // String
	asStr  string // AsString
	asBool bool
	asF64  uint64 // math.Float64bits(AsFloat())
	asInt  int64  // AsInt, for every kind but float
}{
	{"NaN", types.Float(math.NaN()), types.KindFloat, "02010000000000f87f", "02010000000000f87f", "NaN", "NaN", true, 0x7ff8000000000001, 0},
	{"+Inf", types.Float(math.Inf(1)), types.KindFloat, "02000000000000f07f", "02000000000000f07f", "+Inf", "+Inf", true, 0x7ff0000000000000, 0},
	{"-Inf", types.Float(math.Inf(-1)), types.KindFloat, "02000000000000f0ff", "02000000000000f0ff", "-Inf", "-Inf", true, 0xfff0000000000000, 0},
	{"-0.0", types.Float(math.Copysign(0, -1)), types.KindFloat, "0100", "020000000000000080", "-0", "-0", false, 0x8000000000000000, 0},
	{"0.0", types.Float(0), types.KindFloat, "0100", "020000000000000000", "0", "0", false, 0, 0},
	{"MaxFloat64", types.Float(math.MaxFloat64), types.KindFloat, "02ffffffffffffef7f", "02ffffffffffffef7f", "1.7976931348623157e+308", "1.7976931348623157e+308", true, 0x7fefffffffffffff, 0},
	{"SmallestNonzeroFloat64", types.Float(math.SmallestNonzeroFloat64), types.KindFloat, "020100000000000000", "020100000000000000", "5e-324", "5e-324", true, 1, 0},
	{"MaxInt64", types.Int(math.MaxInt64), types.KindInt, "01feffffffffffffffff01", "01feffffffffffffffff01", "9223372036854775807", "9223372036854775807", true, 0x43e0000000000000, math.MaxInt64},
	{"MinInt64", types.Int(math.MinInt64), types.KindInt, "01ffffffffffffffffff01", "01ffffffffffffffffff01", "-9223372036854775808", "-9223372036854775808", true, 0xc3e0000000000000, math.MinInt64},
	{"2^53+1", types.Int(1<<53 + 1), types.KindInt, "018280808080808020", "018280808080808020", "9007199254740993", "9007199254740993", true, 0x4340000000000000, 1<<53 + 1},
	{"true", types.Bool(true), types.KindBool, "0102", "0401", "true", "true", true, 0x3ff0000000000000, 1},
	{"false", types.Bool(false), types.KindBool, "0100", "0400", "false", "false", false, 0, 0},
	{"null", types.Null(), types.KindNull, "00", "00", "NULL", "", false, 0, 0},
	{"empty", types.Str(""), types.KindString, "0300", "0300", `""`, "", false, 0, 0},
	{"multibyte", types.Str("héllo, 世界"), types.KindString, "030e68c3a96c6c6f2c20e4b896e7958c", "030e68c3a96c6c6f2c20e4b896e7958c", `"héllo, 世界"`, "héllo, 世界", true, 0, 0},
}

// edgeOrder[i][j] is Compare(edgeRows[i], edgeRows[j]) as '<', '=' or '>'.
// A string and a non-string order by kind (null < int, float < string <
// bool); they never Compare equal, as their keys never coincide. For the
// same reason NaN equals only NaN and sorts below every other number
// (cmp.Compare's order), as its key is its own.
var edgeOrder = []string{
	"=<<<<<<<<<<<><<", // NaN
	">=>>>>>>>>>>><<", // +Inf
	"><=<<<<<<<<<><<", // -Inf
	"><>==<<<><<=><<", // -0.0
	"><>==<<<><<=><<", // 0.0
	"><>>>=>>>>>>><<", // MaxFloat64
	"><>>><=<><<>><<", // SmallestNonzeroFloat64
	"><>>><>=>>>>><<", // MaxInt64
	"><><<<<<=<<<><<", // MinInt64
	"><>>><><>=>>><<", // 2^53+1
	"><>>><><><=>>>>", // true
	"><>==<<<><<=>>>", // false
	"<<<<<<<<<<<<=<<", // null
	">>>>>>>>>><<>=<", // empty
	">>>>>>>>>><<>>=", // multibyte
}

// edgeKeyEqual[i][j] is '1' when edgeRows[i] and edgeRows[j] encode to the
// same key. It was recorded from the earlier decimal text key format, so a
// key codec may change the bytes but not which values share a key.
var edgeKeyEqual = []string{
	"100000000000000", // NaN
	"010000000000000", // +Inf
	"001000000000000", // -Inf
	"000110000001000", // -0.0
	"000110000001000", // 0.0
	"000001000000000", // MaxFloat64
	"000000100000000", // SmallestNonzeroFloat64
	"000000010000000", // MaxInt64
	"000000001000000", // MinInt64
	"000000000100000", // 2^53+1
	"000000000010000", // true
	"000110000001000", // false
	"000000000000100", // null
	"000000000000010", // empty
	"000000000000001", // multibyte
}

// edgeArithDigest is the sha256 of Add, Sub, Mul and Div over every pair of
// edgeRows and Neg over every row, each result framed by frame.AppendValue
// (kind and exact payload bits; NaN payloads are architecture-specific, so a
// NaN result is written as "NaN").
const edgeArithDigest = "90ca0fc1b625d25f89cb98bd8d66b467c683ffcb02ac551fca1740c368539a15"

func TestEdgeValueRoundTrip(t *testing.T) {
	for _, r := range edgeRows {
		v := r.v
		if v.Kind() != r.kind {
			t.Errorf("%s: Kind = %v, want %v", r.name, v.Kind(), r.kind)
		}
		if got := hex.EncodeToString(v.EncodeKey(nil)); got != r.key {
			t.Errorf("%s: EncodeKey = %s, want %s", r.name, got, r.key)
		}
		if got := hex.EncodeToString(frame.AppendValue(nil, v)); got != r.frame {
			t.Errorf("%s: frame.AppendValue = %s, want %s", r.name, got, r.frame)
		}
		if got := v.String(); got != r.str {
			t.Errorf("%s: String = %q, want %q", r.name, got, r.str)
		}
		if got := v.AsString(); got != r.asStr {
			t.Errorf("%s: AsString = %q, want %q", r.name, got, r.asStr)
		}
		if got := v.AsBool(); got != r.asBool {
			t.Errorf("%s: AsBool = %v, want %v", r.name, got, r.asBool)
		}
		f := v.AsFloat()
		if got := math.Float64bits(f); got != r.asF64 {
			t.Errorf("%s: AsFloat bits = %#x, want %#x", r.name, got, r.asF64)
		}
		// Float-to-int conversion of NaN, ±Inf and out-of-range values is
		// implementation-specific in Go, so a float's AsInt is held to the
		// conversion itself.
		want := r.asInt
		if v.Kind() == types.KindFloat {
			want = int64(f)
		}
		if got := v.AsInt(); got != want {
			t.Errorf("%s: AsInt = %d, want %d", r.name, got, want)
		}
		if v.Kind() == types.KindFloat {
			if again := types.Float(f); math.Float64bits(again.AsFloat()) != r.asF64 {
				t.Errorf("%s: Float(AsFloat()) changed the bits", r.name)
			}
		}
	}
}

func TestEdgeValueOrder(t *testing.T) {
	for i, a := range edgeRows {
		for j, b := range edgeRows {
			c := types.Compare(a.v, b.v)
			if got, want := "<=>"[c+1], edgeOrder[i][j]; got != want {
				t.Errorf("Compare(%s, %s) = %c, want %c", a.name, b.name, got, want)
			}
			if a.v.Equal(b.v) != (c == 0) {
				t.Errorf("Equal(%s, %s) = %v disagrees with Compare = %d", a.name, b.name, a.v.Equal(b.v), c)
			}
		}
	}
}

func TestEdgeKeyClasses(t *testing.T) {
	for i, a := range edgeRows {
		for j, b := range edgeRows {
			same := string(a.v.EncodeKey(nil)) == string(b.v.EncodeKey(nil))
			if want := edgeKeyEqual[i][j] == '1'; same != want {
				t.Errorf("keys of %s and %s equal = %v, want %v", a.name, b.name, same, want)
			}
		}
	}
}

func TestEdgeValueArithmetic(t *testing.T) {
	h := sha256.New()
	var buf []byte
	put := func(v types.Value) {
		if v.Kind() == types.KindFloat && math.IsNaN(v.AsFloat()) {
			h.Write([]byte("NaN"))
			return
		}
		buf = frame.AppendValue(buf[:0], v)
		h.Write(buf)
	}
	for _, a := range edgeRows {
		for _, b := range edgeRows {
			put(types.Add(a.v, b.v))
			put(types.Sub(a.v, b.v))
			put(types.Mul(a.v, b.v))
			put(types.Div(a.v, b.v))
		}
		put(types.Neg(a.v))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != edgeArithDigest {
		t.Errorf("arithmetic over the edge values: digest %s, want %s", got, edgeArithDigest)
	}
}
