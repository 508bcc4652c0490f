package types

import (
	"math"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null(), KindNull},
		{Int(7), KindInt},
		{Float(3.5), KindFloat},
		{Str("x"), KindString},
		{Bool(true), KindBool},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("Kind(%v) = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
}

func TestValueCoercions(t *testing.T) {
	if got := Int(42).AsFloat(); got != 42 {
		t.Errorf("Int(42).AsFloat() = %v", got)
	}
	if got := Float(2.9).AsInt(); got != 2 {
		t.Errorf("Float(2.9).AsInt() = %v", got)
	}
	if got := Str("17").AsInt(); got != 17 {
		t.Errorf("Str(17).AsInt() = %v", got)
	}
	if got := Str("1.5").AsFloat(); got != 1.5 {
		t.Errorf("Str(1.5).AsFloat() = %v", got)
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Error("bool coercion broken")
	}
	if Null().AsBool() || Null().AsInt() != 0 || Null().AsFloat() != 0 {
		t.Error("null should coerce to zero values")
	}
	if got := Int(5).AsString(); got != "5" {
		t.Errorf("Int(5).AsString() = %q", got)
	}
	if got := Bool(true).AsString(); got != "true" {
		t.Errorf("Bool(true).AsString() = %q", got)
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(3), Int(3), 0},
		{Int(2), Float(2.0), 0},
		{Float(1.5), Int(2), -1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Null(), Int(0), -1},
		{Null(), Null(), 0},
		{Bool(true), Int(1), 0},
		{Bool(false), Bool(true), -1},
		{Date(1995, 3, 15), Date(1995, 3, 16), -1},
		{Date(1996, 1, 1), Date(1995, 12, 31), 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	if got := Add(Int(2), Int(3)); got.Kind() != KindInt || got.AsInt() != 5 {
		t.Errorf("Add int = %v", got)
	}
	if got := Add(Int(2), Float(0.5)); got.Kind() != KindFloat || got.AsFloat() != 2.5 {
		t.Errorf("Add mixed = %v", got)
	}
	if got := Sub(Int(2), Int(5)); got.AsInt() != -3 {
		t.Errorf("Sub = %v", got)
	}
	if got := Mul(Int(4), Float(2.5)); got.AsFloat() != 10 {
		t.Errorf("Mul = %v", got)
	}
	if got := Div(Int(5), Int(2)); got.AsFloat() != 2.5 {
		t.Errorf("Div = %v", got)
	}
	if got := Div(Int(5), Int(0)); got.AsFloat() != 0 {
		t.Errorf("Div by zero = %v, want 0", got)
	}
	if got := Neg(Int(7)); got.AsInt() != -7 {
		t.Errorf("Neg = %v", got)
	}
	if got := Neg(Float(1.5)); got.AsFloat() != -1.5 {
		t.Errorf("Neg float = %v", got)
	}
}

func TestEncodeKeyInjective(t *testing.T) {
	vals := []Value{
		Null(), Int(0), Int(1), Int(-1), Int(12), Int(123),
		Float(1.5), Float(-2.25), Str(""), Str("a"), Str("ab"), Str("a|b"),
		Bool(true), Bool(false), Str("1"),
	}
	seen := map[string]Value{}
	for _, v := range vals {
		k := string(v.EncodeKey(nil))
		if prev, ok := seen[k]; ok && !prev.Equal(v) {
			t.Errorf("key collision: %v and %v both encode to %q", prev, v, k)
		}
		seen[k] = v
	}
}

func TestEncodeKeyIntegralFloatMatchesInt(t *testing.T) {
	a := string(Int(42).EncodeKey(nil))
	b := string(Float(42).EncodeKey(nil))
	if a != b {
		t.Errorf("Int(42) and Float(42) should share a key encoding: %q vs %q", a, b)
	}
}

// TestCompareReflexive pins Compare(v, v) == 0 for every kind, the edge
// values included: the optimizer folds a comparison of an operand with itself
// ({t < t} to 0, {t <= t} to 1) on the strength of it.
func TestCompareReflexive(t *testing.T) {
	for _, v := range []Value{
		Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)), Null(),
		Str(""), Str("BUILDING"), Int(0), Int(math.MinInt64), Float(-0.0), Bool(true),
	} {
		if c := Compare(v, v); c != 0 {
			t.Errorf("Compare(%v, %v) = %d, want 0", v, v, c)
		}
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(Int(a), Int(b)) == -Compare(Int(b), Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddCommutativeProperty(t *testing.T) {
	f := func(a, b int32) bool {
		x, y := Int(int64(a)), Int(int64(b))
		return Add(x, y).Equal(Add(y, x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulDistributesOverAddProperty(t *testing.T) {
	f := func(a, b, c int16) bool {
		x, y, z := Int(int64(a)), Int(int64(b)), Int(int64(c))
		left := Mul(x, Add(y, z))
		right := Add(Mul(x, y), Mul(x, z))
		return left.Equal(right)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDateEncoding(t *testing.T) {
	d := Date(1997, 9, 1)
	if d.AsInt() != 19970901 {
		t.Errorf("Date(1997,9,1) = %d", d.AsInt())
	}
}

func TestValueString(t *testing.T) {
	if Int(3).String() != "3" {
		t.Errorf("Int String = %q", Int(3).String())
	}
	if Str("x").String() != `"x"` {
		t.Errorf("Str String = %q", Str("x").String())
	}
	if Null().String() != "NULL" {
		t.Errorf("Null String = %q", Null().String())
	}
}

func TestMemSize(t *testing.T) {
	if Int(1).MemSize() <= 0 {
		t.Error("MemSize should be positive")
	}
	if Str("hello").MemSize() <= Str("").MemSize() {
		t.Error("string MemSize should grow with length")
	}
}

func TestFloatKeyNonIntegral(t *testing.T) {
	v := Float(math.Pi)
	k := string(v.EncodeKey(nil))
	if k == string(Int(3).EncodeKey(nil)) {
		t.Error("non-integral float must not collide with int key")
	}
}
