package types

import (
	"testing"
	"testing/quick"
)

func TestTupleEncodeKeyEqual(t *testing.T) {
	a := Tuple{Int(1), Str("x"), Float(2.5)}
	b := Tuple{Int(1), Str("x"), Float(2.5)}
	if a.EncodeKey() != b.EncodeKey() {
		t.Error("equal tuples must encode equally")
	}
	c := Tuple{Int(1), Str("x"), Float(2.6)}
	if a.EncodeKey() == c.EncodeKey() {
		t.Error("different tuples must encode differently")
	}
}

func TestTupleEncodeKeyNoConcatCollision(t *testing.T) {
	a := Tuple{Str("ab"), Str("c")}
	b := Tuple{Str("a"), Str("bc")}
	if a.EncodeKey() == b.EncodeKey() {
		t.Error("length-prefixed string encoding should avoid concatenation collisions")
	}
}

func TestTupleCloneIndependent(t *testing.T) {
	a := Tuple{Int(1), Int(2)}
	b := a.Clone()
	b[0] = Int(9)
	if a[0].AsInt() != 1 {
		t.Error("Clone must not alias the original")
	}
}

func TestTupleEqual(t *testing.T) {
	if !(Tuple{Int(1)}).Equal(Tuple{Float(1)}) {
		t.Error("numeric coercion in tuple equality")
	}
	if (Tuple{Int(1)}).Equal(Tuple{Int(1), Int(2)}) {
		t.Error("length mismatch should not be equal")
	}
}

func TestSchemaOps(t *testing.T) {
	s := Schema{"a", "b", "c"}
	if s.Index("b") != 1 || s.Index("z") != -1 {
		t.Error("Index broken")
	}
	if !s.Contains("c") || s.Contains("z") {
		t.Error("Contains broken")
	}
	if !s.Equal(Schema{"a", "b", "c"}) || s.Equal(Schema{"a", "b"}) {
		t.Error("Equal broken")
	}
	cl := s.Clone()
	cl[0] = "z"
	if s[0] != "a" {
		t.Error("Clone must copy")
	}
	if s.String() != "[a, b, c]" {
		t.Errorf("String = %q", s.String())
	}
}

func TestEnvExtendAndClone(t *testing.T) {
	e := Env{"x": Int(1)}
	e2 := e.Extend(Schema{"y"}, Tuple{Int(2)})
	if _, ok := e["y"]; ok {
		t.Error("Extend must not mutate the receiver")
	}
	if v, ok := e2["y"]; !ok || v.AsInt() != 2 {
		t.Error("Extend binding missing")
	}
	if v, ok := e2["x"]; !ok || v.AsInt() != 1 {
		t.Error("Extend should keep existing bindings")
	}
	c := e.Clone()
	c["x"] = Int(5)
	if e["x"].AsInt() != 1 {
		t.Error("Clone must copy")
	}
}

func TestTupleKeyInjectiveProperty(t *testing.T) {
	f := func(a, b int64, c, d string) bool {
		t1 := Tuple{Int(a), Str(c)}
		t2 := Tuple{Int(b), Str(d)}
		if t1.Equal(t2) {
			return t1.EncodeKey() == t2.EncodeKey()
		}
		return t1.EncodeKey() != t2.EncodeKey()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
