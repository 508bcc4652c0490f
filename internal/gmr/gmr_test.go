package gmr

import (
	"math/rand"
	"testing"

	"dbtoaster/internal/types"
)

func tup(vs ...int64) types.Tuple {
	t := make(types.Tuple, len(vs))
	for i, v := range vs {
		t[i] = types.Int(v)
	}
	return t
}

// eachKeyed calls fn for every live entry with the key bytes its slot
// stores, read straight from the slots.
func eachKeyed(g *GMR, fn func(key []byte, t types.Tuple, m float64)) {
	for i := range g.slots {
		if s := &g.slots[i]; !s.dead {
			fn(g.keyAt(s), g.tupleAt(int32(i)), s.mult)
		}
	}
}

// sum returns the ring sum a + b of two GMRs over the same schema.
func sum(a, b *GMR) *GMR {
	out := a.Clone()
	out.MergeInto(b, 1)
	return out
}

func TestAddGetRemoveOnZero(t *testing.T) {
	g := New(types.Schema{"a", "b"})
	g.Add(tup(1, 2), 3)
	g.Add(tup(1, 2), 2)
	if got := g.Get(tup(1, 2)); got != 5 {
		t.Fatalf("Get = %v, want 5", got)
	}
	g.Add(tup(1, 2), -5)
	if g.Len() != 0 {
		t.Fatalf("entry should be removed when multiplicity reaches zero, len=%d", g.Len())
	}
	if got := g.Get(tup(1, 2)); got != 0 {
		t.Fatalf("Get after removal = %v", got)
	}
}

func TestScalar(t *testing.T) {
	s := NewScalar(4.5)
	if s.ScalarValue() != 4.5 {
		t.Fatalf("ScalarValue = %v", s.ScalarValue())
	}
	if NewScalar(0).Len() != 0 {
		t.Fatal("zero scalar should be empty")
	}
}

func TestSet(t *testing.T) {
	g := New(types.Schema{"a"})
	g.Set(tup(1), 2)
	g.Set(tup(1), 7)
	if g.Get(tup(1)) != 7 {
		t.Fatal("Set should overwrite")
	}
	g.Set(tup(1), 0)
	if g.Len() != 0 {
		t.Fatal("Set to zero should remove")
	}
}

// TestNegateScale checks the multiplicities of Negate and of a copy scaled
// by MergeInto into an empty store; scaling by zero adds nothing.
func TestNegateScale(t *testing.T) {
	g := New(types.Schema{"a"})
	g.Add(tup(1), 2)
	g.Add(tup(2), -3)
	n := Negate(g)
	if n.Get(tup(1)) != -2 || n.Get(tup(2)) != 3 {
		t.Fatal("Negate wrong")
	}
	s := New(g.Schema())
	s.MergeInto(g, 2)
	if s.Get(tup(1)) != 4 || s.Get(tup(2)) != -6 {
		t.Fatal("MergeInto by 2 wrong")
	}
	z := New(g.Schema())
	z.MergeInto(g, 0)
	if z.Len() != 0 {
		t.Fatal("MergeInto by zero should add nothing")
	}
}

func TestProjectSumsMultiplicities(t *testing.T) {
	r := New(types.Schema{"a", "b"})
	r.Add(tup(1, 2), 7)
	r.Add(tup(3, 5), 2)
	r.Add(tup(4, 2), 3)
	p := Project(r, types.Schema{"b"})
	if p.Get(tup(2)) != 10 || p.Get(tup(5)) != 2 {
		t.Fatalf("Project wrong: %v", p)
	}
	scalar := Project(r, nil)
	if scalar.ScalarValue() != 12 {
		t.Fatalf("Project to scalar = %v", scalar.ScalarValue())
	}
}

func TestEqualAndClone(t *testing.T) {
	a := New(types.Schema{"x"})
	a.Add(tup(1), 1)
	b := a.Clone()
	if !Equal(a, b, 0) {
		t.Fatal("clone should be equal")
	}
	b.Add(tup(2), 1)
	if Equal(a, b, 0) {
		t.Fatal("should differ after add")
	}
	b.Add(tup(2), -1)
	if !Equal(a, b, 0) {
		t.Fatal("should be equal again")
	}
}

func TestMergeInto(t *testing.T) {
	a := New(types.Schema{"x"})
	a.Add(tup(1), 2)
	b := New(types.Schema{"x"})
	b.Add(tup(1), -2)
	b.Add(tup(2), 5)
	if s := sum(a, b); s.Get(tup(1)) != 0 || s.Get(tup(2)) != 5 || s.Len() != 1 {
		t.Fatalf("MergeInto by 1 wrong: %v", s)
	}
	a.MergeInto(b, 2)
	if a.Get(tup(1)) != -2 || a.Get(tup(2)) != 10 {
		t.Fatalf("MergeInto wrong: %v", a)
	}
}

func TestFromRowsAndEntriesDeterministic(t *testing.T) {
	rows := []types.Tuple{tup(3), tup(1), tup(3)}
	g := fromRows(types.Schema{"a"}, rows)
	if g.Get(tup(3)) != 2 || g.Get(tup(1)) != 1 {
		t.Fatalf("fromRows wrong: %v", g)
	}
	e1 := g.Entries()
	e2 := g.Entries()
	for i := range e1 {
		if !e1[i].Tuple.Equal(e2[i].Tuple) {
			t.Fatal("Entries order must be deterministic")
		}
	}
}

// randGMR builds a random integer-valued GMR over the given schema so that
// ring-law property tests are exact (no float rounding).
func randGMR(r *rand.Rand, schema types.Schema, n int) *GMR {
	g := New(schema)
	for i := 0; i < n; i++ {
		t := make(types.Tuple, len(schema))
		for j := range t {
			t[j] = types.Int(int64(r.Intn(5)))
		}
		g.Add(t, float64(r.Intn(7)-3))
	}
	return g
}

func TestRingLaws(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	schema := types.Schema{"a", "b"}
	for i := 0; i < 50; i++ {
		x := randGMR(r, schema, 6)
		y := randGMR(r, schema, 6)

		// Commutativity of +
		if !Equal(sum(x, y), sum(y, x), 1e-9) {
			t.Fatal("+ not commutative")
		}
		// Additive inverse
		if sum(x, Negate(x)).Len() != 0 {
			t.Fatal("x + (-x) should be empty")
		}
		// Projection is linear: Project(x+y) == Project(x)+Project(y)
		pl := Project(sum(x, y), types.Schema{"b"})
		pr := sum(Project(x, types.Schema{"b"}), Project(y, types.Schema{"b"}))
		if !Equal(pl, pr, 1e-9) {
			t.Fatal("projection not linear")
		}
	}
}

func TestMemSizeGrows(t *testing.T) {
	g := New(types.Schema{"a"})
	before := g.MemSize()
	for i := 0; i < 100; i++ {
		g.Add(tup(int64(i)), 1)
	}
	if g.MemSize() <= before {
		t.Error("MemSize should grow with entries")
	}
}

func TestAddArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on arity mismatch")
		}
	}()
	g := New(types.Schema{"a", "b"})
	g.Add(tup(1), 1)
}

// TestLookupSlotMatchesAdd holds AddEncoded's returned multiplicity and the
// entry LookupSlot/SlotEntry find under the key to Add's result.
func TestLookupSlotMatchesAdd(t *testing.T) {
	a := New(types.Schema{"a", "b"})
	b := New(types.Schema{"a", "b"})
	rows := []struct {
		t types.Tuple
		m float64
	}{
		{tup(1, 2), 3}, {tup(1, 2), -1}, {tup(4, 5), 2}, {tup(1, 2), -2}, {tup(7, 8), 1.5},
	}
	var buf []byte
	for _, r := range rows {
		a.Add(r.t, r.m)
		buf = r.t.AppendKey(buf[:0])
		got := b.AddEncoded(buf, r.t, r.m)
		if want := b.Get(r.t); got != want {
			t.Fatalf("AddEncoded returned %v, stored multiplicity is %v", got, want)
		}
		id, ok := b.LookupSlot(buf)
		if ok != (got != 0) {
			t.Fatalf("LookupSlot found=%v after AddEncoded returned %v", ok, got)
		}
		if got != 0 {
			if e := b.SlotEntry(id); e.Mult != got || !e.Tuple.Equal(r.t) {
				t.Fatalf("SlotEntry(%d) = %v, want (%v, %v)", id, e, r.t, got)
			}
		}
	}
	if !Equal(a, b, 0) {
		t.Fatalf("AddEncoded diverged from Add: %v vs %v", a, b)
	}
}

// TestSlotIdsStable pins the slot-id stability contract the secondary-index
// postings rely on: removing or inserting other entries never moves a live
// entry's slot.
func TestSlotIdsStable(t *testing.T) {
	g := New(types.Schema{"a"})
	ids := map[int64]int32{}
	var buf []byte
	for i := int64(0); i < 100; i++ {
		tu := tup(i)
		buf = tu.AppendKey(buf[:0])
		if _, ok := g.LookupSlot(buf); ok {
			t.Fatalf("expected insert for %d", i)
		}
		g.AddEncoded(buf, tu, 1)
		id, ok := g.LookupSlot(buf)
		if !ok {
			t.Fatalf("no slot for %d after insert", i)
		}
		ids[i] = id
	}
	for i := int64(0); i < 100; i += 2 {
		g.Add(tup(i), -1) // remove the even keys
	}
	for i := int64(1); i < 100; i += 2 {
		e := g.SlotEntry(ids[i])
		if e.Mult != 1 || !e.Tuple.Equal(tup(i)) {
			t.Fatalf("slot %d moved: %v", ids[i], e)
		}
	}
	// An index built over the survivors names each one by its original slot.
	ix := g.Index([]int{0})
	seen := 0
	for i := int64(0); i < 100; i++ {
		buf = tup(i).AppendKey(buf[:0])
		got := g.Posting(ix, buf)
		if i%2 == 0 {
			if len(got) != 0 {
				t.Fatalf("posting of removed key %d = %v", i, got)
			}
			continue
		}
		seen += len(got)
		if len(got) != 1 || got[0] != ids[i] {
			t.Fatalf("posting of %d = %v, want [%d]", i, got, ids[i])
		}
	}
	if seen != 50 {
		t.Fatalf("postings name %d entries, want 50", seen)
	}
}

func TestHashedEntryPointsRoundTrip(t *testing.T) {
	g := New(types.Schema{"a", "b"})
	tup := types.Tuple{types.Int(7), types.Str("x")}
	key := tup.AppendKey(nil)

	g.AddEncoded(key, tup, 2.5)
	if got := g.GetEncoded(key); got != 2.5 {
		t.Fatalf("GetEncoded = %g, want 2.5", got)
	}
	g.AddEncoded(key, tup, -2.5)
	if got := g.GetEncoded(key); got != 0 {
		t.Fatalf("GetEncoded after removal = %g, want 0", got)
	}
}

// fromRows builds a GMR from a schema and rows, each row inserted with
// multiplicity 1 (duplicates accumulate).
func fromRows(schema types.Schema, rows []types.Tuple) *GMR {
	g := New(schema)
	for _, r := range rows {
		g.Add(r, 1)
	}
	return g
}
