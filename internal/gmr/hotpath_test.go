package gmr

import (
	"fmt"
	"math/rand"
	"testing"

	"dbtoaster/internal/types"
)

// TestAddZeroContract pins the m == 0 contract shared by Add and
// AddEncoded: the GMR is unchanged and 0 is returned without probing the
// table — even when an entry exists under that key.
func TestAddZeroContract(t *testing.T) {
	g := New(types.Schema{"a"})
	g.Add(tup(1), 5)
	key := []byte(tup(1).EncodeKey())
	ix := g.Index([]int{0})
	id, _ := g.LookupSlot(key)
	if got := g.Add(tup(1), 0); got != 0 {
		t.Errorf("Add(t, 0) = %v, want 0", got)
	}
	if got := g.AddEncoded(key, tup(1), 0); got != 0 {
		t.Errorf("AddEncoded(k, t, 0) = %v, want 0", got)
	}
	if got, ok := g.LookupSlot(key); !ok || got != id {
		t.Errorf("zero adds moved the entry: LookupSlot = (%v, %v), want (%v, true)", got, ok, id)
	}
	if p := g.Posting(ix, key); len(p) != 1 || p[0] != id {
		t.Errorf("zero adds changed the posting: %v, want [%d]", p, id)
	}
	if g.Get(tup(1)) != 5 {
		t.Errorf("zero adds must leave the entry untouched, got %v", g.Get(tup(1)))
	}
}

// TestAddEncodedMatchesAdd runs the byte-keyed variant against Add on a
// random update sequence, reusing one key buffer throughout as the compiled
// emission path does.
func TestAddEncodedMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := New(types.Schema{"x", "y"})
	b := New(types.Schema{"x", "y"})
	var buf []byte
	for i := 0; i < 500; i++ {
		tu := tup(int64(rng.Intn(10)), int64(rng.Intn(10)))
		m := float64(rng.Intn(7) - 3)
		want := a.Add(tu, m)
		buf = tu.AppendKey(buf[:0])
		got := b.AddEncoded(buf, tu, m)
		if got != want {
			t.Fatalf("step %d: AddEncoded = %v, Add = %v", i, got, want)
		}
		if b.GetEncoded(buf) != a.Get(tu) {
			t.Fatalf("step %d: GetEncoded = %v, Get = %v", i, b.GetEncoded(buf), a.Get(tu))
		}
	}
	if !Equal(a, b, 0) {
		t.Fatalf("AddEncoded diverged from Add: %v vs %v", a, b)
	}
}

func TestLookupEncoded(t *testing.T) {
	g := FromRows(types.Schema{"a"}, []types.Tuple{tup(3)})
	var buf []byte
	e, ok := g.LookupEncoded(tup(3).AppendKey(buf))
	if !ok || e.Mult != 1 || !e.Tuple.Equal(tup(3)) {
		t.Fatalf("LookupEncoded = %v, %v", e, ok)
	}
	if _, ok := g.LookupEncoded(tup(4).AppendKey(buf)); ok {
		t.Fatal("LookupEncoded found an absent tuple")
	}
}

// TestAppendKeyMatchesEncodeKey pins that the buffer-based encoding and the
// string encoding are byte-identical, including the int/float coercion of
// integral floats.
func TestAppendKeyMatchesEncodeKey(t *testing.T) {
	tuples := []types.Tuple{
		{},
		tup(1, 2, 3),
		{types.Str("a|b"), types.Int(-7)},
		{types.Float(2.0), types.Int(2)},
		{types.Float(2.5), types.Bool(true), types.Null()},
	}
	for _, tu := range tuples {
		if got := string(tu.AppendKey(nil)); got != tu.EncodeKey() {
			t.Errorf("AppendKey(%v) = %q, EncodeKey = %q", tu, got, tu.EncodeKey())
		}
	}
}

// TestNegateScaleKeepKeys asserts that Negate and a scaled MergeInto into an
// empty store are structural copies: each live slot of the result carries the
// canonical key of its tuple and that key's hash, unrecomputed, with the
// multiplicity scaled.
func TestNegateScaleKeepKeys(t *testing.T) {
	g := FromRows(types.Schema{"a", "b"}, []types.Tuple{tup(1, 2), tup(3, 4)})
	g.Add(tup(3, 4), 1.5)
	scaled := New(g.Schema())
	scaled.MergeInto(g, -2)
	for _, c := range []struct {
		name string
		out  *GMR
		f    float64
	}{{"Negate", Negate(g), -1}, {"MergeInto", scaled, -2}} {
		if c.out.Len() != g.Len() {
			t.Fatalf("%s changed the entry count", c.name)
		}
		for i := range c.out.slots {
			s := &c.out.slots[i]
			if s.dead {
				continue
			}
			key, tu := c.out.keyAt(s), c.out.tupleAt(int32(i))
			if string(key) != tu.EncodeKey() {
				t.Errorf("%s: key %q is not canonical for %v", c.name, key, tu)
			}
			if s.hash != hashKey(key) {
				t.Errorf("%s: cached hash of %v is %x, its key hashes to %x", c.name, tu, s.hash, hashKey(key))
			}
			if want := c.f * g.Get(tu); s.mult != want {
				t.Errorf("%s: multiplicity of %v = %v, want %v", c.name, tu, s.mult, want)
			}
		}
	}
}

// TestCloneNegateCopyTuples pins the lifetime contract of the structural
// operators: the results of Clone, Negate and MergeInto hold their own copies
// of the values, so they stay intact while the source frees and reuses slots
// (which clears and rewrites its slab windows) and after it is Reset and
// refilled; and building them makes no allocation per entry.
func TestCloneNegateCopyTuples(t *testing.T) {
	schema := types.Schema{"a", "b"}
	row := func(i int) types.Tuple {
		return types.Tuple{types.Int(int64(i)), types.Str(fmt.Sprintf("value-%d", i))}
	}
	fill := func(n int) *GMR {
		g := New(schema)
		for i := 0; i < n; i++ {
			g.Add(row(i), float64(i+1))
		}
		return g
	}
	ops := []struct {
		name   string
		factor float64
		run    func(g *GMR) *GMR
	}{
		{"Clone", 1, (*GMR).Clone},
		{"Negate", -1, Negate},
		{"MergeInto", 2, func(g *GMR) *GMR {
			out := New(schema)
			out.MergeInto(g, 2)
			return out
		}},
	}
	const n = 200
	for _, op := range ops {
		src := fill(n)
		out := op.run(src)
		// Free every other slot, reuse the freed slots for other values,
		// then Reset the source and refill it with the same keys' ids.
		for i := 0; i < n; i += 2 {
			src.Add(row(i), -float64(i+1))
		}
		for i := 0; i < n/2; i++ {
			src.Add(row(n+i), 1)
		}
		src.Reset()
		for i := 0; i < n; i++ {
			src.Add(row(1000+i), 1)
		}
		if out.Len() != n {
			t.Fatalf("%s: result has %d entries after the source churned, want %d", op.name, out.Len(), n)
		}
		seen := 0
		eachKeyed(out, func(key []byte, tu types.Tuple, m float64) {
			if string(tu.AppendKey(nil)) != string(key) {
				t.Fatalf("%s: tuple %v no longer matches its key %x", op.name, tu, key)
			}
			i := int(tu[0].AsInt())
			if want := row(i); !tu.Equal(want) || m != float64(i+1)*op.factor {
				t.Fatalf("%s: entry %v -> %v, want %v -> %v", op.name, tu, m, want, float64(i+1)*op.factor)
			}
			seen++
		})
		if seen != n {
			t.Fatalf("%s: visited %d entries, want %d", op.name, seen, n)
		}
	}
	// Allocations grow with the number of doublings of the result's
	// arrays, not with the entry count.
	for _, op := range ops {
		small, large := fill(64), fill(4096)
		a := testing.AllocsPerRun(5, func() { op.run(small) })
		b := testing.AllocsPerRun(5, func() { op.run(large) })
		if b > a+64 {
			t.Errorf("%s allocated %.0f times for 64 entries and %.0f for 4096", op.name, a, b)
		}
	}
}

// TestInsertAllocsNothing pins the insert path: once a store has grown to
// its working-set size, inserting fresh entries (after a Reset, which keeps
// the capacity) allocates nothing — no per-entry tuple.
func TestInsertAllocsNothing(t *testing.T) {
	const n = 1000
	g := New(types.Schema{"a", "b"})
	keys := make([][]byte, n)
	rows := make([]types.Tuple, n)
	for i := range rows {
		rows[i] = types.Tuple{types.Int(int64(i)), types.Str(fmt.Sprint("s", i%7))}
		keys[i] = rows[i].AppendKey(nil)
		g.AddEncoded(keys[i], rows[i], 1)
	}
	allocs := testing.AllocsPerRun(5, func() {
		g.Reset()
		for i := range rows {
			g.AddEncoded(keys[i], rows[i], 1)
		}
	})
	if allocs != 0 {
		t.Fatalf("inserting %d entries into a grown store allocated %.0f times, want 0", n, allocs)
	}
}

// TestEntriesSurviveMutation pins Entries' half of the lifetime contract:
// its tuples are copies, so they survive deletion, slot reuse and Reset of
// the store; and a call makes the same number of allocations whatever the
// entry count (the ids, one value block, the entry slice).
func TestEntriesSurviveMutation(t *testing.T) {
	g := New(types.Schema{"a", "b"})
	for i := 0; i < 50; i++ {
		g.Add(tup(int64(i), int64(i*i)), 1)
	}
	es := g.Entries()
	for i := 0; i < 50; i++ {
		g.Add(tup(int64(i), int64(i*i)), -1)
		g.Add(tup(int64(100+i), 7), 1)
	}
	g.Reset()
	g.Add(tup(9, 9), 1)
	seen := map[int64]bool{}
	for _, e := range es {
		i := e.Tuple[0].AsInt()
		if !e.Tuple.Equal(tup(i, i*i)) || e.Mult != 1 || seen[i] {
			t.Fatalf("entry %v -> %v changed after the store was mutated", e.Tuple, e.Mult)
		}
		seen[i] = true
	}
	for _, n := range []int{1, 100, 5000} {
		g := New(types.Schema{"a", "b"})
		for i := 0; i < n; i++ {
			g.Add(tup(int64(i), int64(i%3)), 1)
		}
		if allocs := testing.AllocsPerRun(5, func() { g.Entries() }); allocs != 3 {
			t.Errorf("Entries over %d entries allocated %.0f times, want 3", n, allocs)
		}
	}
}

// TestJoinProjectAllocs pins the buffer-reusing emission path of Project:
// rows that collapse onto existing groups allocate nothing, and genuinely new
// output rows are copied into the output's slab, so they cost only the
// amortized growth of the output table — far below the old per-row
// key-string + re-encode cost, and below one allocation per row.
func TestJoinProjectAllocs(t *testing.T) {
	const n = 256
	a := New(types.Schema{"x", "y"})
	for i := int64(0); i < n; i++ {
		a.Add(tup(i, i%16), 1)
	}
	// Project collapses all n rows onto 16 groups: steady-state is pure
	// in-place accumulation, so the whole run should stay within the output
	// table's own working set (16 inserts + table growth), not O(n).
	projAllocs := testing.AllocsPerRun(10, func() {
		Project(a, types.Schema{"y"})
	})
	if projAllocs > 64 {
		t.Errorf("Project allocated %.0f times for %d rows / 16 groups; want <= 64", projAllocs, n)
	}
}

func TestReset(t *testing.T) {
	g := FromRows(types.Schema{"a"}, []types.Tuple{tup(1), tup(2)})
	g.Reset()
	if g.Len() != 0 {
		t.Fatalf("Reset left %d entries", g.Len())
	}
	g.Add(tup(5), 2)
	if g.Get(tup(5)) != 2 {
		t.Fatal("GMR unusable after Reset")
	}
}
