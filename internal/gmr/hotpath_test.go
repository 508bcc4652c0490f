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

// TestNegateScaleKeepKeys asserts the keyed Negate/Scale rewrite: results
// carry the same canonical keys (no re-encoding) and the right multiplicities.
func TestNegateScaleKeepKeys(t *testing.T) {
	g := FromRows(types.Schema{"a", "b"}, []types.Tuple{tup(1, 2), tup(3, 4)})
	g.Add(tup(3, 4), 1.5)
	for name, out := range map[string]*GMR{"Negate": Negate(g), "Scale": Scale(g, -2)} {
		f := -1.0
		if name == "Scale" {
			f = -2.0
		}
		if out.Len() != g.Len() {
			t.Fatalf("%s changed the entry count", name)
		}
		out.ForeachKeyed(func(key []byte, tu types.Tuple, m float64) {
			if string(key) != tu.EncodeKey() {
				t.Errorf("%s: key %q is not canonical for %v", name, key, tu)
			}
			if want := g.Get(tu) * f; m != want {
				t.Errorf("%s: multiplicity of %v = %v, want %v", name, tu, m, want)
			}
		})
	}
	if Scale(g, 0).Len() != 0 {
		t.Error("Scale by 0 should be empty")
	}
}

// TestCloneNegateScaleCopyTuples pins the lifetime contract of the
// structural operators: the results of Clone, Negate, Scale and MergeInto
// hold their own copies of the values, so they stay intact while the source
// frees and reuses slots (which clears and rewrites its slab windows) and
// after it is Reset and refilled; and building them makes no allocation per
// entry.
func TestCloneNegateScaleCopyTuples(t *testing.T) {
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
		{"Scale", 3, func(g *GMR) *GMR { return Scale(g, 3) }},
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
		out.ForeachKeyed(func(key []byte, tu types.Tuple, m float64) {
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

// TestJoinProjectAllocs pins the buffer-reusing emission paths of Join and
// Project: rows that collapse onto existing groups allocate nothing, and
// genuinely new output rows are copied into the output's slab, so they cost
// only the amortized growth of the output table — far below the old per-row
// key-string + re-encode cost, and below one allocation per row.
func TestJoinProjectAllocs(t *testing.T) {
	const n = 256
	a := New(types.Schema{"x", "y"})
	bb := New(types.Schema{"y", "z"})
	for i := int64(0); i < n; i++ {
		a.Add(tup(i, i%16), 1)
		bb.Add(tup(i%16, i), 1)
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
	// The join emits n*16 distinct rows; key encoding and probing reuse
	// buffers and new rows land in the output's slab, so what allocates is
	// the build side's hash table — per distinct join key its string and its
	// posting list's doublings, nothing per build row — and the output's
	// doublings (~80 for these 4 096 rows). It reads 192.
	const keys = 16
	joinAllocs := testing.AllocsPerRun(5, func() {
		Join(a, bb)
	})
	if bound := float64(keys*8 + 96); joinAllocs > bound {
		t.Errorf("Join allocated %.0f times for %d join keys; want <= %.0f", joinAllocs, keys, bound)
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

// joinNestedLoop is the reference O(n*m) implementation the hash join
// replaced; the property test below holds the two equal on random inputs.
func joinNestedLoop(a, b *GMR) *GMR {
	shared := make([]int, 0, len(b.schema))
	bExtra := make([]int, 0, len(b.schema))
	outSchema := a.schema.Clone()
	for bi, name := range b.schema {
		if ai := a.schema.Index(name); ai >= 0 {
			shared = append(shared, ai, bi)
		} else {
			bExtra = append(bExtra, bi)
			outSchema = append(outSchema, name)
		}
	}
	out := New(outSchema)
	bEntries := b.Entries()
	for _, ea := range a.Entries() {
		for _, eb := range bEntries {
			ok := true
			for i := 0; i < len(shared); i += 2 {
				if !ea.Tuple[shared[i]].Equal(eb.Tuple[shared[i+1]]) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			tu := make(types.Tuple, 0, len(outSchema))
			tu = append(tu, ea.Tuple...)
			for _, bi := range bExtra {
				tu = append(tu, eb.Tuple[bi])
			}
			out.Add(tu, ea.Mult*eb.Mult)
		}
	}
	return out
}

// TestHashJoinMatchesNestedLoop exercises both build directions (either side
// smaller), shared-column overlap, numeric coercion across int/float keys,
// and the zero-shared-column cross product.
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	schemas := []struct{ as, bs types.Schema }{
		{types.Schema{"x", "y"}, types.Schema{"y", "z"}},
		{types.Schema{"x", "y"}, types.Schema{"y", "x"}},
		{types.Schema{"x"}, types.Schema{"z"}}, // no shared columns: cross product
	}
	for _, sc := range schemas {
		for trial := 0; trial < 20; trial++ {
			na, nb := rng.Intn(12), rng.Intn(12)
			a, b := New(sc.as), New(sc.bs)
			for i := 0; i < na; i++ {
				a.Add(randTuple(rng, len(sc.as)), float64(rng.Intn(5)-2))
			}
			for i := 0; i < nb; i++ {
				b.Add(randTuple(rng, len(sc.bs)), float64(rng.Intn(5)-2))
			}
			want := joinNestedLoop(a, b)
			got := Join(a, b)
			if !Equal(want, got, 1e-12) {
				t.Fatalf("hash join diverged for %v ⋈ %v:\nwant %v\ngot  %v", a, b, want, got)
			}
		}
	}
}

// TestJoinCrossProductSize pins the zero-shared-column case explicitly: the
// result is the full cross product with multiplied multiplicities.
func TestJoinCrossProductSize(t *testing.T) {
	a := FromRows(types.Schema{"x"}, []types.Tuple{tup(1), tup(2), tup(3)})
	b := FromRows(types.Schema{"z"}, []types.Tuple{tup(10), tup(20)})
	out := Join(a, b)
	if out.Len() != 6 {
		t.Fatalf("cross product has %d entries, want 6", out.Len())
	}
	if got := out.Get(tup(2, 20)); got != 1 {
		t.Fatalf("multiplicity of (2,20) = %v, want 1", got)
	}
}

func randTuple(rng *rand.Rand, n int) types.Tuple {
	tu := make(types.Tuple, n)
	for i := range tu {
		switch rng.Intn(8) {
		case 0, 1:
			// Integral float: must join against the equal int.
			tu[i] = types.Float(float64(rng.Intn(4)))
		case 2:
			// Booleans coerce numerically: Bool(true) joins Int(1).
			tu[i] = types.Bool(rng.Intn(2) == 0)
		case 3:
			// Large integral float beyond the old 1e15 coercion window.
			tu[i] = types.Float(1e15 * float64(1+rng.Intn(2)))
		case 4:
			tu[i] = types.Int(int64(1e15) * int64(1+rng.Intn(2)))
		default:
			tu[i] = types.Int(int64(rng.Intn(4)))
		}
	}
	return tu
}

// TestJoinCoercedKeys pins that hash-join probing matches Value.Equal's
// numeric coercion: booleans against 0/1 and integral floats beyond 1e15
// against the equal int must still join.
func TestJoinCoercedKeys(t *testing.T) {
	a := New(types.Schema{"k", "x"})
	a.Add(types.Tuple{types.Bool(true), types.Int(1)}, 1)
	a.Add(types.Tuple{types.Float(1e15), types.Int(2)}, 1)
	b := New(types.Schema{"k"})
	b.Add(types.Tuple{types.Int(1)}, 1)
	b.Add(types.Tuple{types.Int(1e15)}, 1)
	out := Join(a, b)
	if out.Len() != 2 {
		t.Fatalf("coerced keys failed to join: %v", out)
	}
}
