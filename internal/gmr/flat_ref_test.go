package gmr

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dbtoaster/internal/types"
)

// refModel is the plain-map reference implementation the flat table is
// checked against: encoded key -> (tuple, multiplicity) with the same
// Epsilon-deletion rule.
type refModel struct {
	mult   map[string]float64
	tuples map[string]types.Tuple
}

func newRefModel() *refModel {
	return &refModel{mult: map[string]float64{}, tuples: map[string]types.Tuple{}}
}

func (r *refModel) add(t types.Tuple, m float64) {
	if m == 0 {
		return
	}
	k := t.EncodeKey()
	if _, ok := r.mult[k]; !ok {
		r.mult[k] = m
		r.tuples[k] = t.Clone()
		return
	}
	r.mult[k] += m
	if math.Abs(r.mult[k]) <= Epsilon {
		delete(r.mult, k)
		delete(r.tuples, k)
	}
}

func (r *refModel) set(t types.Tuple, m float64) {
	k := t.EncodeKey()
	if math.Abs(m) <= Epsilon {
		delete(r.mult, k)
		delete(r.tuples, k)
		return
	}
	r.mult[k] = m
	r.tuples[k] = t.Clone()
}

func (r *refModel) reset() {
	clear(r.mult)
	clear(r.tuples)
}

func (r *refModel) mergeFrom(o *refModel, factor float64) {
	for k, m := range o.mult {
		r.add(o.tuples[k], m*factor)
	}
}

// assertSame checks that the flat table and the reference hold exactly the
// same contents, cross-validating through every read path: Len, Get,
// GetEncoded, Entries order, stored slot keys and SlotEntry.
func assertSame(t *testing.T, step int, g *GMR, r *refModel) {
	t.Helper()
	if g.Len() != len(r.mult) {
		t.Fatalf("step %d: Len = %d, reference has %d entries", step, g.Len(), len(r.mult))
	}
	var buf []byte
	eachKeyed(g, func(key []byte, tu types.Tuple, m float64) {
		want, ok := r.mult[string(key)]
		if !ok {
			t.Fatalf("step %d: flat table holds %v (key %q) absent from reference", step, tu, key)
		}
		if m != want {
			t.Fatalf("step %d: multiplicity of %v = %v, reference says %v", step, tu, m, want)
		}
		buf = tu.AppendKey(buf[:0])
		if string(buf) != string(key) {
			t.Fatalf("step %d: stored key %q is not canonical for %v", step, key, tu)
		}
	})
	eachKeyed(g, func(key []byte, tu types.Tuple, m float64) {
		id, ok := g.LookupSlot(key)
		if !ok {
			t.Fatalf("step %d: LookupSlot(%q) missed an iterated entry", step, key)
		}
		if e := g.SlotEntry(id); e.Mult != m || !e.Tuple.Equal(tu) {
			t.Fatalf("step %d: SlotEntry(%d) = %v, iteration saw (%v, %v)", step, id, e, tu, m)
		}
	})
	for k, want := range r.mult {
		if got := g.GetEncoded([]byte(k)); got != want {
			t.Fatalf("step %d: GetEncoded(%q) = %v, want %v", step, k, got, want)
		}
		if got := g.Get(r.tuples[k]); got != want {
			t.Fatalf("step %d: Get(%v) = %v, want %v", step, r.tuples[k], got, want)
		}
	}
	// Entries must come back sorted by canonical key.
	keys := make([]string, 0, len(r.mult))
	for k := range r.mult {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	entries := g.Entries()
	if len(entries) != len(keys) {
		t.Fatalf("step %d: Entries returned %d rows, want %d", step, len(entries), len(keys))
	}
	for i, e := range entries {
		if e.Tuple.EncodeKey() != keys[i] {
			t.Fatalf("step %d: Entries[%d] = %v, want key %q", step, i, e.Tuple, keys[i])
		}
	}
}

// assertPostings checks every secondary index of g against the live slots:
// each posting must be strictly ascending and name only live slots whose
// index columns encode to its key, every bucket must be reachable by its key
// (so no two buckets share one), and the postings together must name as
// many slots as are live. A slot's key is unique, so this holds exactly when
// every posting equals the brute-force filter of the live slots on its key,
// in ascending id order. It also checks the flat layout's bookkeeping: one
// probe cell per live bucket, the free list naming only removed buckets
// (and as many as there are), no two runs sharing a pool id, and the
// dead-space counters matching what no live bucket owns.
func assertPostings(t *testing.T, step int, g *GMR) {
	t.Helper()
	var buf []byte
	var proj types.Tuple
	for ixID, ix := range g.indexes {
		n, live, keyBytes, runIDs := 0, 0, 0, 0
		owner := make([]int32, len(ix.ids)) // bucket id+1 reserving each pool id
		for i := range ix.buckets {
			bk := &ix.buckets[i]
			if bk.n == 0 {
				continue
			}
			live++
			if bk.n > bk.cap || int(bk.off+bk.cap) > len(ix.ids) {
				t.Fatalf("step %d: index %v: bucket %d run %+v outside a pool of %d", step, ix.cols, i, *bk, len(ix.ids))
			}
			for p := bk.off; p < bk.off+bk.cap; p++ {
				if owner[p] != 0 {
					t.Fatalf("step %d: index %v: buckets %d and %d share pool id %d", step, ix.cols, owner[p]-1, i, p)
				}
				owner[p] = int32(i) + 1
			}
			keyBytes += int(bk.keyLen)
			runIDs += int(bk.cap)
			k := ix.keys[bk.keyOff : bk.keyOff+bk.keyLen]
			if _, b, ok := ix.find(bk.hash, k); !ok || b != int32(i) || bk.hash != hashKey(k) {
				t.Fatalf("step %d: index %v: bucket %d not reachable by its key %q", step, ix.cols, i, k)
			}
			ids := g.Posting(ixID, k)
			if len(ids) != int(bk.n) {
				t.Fatalf("step %d: index %v: Posting(%q) = %v, bucket holds %d ids", step, ix.cols, k, ids, bk.n)
			}
			for j, id := range ids {
				if j > 0 && id <= ids[j-1] {
					t.Fatalf("step %d: index %v posting %q not ascending: %v", step, ix.cols, k, ids)
				}
				s := &g.slots[id]
				if s.dead {
					t.Fatalf("step %d: index %v posting %q names dead slot %d", step, ix.cols, k, id)
				}
				proj = proj[:0]
				for _, c := range ix.cols {
					proj = append(proj, g.tupleAt(id)[c])
				}
				buf = proj.AppendKey(buf[:0])
				if string(buf) != string(k) {
					t.Fatalf("step %d: index %v posting %q names slot %d with key %q", step, ix.cols, k, id, buf)
				}
			}
			n += len(ids)
		}
		if n != g.Len() {
			t.Fatalf("step %d: index %v postings name %d slots, %d are live", step, ix.cols, n, g.Len())
		}
		cells := 0
		for _, e := range ix.cells {
			if e != 0 {
				cells++
			}
		}
		for _, b := range ix.free {
			if ix.buckets[b].n != 0 {
				t.Fatalf("step %d: index %v: live bucket %d is on the free list", step, ix.cols, b)
			}
		}
		if live != ix.live || cells != live || len(ix.buckets) != live+len(ix.free) {
			t.Fatalf("step %d: index %v: %d cells, %d buckets, %d free, %d live (counted %d)", step, ix.cols, cells, len(ix.buckets), len(ix.free), ix.live, live)
		}
		if ix.deadKey != len(ix.keys)-keyBytes || ix.deadIds != len(ix.ids)-runIDs {
			t.Fatalf("step %d: index %v: dead %d key bytes / %d ids, arrays hold %d / %d beyond the live buckets",
				step, ix.cols, ix.deadKey, ix.deadIds, len(ix.keys)-keyBytes, len(ix.ids)-runIDs)
		}
	}
}

// TestFlatMatchesReference drives the flat table and a map[string]float64
// reference through the same long random sequence of Add / delete-by-
// negation / Set / Reset / Clear / MergeInto / Freeze operations — including
// epsilon deletions, float drift residues, grow/rehash boundaries (thousands
// of distinct keys), delete-heavy phases that exercise backward-shift
// compaction and slot reuse, and a final phase of long keys that fills and
// then compacts the arena — asserting identical contents throughout. Both
// stores carry three secondary indexes — on the key prefix (a), on the
// non-prefix column list (b), and on (b, a), built a third of the way in
// over the contents at that point — and every posting is held to a
// brute-force filter of the live slots after every step. Run it under -race
// to check the read paths' data-race annotations as well.
func TestFlatMatchesReference(t *testing.T) {
	schema := types.Schema{"a", "b"}
	for _, seed := range []int64{1, 7, 42} {
		rng := rand.New(rand.NewSource(seed))
		g := New(schema)
		ref := newRefModel()
		other := New(schema)
		otherRef := newRefModel()
		for _, st := range []*GMR{g, other} {
			st.Index([]int{0})
			st.Index([]int{1})
		}

		randTup := func(space int64) types.Tuple {
			// Mix kinds so coercion-sensitive encodings (integral floats,
			// booleans) hit the table too.
			mk := func(v int64) types.Value {
				switch rng.Intn(6) {
				case 0:
					return types.Float(float64(v))
				case 1:
					return types.Str("k" + string(rune('a'+v%26)))
				default:
					return types.Int(v)
				}
			}
			return types.Tuple{mk(rng.Int63n(space)), mk(rng.Int63n(space))}
		}

		var buf []byte
		const steps = 20000
		for i := 0; i < steps; i++ {
			if i == steps/3 {
				for _, st := range []*GMR{g, other} {
					if ix := st.Index([]int{1, 0}); ix != 2 {
						t.Fatalf("mid-run index got id %d, want 2", ix)
					}
				}
			}
			// Phase-dependent key space: a wide insert phase crosses several
			// grow/rehash boundaries, a narrow churn phase forces deletions,
			// slot reuse and arena compaction.
			space := int64(2000)
			if i%5000 >= 3500 {
				space = 40
			}
			tu := randTup(space)
			switch op := rng.Intn(20); {
			case op < 10: // random add (both signs)
				m := float64(rng.Intn(9) - 4)
				g.Add(tu, m)
				ref.add(tu, m)
			case op < 13: // exact cancellation of an existing entry
				if es := g.Entries(); len(es) > 0 {
					e := es[rng.Intn(len(es))]
					g.Add(e.Tuple, -e.Mult)
					ref.add(e.Tuple, -e.Mult)
				}
			case op < 15: // epsilon-sized drift that must erase the entry
				m := 0.25 * float64(1+rng.Intn(4))
				g.Add(tu, m)
				ref.add(tu, m)
				g.Add(tu, -m+Epsilon/2)
				ref.add(tu, -m+Epsilon/2)
			case op < 17: // byte-keyed add through a reused buffer
				m := float64(rng.Intn(5) - 2)
				buf = tu.AppendKey(buf[:0])
				if m != 0 {
					g.AddEncoded(buf, tu, m)
					ref.add(tu, m)
				}
			case op < 18: // Set (overwrite or erase)
				m := float64(rng.Intn(3) - 1)
				g.Set(tu, m)
				ref.set(tu, m)
			case op < 19: // stage into a second GMR, occasionally merge it in
				m := float64(rng.Intn(5) - 2)
				other.Add(tu, m)
				otherRef.add(tu, m)
				if rng.Intn(8) == 0 {
					factor := float64(rng.Intn(3) - 1)
					g.MergeInto(other, factor)
					ref.mergeFrom(otherRef, factor)
					other.Reset()
					otherRef.reset()
				}
			default: // rare reset, clear or drain (every entry cancelled);
				// otherwise a freeze, so the next write is the first after it
				switch rng.Intn(10) {
				case 0:
					g.Reset()
					ref.reset()
				case 1:
					g.Clear()
					ref.reset()
				case 2:
					for _, e := range g.Entries() {
						g.Add(e.Tuple, -e.Mult)
						ref.add(e.Tuple, -e.Mult)
					}
				default:
					g.Freeze()
				}
			}
			assertPostings(t, i, g)
			assertPostings(t, i, other)
			if i%500 == 499 {
				assertSame(t, i, g, ref)
			}
		}
		assertSame(t, steps, g, ref)

		// Compaction phase: long string keys fill the arena past the
		// compaction threshold, then cancelling them leaves it dead.
		gen := g.flatGen
		for j := 0; j < 300; j++ {
			tu := types.Tuple{types.Str(strings64[j%len(strings64)] + string(rune('A'+j%26)) + string(rune('A'+j/26))), types.Int(int64(j % 7))}
			g.Add(tu, 1)
			ref.add(tu, 1)
			assertPostings(t, steps+j, g)
		}
		for j, e := range g.Entries() {
			g.Add(e.Tuple, -e.Mult)
			ref.add(e.Tuple, -e.Mult)
			assertPostings(t, steps+300+j, g)
		}
		if g.flatGen == gen {
			t.Fatal("the compaction phase did not compact the arena")
		}
		assertSame(t, steps+600, g, ref)

		// Index compaction phase: 400 entries whose long b values pair up
		// into two-id postings of index (b), then every entry but each
		// tenth is cancelled oldest first, so the removed buckets leave
		// dead key bytes and pool runs ahead of the survivors. Removing
		// the newest bucket cuts its bytes off the end of an array, which
		// cannot shorten it past the last survivor; only compaction can
		// bring either array below half of its peak length.
		ixB := g.indexes[1]
		peakKeys, peakIDs := 0, 0
		var added []types.Tuple
		for j := 0; j < 400; j++ {
			tu := types.Tuple{types.Int(int64(j)), types.Str(strings64[j%len(strings64)] + string(rune('A'+j/2%26)) + string(rune('A'+j/52)))}
			g.Add(tu, 1)
			ref.add(tu, 1)
			added = append(added, tu)
			peakKeys, peakIDs = max(peakKeys, len(ixB.keys)), max(peakIDs, len(ixB.ids))
		}
		assertPostings(t, steps+700, g)
		for j, tu := range added {
			if j%10 != 0 {
				g.Add(tu, -1)
				ref.add(tu, -1)
			}
			assertPostings(t, steps+700+j, g)
		}
		if 2*len(ixB.keys) >= peakKeys || 2*len(ixB.ids) >= peakIDs {
			t.Fatalf("index (b) did not compact: key arena %d of peak %d bytes, id pool %d of peak %d ids",
				len(ixB.keys), peakKeys, len(ixB.ids), peakIDs)
		}
		assertSame(t, steps+1200, g, ref)
	}
}

// TestFlatGrowBoundary pins behavior exactly around probe-table growth: the
// table starts at the minimum size and every doubling must carry all
// existing entries (and their slot ids) across intact.
func TestFlatGrowBoundary(t *testing.T) {
	g := New(types.Schema{"a"})
	ids := make(map[int64]int32)
	var buf []byte
	for i := int64(0); i < 10000; i++ {
		tu := tup(i)
		buf = tu.AppendKey(buf[:0])
		g.AddEncoded(buf, tu, float64(i+1))
		id, ok := g.LookupSlot(buf)
		if !ok {
			t.Fatalf("LookupSlot missed %d right after its insert", i)
		}
		ids[i] = id
		if i%1000 == 0 {
			for j := int64(0); j <= i; j += 97 {
				if got := g.Get(tup(j)); got != float64(j+1) {
					t.Fatalf("after %d inserts: Get(%d) = %v, want %v", i+1, j, got, j+1)
				}
				if e := g.SlotEntry(ids[j]); e.Mult != float64(j+1) {
					t.Fatalf("after %d inserts: slot %d moved", i+1, ids[j])
				}
			}
		}
	}
	if g.Len() != 10000 {
		t.Fatalf("Len = %d, want 10000", g.Len())
	}
}

// TestFlatArenaCompaction drives heavy insert/delete churn over a small live
// set so dead key bytes accumulate and the arena compacts, then verifies
// every surviving entry (contents and canonical key bytes).
func TestFlatArenaCompaction(t *testing.T) {
	g := New(types.Schema{"s"})
	// Long string keys make dead arena bytes pile up quickly.
	key := func(i int) types.Tuple {
		return types.Tuple{types.Str(strings64[i%len(strings64)] + string(rune('0'+i%10)))}
	}
	for round := 0; round < 200; round++ {
		for i := 0; i < 50; i++ {
			g.Add(key(round*50+i), 1)
		}
		g.Foreach(func(tu types.Tuple, m float64) {})
		// Delete everything but a small survivor set.
		for _, e := range g.Entries() {
			if e.Tuple[0].AsString()[0] != 'a' {
				g.Add(e.Tuple, -e.Mult)
			}
		}
	}
	var buf []byte
	eachKeyed(g, func(k []byte, tu types.Tuple, m float64) {
		buf = tu.AppendKey(buf[:0])
		if string(buf) != string(k) {
			t.Fatalf("after compaction churn, key %q is not canonical for %v", k, tu)
		}
	})
	if got := g.MemSize(); got <= 0 {
		t.Fatalf("MemSize = %d", got)
	}
}

var strings64 = []string{
	"aa-survivor-key-that-sticks-around-for-the-whole-run-0123456789",
	"bb-transient-key-padding-padding-padding-padding-padding-000000",
	"cc-transient-key-padding-padding-padding-padding-padding-111111",
	"dd-transient-key-padding-padding-padding-padding-padding-222222",
}
