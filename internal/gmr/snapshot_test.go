package gmr

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"

	"dbtoaster/internal/types"
)

// entriesMap flattens a GMR into a map keyed by the tuple's string form, for
// order-independent comparison against a reference.
func entriesMap(g *GMR) map[string]float64 {
	out := map[string]float64{}
	g.Foreach(func(t types.Tuple, m float64) {
		out[fmt.Sprint(t)] = m
	})
	return out
}

func mapsEqual(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestFreezeImmutable drives a randomized mutation stream and freezes the
// store at random points; every snapshot must keep reporting exactly the
// contents it captured while the live store keeps churning through inserts,
// deletions, growth, arena compaction and Reset — both a Reset right after a
// Freeze and one after a Freeze and a write (whose copy-on-write leaves the
// arena shared).
func TestFreezeImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := New(types.Schema{"a", "b"})

	type snap struct {
		frozen *GMR
		want   map[string]float64
	}
	var snaps []snap

	for step := 0; step < 4000; step++ {
		k := types.Tuple{types.Int(int64(rng.Intn(200))), types.Int(int64(rng.Intn(5)))}
		switch {
		case rng.Intn(10) == 0 && g.Len() > 0:
			// Exact deletion of an existing entry to exercise backward-shift
			// deletion and arena compaction while frozen.
			e := g.Entries()[rng.Intn(g.Len())]
			g.Add(e.Tuple, -e.Mult)
		default:
			g.Add(k, float64(rng.Intn(7)-3))
		}
		if step%500 == 250 {
			f := g.Freeze()
			snaps = append(snaps, snap{frozen: f, want: entriesMap(g)})
		}
	}
	// One Reset at the end: snapshots must survive the slices being recycled.
	f := g.Freeze()
	snaps = append(snaps, snap{frozen: f, want: entriesMap(g)})
	g.Reset()
	g.Add(types.Tuple{types.Int(1), types.Int(1)}, 42)
	// Freeze, write, Reset: the write copies slots, slab and probe table but
	// not the arena, which Reset must then leave to the snapshot. The
	// refill writes keys over whatever arena Reset kept.
	f = g.Freeze()
	snaps = append(snaps, snap{frozen: f, want: entriesMap(g)})
	g.Add(types.Tuple{types.Int(2), types.Int(2)}, 1)
	g.Reset()
	for i := 0; i < 50; i++ {
		g.Add(types.Tuple{types.Int(int64(1000 + i)), types.Int(3)}, 1)
	}

	for i, s := range snaps {
		if got := entriesMap(s.frozen); !mapsEqual(got, s.want) {
			t.Fatalf("snapshot %d drifted:\n got  %v\n want %v", i, got, s.want)
		}
		if s.frozen.Len() != len(s.want) {
			t.Fatalf("snapshot %d Len = %d, want %d", i, s.frozen.Len(), len(s.want))
		}
		// Point lookups through the probe table must agree with iteration.
		s.frozen.Foreach(func(tp types.Tuple, m float64) {
			if got := s.frozen.Get(tp); got != m {
				t.Fatalf("snapshot %d Get(%v) = %v, want %v", i, tp, got, m)
			}
		})
	}
}

// TestResetAfterFreezeKeepsSnapshot pins that Reset never truncates an arena
// a snapshot shares. The first write after Freeze copies the slots, the
// slab and the probe table but leaves the arena shared, so a Reset that
// truncated it in place let the next inserts overwrite the snapshot's key
// bytes: its probes then missed entries its iteration still listed.
func TestResetAfterFreezeKeepsSnapshot(t *testing.T) {
	g := New(types.Schema{"a"})
	g.Add(tup(1), 1)
	g.Add(tup(2), 1)
	f := g.Freeze()
	g.Add(tup(3), 1)
	g.Reset()
	g.Add(tup(7), 1)
	g.Add(tup(8), 1)
	for _, k := range []int64{1, 2} {
		if got := f.Get(tup(k)); got != 1 {
			t.Errorf("snapshot Get(%d) = %v after the writer's Reset, want 1", k, got)
		}
	}
	if es := f.Entries(); len(es) != 2 || !es[0].Tuple.Equal(tup(1)) || !es[1].Tuple.Equal(tup(2)) {
		t.Errorf("snapshot Entries = %v, want [1] and [2]", es)
	}
	if got := g.Get(tup(7)) + g.Get(tup(8)); g.Len() != 2 || got != 2 {
		t.Errorf("writer after Reset: Len %d, Get(7)+Get(8) = %v", g.Len(), got)
	}
}

// TestFreezeSnapshotSealed pins the mutation guard: every mutating entry
// point on a snapshot must panic, and Freeze of a snapshot is the snapshot.
func TestFreezeSnapshotSealed(t *testing.T) {
	g := New(types.Schema{"x"})
	g.Add(types.Tuple{types.Int(1)}, 2)
	f := g.Freeze()
	if !f.Sealed() || g.Sealed() {
		t.Fatalf("Sealed: snapshot %v, live %v", f.Sealed(), g.Sealed())
	}
	if f.Freeze() != f {
		t.Fatalf("Freeze of a snapshot should return the snapshot")
	}
	for name, mut := range map[string]func(){
		"Add":   func() { f.Add(types.Tuple{types.Int(2)}, 1) },
		"Set":   func() { f.Set(types.Tuple{types.Int(2)}, 1) },
		"Clear": func() { f.Clear() },
		"Reset": func() { f.Reset() },
		"Merge": func() { f.MergeInto(g, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on a snapshot did not panic", name)
				}
			}()
			mut()
		}()
	}
	// The live side must still be freely mutable (copy-on-write, not an
	// error), and a clone of a frozen store must be independently mutable.
	g.Add(types.Tuple{types.Int(1)}, 3)
	if got := f.Get(types.Tuple{types.Int(1)}); got != 2 {
		t.Fatalf("snapshot saw post-freeze write: %v", got)
	}
	c := f.Clone()
	c.Add(types.Tuple{types.Int(9)}, 1)
	if f.Len() != 1 || c.Len() != 2 {
		t.Fatalf("clone of snapshot not independent: f=%d c=%d", f.Len(), c.Len())
	}
}

// TestFreezeConcurrentReaders is the race-detector workout: one writer churns
// the store and periodically freezes it while reader goroutines scan whatever
// snapshot is newest. Run with -race (the CI race step does).
func TestFreezeConcurrentReaders(t *testing.T) {
	g := New(types.Schema{"a"})
	var mu sync.Mutex // hands frozen snapshots from writer to readers
	latest := g.Freeze()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.Lock()
				f := latest
				mu.Unlock()
				sum := 0.0
				f.Foreach(func(tp types.Tuple, m float64) { sum += m })
				f.Get(types.Tuple{types.Int(7)})
				_ = f.Entries()
				_ = f.MemSize()
			}
		}()
	}

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		g.Add(types.Tuple{types.Int(int64(rng.Intn(300)))}, float64(rng.Intn(5)-2))
		if i%97 == 0 {
			f := g.Freeze()
			mu.Lock()
			latest = f
			mu.Unlock()
		}
	}
	close(done)
	wg.Wait()
}

// BenchmarkFreeze pins the O(1) claim: freezing must not depend on store
// size. Each iteration freezes and then performs one write (paying the
// copy-on-write once), which is the engine's per-epoch worst case.
func BenchmarkFreeze(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("acquire/n=%d", n), func(b *testing.B) {
			g := New(types.Schema{"a"})
			for i := 0; i < n; i++ {
				g.Add(types.Tuple{types.Int(int64(i))}, 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = g.Freeze()
			}
		})
		b.Run(fmt.Sprintf("freeze+write/n=%d", n), func(b *testing.B) {
			g := New(types.Schema{"a"})
			for i := 0; i < n; i++ {
				g.Add(types.Tuple{types.Int(int64(i))}, 1)
			}
			tup := types.Tuple{types.Int(0)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = g.Freeze()
				g.Add(tup, 1)
			}
		})
	}
}

// FuzzFreezeOps is a differential fuzz of the freeze mechanism: the input
// bytes drive Add, AddEncoded and Set, cancelling deletes that free slots
// for reuse, Reset, Clear and Freeze, and after every operation every
// outstanding snapshot must equal the reference captured when it froze —
// through iteration, point lookups and Len — and each of its tuples must
// re-encode to its key bytes. The live store is held to the reference too.
func FuzzFreezeOps(f *testing.F) {
	// Add 1, 2 and 3, Freeze, Add 4 (its key fits the arena's spare
	// capacity), Reset, Add 7 and 8: the Reset of a frozen-then-written
	// store.
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 12, 0, 0, 0, 4, 0, 13, 0, 0, 0, 7, 0, 0, 8, 0})
	// Long keys, deletes, reuse and Clear between freezes.
	f.Add([]byte{0, 200, 1, 6, 201, 2, 12, 0, 0, 8, 200, 1, 0, 202, 3, 15, 0, 0, 11, 201, 2, 14, 0, 0, 0, 203, 1, 12, 0, 0, 13, 0, 0, 7, 204, 5})
	addRandomOps(f, 1, 2)
	f.Fuzz(func(t *testing.T, data []byte) {
		type snap struct {
			g    *GMR
			want map[string]float64
		}
		const maxSnaps = 4
		var snaps []snap
		g := New(types.Schema{"a", "b"})
		ref := newRefModel()
		fuzzOps(data, func(step int, op byte, tu types.Tuple, y byte) {
			if !applyFuzzOp(g, ref, op, tu, y) { // 12, 15: Freeze
				if len(snaps) == maxSnaps {
					snaps = snaps[1:]
				}
				snaps = append(snaps, snap{g.Freeze(), maps.Clone(ref.mult)})
			}
			if g.Len() != len(ref.mult) {
				t.Fatalf("step %d: Len = %d, reference has %d entries", step, g.Len(), len(ref.mult))
			}
			for i, s := range snaps {
				checkSnapshot(t, fmt.Sprintf("step %d: snapshot %d", step, i), s.g, s.want)
			}
		})
		assertSame(t, -1, g, ref)
	})
}

// addRandomOps seeds a fuzz target with one 200-op random stream per seed.
func addRandomOps(f *testing.F, seeds ...int64) {
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3*200)
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		f.Add(data)
	}
}

// fuzzOps decodes the op stream of FuzzFreezeOps and FuzzFlatChain: three
// bytes (op, x, y) per op, at most 256 ops, over a two-column store. x picks
// column a (an int below 48, or a long string from 192 up) and y column b.
func fuzzOps(data []byte, fn func(step int, op byte, tu types.Tuple, y byte)) {
	if len(data) > 3*256 {
		data = data[:3*256]
	}
	for step := 0; len(data) >= 3; step++ {
		op, x, y := data[0], data[1], data[2]
		data = data[3:]
		a := types.Int(int64(x % 48))
		if x >= 192 {
			a = types.Str(strings64[x%4] + string(rune('A'+x%26)))
		}
		fn(step, op, types.Tuple{a, types.Int(int64(y % 8))}, y)
	}
}

// applyFuzzOp applies one decoded op to g and its reference. By op%16: 0-5
// Add and 6-7 AddEncoded a small multiplicity, 8-10 cancel the tuple's entry
// exactly (its slot goes on the free list), 11 Sets it to -1, 0 or 1, 13
// Resets and 14 Clears. It reports false for 12 and 15, which it leaves to
// the caller.
func applyFuzzOp(g *GMR, ref *refModel, op byte, tu types.Tuple, y byte) bool {
	switch op % 16 {
	case 0, 1, 2, 3, 4, 5:
		m := float64(1 + op%3)
		g.Add(tu, m)
		ref.add(tu, m)
	case 6, 7:
		m := float64(1 + op%2)
		g.AddEncoded(tu.AppendKey(nil), tu, m)
		ref.add(tu, m)
	case 8, 9, 10:
		if m := g.Get(tu); m != 0 {
			g.Add(tu, -m)
			ref.add(tu, -m)
		}
	case 11:
		m := float64(int(y%3) - 1)
		g.Set(tu, m)
		ref.set(tu, m)
	case 13:
		g.Reset()
		ref.reset()
	case 14:
		g.Clear()
		ref.reset()
	default:
		return false
	}
	return true
}

// FuzzFlatChain is a differential fuzz of checkpoint chains over the
// FuzzFreezeOps op stream, in which op 12 takes a checkpoint link and op 15
// inserts a burst of fresh keys that forces a probe-table grow. A link
// freezes the store and serializes a delta against the previous link, or a
// full image when there is none or the store is no longer delta-eligible
// (Reset, Clear, arena compaction), and composes it onto the recovered copy
// with LoadFlat or ApplyFlatDelta. After each link the copy must serialize
// byte-equal with the head and answer lookups (checkLookups).
func FuzzFlatChain(f *testing.F) {
	// Adds, a link, a burst, a link, a cancel and a long key, a link, a
	// Reset, a link.
	f.Add([]byte{0, 1, 0, 0, 2, 1, 12, 0, 0, 15, 0, 3, 12, 0, 0, 8, 1, 0, 0, 200, 1, 12, 0, 0, 13, 0, 0, 0, 5, 5, 12, 0, 0})
	// Two bursts between links, then Clear and a burst.
	f.Add([]byte{12, 0, 0, 15, 0, 0, 15, 0, 1, 12, 0, 0, 14, 0, 0, 15, 0, 2, 12, 0, 0})
	addRandomOps(f, 3, 4)
	f.Fuzz(func(t *testing.T, data []byte) {
		g := New(types.Schema{"a", "b"})
		ref := newRefModel()
		var restored *GMR
		var base FlatBase
		fresh := int64(48) // burst keys start above the decoder's int range
		link := func(step int) {
			head := g.Freeze()
			delta, ok := head.AppendFlatDelta(nil, base)
			var err error
			if ok && restored != nil {
				err = restored.ApplyFlatDelta(delta)
			} else {
				restored, err = LoadFlat(head.AppendFlat(nil))
			}
			if err != nil {
				t.Fatalf("step %d: compose (delta %v): %v", step, ok, err)
			}
			base = head.FlatBase()
			if got, want := restored.AppendFlat(nil), head.AppendFlat(nil); !bytes.Equal(got, want) {
				t.Fatalf("step %d: composed store differs from head (%d vs %d bytes)", step, len(got), len(want))
			}
			checkLookups(t, restored)
		}
		fuzzOps(data, func(step int, op byte, tu types.Tuple, y byte) {
			switch {
			case applyFuzzOp(g, ref, op, tu, y):
			case op%16 == 12:
				link(step)
			case len(g.index) < 1<<10: // 15: fill past the next grow point
				for n := len(g.index)*3/4 - g.Len() + 1; n > 0; n-- {
					bt := types.Tuple{types.Int(fresh), types.Int(int64(y % 8))}
					fresh++
					g.Add(bt, 1)
					ref.add(bt, 1)
				}
			}
		})
		link(-1)
		assertSame(t, -1, g, ref)
	})
}

// checkSnapshot holds a snapshot to the reference it froze with.
func checkSnapshot(t *testing.T, what string, g *GMR, want map[string]float64) {
	t.Helper()
	if g.Len() != len(want) {
		t.Fatalf("%s: Len = %d, want %d", what, g.Len(), len(want))
	}
	var buf []byte
	eachKeyed(g, func(key []byte, tu types.Tuple, m float64) {
		if buf = tu.AppendKey(buf[:0]); !bytes.Equal(buf, key) {
			t.Fatalf("%s: tuple %v re-encodes to %x, stored key %x", what, tu, buf, key)
		}
		if w, ok := want[string(key)]; !ok || w != m {
			t.Fatalf("%s: holds %v -> %v, reference has %v (present %v)", what, tu, m, w, ok)
		}
	})
	for k, m := range want {
		if got := g.GetEncoded([]byte(k)); got != m {
			t.Fatalf("%s: GetEncoded(%x) = %v, want %v", what, k, got, m)
		}
	}
}
