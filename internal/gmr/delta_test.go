package gmr

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"dbtoaster/internal/types"
)

// churnExisting applies ops random mutations (inserts, multiplicity updates,
// deletions) to an existing store, reusing live entries so tombstone reuse
// and free-list churn actually occur between checkpoints. The live tuples
// are copied: a slab window is only valid until its entry is removed.
func churnExisting(rng *rand.Rand, g *GMR, ops int) {
	var keys []types.Tuple
	g.Foreach(func(t types.Tuple, _ float64) { keys = append(keys, t.Clone()) })
	for i := 0; i < ops; i++ {
		if len(keys) > 0 && rng.Intn(3) == 0 {
			j := rng.Intn(len(keys))
			t := keys[j]
			if m := g.Get(t); m != 0 {
				g.Add(t, -m)
			}
			keys[j] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
			continue
		}
		t := make(types.Tuple, len(g.Schema()))
		for j := range t {
			switch rng.Intn(3) {
			case 0:
				t[j] = types.Int(rng.Int63n(500))
			case 1:
				t[j] = types.Float(float64(rng.Intn(80)) + 0.25)
			default:
				b := make([]byte, rng.Intn(16))
				rng.Read(b)
				t[j] = types.Str(string(b))
			}
		}
		g.Add(t, float64(rng.Intn(9))-4)
		keys = append(keys, t)
	}
}

// TestFlatDeltaRoundTrip drives the full engine checkpoint cycle: freeze a
// base, keep mutating, freeze again, serialize the delta, and compose it onto
// a store reloaded from the base image. The composed store must re-serialize
// (AppendFlat) byte-identically to the head snapshot — the same verbatim-
// layout guarantee the full codec gives, extended across delta chains of
// several links.
func TestFlatDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	schemas := []types.Schema{{"a"}, {"a", "b"}, {"k1", "k2", "k3"}}
	for trial := 0; trial < 30; trial++ {
		schema := schemas[trial%len(schemas)]
		g := churnStore(rng, schema, []int{0, 8, 60, 400}[trial%4])

		snap := g.Freeze()
		baseImg := snap.AppendFlat(nil)
		base := snap.FlatBase()
		restored, err := LoadFlat(baseImg)
		if err != nil {
			t.Fatalf("trial %d: LoadFlat of base: %v", trial, err)
		}

		links := 1 + trial%4
		for link := 0; link < links; link++ {
			churnExisting(rng, g, []int{1, 12, 90}[(trial+link)%3])
			head := g.Freeze()
			delta, ok := head.AppendFlatDelta(nil, base)
			if !ok {
				// Structure diverged (compaction): fall back to a full image,
				// exactly as the engine does, and keep chaining.
				restored, err = LoadFlat(head.AppendFlat(nil))
				if err != nil {
					t.Fatalf("trial %d link %d: LoadFlat of full fallback: %v", trial, link, err)
				}
				base = head.FlatBase()
				continue
			}
			dirty, total, dok := head.FlatDirty(base)
			if !dok {
				t.Fatalf("trial %d link %d: delta serialized but FlatDirty reports ineligible", trial, link)
			}
			if dirty > total {
				t.Fatalf("trial %d link %d: dirty %d > total %d", trial, link, dirty, total)
			}
			if err := restored.ApplyFlatDelta(delta); err != nil {
				t.Fatalf("trial %d link %d: ApplyFlatDelta: %v", trial, link, err)
			}
			if got, want := restored.AppendFlat(nil), head.AppendFlat(nil); !bytes.Equal(got, want) {
				t.Fatalf("trial %d link %d: composed store differs from head (%d vs %d bytes)", trial, link, len(got), len(want))
			}
			base = head.FlatBase()
		}

		// Lockstep continuation: composed and original must keep making the
		// same layout decisions.
		for i := 0; i < 40; i++ {
			tup := make(types.Tuple, len(schema))
			for j := range tup {
				tup[j] = types.Int(rng.Int63n(100))
			}
			g.Add(tup, 1)
			restored.Add(tup, 1)
		}
		if a, b := g.AppendFlat(nil), restored.AppendFlat(nil); !bytes.Equal(a, b) {
			t.Fatalf("trial %d: stores diverged after post-compose mutations", trial)
		}
	}
}

// TestFlatDeltaCleanSnapshot pins the steady-state win: freezing twice with
// no mutations in between yields an empty change set (the delta is pure
// header), and a store with few touched slots yields a proportionally small
// delta — the property the ≥5x checkpoint-byte reduction rests on.
func TestFlatDeltaCleanSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := churnStore(rng, types.Schema{"a", "b"}, 2000)
	base := g.Freeze().FlatBase()

	clean, ok := g.Freeze().AppendFlatDelta(nil, base)
	if !ok {
		t.Fatal("clean snapshot not delta-eligible")
	}
	if dirty, _, _ := g.Freeze().FlatDirty(base); dirty != 0 {
		t.Fatalf("clean snapshot reports %d dirty slots", dirty)
	}
	full := g.AppendFlat(nil)
	if len(clean) >= len(full)/10 {
		t.Fatalf("clean delta is %d bytes vs %d full — not an incremental win", len(clean), len(full))
	}

	// Touch one existing entry; the delta must stay near the clean-delta size.
	var one types.Tuple
	g.Foreach(func(tp types.Tuple, _ float64) {
		if one == nil {
			one = tp
		}
	})
	g.Add(one, 1)
	small, ok := g.Freeze().AppendFlatDelta(nil, base)
	if !ok {
		t.Fatal("single-touch snapshot not delta-eligible")
	}
	if len(small) >= len(full)/10 {
		t.Fatalf("single-touch delta is %d bytes vs %d full", len(small), len(full))
	}
}

// TestFlatDeltaAcrossGrow pins that a probe-table grow between two
// checkpoints keeps the store delta-eligible: no checkpoint carries the
// table, so the delta composes onto the base image into a store that
// serializes byte-equal with the head and keeps lockstep with the original
// under further inserts and deletes.
func TestFlatDeltaAcrossGrow(t *testing.T) {
	g := New(types.Schema{"a"})
	g.Add(types.Tuple{types.Int(1)}, 1)
	snap := g.Freeze()
	baseImg, base := snap.AppendFlat(nil), snap.FlatBase()
	cells := len(g.index)
	for i := 2; i < 200; i++ {
		g.Add(types.Tuple{types.Int(int64(i))}, 1)
	}
	if len(g.index) <= cells {
		t.Fatalf("probe table did not grow past %d cells", cells)
	}
	head := g.Freeze()
	delta, ok := head.AppendFlatDelta(nil, base)
	if !ok {
		t.Fatal("delta ineligible across a probe-table grow")
	}
	restored, err := LoadFlat(baseImg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ApplyFlatDelta(delta); err != nil {
		t.Fatalf("ApplyFlatDelta: %v", err)
	}
	if got, want := restored.AppendFlat(nil), head.AppendFlat(nil); !bytes.Equal(got, want) {
		t.Fatalf("composed store differs from head (%d vs %d bytes)", len(got), len(want))
	}
	for i := 100; i < 700; i++ {
		tu := types.Tuple{types.Int(int64(i))}
		m := 1.0
		if i%3 == 0 {
			m = -g.Get(tu) // cancels the entry when present: slot reuse
		}
		g.Add(tu, m)
		restored.Add(tu, m)
	}
	if a, b := g.AppendFlat(nil), restored.AppendFlat(nil); !bytes.Equal(a, b) {
		t.Fatal("stores diverged after post-compose mutations")
	}
	checkLookups(t, restored)
}

// TestFlatDeltaIneligible pins every base-invalidation path: arena
// compaction, Clone, Clear, Reset and epoch wrap-around must all force the
// full-image fallback rather than emit a delta that could not compose
// byte-faithfully.
func TestFlatDeltaIneligible(t *testing.T) {
	schema := types.Schema{"a"}

	t.Run("compaction", func(t *testing.T) {
		g := New(schema)
		long := string(make([]byte, 400))
		for i := 0; i < 40; i++ {
			g.Add(types.Tuple{types.Str(long + string(rune('a'+i)))}, 1)
		}
		base := g.Freeze().FlatBase()
		gen := g.flatGen
		for i := 0; i < 40; i++ { // deletes >4096 dead key bytes => compaction
			g.Add(types.Tuple{types.Str(long + string(rune('a'+i)))}, -1)
		}
		if g.flatGen == gen {
			t.Fatal("test did not trigger arena compaction")
		}
		if _, ok := g.Freeze().AppendFlatDelta(nil, base); ok {
			t.Fatal("delta eligible across arena compaction")
		}
		if _, _, ok := g.FlatDirty(base); ok {
			t.Fatal("FlatDirty eligible across arena compaction")
		}
	})

	t.Run("clone-clear-reset", func(t *testing.T) {
		g := New(schema)
		g.Add(types.Tuple{types.Int(1)}, 1)
		base := g.Freeze().FlatBase()
		if _, ok := g.Clone().Freeze().AppendFlatDelta(nil, base); ok {
			t.Fatal("clone remained delta-eligible against its source's base")
		}
		h := g.Clone()
		h.Clear()
		h.Add(types.Tuple{types.Int(1)}, 1)
		if _, ok := h.Freeze().AppendFlatDelta(nil, base); ok {
			t.Fatal("cleared store remained delta-eligible")
		}
		g.Reset()
		g.Add(types.Tuple{types.Int(1)}, 1)
		if _, ok := g.Freeze().AppendFlatDelta(nil, base); ok {
			t.Fatal("reset store remained delta-eligible")
		}
	})

	t.Run("epoch-wrap", func(t *testing.T) {
		g := New(schema)
		g.Add(types.Tuple{types.Int(1)}, 1)
		base := g.Freeze().FlatBase()
		g.epoch = math.MaxUint32 // fast-forward to the wrap boundary
		// A write between the freezes: with none, Freeze would hand back
		// its cached header instead of freezing at the boundary.
		g.Add(types.Tuple{types.Int(4)}, 1)
		snap := g.Freeze()
		if snap.epoch != math.MaxUint32 {
			t.Fatalf("wrap snapshot captured epoch %d", snap.epoch)
		}
		if g.epoch != 1 || g.flatGen == base.Gen {
			t.Fatalf("wrap did not restart the epoch under a new generation (epoch %d, gen %d)", g.epoch, g.flatGen)
		}
		g.Add(types.Tuple{types.Int(2)}, 1)
		if _, ok := g.Freeze().AppendFlatDelta(nil, base); ok {
			t.Fatal("delta eligible across an epoch wrap")
		}
		// The post-wrap store must still delta correctly against a post-wrap base.
		img := g.Freeze().AppendFlat(nil)
		nb := g.Freeze().FlatBase()
		g.Add(types.Tuple{types.Int(3)}, 1)
		delta, ok := g.Freeze().AppendFlatDelta(nil, nb)
		if !ok {
			t.Fatal("post-wrap snapshot not delta-eligible against post-wrap base")
		}
		restored, err := LoadFlat(img)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.ApplyFlatDelta(delta); err != nil {
			t.Fatalf("post-wrap ApplyFlatDelta: %v", err)
		}
		if got, want := restored.AppendFlat(nil), g.AppendFlat(nil); !bytes.Equal(got, want) {
			t.Fatal("post-wrap composed store differs")
		}
	})
}

// deltaFixture builds a (base image, valid delta) pair for the corruption
// tests: the delta spans tombstone reuse and fresh inserts over a churned
// store.
func deltaFixture(t *testing.T, seed int64) (baseImg, delta []byte) {
	t.Helper()
	baseImg, delta = deltaFixtureBytes(seed)
	if delta == nil {
		t.Fatal("fixture delta not eligible at any tried seed; adjust churn sizes")
	}
	return baseImg, delta
}

func deltaFixtureBytes(seed int64) (baseImg, delta []byte) {
	// The churn is random, so a given seed may compact the arena and lose
	// delta eligibility — retry nearby seeds until one stays eligible.
	for s := seed; s < seed+32; s++ {
		rng := rand.New(rand.NewSource(s))
		g := churnStore(rng, types.Schema{"a", "b"}, 300)
		snap := g.Freeze()
		img := snap.AppendFlat(nil)
		base := snap.FlatBase()
		churnExisting(rng, g, 25)
		if d, ok := g.Freeze().AppendFlatDelta(nil, base); ok {
			return img, d
		}
	}
	return nil, nil
}

// TestFlatDeltaTruncated feeds every proper prefix of a delta to
// ApplyFlatDelta; all must fail with an error, never a panic.
func TestFlatDeltaTruncated(t *testing.T) {
	baseImg, delta := deltaFixture(t, 5)
	for n := 0; n < len(delta); n++ {
		g, err := LoadFlat(baseImg)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.ApplyFlatDelta(delta[:n]); err == nil {
			t.Fatalf("ApplyFlatDelta of %d/%d-byte prefix succeeded", n, len(delta))
		}
	}
	g, err := LoadFlat(baseImg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.ApplyFlatDelta(append(append([]byte(nil), delta...), 0xEE)); err == nil {
		t.Fatal("ApplyFlatDelta accepted trailing bytes")
	}
}

// TestFlatDeltaBitFlips flips bits across serialized deltas. Every flip must
// either be rejected with an error or compose into a fully self-consistent
// store (data-only flips — multiplicities, dead-byte counts — are beneath
// this layer's visibility; the wal CRC catches them end-to-end), and must
// never panic.
func TestFlatDeltaBitFlips(t *testing.T) {
	baseImg, delta := deltaFixture(t, 9)
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 1500; trial++ {
		mut := append([]byte(nil), delta...)
		pos := rng.Intn(len(mut))
		mut[pos] ^= 1 << uint(rng.Intn(8))
		g, err := LoadFlat(baseImg)
		if err != nil {
			t.Fatal(err)
		}
		err = func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("flip at byte %d: ApplyFlatDelta panicked: %v", pos, r)
				}
			}()
			return g.ApplyFlatDelta(mut)
		}()
		if err != nil {
			continue
		}
		// Accepted: the composed store must itself round-trip cleanly.
		if _, err := LoadFlat(g.AppendFlat(nil)); err != nil {
			t.Fatalf("flip at byte %d: accepted delta composed an unloadable store: %v", pos, err)
		}
	}
}

// TestFlatDeltaSealed pins the misuse guard: applying onto a frozen snapshot
// must error, not panic or mutate shared state.
func TestFlatDeltaSealed(t *testing.T) {
	baseImg, delta := deltaFixture(t, 11)
	g, err := LoadFlat(baseImg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Freeze().ApplyFlatDelta(delta); err == nil {
		t.Fatal("ApplyFlatDelta on a sealed snapshot succeeded")
	}
}

// FuzzApplyFlatDelta throws arbitrary bytes at the delta decoder over a fixed
// churned base. The decoder contract matches LoadFlat's: error, never panic,
// and an accepted delta composes a store that answers lookups.
func FuzzApplyFlatDelta(f *testing.F) {
	baseImg, valid := deltaFixtureBytes(42)
	if valid == nil {
		f.Fatal("fixture delta not eligible")
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(deltaMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := LoadFlat(baseImg)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.ApplyFlatDelta(data); err != nil {
			return
		}
		checkLookups(t, st)
		if _, err := LoadFlat(st.AppendFlat(nil)); err != nil {
			t.Fatalf("accepted delta composed an unloadable store: %v", err)
		}
	})
}
