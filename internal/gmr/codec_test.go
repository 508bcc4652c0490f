package gmr

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dbtoaster/internal/types"
)

// churnStore builds a store through a random insert/delete history so the
// serialized image exercises grow boundaries, tombstone/freelist churn and
// (for long histories) arena compaction — the layouts the checkpoint codec
// must reproduce exactly.
func churnStore(rng *rand.Rand, schema types.Schema, ops int) *GMR {
	g := New(schema)
	var keys []types.Tuple
	randTuple := func() types.Tuple {
		t := make(types.Tuple, len(schema))
		for i := range t {
			switch rng.Intn(4) {
			case 0:
				t[i] = types.Int(rng.Int63n(200))
			case 1:
				t[i] = types.Float(float64(rng.Intn(50)) + 0.5)
			case 2:
				b := make([]byte, rng.Intn(20))
				rng.Read(b)
				t[i] = types.Str(string(b))
			default:
				t[i] = types.Null()
			}
		}
		return t
	}
	for i := 0; i < ops; i++ {
		if len(keys) > 0 && rng.Intn(3) == 0 {
			// Delete: drive an existing entry's multiplicity to zero.
			j := rng.Intn(len(keys))
			t := keys[j]
			if m := g.Get(t); m != 0 {
				g.Add(t, -m)
			}
			keys[j] = keys[len(keys)-1]
			keys = keys[:len(keys)-1]
			continue
		}
		t := randTuple()
		g.Add(t, float64(rng.Intn(9))-4)
		keys = append(keys, t)
	}
	return g
}

// TestFlatCodecRoundTrip fuzzes AppendFlat/LoadFlat over churned stores. The
// byte-equality assertion is the strong one: the reloaded store must
// re-serialize to the identical bytes, which pins slot ids, free-list order
// and arena layout (dead bytes included) — the verbatim layout the recovery
// byte-equality guarantee depends on.
func TestFlatCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	schemas := []types.Schema{
		{},
		{"a"},
		{"a", "b"},
		{"k1", "k2", "k3"},
	}
	for trial := 0; trial < 60; trial++ {
		schema := schemas[trial%len(schemas)]
		ops := []int{0, 1, 5, 9, 40, 300, 3000}[trial%7]
		g := churnStore(rng, schema, ops)
		img := g.AppendFlat(nil)
		got, err := LoadFlat(img)
		if err != nil {
			t.Fatalf("trial %d (schema %v, ops %d): LoadFlat: %v", trial, schema, ops, err)
		}
		if !Equal(g, got, 0) {
			t.Fatalf("trial %d: reloaded store differs in contents:\n%v\nvs\n%v", trial, g, got)
		}
		if re := got.AppendFlat(nil); !bytes.Equal(re, img) {
			t.Fatalf("trial %d: re-serialization differs (len %d vs %d)", trial, len(re), len(img))
		}
		// Continued identical mutations must stay in lockstep: same slot ids,
		// same layout decisions.
		for i := 0; i < 50; i++ {
			tup := make(types.Tuple, len(schema))
			for j := range tup {
				tup[j] = types.Int(rng.Int63n(100))
			}
			m := float64(rng.Intn(7)) - 3
			if m == 0 {
				m = 1
			}
			g.Add(tup, m)
			got.Add(tup, m)
		}
		if a, b := g.AppendFlat(nil), got.AppendFlat(nil); !bytes.Equal(a, b) {
			t.Fatalf("trial %d: stores diverged after post-load mutations", trial)
		}
	}
}

// TestFlatCodecFrozenSource checkpoints from a frozen snapshot while the
// source keeps mutating — the engine's actual usage.
func TestFlatCodecFrozenSource(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := churnStore(rng, types.Schema{"a", "b"}, 500)
	snap := g.Freeze()
	want := snap.AppendFlat(nil)
	for i := 0; i < 200; i++ {
		g.Add(types.Tuple{types.Int(int64(i)), types.Str("post-freeze")}, 1)
	}
	if img := snap.AppendFlat(nil); !bytes.Equal(img, want) {
		t.Fatal("frozen snapshot image changed under source mutation")
	}
	loaded, err := LoadFlat(want)
	if err != nil {
		t.Fatalf("LoadFlat of frozen image: %v", err)
	}
	if !Equal(loaded, snap, 0) {
		t.Fatal("loaded store differs from frozen snapshot")
	}
	if loaded.sealed() {
		t.Fatal("loaded store must be mutable, not sealed")
	}
	loaded.Add(types.Tuple{types.Int(1), types.Str("x")}, 2) // must not panic
}

// TestFlatCodecTruncated feeds every proper prefix of a serialized store to
// LoadFlat; all must fail with an error, never a panic or partial store.
func TestFlatCodecTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	img := churnStore(rng, types.Schema{"a", "b"}, 120).AppendFlat(nil)
	for n := 0; n < len(img); n++ {
		g, err := LoadFlat(img[:n])
		if err == nil {
			t.Fatalf("LoadFlat of %d/%d-byte prefix succeeded: %v", n, len(img), g)
		}
		if g != nil {
			t.Fatalf("LoadFlat of %d-byte prefix returned partial store alongside error", n)
		}
	}
	// Trailing garbage must also be rejected — a checkpoint section's length
	// must match its content exactly.
	if _, err := LoadFlat(append(append([]byte(nil), img...), 0xEE)); err == nil {
		t.Fatal("LoadFlat accepted trailing bytes")
	}
}

// TestFlatCodecBitFlips flips bits across serialized images. Structural
// fields must be caught with a diagnostic error; flips that land in pure data
// (multiplicities, dead-byte counts) are indistinguishable from real data at
// this layer — those must load cleanly and re-serialize to exactly the
// flipped image, never crash or produce an inconsistent store. (End-to-end
// detection of data flips is the checkpoint file's CRC, in package wal.)
func TestFlatCodecBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	img := churnStore(rng, types.Schema{"a", "b"}, 200).AppendFlat(nil)
	for trial := 0; trial < 2000; trial++ {
		mut := append([]byte(nil), img...)
		pos := rng.Intn(len(mut))
		mut[pos] ^= 1 << uint(rng.Intn(8))
		g, err := func() (g *GMR, err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("flip at byte %d: LoadFlat panicked: %v", pos, r)
				}
			}()
			return LoadFlat(mut)
		}()
		if err != nil {
			continue
		}
		if re := g.AppendFlat(nil); !bytes.Equal(re, mut) {
			t.Fatalf("flip at byte %d: load succeeded but re-serialization differs", pos)
		}
	}
}

// TestFlatCodecEmptyAndScalar covers the degenerate stores the engine
// actually checkpoints: empty views and nullary scalar views.
func TestFlatCodecEmptyAndScalar(t *testing.T) {
	for _, g := range []*GMR{
		New(types.Schema{"a", "b"}),
		NewScalar(42.5),
		NewScalar(0), // scalar zero: empty nullary store
	} {
		img := g.AppendFlat(nil)
		got, err := LoadFlat(img)
		if err != nil {
			t.Fatalf("LoadFlat: %v", err)
		}
		if !Equal(g, got, 0) {
			t.Fatalf("reloaded store differs: %v vs %v", g, got)
		}
		if re := got.AppendFlat(nil); !bytes.Equal(re, img) {
			t.Fatal("re-serialization differs")
		}
	}
}

// TestLoadFlatAllocs pins recovery's allocation count: LoadFlat decodes
// every live slot's values into one slab instead of allocating a tuple per
// entry, so a store of numeric columns loads with the same number of
// allocations at 100 entries as at 10 000.
func TestLoadFlatAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		g := New(types.Schema{"a", "b"})
		for i := 0; i < n; i++ {
			g.Add(types.Tuple{types.Int(int64(i)), types.Float(float64(i) + 0.5)}, 1)
		}
		for i := 0; i < n; i += 10 {
			g.Add(types.Tuple{types.Int(int64(i)), types.Float(float64(i) + 0.5)}, -1)
		}
		img := g.AppendFlat(nil)
		return testing.AllocsPerRun(5, func() {
			if _, err := LoadFlat(img); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(100), allocs(10000); large != small {
		t.Fatalf("LoadFlat allocated %.0f times for 100 entries and %.0f for 10000", small, large)
	}
}

func BenchmarkFlatCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := churnStore(rng, types.Schema{"a", "b"}, 20000)
	img := g.AppendFlat(nil)
	b.Run(fmt.Sprintf("append/%dkeys", g.Len()), func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, len(img))
		for i := 0; i < b.N; i++ {
			buf = g.AppendFlat(buf[:0])
		}
	})
	b.Run(fmt.Sprintf("load/%dkeys", g.Len()), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := LoadFlat(img); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// FuzzLoadFlat throws arbitrary bytes at the flat-image decoder, seeded with
// the churned images of the delta fixtures. Any input must either be
// rejected or load into a store that re-serializes byte-identically, whose
// every live slot holds a tuple that re-encodes to its stored key, and that
// answers lookups (checkLookups).
func FuzzLoadFlat(f *testing.F) {
	for _, seed := range []int64{5, 9, 42} {
		baseImg, delta := deltaFixtureBytes(seed)
		if delta == nil {
			f.Fatalf("fixture delta not eligible at seed %d", seed)
		}
		g, err := LoadFlat(baseImg)
		if err != nil {
			f.Fatal(err)
		}
		if err := g.ApplyFlatDelta(delta); err != nil {
			f.Fatal(err)
		}
		f.Add(baseImg)
		f.Add(g.AppendFlat(nil))
	}
	f.Add(New(types.Schema{"a"}).AppendFlat(nil))
	f.Add([]byte(flatMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := LoadFlat(data)
		if err != nil {
			return
		}
		if out := g.AppendFlat(nil); !bytes.Equal(out, data) {
			t.Fatalf("loaded store re-serializes to %d different bytes (input %d)", len(out), len(data))
		}
		var buf []byte
		for i := range g.slots {
			s := &g.slots[i]
			if s.dead {
				continue
			}
			if buf = g.tupleAt(int32(i)).AppendKey(buf[:0]); !bytes.Equal(buf, g.keyAt(s)) {
				t.Fatalf("slot %d: tuple %v re-encodes to %x, stored key %x", i, g.tupleAt(int32(i)), buf, g.keyAt(s))
			}
		}
		checkLookups(t, g)
	})
}

// checkLookups holds a store's probe table to its slots: GetEncoded finds
// every live key with its slot's multiplicity, and misses a key no store
// holds (0xff is no key codec tag). A full probe table makes that miss spin
// forever.
func checkLookups(t *testing.T, g *GMR) {
	t.Helper()
	for i := range g.slots {
		s := &g.slots[i]
		if s.dead {
			continue
		}
		if m := g.GetEncoded(g.keyAt(s)); math.Float64bits(m) != math.Float64bits(s.mult) {
			t.Fatalf("slot %d: GetEncoded = %v, slot holds %v", i, m, s.mult)
		}
	}
	if m := g.GetEncoded([]byte{0xff}); m != 0 {
		t.Fatalf("GetEncoded of an absent key = %v", m)
	}
}

// TestLoadRefusesDuplicateKeys forges an image and a delta in which two live
// slots reference the same key bytes. Every other check passes on them, so
// the probe-table rebuild must refuse them, naming both slots.
func TestLoadRefusesDuplicateKeys(t *testing.T) {
	g := New(types.Schema{"a"})
	g.Add(tup(1), 1)
	g.Add(tup(2), 1)
	img := g.AppendFlat(nil)
	// The image ends with slot records 0 and 1 (the free list is empty);
	// point slot 1's key reference (bytes 8..16 of a record) at slot 0's.
	rec0 := len(img) - 2*flatSlotBytes
	copy(img[rec0+flatSlotBytes+8:rec0+flatSlotBytes+16], img[rec0+8:rec0+16])
	if _, err := LoadFlat(img); err == nil || !strings.Contains(err.Error(), "slots 0 and 1") {
		t.Fatalf("LoadFlat of a duplicate key: err = %v, want one naming slots 0 and 1", err)
	}

	b := New(types.Schema{"a"})
	b.Add(tup(1), 1)
	snap := b.Freeze()
	baseImg, base := snap.AppendFlat(nil), snap.FlatBase()
	b.Add(tup(2), 1)
	delta, ok := b.Freeze().AppendFlatDelta(nil, base)
	if !ok {
		t.Fatal("delta ineligible")
	}
	// The delta ends with slot 1's dirty record: id(4), then the slot
	// record. Slot 0's key sits at arena offset 0.
	binary.LittleEndian.PutUint32(delta[len(delta)-flatSlotBytes+8:], 0)
	st, err := LoadFlat(baseImg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ApplyFlatDelta(delta); err == nil || !strings.Contains(err.Error(), "slots 0 and 1") {
		t.Fatalf("ApplyFlatDelta of a duplicate key: err = %v, want one naming slots 0 and 1", err)
	}
}
