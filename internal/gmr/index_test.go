package gmr

import (
	"math/rand"
	"reflect"
	"testing"

	"dbtoaster/internal/types"
)

// TestIndexLayoutSizes pins the record sizes MemSize counts the index
// arrays, the store header, the slot records and the value slab with; the
// slot record holds no tuple and stays at 32 bytes.
func TestIndexLayoutSizes(t *testing.T) {
	if got := reflect.TypeFor[bucket]().Size(); got != bucketBytes {
		t.Errorf("bucket is %d bytes, bucketBytes says %d", got, bucketBytes)
	}
	if got := reflect.TypeFor[secondaryIndex]().Size(); got != indexHeaderBytes {
		t.Errorf("secondaryIndex is %d bytes, indexHeaderBytes says %d", got, indexHeaderBytes)
	}
	if got := reflect.TypeFor[slot]().Size(); got != slotBytes || slotBytes != 32 {
		t.Errorf("slot is %d bytes, slotBytes says %d, want 32", got, slotBytes)
	}
	if got := reflect.TypeFor[types.Value]().Size(); got != valueBytes {
		t.Errorf("types.Value is %d bytes, valueBytes says %d", got, valueBytes)
	}
	if got := reflect.TypeFor[GMR]().Size(); got != headerBytes {
		t.Errorf("GMR is %d bytes, headerBytes says %d", got, headerBytes)
	}
}

// TestIndexMemoryBoundedUnderChurn churns rounds of fresh keys through an
// indexed store that drains after each round: a removed key's bucket, key
// bytes and posting run must be released, so the store's footprint after
// the last round matches the first instead of growing by a bucket for
// every key it ever held.
func TestIndexMemoryBoundedUnderChurn(t *testing.T) {
	const rounds, keys = 4, 50000
	g := New(types.Schema{"a", "b"})
	g.Index([]int{0})
	var first int
	for r := 0; r < rounds; r++ {
		tuples := make([]types.Tuple, keys)
		for i := range tuples {
			tuples[i] = types.Tuple{types.Int(int64(r*keys + i)), types.Int(int64(i % 7))}
			g.Add(tuples[i], 1)
		}
		for _, tu := range tuples {
			g.Add(tu, -1)
		}
		if g.Len() != 0 {
			t.Fatalf("round %d: Len = %d after cancelling every entry", r+1, g.Len())
		}
		if r == 0 {
			first = g.MemSize()
		}
	}
	if last := g.MemSize(); float64(last) > 1.05*float64(first) {
		t.Fatalf("MemSize grew from %d B after round 1 to %d B after round %d", first, last, rounds)
	}
}

// FuzzIndexOps is a differential fuzz of the flat secondary indexes: the
// input bytes drive a sequence of positive and cancelling AddEncoded, Set,
// Clear, Reset, Freeze (so the next write is the first after it) and a late
// Index over the existing contents, and after every operation each posting
// is held to the brute-force filter of the live slots (assertPostings) and
// the contents to a map reference.
func FuzzIndexOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 2, 9, 1, 2, 0, 5, 2, 15, 0, 0, 9, 3, 2})
	f.Add([]byte{13, 0, 0, 0, 4, 4, 9, 4, 4, 14, 1, 0, 0, 200, 1, 9, 200, 1})
	for _, seed := range []int64{1, 2} {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3*250)
		for i := range data {
			data[i] = byte(rng.Intn(256))
			if i%3 == 0 && rng.Intn(4) == 0 {
				data[i] = 9 // extra cancellations drain buckets
			}
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*256 {
			data = data[:3*256]
		}
		g := New(types.Schema{"a", "b"})
		ref := newRefModel()
		g.Index([]int{0})
		var buf []byte
		for step := 0; len(data) >= 3; step++ {
			op, x, y := data[0], data[1], data[2]
			data = data[3:]
			// Long string values fill the key arenas, so compaction is
			// within reach of short inputs; small ints share buckets.
			a := types.Int(int64(x % 48))
			if x >= 192 {
				a = types.Str(strings64[x%4] + string(rune('A'+x%26)))
			}
			tu := types.Tuple{a, types.Int(int64(y % 8))}
			switch op % 16 {
			case 0, 1, 2, 3, 4, 5, 6, 7, 8: // positive add
				m := float64(1 + op%3)
				buf = tu.AppendKey(buf[:0])
				g.AddEncoded(buf, tu, m)
				ref.add(tu, m)
			case 9, 10, 11: // cancel the entry exactly (or add a negative one)
				m := -g.Get(tu)
				if m == 0 {
					m = -1
				}
				buf = tu.AppendKey(buf[:0])
				g.AddEncoded(buf, tu, m)
				ref.add(tu, m)
			case 12:
				m := float64(int(y%3) - 1)
				g.Set(tu, m)
				ref.set(tu, m)
			case 13:
				g.Freeze()
			case 14:
				if y%2 == 0 {
					g.Reset()
				} else {
					g.Clear()
				}
				ref.reset()
			case 15: // late index over the current contents
				g.Index([][]int{{1}, {1, 0}, {0, 1}}[y%3])
			}
			assertPostings(t, step, g)
			if g.Len() != len(ref.mult) {
				t.Fatalf("step %d: Len = %d, reference has %d entries", step, g.Len(), len(ref.mult))
			}
		}
		assertSame(t, -1, g, ref)
	})
}
