package gmr

import (
	"testing"

	"dbtoaster/internal/types"
)

// Microbenchmarks of the flat store's hot operations. CI runs one iteration
// of each (go test -bench -benchtime=1x) so regressions in the table itself
// fail fast, independent of the end-to-end query benchmarks.

func benchTuples(n int) []types.Tuple {
	out := make([]types.Tuple, n)
	for i := range out {
		out[i] = types.Tuple{types.Int(int64(i)), types.Int(int64(i % 97))}
	}
	return out
}

// BenchmarkFlatUpsert measures steady-state in-place accumulation: every
// add lands on an existing entry through a reused key buffer.
func BenchmarkFlatUpsert(b *testing.B) {
	tuples := benchTuples(4096)
	g := New(types.Schema{"a", "b"})
	keys := make([][]byte, len(tuples))
	for i, tu := range tuples {
		keys[i] = tu.AppendKey(nil)
		g.AddEncoded(keys[i], tu, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & 4095
		g.AddEncoded(keys[j], tuples[j], 1)
	}
}

// BenchmarkFlatLookup measures byte-keyed point lookups on a warm table.
func BenchmarkFlatLookup(b *testing.B) {
	tuples := benchTuples(4096)
	g := New(types.Schema{"a", "b"})
	keys := make([][]byte, len(tuples))
	for i, tu := range tuples {
		keys[i] = tu.AppendKey(nil)
		g.AddEncoded(keys[i], tu, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.GetEncoded(keys[i&4095]) == 0 {
			b.Fatal("missing entry")
		}
	}
}

// BenchmarkFlatChurn measures the delete-heavy cycle: insert then cancel,
// exercising backward-shift deletion, slot reuse and arena accounting.
func BenchmarkFlatChurn(b *testing.B) {
	tuples := benchTuples(1024)
	g := New(types.Schema{"a", "b"})
	keys := make([][]byte, len(tuples))
	for i, tu := range tuples {
		keys[i] = tu.AppendKey(nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & 1023
		g.AddEncoded(keys[j], tuples[j], 1)
		g.AddEncoded(keys[j], tuples[j], -1)
	}
}

// BenchmarkFlatIterate measures the linear live-slot walk of a warm table.
func BenchmarkFlatIterate(b *testing.B) {
	g := New(types.Schema{"a", "b"})
	for _, tu := range benchTuples(4096) {
		g.Add(tu, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0.0
		g.Foreach(func(t types.Tuple, m float64) { total += m })
		if total != 4096 {
			b.Fatal("bad sum")
		}
	}
}

// BenchmarkFlatMergeInto measures the delta-merge path, which reuses the
// source table's key bytes and cached hashes.
func BenchmarkFlatMergeInto(b *testing.B) {
	dst := New(types.Schema{"a", "b"})
	delta := New(types.Schema{"a", "b"})
	for i, tu := range benchTuples(1024) {
		dst.Add(tu, 1)
		if i%2 == 0 {
			delta.Add(tu, 1)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := 1.0
		if i%2 == 1 {
			f = -1 // undo the previous merge so dst stays at working-set size
		}
		dst.MergeInto(delta, f)
	}
}

// BenchmarkProject measures the group-collapsing projection, whose
// steady-state emission is in-place accumulation.
func BenchmarkProject(b *testing.B) {
	g := New(types.Schema{"a", "b"})
	for _, tu := range benchTuples(4096) {
		g.Add(tu, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Project(g, types.Schema{"b"})
	}
}
