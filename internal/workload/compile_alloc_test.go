package workload

import (
	"testing"

	"dbtoaster/internal/compiler"
)

// compileInputs returns Q3's spec and the 18 workload queries combined into
// one multi-query spec: the single-query and the shared compile inputs.
func compileInputs(tb testing.TB) (Spec, *MultiSpec) {
	tb.Helper()
	q3, ok := Get("Q3")
	if !ok {
		tb.Fatal("no Q3 workload")
	}
	var names []string
	for _, spec := range All() {
		names = append(names, spec.Name)
	}
	ms, err := Combine(names)
	if err != nil {
		tb.Fatal(err)
	}
	return q3, ms
}

// TestCompileAllocs pins the compiler's allocations: CompileSet of the 18
// workload queries and Compile of Q3, in DBToaster mode. The variable
// analysis builds no set per node and each map's canonical key is computed
// once from its normalized definition, and each expression is simplified
// once; an analysis that starts copying sets again, or a key or a
// materialization that re-simplifies, fails it. The race detector's
// instrumentation allocates on its own, so the pin holds only without it.
func TestCompileAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts do not apply under the race detector")
	}
	q3, ms := compileInputs(t)
	opts := compiler.OptionsFor(compiler.ModeDBToaster)
	set := testing.AllocsPerRun(3, func() {
		if _, _, err := compiler.CompileSet(ms.Queries, ms.Catalog, opts); err != nil {
			t.Fatal(err)
		}
	})
	one := testing.AllocsPerRun(5, func() {
		if _, err := compiler.Compile(q3.Query, q3.Catalog, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("CompileSet(18): %.0f allocs, Compile(Q3): %.0f allocs", set, one)
	if set > 150000 {
		t.Errorf("CompileSet of the 18 queries allocates %.0f times, want <= 150000", set)
	}
	if one > 9500 {
		t.Errorf("Compile of Q3 allocates %.0f times, want <= 9500", one)
	}
}

// BenchmarkCompileSet18 times CompileSet of the 18 workload queries in
// DBToaster mode, the compile step of the shared-18 workload's setup.
func BenchmarkCompileSet18(b *testing.B) {
	_, ms := compileInputs(b)
	opts := compiler.OptionsFor(compiler.ModeDBToaster)
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := compiler.CompileSet(ms.Queries, ms.Catalog, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileQ3 times Compile of Q3 in DBToaster mode.
func BenchmarkCompileQ3(b *testing.B) {
	q3, _ := compileInputs(b)
	opts := compiler.OptionsFor(compiler.ModeDBToaster)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := compiler.Compile(q3.Query, q3.Catalog, opts); err != nil {
			b.Fatal(err)
		}
	}
}
