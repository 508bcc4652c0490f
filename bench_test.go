// Package main_test hosts the benchmark harness that regenerates every table
// and figure of the paper's evaluation (§9). Each benchmark prints the
// corresponding rows/series through b.Log, so running
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation at a laptop-friendly scale. The absolute
// refresh rates differ from the paper's generated-C++ numbers (this runtime
// runs trigger statements as Go closure pipelines compiled at run time, with
// the interpreter as fallback, rather than as generated native code), but the
// relative ordering between REP, IVM, Naive and DBToaster — the paper's
// claim — is preserved.
package main_test

import (
	"fmt"
	"testing"
	"time"

	"dbtoaster/internal/bench"
	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/types"
	"dbtoaster/internal/workload"
)

func benchOpts() bench.Options {
	return bench.Options{Scale: 0.2, Seed: 1, Budget: 800 * time.Millisecond}
}

// runCell benchmarks a single (query, system) cell of Figure 6/7.
func runCell(b *testing.B, query string, sys bench.System) {
	spec, ok := workload.Get(query)
	if !ok {
		b.Fatalf("unknown query %s", query)
	}
	opts := benchOpts()
	b.ReportAllocs()
	b.ResetTimer()
	var last bench.Result
	for i := 0; i < b.N; i++ {
		last = bench.Run(spec, sys, opts)
		if last.Err != nil {
			b.Fatal(last.Err)
		}
	}
	b.ReportMetric(last.RefreshRate, "refreshes/s")
	b.ReportMetric(float64(last.MemBytes)/1024, "viewKB")
}

// --- Planned statements: re-evaluation tails and nested-aggregate deltas -----

// benchEngine compiles the query in DBToaster mode and applies the events.
func benchEngine(b *testing.B, query string, events []engine.Event) *engine.Engine {
	spec, ok := workload.Get(query)
	if !ok {
		b.Fatalf("unknown query %s", query)
	}
	prog, err := compiler.Compile(spec.Query, spec.Catalog, compiler.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(prog)
	for name, data := range spec.Statics() {
		eng.LoadStatic(name, data)
	}
	if err := eng.Init(); err != nil {
		b.Fatal(err)
	}
	if err := eng.ApplyBatch(engine.NewBatch(events)); err != nil {
		b.Fatal(err)
	}
	return eng
}

// BenchmarkReevalTail times one re-evaluation of an order-book query over a
// book of the given number of bids and of asks, all at distinct prices: every
// iteration places or cancels one bid, which runs the trigger's "Q := …" tail
// once (the increments beside it are point updates). ns/tail against the book
// size is the tail's complexity; docs/architecture.md, "Statement planning",
// says what it should be.
func BenchmarkReevalTail(b *testing.B) {
	order := func(i int) types.Tuple {
		return types.Tuple{types.Int(int64(i)), types.Int(int64(i)), types.Int(int64(i % 10)),
			types.Int(int64(10000 + i)), types.Int(int64(1 + i%1000))}
	}
	for _, q := range []string{"VWAP", "MST", "PSP"} {
		for _, book := range []int{64, 256, 1024} {
			b.Run(fmt.Sprintf("%s/book=%d", q, book), func(b *testing.B) {
				events := make([]engine.Event, 0, 2*book)
				for i := 0; i < book; i++ {
					events = append(events,
						engine.Event{Relation: "BIDS", Insert: true, Tuple: order(i)},
						engine.Event{Relation: "ASKS", Insert: true, Tuple: order(i)})
				}
				eng := benchEngine(b, q, events)
				extra := engine.Event{Relation: "BIDS", Tuple: order(book)}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					extra.Insert = i%2 == 0
					if err := eng.Apply(extra); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tail")
			})
		}
	}
}

// BenchmarkNestedDelta times LINEITEM events on the two queries whose delta
// goes through an equality-correlated nested aggregate: every iteration
// cancels and re-places one line item of a warmed engine.
func BenchmarkNestedDelta(b *testing.B) {
	for _, q := range []string{"Q17a", "Q18a"} {
		b.Run(q, func(b *testing.B) {
			spec, _ := workload.Get(q)
			events := spec.Stream(0.2, 1)
			eng := benchEngine(b, q, events)
			var items []engine.Event
			for _, ev := range events {
				if ev.Relation == "LINEITEM" && ev.Insert {
					items = append(items, ev)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := items[i%len(items)]
				for _, insert := range []bool{false, true} {
					ev.Insert = insert
					if err := eng.Apply(ev); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/event")
		})
	}
}

// --- Figure 6 / Figure 7: per-query refresh rates for every system ---------

func BenchmarkFig7TPCHQ1DBToaster(b *testing.B)      { runCell(b, "Q1", bench.Systems[3]) }
func BenchmarkFig7TPCHQ1IVM(b *testing.B)            { runCell(b, "Q1", bench.Systems[1]) }
func BenchmarkFig7TPCHQ1REP(b *testing.B)            { runCell(b, "Q1", bench.Systems[0]) }
func BenchmarkFig7TPCHQ3DBToaster(b *testing.B)      { runCell(b, "Q3", bench.Systems[3]) }
func BenchmarkFig7TPCHQ3IVM(b *testing.B)            { runCell(b, "Q3", bench.Systems[1]) }
func BenchmarkFig7TPCHQ3REP(b *testing.B)            { runCell(b, "Q3", bench.Systems[0]) }
func BenchmarkFig7TPCHQ6DBToaster(b *testing.B)      { runCell(b, "Q6", bench.Systems[3]) }
func BenchmarkFig7TPCHQ6REP(b *testing.B)            { runCell(b, "Q6", bench.Systems[0]) }
func BenchmarkFig7TPCHQ18aDBToaster(b *testing.B)    { runCell(b, "Q18a", bench.Systems[3]) }
func BenchmarkFig7TPCHQ18aIVM(b *testing.B)          { runCell(b, "Q18a", bench.Systems[1]) }
func BenchmarkFig7FinanceVWAPDBToaster(b *testing.B) { runCell(b, "VWAP", bench.Systems[3]) }
func BenchmarkFig7FinanceVWAPIVM(b *testing.B)       { runCell(b, "VWAP", bench.Systems[1]) }
func BenchmarkFig7FinancePSPDBToaster(b *testing.B)  { runCell(b, "PSP", bench.Systems[3]) }
func BenchmarkFig7FinancePSPREP(b *testing.B)        { runCell(b, "PSP", bench.Systems[0]) }
func BenchmarkFig7FinanceBSVDBToaster(b *testing.B)  { runCell(b, "BSV", bench.Systems[3]) }
func BenchmarkFig7MDDB1DBToaster(b *testing.B)       { runCell(b, "MDDB1", bench.Systems[3]) }

// BenchmarkFig7FullTable runs the whole Figure 7 matrix once and logs it.
func BenchmarkFig7FullTable(b *testing.B) {
	opts := benchOpts()
	opts.Budget = 400 * time.Millisecond
	var table string
	for i := 0; i < b.N; i++ {
		results := bench.RunAll(workload.Names(""), opts)
		table = bench.FormatRefreshTable(results)
	}
	b.Log("\nFigure 7 (view refreshes per second):\n" + table)
}

// --- Figures 8-10: refresh-rate and memory traces over the stream ----------

func runTrace(b *testing.B, query string) {
	spec, ok := workload.Get(query)
	if !ok {
		b.Fatalf("unknown query %s", query)
	}
	opts := benchOpts()
	var rendered string
	for i := 0; i < b.N; i++ {
		rendered = ""
		for _, sys := range []bench.System{{Name: "DBToaster", Mode: compiler.ModeDBToaster}, {Name: "IVM", Mode: compiler.ModeIVM}} {
			points, err := bench.Trace(spec, sys, opts, 10)
			if err != nil {
				b.Fatal(err)
			}
			rendered += bench.FormatTrace(query, sys.Name, points)
		}
	}
	b.Log("\n" + rendered)
}

func BenchmarkFig8TraceQ1(b *testing.B)    { runTrace(b, "Q1") }
func BenchmarkFig8TraceQ3(b *testing.B)    { runTrace(b, "Q3") }
func BenchmarkFig8TraceQ11a(b *testing.B)  { runTrace(b, "Q11a") }
func BenchmarkFig9TraceQ17a(b *testing.B)  { runTrace(b, "Q17a") }
func BenchmarkFig9TraceQ12(b *testing.B)   { runTrace(b, "Q12") }
func BenchmarkFig9TraceQ22a(b *testing.B)  { runTrace(b, "Q22a") }
func BenchmarkFig9TraceQ18a(b *testing.B)  { runTrace(b, "Q18a") }
func BenchmarkFig10TraceAXF(b *testing.B)  { runTrace(b, "AXF") }
func BenchmarkFig10TracePSP(b *testing.B)  { runTrace(b, "PSP") }
func BenchmarkFig10TraceVWAP(b *testing.B) { runTrace(b, "VWAP") }
func BenchmarkFig10TraceMST(b *testing.B)  { runTrace(b, "MST") }

// --- Figure 11: stream-length scaling ---------------------------------------

func BenchmarkFig11Scaling(b *testing.B) {
	queries := []string{"Q1", "Q3", "Q6", "Q11a", "Q12", "Q17a", "Q18a"}
	scales := []float64{0.1, 0.2, 0.5, 1.0}
	opts := benchOpts()
	opts.Budget = 2 * time.Second
	var rendered string
	for i := 0; i < b.N; i++ {
		rendered = ""
		for _, q := range queries {
			spec, _ := workload.Get(q)
			points, err := bench.Scaling(spec, scales, opts)
			if err != nil {
				b.Fatal(err)
			}
			rendered += bench.FormatScaling(q, points)
		}
	}
	b.Log("\nFigure 11 (refresh rate vs stream length, relative to smallest scale):\n" + rendered)
}

// --- Figure 2: workload features and compilation decisions ------------------

func BenchmarkFig2Compile(b *testing.B) {
	var table string
	for i := 0; i < b.N; i++ {
		infos, err := bench.CompileAll()
		if err != nil {
			b.Fatal(err)
		}
		table = bench.FormatCompileTable(infos)
	}
	b.Log("\nFigure 2 (workload features and compiled program shape):\n" + table)
}
