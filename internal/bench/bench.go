// Package bench is the experiment harness that regenerates the tables and
// figures of the paper's evaluation (§9): per-query view refresh rates for
// every compared system (Figures 6 and 7), refresh-rate and memory traces
// over the stream (Figures 8–10), stream-length scaling (Figure 11), and the
// per-query compilation statistics of Figure 2.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/trigger"
	"dbtoaster/internal/workload"
)

// System identifies one compared view-maintenance strategy.
type System struct {
	Name string
	Mode compiler.Mode
}

// Systems lists the strategies compared throughout the evaluation, in the
// order the paper's Figure 7 presents them.
var Systems = []System{
	{"REP", compiler.ModeREP},
	{"IVM", compiler.ModeIVM},
	{"Naive", compiler.ModeNaive},
	{"DBToaster", compiler.ModeDBToaster},
}

// Result is the outcome of running one (query, system) cell.
type Result struct {
	Query       string
	System      string
	Events      int
	Elapsed     time.Duration
	RefreshRate float64 // complete view refreshes per second
	MemBytes    int
	NumMaps     int
	TimedOut    bool
	Err         error
}

// Options control a benchmark run.
type Options struct {
	Scale     float64       // stream scale factor (1.0 = default size)
	Seed      int64         // stream generator seed
	MaxEvents int           // 0 = whole stream
	Budget    time.Duration // per-cell wall-clock budget (0 = unlimited), like the paper's replay timeout
}

// setup compiles the query in the given mode, loads statics, initializes
// the engine and materializes the (possibly truncated) event stream — the
// common scaffolding of every replay-based experiment.
func setup(spec workload.Spec, mode compiler.Mode, opts Options) (*engine.Engine, []engine.Event, error) {
	prog, err := compiler.Compile(spec.Query, spec.Catalog, compiler.OptionsFor(mode))
	if err != nil {
		return nil, nil, err
	}
	eng := engine.New(prog)
	for name, data := range spec.Statics() {
		eng.LoadStatic(name, data)
	}
	if err := eng.Init(); err != nil {
		return nil, nil, err
	}
	events := spec.Stream(opts.Scale, opts.Seed)
	if opts.MaxEvents > 0 && len(events) > opts.MaxEvents {
		events = events[:opts.MaxEvents]
	}
	return eng, events, nil
}

// Run replays the workload's stream through the query compiled with the given
// system and measures the sustained view refresh rate (one refresh per
// event, as in the paper: every update leaves the view fresh).
func Run(spec workload.Spec, sys System, opts Options) Result {
	res := Result{Query: spec.Name, System: sys.Name}
	eng, events, err := setup(spec, sys.Mode, opts)
	if err != nil {
		res.Err = err
		return res
	}
	res.NumMaps = len(eng.Program().Maps)
	start := time.Now()
	deadline := time.Time{}
	if opts.Budget > 0 {
		deadline = start.Add(opts.Budget)
	}
	processed := 0
	for i, ev := range events {
		if err := eng.Apply(ev); err != nil {
			res.Err = fmt.Errorf("event %d: %w", i, err)
			return res
		}
		processed++
		// The budget is checked after every event: a single expensive
		// update (the MST worst case) must not blow through the cell's
		// time budget.
		if !deadline.IsZero() && time.Now().After(deadline) {
			res.TimedOut = true
			break
		}
	}
	res.Events = processed
	res.Elapsed = time.Since(start)
	if res.Elapsed > 0 {
		res.RefreshRate = float64(processed) / res.Elapsed.Seconds()
	}
	res.MemBytes = eng.MemoryBytes()
	return res
}

// RunAll produces the Figure 6/7 matrix for the given queries: every query
// replayed under every system.
func RunAll(queries []string, opts Options) []Result {
	var out []Result
	for _, q := range queries {
		spec, ok := workload.Get(q)
		if !ok {
			out = append(out, Result{Query: q, Err: fmt.Errorf("unknown query %q", q)})
			continue
		}
		for _, sys := range Systems {
			out = append(out, Run(spec, sys, opts))
		}
	}
	return out
}

// FormatRefreshTable renders a Figure 7 style table: one row per query, one
// column per system, entries in view refreshes per second.
func FormatRefreshTable(results []Result) string {
	byQuery := map[string]map[string]Result{}
	var queries []string
	for _, r := range results {
		if byQuery[r.Query] == nil {
			byQuery[r.Query] = map[string]Result{}
			queries = append(queries, r.Query)
		}
		byQuery[r.Query][r.System] = r
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "Query")
	for _, s := range Systems {
		fmt.Fprintf(&b, " %12s", s.Name)
	}
	b.WriteString("\n")
	for _, q := range queries {
		fmt.Fprintf(&b, "%-10s", q)
		for _, s := range Systems {
			r := byQuery[q][s.Name]
			switch {
			case r.Err != nil:
				fmt.Fprintf(&b, " %12s", "error")
			default:
				fmt.Fprintf(&b, " %12.1f", r.RefreshRate)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TracePoint is one sample of the Figure 8–10 traces: view refresh rate and
// memory footprint after processing a fraction of the stream.
type TracePoint struct {
	Fraction    float64
	Events      int
	RefreshRate float64
	MemBytes    int
}

// Trace replays the stream and samples the refresh rate and the memory held
// by auxiliary views at regular fractions, reproducing the per-query trace
// figures.
func Trace(spec workload.Spec, sys System, opts Options, samples int) ([]TracePoint, error) {
	eng, events, err := setup(spec, sys.Mode, opts)
	if err != nil {
		return nil, err
	}
	if samples < 1 {
		samples = 10
	}
	chunk := len(events) / samples
	if chunk == 0 {
		chunk = 1
	}
	var out []TracePoint
	deadline := time.Time{}
	if opts.Budget > 0 {
		deadline = time.Now().Add(opts.Budget)
	}
	for start := 0; start < len(events); start += chunk {
		end := start + chunk
		if end > len(events) {
			end = len(events)
		}
		t0 := time.Now()
		processed := 0
		overBudget := false
		for i := start; i < end; i++ {
			if err := eng.Apply(events[i]); err != nil {
				return out, err
			}
			processed++
			if !deadline.IsZero() && time.Now().After(deadline) {
				overBudget = true
				break
			}
		}
		dt := time.Since(t0).Seconds()
		rate := 0.0
		if dt > 0 {
			rate = float64(processed) / dt
		}
		out = append(out, TracePoint{
			Fraction:    float64(start+processed) / float64(len(events)),
			Events:      start + processed,
			RefreshRate: rate,
			MemBytes:    eng.MemoryBytes(),
		})
		if overBudget {
			break
		}
	}
	return out, nil
}

// FormatTrace renders trace points as the series behind Figures 8-10.
func FormatTrace(query, system string, points []TracePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s / %s: fraction  refreshes/s  mem(KB)\n", query, system)
	for _, p := range points {
		fmt.Fprintf(&b, "%.2f  %12.1f  %10.1f\n", p.Fraction, p.RefreshRate, float64(p.MemBytes)/1024)
	}
	return b.String()
}

// ScalingPoint is one sample of the Figure 11 experiment: the refresh rate at
// a stream scale relative to the rate at the smallest scale.
type ScalingPoint struct {
	Scale        float64
	RefreshRate  float64
	RelativeRate float64
}

// Scaling measures DBToaster's refresh rate for the query at increasing
// stream lengths and reports each rate relative to the first scale.
func Scaling(spec workload.Spec, scales []float64, opts Options) ([]ScalingPoint, error) {
	var out []ScalingPoint
	base := 0.0
	for i, s := range scales {
		o := opts
		o.Scale = s
		r := Run(spec, System{"DBToaster", compiler.ModeDBToaster}, o)
		if r.Err != nil {
			return out, r.Err
		}
		if i == 0 {
			base = r.RefreshRate
		}
		rel := 0.0
		if base > 0 {
			rel = r.RefreshRate / base
		}
		out = append(out, ScalingPoint{Scale: s, RefreshRate: r.RefreshRate, RelativeRate: rel})
	}
	return out, nil
}

// FormatScaling renders the Figure 11 series.
func FormatScaling(query string, points []ScalingPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: scale  refreshes/s  relative-to-first\n", query)
	for _, p := range points {
		fmt.Fprintf(&b, "%5.2f  %12.1f  %6.2f\n", p.Scale, p.RefreshRate, p.RelativeRate)
	}
	return b.String()
}

// CompileInfo summarizes the compiled program of one query for the Figure 2
// style feature/decision table.
type CompileInfo struct {
	Query     string
	Relations int
	Degree    int
	Nested    bool
	Stats     trigger.Stats
}

// CompileAll compiles every registered query with full HO-IVM and reports the
// program statistics.
func CompileAll() ([]CompileInfo, error) {
	var out []CompileInfo
	for _, spec := range workload.All() {
		prog, err := compiler.Compile(spec.Query, spec.Catalog, compiler.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		out = append(out, CompileInfo{
			Query:     spec.Name,
			Relations: len(agca.Relations(spec.Query.Expr)),
			Degree:    agca.Degree(spec.Query.Expr),
			Nested:    agca.HasNestedAggregate(spec.Query.Expr),
			Stats:     prog.ComputeStats(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Query < out[j].Query })
	return out, nil
}

// FormatCompileTable renders the Figure 2 style table.
func FormatCompileTable(infos []CompileInfo) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %5s %6s %6s %5s %6s %6s %7s\n",
		"Query", "Rels", "Degree", "Nested", "Maps", "Base", "Stmts", "Reevals")
	for _, ci := range infos {
		nested := "-"
		if ci.Nested {
			nested = "yes"
		}
		fmt.Fprintf(&b, "%-8s %5d %6d %6s %5d %6d %6d %7d\n",
			ci.Query, ci.Relations, ci.Degree, nested,
			ci.Stats.NumMaps, ci.Stats.NumBaseTables, ci.Stats.NumStatements, ci.Stats.NumReevals)
	}
	return b.String()
}
