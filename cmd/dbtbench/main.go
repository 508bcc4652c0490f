// Command dbtbench runs the paper's experiments from the command line: the
// Figure 6/7 refresh-rate matrix, the Figure 8-10 traces, the Figure 11
// scaling series and the Figure 2 compilation table. This stack's own
// performance claims are measured by benchmark/run.sh (BENCHMARK.json), not
// here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"dbtoaster/internal/bench"
	"dbtoaster/internal/compiler"
	"dbtoaster/internal/workload"
)

const experiments = "fig6_7 | fig8_traces | fig9_traces | fig10_traces | fig11_scaling | fig2_features"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dbtbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dbtbench", flag.ContinueOnError)
	experiment := fs.String("experiment", "fig6_7", experiments)
	queries := fs.String("queries", "", "comma-separated query names (default: all for the experiment)")
	scale := fs.Float64("scale", 0.25, "stream scale factor")
	budget := fs.Duration("budget", 2*time.Second, "per-cell time budget")
	seed := fs.Int64("seed", 1, "stream generator seed")
	// A bad flag is reported once, by the caller, on one line.
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(out)
			fs.Usage()
			return nil
		}
		return fmt.Errorf("%w (experiments: %s)", err, experiments)
	}

	opts := bench.Options{Scale: *scale, Seed: *seed, Budget: *budget}
	pick := func(def []string) []string {
		if *queries == "" {
			return def
		}
		return strings.Split(*queries, ",")
	}

	switch *experiment {
	case "fig6_7":
		results := bench.RunAll(pick(workload.Names("")), opts)
		fmt.Fprintln(out, "Figure 6/7 — view refreshes per second:")
		fmt.Fprint(out, bench.FormatRefreshTable(results))
	case "fig8_traces", "fig9_traces", "fig10_traces":
		defaults := map[string][]string{
			"fig8_traces":  {"Q1", "Q3", "Q11a"},
			"fig9_traces":  {"Q17a", "Q12", "Q18a", "Q22a"},
			"fig10_traces": {"AXF", "PSP", "VWAP", "MST"},
		}
		for _, q := range pick(defaults[*experiment]) {
			spec, ok := workload.Get(q)
			if !ok {
				return fmt.Errorf("unknown query %q", q)
			}
			for _, sys := range []bench.System{{Name: "DBToaster", Mode: compiler.ModeDBToaster}, {Name: "IVM", Mode: compiler.ModeIVM}} {
				points, err := bench.Trace(spec, sys, opts, 10)
				if err != nil {
					return fmt.Errorf("%s/%s: %w", q, sys.Name, err)
				}
				fmt.Fprint(out, bench.FormatTrace(q, sys.Name, points))
			}
		}
	case "fig11_scaling":
		scales := []float64{0.1, 0.2, 0.5, 1.0, 2.0}
		for _, q := range pick([]string{"Q1", "Q3", "Q6", "Q11a", "Q12", "Q17a", "Q18a"}) {
			spec, ok := workload.Get(q)
			if !ok {
				return fmt.Errorf("unknown query %q", q)
			}
			points, err := bench.Scaling(spec, scales, opts)
			if err != nil {
				return fmt.Errorf("%s: %w", q, err)
			}
			fmt.Fprint(out, bench.FormatScaling(q, points))
		}
	case "fig2_features":
		infos, err := bench.CompileAll()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "Figure 2 — workload features and compiled program shape:")
		fmt.Fprint(out, bench.FormatCompileTable(infos))
	default:
		return fmt.Errorf("unknown experiment %q (experiments: %s)", *experiment, experiments)
	}
	return nil
}
