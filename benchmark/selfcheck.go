package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"
)

// declaration mirrors the fields of BENCHMARK.json the harness reads.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	RunSeconds int `json:"run_seconds"`
}

func readDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild runs one workload in a fresh process, exactly as the driver does,
// and parses its result line.
func runChild(ctx context.Context, o options, workload string, seed int64) (*resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe,
		"--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(o.seconds), "--trace", "0", "--procs", fmt.Sprint(o.procs))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	last := ""
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res resultLine
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &res, nil
}

// selfcheck repeats every workload N times on this code, each run a fresh
// process, and holds each end-to-end metric's spread — the interquartile range
// as a share of the median, computed the way the driver computes it — against
// the metric's bound. The runs share one seed, so that what is compared is
// the code with itself; with -across-seeds run i gets seed+i, which is the
// driver's own procedure and adds what the seed's data happens to cost. Any
// breach, incorrect run or failed operation makes the exit status non-zero.
func selfcheck(ctx context.Context, o options) error {
	decl, err := readDeclaration("BENCHMARK.json")
	if err != nil {
		return err
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	breaches := 0
	for _, name := range names {
		values := map[string][]float64{}
		for i := 0; i < o.selfcheck; i++ {
			seed := o.seed
			if o.acrossSeeds {
				seed += int64(i)
			}
			res, err := runChild(ctx, o, name, seed)
			if err != nil {
				return err
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d of %d operations failed", name, seed, res.Failed, res.Attempted)
			}
			for metric, v := range res.Metrics {
				values[metric] = append(values[metric], v.Value)
			}
			fmt.Fprintf(os.Stderr, "selfcheck: %s run %d/%d done\n", name, i+1, o.selfcheck)
		}
		fmt.Printf("%-12s %-22s %14s %14s %14s %9s %9s %7s\n", name, "metric", "q1", "median", "q3", "iqr", "max-min", "bound")
		for _, m := range decl.EndToEnd {
			xs := values[m.Name]
			q1, q2, q3 := quartiles(xs)
			spread := relSpread(xs)
			verdict := ""
			if spread > m.Bound {
				verdict = "  BREACH"
				breaches++
			} else if spread > m.Bound/3 {
				verdict = "  (above a third of the bound)"
			}
			fmt.Printf("%-12s %-22s %14.6g %14.6g %14.6g %8.2f%% %8.2f%% %6.1f%%%s\n", "", m.Name, q1, q2, q3,
				100*spread, 100*(slices.Max(xs)-slices.Min(xs))/q2, 100*m.Bound, verdict)
		}
	}
	if breaches > 0 {
		return fmt.Errorf("%d metric spreads exceed their bounds", breaches)
	}
	return nil
}
