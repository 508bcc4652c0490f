package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"dbtoaster/internal/bench"
	"dbtoaster/internal/workload"
)

// runOK runs the CLI and returns its output split into whitespace-separated
// fields per line.
func runOK(t *testing.T, args ...string) [][]string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("dbtbench %s: %v", strings.Join(args, " "), err)
	}
	var rows [][]string
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			rows = append(rows, f)
		}
	}
	return rows
}

// positive fails the test unless s is a number above zero.
func positive(t *testing.T, what, s string) {
	t.Helper()
	if v, err := strconv.ParseFloat(s, 64); err != nil || v <= 0 {
		t.Errorf("%s = %q, want a rate above zero", what, s)
	}
}

// seriesRows returns the data rows that follow the "# <header…>" line whose
// fields start with header.
func seriesRows(rows [][]string, header ...string) [][]string {
	for i, r := range rows {
		if strings.Join(r[:min(len(r), len(header))], " ") != strings.Join(header, " ") {
			continue
		}
		var out [][]string
		for _, d := range rows[i+1:] {
			if d[0] == "#" {
				break
			}
			out = append(out, d)
		}
		return out
	}
	return nil
}

func TestFig6_7(t *testing.T) {
	rows := runOK(t, "-experiment", "fig6_7", "-queries", "Q1,VWAP", "-budget", "50ms", "-scale", "0.1")
	// Title line, then the system header, then one row per query.
	if len(rows) != 4 {
		t.Fatalf("got %d lines, want title + header + 2 queries: %v", len(rows), rows)
	}
	header := rows[1]
	if len(header) != 1+len(bench.Systems) {
		t.Fatalf("header %v, want Query + %d systems", header, len(bench.Systems))
	}
	for i, sys := range bench.Systems {
		if header[1+i] != sys.Name {
			t.Errorf("column %d is %q, want %q", i, header[1+i], sys.Name)
		}
	}
	for i, q := range []string{"Q1", "VWAP"} {
		row := rows[2+i]
		if row[0] != q || len(row) != len(header) {
			t.Fatalf("row %v, want %s and a cell per system", row, q)
		}
		for j, cell := range row[1:] {
			positive(t, q+"/"+header[1+j], cell)
		}
	}
}

func TestTrace(t *testing.T) {
	rows := runOK(t, "-experiment", "fig8_traces", "-queries", "Q3", "-budget", "50ms", "-scale", "0.1")
	for _, sys := range []string{"DBToaster:", "IVM:"} {
		points := seriesRows(rows, "#", "Q3", "/", sys)
		if len(points) == 0 {
			t.Fatalf("no trace points for Q3 / %s in %v", sys, rows)
		}
		for _, p := range points {
			positive(t, "Q3 / "+sys+" refreshes/s at "+p[0], p[1])
		}
	}
}

func TestScaling(t *testing.T) {
	rows := runOK(t, "-experiment", "fig11_scaling", "-queries", "Q6", "-budget", "50ms")
	points := seriesRows(rows, "#", "Q6:")
	if len(points) != 5 {
		t.Fatalf("got %d scaling points, want one per scale: %v", len(points), rows)
	}
	for _, p := range points {
		positive(t, "Q6 refreshes/s at scale "+p[0], p[1])
	}
}

func TestFeatures(t *testing.T) {
	rows := runOK(t, "-experiment", "fig2_features")
	got := map[string]bool{}
	for _, r := range rows[2:] { // title, header
		got[r[0]] = true
		positive(t, r[0]+" maps", r[4])
	}
	for _, q := range workload.Names("") {
		if !got[q] {
			t.Errorf("no fig2_features row for %s", q)
		}
	}
}

// TestRejectsRemoved: an experiment or flag this command no longer has comes
// back from run as a one-line error naming the experiments that remain.
func TestRejectsRemoved(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "mqo"},
		{"-experiment", "batch_throughput"},
		{"-batch", "256"},
		{"-exec", "verify"},
	} {
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil {
			t.Errorf("%v: accepted", args)
			continue
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q before failing", args, out.String())
		}
		msg := err.Error()
		if strings.Contains(msg, "\n") {
			t.Errorf("%v: error spans lines: %q", args, msg)
		}
		if !strings.Contains(msg, experiments) {
			t.Errorf("%v: error %q does not list the experiments", args, msg)
		}
	}
}
