package workload

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/catalog"
	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/sql"
	"dbtoaster/internal/sqlref"
	"dbtoaster/internal/types"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden trigger programs under queries/golden")

// viewContents flattens a view into a value-keyed map (the key schema's
// variable names are translation artifacts and intentionally ignored; the
// key order is the GROUP BY order, which sqlref's results share).
func viewContents(g *gmr.GMR) map[string]float64 {
	out := map[string]float64{}
	g.Foreach(func(tu types.Tuple, m float64) {
		out[tu.EncodeKey()] += m
	})
	return out
}

// keyTuple decodes a viewContents key for a failure message.
func keyTuple(k string) types.Tuple {
	t, _ := types.DecodeKey([]byte(k))
	return t
}

func sameContents(a, b map[string]float64, tol float64) (string, bool) {
	for k, av := range a {
		bv, ok := b[k]
		if !ok && math.Abs(av) > tol {
			return fmt.Sprintf("key %v only in the view (%.6g)", keyTuple(k), av), false
		}
		if math.Abs(av-bv) > tol*math.Max(1, math.Abs(av)) {
			return fmt.Sprintf("key %v: view %.6g vs sqlref %.6g", keyTuple(k), av, bv), false
		}
	}
	for k, bv := range b {
		if _, ok := a[k]; !ok && math.Abs(bv) > tol {
			return fmt.Sprintf("key %v only in sqlref (%.6g)", keyTuple(k), bv), false
		}
	}
	return "", true
}

// replayProgram compiles q under the mode and replays the event prefix,
// returning the result view at the half-way point and at the end.
func replayProgram(t *testing.T, q compiler.Query, cat *catalog.Catalog, mode compiler.Mode,
	statics map[string]*gmr.GMR, events []engine.Event) (mid, end map[string]float64) {
	t.Helper()
	prog, err := compiler.Compile(q, cat, compiler.OptionsFor(mode))
	if err != nil {
		t.Fatalf("%s: compile (%s): %v", q.Name, mode, err)
	}
	eng := engine.New(prog)
	for name, data := range statics {
		eng.LoadStatic(name, data)
	}
	if err := eng.Init(); err != nil {
		t.Fatalf("%s: init (%s): %v", q.Name, mode, err)
	}
	half := len(events) / 2
	for i, ev := range events {
		if err := eng.Apply(ev); err != nil {
			t.Fatalf("%s: event %d (%s): %v", q.Name, i, mode, err)
		}
		if i == half {
			mid = viewContents(eng.Result())
		}
	}
	return mid, viewContents(eng.Result())
}

// referenceAt evaluates the spec's SQL with sqlref over its statics plus the
// first n events.
func referenceAt(t *testing.T, spec Spec, statics map[string]*gmr.GMR, events []engine.Event, n int) map[string]float64 {
	t.Helper()
	script, err := sql.Parse(spec.SQL)
	if err != nil {
		t.Fatal(err)
	}
	db := sqlref.DB{}
	for name, data := range statics {
		data.Foreach(func(tu types.Tuple, m float64) { db.Add(name, tu, m) })
	}
	for _, ev := range events[:n] {
		db.Add(ev.Relation, ev.Tuple, map[bool]float64{true: 1, false: -1}[ev.Insert])
	}
	want, err := sqlref.Eval(script, script.Selects[0], db)
	if err != nil {
		t.Fatalf("sqlref: %v", err)
	}
	return want
}

// TestSQLFrontendMatchesReference is the frontend's acceptance property: for
// every workload query, the program compiled from the SQL source maintains
// the contents sqlref computes from the same SQL over the accumulated base
// relations, mid-stream and at the end, in every compiler mode.
func TestSQLFrontendMatchesReference(t *testing.T) {
	modes := []compiler.Mode{compiler.ModeDBToaster, compiler.ModeIVM, compiler.ModeREP, compiler.ModeNaive}
	// Re-evaluation (REP) recomputes the query per event, so the expensive
	// self-join and nested-aggregate queries replay a shorter prefix.
	caps := map[string]int{"MST": 24, "VWAP": 60, "PSP": 60, "BSP": 90, "AXF": 90, "BSV": 90, "MDDB1": 100, "SSB4": 120}
	// Every reference must hold a group at both checkpoints, or the check
	// degenerates to emptiness. At the default stream (scale 0.03, seed 13)
	// these queries' references held none, so each reads its own stream.
	streams := map[string]struct {
		scale float64
		seed  int64
	}{
		"Q4": {0.03, 9}, "Q6": {0.03, 3}, "Q12": {0.03, 25}, "Q17a": {0.1, 22}, "Q10": {0.3, 18}, "Q22a": {0.3, 1},
	}
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			limit := 160
			if c, ok := caps[spec.Name]; ok {
				limit = c
			}
			scale, seed := 0.03, int64(13)
			if s, ok := streams[spec.Name]; ok {
				scale, seed = s.scale, s.seed
			}
			events := spec.Stream(scale, seed)
			if len(events) > limit {
				events = events[:limit]
			}
			if spec.Name == "AXF" {
				// AXF pairs a bid and an ask more than 1000 apart, which
				// the order book's random walk (steps of at most 10) does
				// not reach in any prefix a re-evaluating mode can replay;
				// widening the walk a hundredfold does.
				events = widenPrices(events, 100)
			}
			statics := spec.Statics()
			wantMid := referenceAt(t, spec, statics, events, len(events)/2+1)
			wantEnd := referenceAt(t, spec, statics, events, len(events))
			if !holdsGroup(wantMid) || !holdsGroup(wantEnd) {
				t.Fatalf("sqlref holds no group mid-stream or at the end (%d and %d entries): the prefix checks nothing",
					len(wantMid), len(wantEnd))
			}
			for _, mode := range modes {
				gotMid, gotEnd := replayProgram(t, spec.Query, spec.Catalog, mode, statics, events)
				if diff, ok := sameContents(gotMid, wantMid, 1e-4); !ok {
					t.Fatalf("%s: view and sqlref diverge mid-stream: %s", mode, diff)
				}
				if diff, ok := sameContents(gotEnd, wantEnd, 1e-4); !ok {
					t.Fatalf("%s: view and sqlref diverge at end of stream: %s", mode, diff)
				}
			}
		})
	}
}

// holdsGroup reports whether a result holds a group of nonzero value.
func holdsGroup(m map[string]float64) bool {
	for _, v := range m {
		if math.Abs(v) > 1e-4 {
			return true
		}
	}
	return false
}

// widenPrices copies an order-book stream with every PRICE multiplied by k;
// a deletion still matches its insertion.
func widenPrices(events []engine.Event, k int64) []engine.Event {
	out := make([]engine.Event, len(events))
	for i, ev := range events {
		ev.Tuple = slices.Clone(ev.Tuple)
		ev.Tuple[3] = types.Int(ev.Tuple[3].AsInt() * k)
		out[i] = ev
	}
	return out
}

// TestSQLCatalogsMatchStreams pins the DDL of the .sql sources to the column
// order the stream generators and statics write tuples in.
func TestSQLCatalogsMatchStreams(t *testing.T) {
	groups := map[string]*catalog.Catalog{
		"tpch": catalog.New().
			Add("LINEITEM", "OK", "PK", "SK", "QTY", "PRICE", "DISC", "RFLAG", "SHIPDATE", "COMMITDATE", "RECEIPTDATE", "SHIPMODE").
			Add("ORDERS", "OK", "CK", "ODATE", "OPRIO").
			Add("CUSTOMER", "CK", "NK", "MKTSEG", "ACCTBAL").
			Add("PART", "PK", "BRAND", "PTYPE", "PSIZE").
			Add("SUPPLIER", "SK", "NK").
			Add("PARTSUPP", "PK", "SK", "AVAILQTY", "SUPPLYCOST").
			AddStatic("NATION", "NK", "RK", "NNAME").
			AddStatic("REGION", "RK", "RNAME"),
		"finance": catalog.New().
			Add("BIDS", "T", "ID", "BROKER", "PRICE", "VOLUME").
			Add("ASKS", "T", "ID", "BROKER", "PRICE", "VOLUME"),
		"mddb": catalog.New().
			Add("ATOMPOSITIONS", "TRJ", "T", "AID", "X", "Y", "Z").
			AddStatic("ATOMMETA", "AID", "RESIDUE", "ATOMNAME"),
	}
	for _, spec := range All() {
		want := groups[spec.Group]
		for _, r := range want.Relations() {
			cols, err := spec.Catalog.Columns(r.Name)
			if err != nil {
				t.Errorf("%s: DDL misses relation %s", spec.Name, r.Name)
				continue
			}
			if !types.Schema(cols).Equal(types.Schema(r.Columns)) {
				t.Errorf("%s: relation %s columns %v, streams write %v", spec.Name, r.Name, cols, r.Columns)
			}
			if spec.Catalog.IsStatic(r.Name) != r.Static {
				t.Errorf("%s: relation %s static flag disagrees with the generators", spec.Name, r.Name)
			}
		}
		if got, want := len(spec.Catalog.Relations()), len(want.Relations()); got != want {
			t.Errorf("%s: DDL declares %d relations, the generators write %d", spec.Name, got, want)
		}
	}
}

// TestSQLGoldenTriggerPrograms compiles every workload SQL source under the
// default (Higher-Order IVM) options and compares the printed trigger
// program against the checked-in golden output. Run with -update-golden
// after an intentional compiler or frontend change.
func TestSQLGoldenTriggerPrograms(t *testing.T) {
	for _, spec := range All() {
		prog, err := compiler.Compile(spec.Query, spec.Catalog, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		got := fmt.Sprintf("-- query %s (AGCA): %s\n%s", spec.Name, agca.String(spec.Query.Expr), prog.String())
		path := filepath.Join("queries", "golden", spec.Name+".golden")
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden (run with -update-golden): %v", spec.Name, err)
		}
		if got != string(want) {
			t.Errorf("%s: trigger program differs from golden %s (run with -update-golden after intentional changes)\n%s",
				spec.Name, path, firstDiff(got, string(want)))
		}
	}
}

// TestBenchmarkedProgramsUnchanged pins the compiled programs of the five
// queries the tpch-event, tpch-batch and live-e2e benchmark workloads run, so
// that no planner change moves those workloads by accident. Q6 and Q12 are
// pinned at what they were before statement planning (loop-invariant
// scheduling, factorised evaluation, slice-restricted lift deltas) landed:
// none of the planning rules may touch them. Q1, Q3 and Q10 were re-pinned on
// purpose when value sums started to stay factored
// (l_price * (1 + -(0.01 * l_disc)) is one factor, not two monomials) and
// increments sharing an access path started to merge: Q1 runs one statement
// per event, Q3 keeps 6 maps instead of 9, Q10 7 instead of 10.
func TestBenchmarkedProgramsUnchanged(t *testing.T) {
	pinned := map[string]string{
		"Q1":  "a31308e757126c589a979febd2c26c2315a140f5d1cefca289a042396f133a27",
		"Q6":  "2536a55cc2ebe023b1a0ef12b1f062e66d42d0b6c1e830b88cd1040201f8721f",
		"Q3":  "4c80b50b2f6c5465de31ca76646a3bdfbb11842a76ed42d275761cc2a5d53549",
		"Q10": "1532c78fa5d7e484798f16a9ae3546d35736dcd6824d7490036280e962a7f68a",
		"Q12": "c58f50df9b7bf41475b1b3594437c029534503cd5ad724e212ca877c7665c6a3",
	}
	for name, want := range pinned {
		data, err := os.ReadFile(filepath.Join("queries", "golden", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
			t.Errorf("%s: golden trigger program changed (sha256 %s, pinned %s)", name, got, want)
		}
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(al), len(bl))
}

// TestWorkloadSQLSourcesExist ensures every registered query carries its SQL
// text and every embedded source belongs to a registered query.
func TestWorkloadSQLSourcesExist(t *testing.T) {
	names := map[string]bool{}
	for _, spec := range All() {
		names[spec.Name] = true
		if spec.SQL == "" {
			t.Errorf("%s: no SQL source", spec.Name)
		}
		if _, ok := sqlSource(spec.Name); !ok {
			t.Errorf("%s: sqlSource lookup failed", spec.Name)
		}
	}
	entries, err := queryFS.ReadDir("queries")
	if err != nil {
		t.Fatal(err)
	}
	var stray []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := strings.TrimSuffix(e.Name(), ".sql")
		if !names[name] {
			stray = append(stray, e.Name())
		}
	}
	sort.Strings(stray)
	if len(stray) > 0 {
		t.Errorf("embedded SQL files with no registered query: %v", stray)
	}
}
