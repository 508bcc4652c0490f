package compiler

import (
	"strings"
	"testing"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/trigger"
)

// Two structurally identical queries written with different names and
// variable spellings: the whole second query must alias the first's result
// map — nothing is materialized or maintained twice.
func TestCompileSetAliasesIdenticalQueries(t *testing.T) {
	cat := exampleCatalog()
	q1 := example2Query()
	q2 := Query{
		Name: "QCopy",
		Expr: agca.SumOver(nil, agca.Mul(
			agca.R("O", "ordk", "exch"),
			agca.R("LI", "ordk", "pr"),
			agca.V("pr"), agca.V("exch"))),
	}
	prog, rep, err := CompileSet([]Query{q1, q2}, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	single, err := Compile(q1, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Maps) != len(single.Maps) {
		t.Errorf("aliased set should materialize exactly the single-query maps: %d vs %d",
			len(prog.Maps), len(single.Maps))
	}
	result, err := prog.ResultMapFor("QCopy")
	if err != nil {
		t.Fatalf("QCopy missing from program queries: %v", err)
	}
	if result != "Q" {
		t.Errorf("QCopy should alias Q's result map, got %q", result)
	}
	if rep.TotalMaps != len(prog.Maps) || rep.DisjointMaps != 2*len(single.Maps) {
		t.Errorf("report totals wrong: TotalMaps=%d (maps %d), DisjointMaps=%d (want %d)",
			rep.TotalMaps, len(prog.Maps), rep.DisjointMaps, 2*len(single.Maps))
	}
	counts := prog.MapQueryCounts()
	for _, m := range prog.Maps {
		if counts[m.Name] != 2 {
			t.Errorf("map %s should back both queries, counted %d", m.Name, counts[m.Name])
		}
	}
}

// A near-miss pair (same shape, different aggregated column) must NOT share:
// each query keeps its own maps.
func TestCompileSetNearMissDoesNotAlias(t *testing.T) {
	cat := exampleCatalog()
	q1 := example2Query()
	q2 := Query{
		Name: "QPrice",
		Expr: agca.SumOver(nil, agca.Mul(
			agca.R("O", "ok", "xch"),
			agca.R("LI", "ok", "price"),
			agca.V("price"))), // no * xch
	}
	prog, _, err := CompileSet([]Query{q1, q2}, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if result, _ := prog.ResultMapFor("QPrice"); result == "Q" {
		t.Fatal("near-miss query must not alias Q's result")
	}
}

func TestCompileSetRejectsDuplicateNames(t *testing.T) {
	cat := exampleCatalog()
	q := example2Query()
	if _, _, err := CompileSet([]Query{q, q}, cat, DefaultOptions()); err == nil {
		t.Fatal("duplicate query names should be rejected")
	}
	if _, _, err := CompileSet(nil, cat, DefaultOptions()); err == nil {
		t.Fatal("empty query set should be rejected")
	}
}

// The merged program's read-before-write invariant: within every trigger, a
// statement targeting map T that reads map R must see R's pre-update value,
// so R's own update statement must come later in the trigger. This is the
// property recomputeDepths + SortStatements exist to uphold across merged
// queries.
func TestCompileSetStatementOrdering(t *testing.T) {
	cat := exampleCatalog()
	q1 := example2Query()
	q2 := Query{
		Name: "QPrice",
		Expr: agca.SumOver(nil, agca.Mul(
			agca.R("O", "ok", "xch"),
			agca.R("LI", "ok", "price"),
			agca.V("price"))),
	}
	prog, _, err := CompileSet([]Query{q1, q2}, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	assertReadBeforeWrite(t, prog)
}

func assertReadBeforeWrite(t *testing.T, prog *trigger.Program) {
	t.Helper()
	base := map[string]bool{}
	for _, m := range prog.Maps {
		if m.IsBaseTable {
			base[m.Name] = true
		}
	}
	for _, tr := range prog.Triggers {
		written := map[string]int{} // map -> statement index that wrote it
		for i, s := range tr.Stmts {
			if s.Kind != trigger.StmtIncrement || base[s.TargetMap] {
				continue
			}
			for _, r := range agca.MapRefs(s.RHS) {
				if r == s.TargetMap || base[r] {
					continue
				}
				if wi, ok := written[r]; ok {
					t.Errorf("trigger %s: statement %d (%s) reads %s already written by statement %d",
						tr.Key(), i, s.TargetMap, r, wi)
				}
			}
			written[s.TargetMap] = i
		}
	}
}

// The sharing report over a genuinely shared workload subset must be
// internally consistent: disjoint totals add up, shared counts match the
// per-map attribution, and every shared map names at least two queries.
func TestShareReportConsistency(t *testing.T) {
	cat := exampleCatalog()
	qs := []Query{
		example2Query(),
		{Name: "QB", Expr: agca.SumOver(nil, agca.Mul(
			agca.R("O", "a", "x"), agca.R("LI", "a", "p"), agca.V("p"), agca.V("x"), agca.V("x")))},
	}
	prog, rep, err := CompileSet(qs, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, q := range rep.Queries {
		sum += q.Maps
		if q.Shared > q.Maps {
			t.Errorf("query %s: shared %d exceeds total %d", q.Name, q.Shared, q.Maps)
		}
	}
	if sum != rep.DisjointMaps {
		t.Errorf("DisjointMaps=%d but per-query counts sum to %d", rep.DisjointMaps, sum)
	}
	if rep.TotalMaps != len(prog.Maps) {
		t.Errorf("TotalMaps=%d, program has %d", rep.TotalMaps, len(prog.Maps))
	}
	for _, s := range rep.Shared {
		if len(s.Queries) < 2 {
			t.Errorf("shared map %s attributed to %v", s.Name, s.Queries)
		}
	}
	if !strings.Contains(rep.String(), "shared-map report") {
		t.Error("report rendering lost its header")
	}
}
