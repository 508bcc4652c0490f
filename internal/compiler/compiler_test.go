package compiler

import (
	"strings"
	"testing"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/catalog"
	"dbtoaster/internal/trigger"
)

func exampleCatalog() *catalog.Catalog {
	return catalog.New().Add("O", "ORDK", "XCH").Add("LI", "ORDK", "PRICE")
}

func example2Query() Query {
	return Query{
		Name: "Q",
		Expr: agca.SumOver(nil, agca.Mul(
			agca.R("O", "ok", "xch"),
			agca.R("LI", "ok", "price"),
			agca.V("price"), agca.V("xch"))),
	}
}

func TestCompileExample2Structure(t *testing.T) {
	// Example 2 of the paper: the compiled program should maintain the scalar
	// result plus one first-order view per relation, and the insert triggers
	// should touch the result with a constant amount of work (no base
	// relations left in any statement).
	prog, err := Compile(example2Query(), exampleCatalog(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if q := prog.Queries[0]; q.ResultMap != "Q" || len(q.ResultKeys) != 0 {
		t.Fatalf("result map = %s%v", q.ResultMap, q.ResultKeys)
	}
	if len(prog.Maps) != 3 {
		t.Fatalf("expected 3 maps (Q + two first-order views), got %d:\n%s", len(prog.Maps), prog.String())
	}
	if len(prog.Triggers) != 4 {
		t.Fatalf("expected 4 triggers, got %d", len(prog.Triggers))
	}
	for _, tr := range prog.Triggers {
		if len(tr.Stmts) == 0 {
			t.Fatalf("trigger %s has no statements", tr.Key())
		}
		for _, s := range tr.Stmts {
			if len(agca.Relations(s.RHS)) != 0 {
				t.Fatalf("statement still references a base relation: %s", s.String())
			}
			if s.Kind != trigger.StmtIncrement {
				t.Fatalf("Example 2 should compile to purely incremental statements, got %s", s.String())
			}
		}
	}
	// The result-map statement must come before the auxiliary-map statements
	// so that it reads old versions (paper Example 8).
	ins, _ := prog.TriggerFor("LI", true)
	if ins.Stmts[0].TargetMap != "Q" {
		t.Fatalf("result map must be updated first, got %s", ins.Stmts[0].String())
	}
}

func TestCompileModesDiffer(t *testing.T) {
	q := example2Query()
	cat := exampleCatalog()
	ho, err := Compile(q, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Compile(q, cat, OptionsFor(ModeREP))
	if err != nil {
		t.Fatal(err)
	}
	ivm, err := Compile(q, cat, OptionsFor(ModeIVM))
	if err != nil {
		t.Fatal(err)
	}
	// REP re-evaluates: every trigger statement targeting the result is a
	// replacement over base tables.
	repStats := rep.ComputeStats()
	if repStats.NumReevals == 0 {
		t.Fatal("REP compilation should contain replacement statements")
	}
	if repStats.NumBaseTables != 2 {
		t.Fatalf("REP should materialize both base tables, got %d", repStats.NumBaseTables)
	}
	// IVM keeps base tables and no higher-order auxiliary views.
	for _, m := range ivm.Maps {
		if !m.IsBaseTable && m.Name != ivm.Queries[0].ResultMap {
			t.Fatalf("IVM should not create auxiliary views, found %s", m.Name)
		}
	}
	// HO-IVM needs no base tables for this query.
	if ho.ComputeStats().NumBaseTables != 0 {
		t.Fatalf("DBToaster should avoid base tables for Example 2:\n%s", ho.String())
	}
}

func TestCompileErrors(t *testing.T) {
	cat := exampleCatalog()
	if _, err := Compile(Query{Name: "bad", Expr: nil}, cat, DefaultOptions()); err == nil {
		t.Error("nil expression should fail")
	}
	unknown := Query{Name: "bad", Expr: agca.R("NOPE", "x")}
	if _, err := Compile(unknown, cat, DefaultOptions()); err == nil {
		t.Error("unknown relation should fail")
	}
	param := Query{Name: "bad", Expr: agca.Mul(agca.R("O", "ok", "xch"), agca.V("free"))}
	if _, err := Compile(param, cat, DefaultOptions()); err == nil {
		t.Error("query with unbound parameters should fail")
	}
}

func TestDuplicateViewElimination(t *testing.T) {
	// A self-join produces structurally identical delta views for both atom
	// occurrences; duplicate view elimination must reuse one map.
	cat := catalog.New().Add("R", "A").Add("S", "B")
	q := Query{Name: "Q", Expr: agca.SumOver(nil, agca.Mul(agca.R("R", "A"), agca.R("R", "A"), agca.R("S", "B")))}
	prog, err := Compile(q, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range prog.Maps {
		canon := agca.String(m.Definition)
		if seen[canon] {
			t.Fatalf("duplicate view not eliminated: %s\n%s", canon, prog.String())
		}
		seen[canon] = true
	}
}

func TestStaticRelationsGetNoTriggers(t *testing.T) {
	cat := catalog.New().Add("O", "CK", "PRICE").AddStatic("NATION", "CK", "NK")
	q := Query{Name: "Q", Expr: agca.SumOver([]string{"nk"}, agca.Mul(
		agca.R("O", "ck", "price"), agca.R("NATION", "ck", "nk"), agca.V("price")))}
	prog, err := Compile(q, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range prog.Triggers {
		if tr.Relation == "NATION" {
			t.Fatal("static relations must not get triggers")
		}
	}
}

func TestModeString(t *testing.T) {
	names := []string{ModeDBToaster.String(), ModeIVM.String(), ModeREP.String(), ModeNaive.String()}
	want := []string{"DBToaster", "IVM", "REP", "Naive"}
	for i := range names {
		if names[i] != want[i] {
			t.Errorf("mode %d = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestProgramPrintingMentionsEveryMap(t *testing.T) {
	prog, err := Compile(example2Query(), exampleCatalog(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := prog.String()
	for _, m := range prog.Maps {
		if !strings.Contains(s, m.Name) {
			t.Errorf("program listing misses map %s", m.Name)
		}
	}
}

// TestNestedDeltaProbesSlice compiles Q17a's shape and checks what the
// slice-restricted lift delta buys and what it must not cost: every statement
// of the L triggers probes its maps on the trigger's pk (no statement loops
// over a map keyed on pk), no base table had to be materialized because a
// nested query's variable leaked into the outer query, and no map joins P
// with L any more.
func TestNestedDeltaProbesSlice(t *testing.T) {
	cat := catalog.New().Add("P", "PK", "BRAND").Add("L", "OK", "PK", "QTY")
	q := Query{Name: "Q", Expr: agca.SumOver(nil, agca.Mul(
		agca.R("P", "pk", "brand"),
		agca.R("L", "ok", "pk", "qty"),
		agca.Lift{Var: "sq", E: agca.SumOver(nil, agca.Mul(agca.R("L", "ok2", "pk", "qty2"), agca.V("qty2")))},
		agca.Lt(agca.Mul(agca.C(2), agca.V("qty")), agca.V("sq")),
		agca.V("qty")))}
	prog, err := Compile(q, cat, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	text := prog.String()
	if strings.Contains(text, "BASE_") {
		t.Fatalf("a base table was materialized:\n%s", text)
	}
	for _, m := range prog.Maps {
		if m.Name != "Q" && len(agca.Relations(m.Definition)) > 1 {
			t.Errorf("map %s still joins relations: %s", m.Name, agca.String(m.Definition))
		}
	}
	for _, insert := range []bool{true, false} {
		trig, _ := prog.TriggerFor("L", insert)
		for _, s := range trig.Stmts {
			agca.Walk(s.RHS, func(x agca.Expr) {
				ref, ok := x.(agca.MapRef)
				if !ok {
					return
				}
				for _, k := range ref.Keys {
					if k == "pk" || k == "ok2" || k == "qty2" {
						t.Errorf("%s: statement scans %s instead of probing it on the trigger's pk: %s",
							trig.Key(), agca.String(ref), s.String())
					}
				}
			})
		}
	}
}
