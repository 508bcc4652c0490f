package workload

import (
	"fmt"
	"testing"

	"dbtoaster/internal/compiler"
	"dbtoaster/internal/trigger"
)

// triggerStatements counts the statements of each trigger, keyed "+R" / "-R".
func triggerStatements(p *trigger.Program) map[string]int {
	stmts := map[string]int{}
	for _, t := range p.Triggers {
		key := "-" + t.Relation
		if t.Insert {
			key = "+" + t.Relation
		}
		stmts[key] = len(t.Stmts)
	}
	return stmts
}

// TestFactoredValueSumShapes pins what keeping value sums factored and
// merging increments that share an access path buy the benchmarked
// programs: one statement per access path and one map per relational body.
// Q1's l_price * (1 + -(0.01 * l_disc)) is one statement per event, not two;
// Q3 keeps 6 maps, not 9 (the 0.01 * l_disc monomials no longer get maps of
// their own). A planner change that splits value sums again fails here by
// name; one that lowers a count re-pins it on purpose.
func TestFactoredValueSumShapes(t *testing.T) {
	pinned := []struct {
		name  string
		maps  int
		stmts map[string]int // per direction: insert and delete agree
	}{
		{"Q1", 1, map[string]int{"LINEITEM": 1}},
		{"Q3", 6, map[string]int{"LINEITEM": 3, "ORDERS": 4, "CUSTOMER": 3}},
		{"Q10", 7, map[string]int{"LINEITEM": 3, "ORDERS": 4, "CUSTOMER": 3}},
	}
	for _, want := range pinned {
		spec, ok := Get(want.name)
		if !ok {
			t.Fatalf("unknown workload query %q", want.name)
		}
		prog, err := compiler.Compile(spec.Query, spec.Catalog, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", want.name, err)
		}
		stmts := triggerStatements(prog)
		if maps := len(prog.Maps); maps != want.maps {
			t.Errorf("%s: %d maps, pinned at %d", want.name, maps, want.maps)
		}
		for rel, n := range want.stmts {
			for _, key := range []string{"+" + rel, "-" + rel} {
				if stmts[key] != n {
					t.Errorf("%s: trigger %s runs %d statements, pinned at %d", want.name, key, stmts[key], n)
				}
			}
		}
		if len(stmts) != 2*len(want.stmts) {
			t.Errorf("%s: triggers %v, pinned relations %v", want.name, stmts, want.stmts)
		}
	}

	// The shared program of the 18 queries (the shared-18 benchmark workload)
	// and of Q1+Q3 (live-e2e's served engine).
	for _, c := range []struct {
		names       []string
		maps, stmts int
	}{
		{[]string{"AXF", "BSP", "BSV", "MDDB1", "MST", "PSP", "Q1", "Q10", "Q11a", "Q12", "Q17a", "Q18a", "Q22a", "Q3", "Q4", "Q6", "SSB4", "VWAP"}, 85, 280},
		{[]string{"Q1", "Q3"}, 7, 22},
	} {
		label := fmt.Sprintf("CompileSet of %d queries", len(c.names))
		ms, err := Combine(c.names)
		if err != nil {
			t.Fatal(err)
		}
		prog, _, err := compiler.CompileSet(ms.Queries, ms.Catalog, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if st := prog.ComputeStats(); st.NumMaps != c.maps || st.NumStatements != c.stmts {
			t.Errorf("%s: %d maps and %d statements, pinned at %d and %d", label, st.NumMaps, st.NumStatements, c.maps, c.stmts)
		}
	}
}
