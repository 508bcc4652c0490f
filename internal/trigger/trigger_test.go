package trigger

import (
	"reflect"
	"testing"

	"dbtoaster/internal/agca"
)

// prog builds a two-relation program shaped like the compiler's HO-IVM output:
// R's trigger reads a map maintained by S's trigger and vice versa, so each
// relation's own statements commute within a window of its events.
func testProgram() *Program {
	return &Program{
		Queries: []QueryDef{{Name: "t", ResultMap: "Q"}},
		Maps: []MapDef{
			{Name: "Q", Keys: []string{"a"}},
			{Name: "MS", Keys: []string{"a"}},
			{Name: "MR", Keys: []string{"a"}},
		},
		Triggers: []Trigger{
			{
				Relation: "R", Insert: true, Args: []string{"a", "v"},
				Stmts: []Statement{
					{TargetMap: "Q", TargetKeys: []string{"a"}, Kind: StmtIncrement,
						RHS: agca.Mul(agca.V("v"), agca.MapRef{Name: "MS", Keys: []string{"a"}})},
					{TargetMap: "MR", TargetKeys: []string{"a"}, Kind: StmtIncrement,
						RHS: agca.V("v")},
				},
			},
			{
				Relation: "S", Insert: true, Args: []string{"a", "w"},
				Stmts: []Statement{
					{TargetMap: "Q", TargetKeys: []string{"a"}, Kind: StmtIncrement,
						RHS: agca.Mul(agca.V("w"), agca.MapRef{Name: "MR", Keys: []string{"a"}})},
					{TargetMap: "MS", TargetKeys: []string{"a"}, Kind: StmtIncrement,
						RHS: agca.V("w")},
				},
			},
		},
		Relations: map[string][]string{"R": {"a", "v"}, "S": {"a", "w"}},
	}
}

func TestStatementReadWriteSets(t *testing.T) {
	p := testProgram()
	s := p.Triggers[0].Stmts[0]
	if got := s.ReadSet(); !reflect.DeepEqual(got, []string{"MS"}) {
		t.Fatalf("ReadSet = %v, want [MS]", got)
	}
}

func TestRelationBatchSplitCommuting(t *testing.T) {
	// Increments always run per event, in stream order: a relation without a
	// replacement tail has nothing to defer.
	p := testProgram()
	for _, rel := range []string{"R", "S", "T"} {
		if class := p.RelationBatchSplit(rel); class != BatchNone {
			t.Fatalf("%s: class = %v, want BatchNone", rel, class)
		}
	}
}

// withTail appends to R's trigger a replacement recomputing a total from MR,
// which R's own increments maintain.
func withTail(p *Program) *Program {
	p.Triggers[0].Stmts = append(p.Triggers[0].Stmts, Statement{TargetMap: "TOT", Kind: StmtReplace,
		RHS: agca.SumOver(nil, agca.MapRef{Name: "MR", Keys: []string{"x"}})})
	p.Maps = append(p.Maps, MapDef{Name: "TOT"})
	return p
}

func TestRelationBatchSplitConflicts(t *testing.T) {
	if class := withTail(testProgram()).RelationBatchSplit("R"); class != BatchReevalTail {
		t.Fatalf("argument-free tail: class = %v, want BatchReevalTail", class)
	}

	// An increment reading a map the same window writes no longer matters:
	// every event's increments see the state the events before it left.
	p := withTail(testProgram())
	p.Triggers[0].Stmts[0].RHS = agca.Mul(agca.V("v"), agca.MapRef{Name: "MR", Keys: []string{"a"}})
	if class := p.RelationBatchSplit("R"); class != BatchReevalTail {
		t.Fatalf("read/write overlap on MR: class = %v, want BatchReevalTail", class)
	}

	// Nor does an increment scanning the updated base relation itself.
	p = withTail(testProgram())
	p.Triggers[0].Stmts[0].RHS = agca.R("R", "a", "v")
	if class := p.RelationBatchSplit("R"); class != BatchReevalTail {
		t.Fatalf("reading the updated relation: class = %v, want BatchReevalTail", class)
	}

	// A replacement that reads a trigger argument runs per event.
	p = testProgram()
	p.Triggers[0].Stmts[1].Kind = StmtReplace
	if class := p.RelationBatchSplit("R"); class != BatchNone {
		t.Fatalf("argument-reading replacement: class = %v, want BatchNone", class)
	}
}
