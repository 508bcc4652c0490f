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
		QueryName: "t",
		ResultMap: "Q",
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
	if got := s.WriteSet(); !reflect.DeepEqual(got, []string{"Q"}) {
		t.Fatalf("WriteSet = %v, want [Q]", got)
	}
}

func TestEventWriteSet(t *testing.T) {
	p := testProgram()
	got := p.EventWriteSet("R")
	want := map[string]bool{"Q": true, "MR": true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("EventWriteSet(R) = %v, want %v", got, want)
	}
}

func TestRelationBatchSplitCommuting(t *testing.T) {
	p := testProgram()
	for _, rel := range []string{"R", "S"} {
		if class, seq := p.RelationBatchSplit(rel); class != BatchCommute || len(seq) != 0 {
			t.Fatalf("%s: split = (%v, %v), want (BatchCommute, none): reads and writes are disjoint", rel, class, seq)
		}
	}
	if class, seq := p.RelationBatchSplit("T"); class != BatchNone || seq != nil {
		t.Fatalf("relation without triggers: split = (%v, %v), want (BatchNone, nil)", class, seq)
	}
}

func TestRelationBatchSplitConflicts(t *testing.T) {
	// A statement reading a map the same event window writes replays per
	// event, together with the statement maintaining that map.
	p := testProgram()
	p.Triggers[0].Stmts[0].RHS = agca.Mul(agca.V("v"), agca.MapRef{Name: "MR", Keys: []string{"a"}})
	class, seq := p.RelationBatchSplit("R")
	if class != BatchCommute || !reflect.DeepEqual(seq, map[string][]int{"+R": {0, 1}}) {
		t.Fatalf("read/write overlap on MR: split = (%v, %v), want (BatchCommute, +R:[0 1])", class, seq)
	}

	// A replacement statement that reads a trigger argument forces sequential
	// order for the whole relation.
	p = testProgram()
	p.Triggers[0].Stmts[1].Kind = StmtReplace
	if class, seq := p.RelationBatchSplit("R"); class != BatchNone || seq != nil {
		t.Fatalf("argument-reading replacement: split = (%v, %v), want (BatchNone, nil)", class, seq)
	}

	// A statement that scans the updated base relation itself must not batch
	// with its updates.
	p = testProgram()
	p.Triggers[0].Stmts[0].RHS = agca.R("R", "a", "v")
	class, seq = p.RelationBatchSplit("R")
	if class != BatchCommute || !reflect.DeepEqual(seq, map[string][]int{"+R": {0}}) {
		t.Fatalf("reading the updated relation: split = (%v, %v), want (BatchCommute, +R:[0])", class, seq)
	}
}
