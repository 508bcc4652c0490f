package trigger

import (
	"testing"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/types"
)

// vwapProgram mirrors the compiler's VWAP output shape: commuting increment
// statements maintaining sub-aggregates, then an argument-independent
// replacement recomputing the result from them, identical across the insert
// and delete triggers.
func vwapProgram() *Program {
	tail := func() Statement {
		return Statement{TargetMap: "VWAP", Kind: StmtReplace,
			RHS: agca.Div{
				L: agca.MapRef{Name: "SUMPV"},
				R: agca.MapRef{Name: "SUMV"},
			}}
	}
	incs := func(sign int64) []Statement {
		return []Statement{
			{TargetMap: "SUMPV", Kind: StmtIncrement,
				RHS: agca.Mul(agca.Const{V: types.Int(sign)}, agca.Mul(agca.V("p"), agca.V("v")))},
			{TargetMap: "SUMV", Kind: StmtIncrement,
				RHS: agca.Mul(agca.Const{V: types.Int(sign)}, agca.V("v"))},
		}
	}
	return &Program{
		Queries: []QueryDef{{Name: "vwapish", ResultMap: "VWAP"}},
		Maps: []MapDef{
			{Name: "VWAP"}, {Name: "SUMPV"}, {Name: "SUMV"},
		},
		Triggers: []Trigger{
			{Relation: "B", Insert: true, Args: []string{"p", "v"},
				Stmts: append(incs(1), tail())},
			{Relation: "B", Insert: false, Args: []string{"p", "v"},
				Stmts: append(incs(-1), tail())},
		},
		Relations: map[string][]string{"B": {"p", "v"}},
	}
}

func TestRelationBatchSplitRejections(t *testing.T) {
	rejected := func(t *testing.T, what string, p *Program) {
		t.Helper()
		if class := p.RelationBatchSplit("B"); class != BatchNone {
			t.Fatalf("%s: class = %v, want BatchNone", what, class)
		}
	}
	// A replacement whose RHS mentions a trigger argument depends on which
	// event runs it.
	p := vwapProgram()
	last := len(p.Triggers[0].Stmts) - 1
	p.Triggers[0].Stmts[last].RHS = agca.V("p")
	rejected(t, "argument-reading replacement", p)

	// An increment after the replacement breaks the prefix/tail split.
	p = vwapProgram()
	stmts := p.Triggers[0].Stmts
	stmts[1], stmts[2] = stmts[2], stmts[1]
	rejected(t, "increment after replacement", p)

	// An increment reading a replaced map would observe the deferred tail
	// stale for every event but the first.
	p = vwapProgram()
	p.Triggers[0].Stmts[0].RHS = agca.MapRef{Name: "VWAP"}
	rejected(t, "increment reading replaced map", p)

	// Diverging tails across the insert and delete triggers.
	p = vwapProgram()
	p.Triggers[1].Stmts[last].RHS = agca.MapRef{Name: "SUMV"}
	rejected(t, "diverging tails", p)
}

// mergedProgram extends the VWAP shape with a second query's statements the
// way CompileSet merges triggers: BSV reads AUX, which the same trigger
// maintains.
func mergedProgram() *Program {
	p := vwapProgram()
	for ti := range p.Triggers {
		t := &p.Triggers[ti]
		tail := t.Stmts[len(t.Stmts)-1]
		conflict := []Statement{
			{TargetMap: "BSV", Kind: StmtIncrement,
				RHS: agca.Mul(agca.V("v"), agca.MapRef{Name: "AUX"})},
			{TargetMap: "AUX", Kind: StmtIncrement, RHS: agca.V("p")},
		}
		t.Stmts = append(append(t.Stmts[:len(t.Stmts)-1:len(t.Stmts)-1], conflict...), tail)
	}
	p.Maps = append(p.Maps, MapDef{Name: "BSV"}, MapDef{Name: "AUX"})
	return p
}

func TestRelationBatchSplit(t *testing.T) {
	// The VWAP shape — increments, then an argument-independent replacement —
	// earns the deferred tail.
	if class := vwapProgram().RelationBatchSplit("B"); class != BatchReevalTail {
		t.Fatalf("clean program: class = %v, want BatchReevalTail", class)
	}

	// One query's increments reading a map the window writes do not sink the
	// relation: increments run per event in stream order either way.
	if class := mergedProgram().RelationBatchSplit("B"); class != BatchReevalTail {
		t.Fatalf("merged program: class = %v, want BatchReevalTail", class)
	}

	// An increment of either direction reading a replaced map would see the
	// deferred tail stale: the whole relation runs per event.
	p := mergedProgram()
	for ti := range p.Triggers {
		p.Triggers[ti].Stmts[2].RHS = agca.Mul(agca.V("v"), agca.MapRef{Name: "VWAP"})
	}
	if class := p.RelationBatchSplit("B"); class != BatchNone {
		t.Fatalf("increment reads replaced map: class = %v, want BatchNone", class)
	}
}
