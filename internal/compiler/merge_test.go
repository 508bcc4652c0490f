package compiler

import (
	"strings"
	"testing"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/trigger"
)

// TestMergeIncrementsCommutes pins when two increments sharing an access path
// merge: only when the later one may move up to the first without changing
// what any statement reads, never for a statement that reads its own target,
// and a merged sum that cancels runs nothing.
func TestMergeIncrementsCommutes(t *testing.T) {
	inc := func(target string, rhs agca.Expr) trigger.Statement {
		return trigger.Statement{TargetMap: target, TargetKeys: []string{}, Kind: trigger.StmtIncrement,
			RHS: agca.SumOver([]string{}, rhs)}
	}
	m := agca.MapRef{Name: "M", Keys: []string{"k"}}
	a, b := agca.V("A_t"), agca.V("B_t")
	for _, c := range []struct {
		name  string
		stmts []trigger.Statement
		want  []string
	}{
		{"merged across an unrelated statement",
			[]trigger.Statement{inc("T", agca.Mul(m, a)), inc("U", agca.One), inc("T", agca.Mul(m, b))},
			[]string{"T[] += Sum[]((M[k] * (A_t + B_t)))", "U[] += Sum[](1)"}},
		{"kept apart by a write to what they read",
			[]trigger.Statement{inc("T", agca.Mul(m, a)), inc("M", agca.One), inc("T", agca.Mul(m, b))},
			[]string{"T[] += Sum[]((M[k] * A_t))", "M[] += Sum[](1)", "T[] += Sum[]((M[k] * B_t))"}},
		{"kept apart by a read of their target",
			[]trigger.Statement{inc("T", agca.Mul(m, a)), inc("U", agca.MapRef{Name: "T", Keys: []string{}}), inc("T", agca.Mul(m, b))},
			[]string{"T[] += Sum[]((M[k] * A_t))", "U[] += Sum[](T[])", "T[] += Sum[]((M[k] * B_t))"}},
		{"a self-reading statement is left alone",
			[]trigger.Statement{inc("M", agca.Mul(m, a)), inc("M", agca.Mul(m, b))},
			[]string{"M[] += Sum[]((M[k] * A_t))", "M[] += Sum[]((M[k] * B_t))"}},
		{"a cancelling pair runs nothing",
			[]trigger.Statement{inc("T", agca.Mul(m, a)), inc("T", agca.Mul(agca.C(-1), m, a))},
			nil},
	} {
		got := mergeTrigger(c.stmts, agca.NewVarSet("A_t", "B_t"))
		var text []string
		for _, s := range got {
			text = append(text, s.String())
		}
		if strings.Join(text, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("%s:\ngot  %q\nwant %q", c.name, text, c.want)
		}
	}
}
