package exec

import (
	"testing"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/types"
)

// BenchmarkCompiledScalar times the per-row Value traffic of compiled
// closures: TPC-H's discount factor -(0.01*d) + 1 through compileScalar,
// whose every node returns a types.Value, and a register-vs-register
// comparison node, which passes two to types.Compare. A Value too wide for
// the compiler to keep in registers (see types.TestValueLayout) shows here
// first: every such return and argument goes through memory.
func BenchmarkCompiledScalar(b *testing.B) {
	b.Run("discount", func(b *testing.B) {
		c := &compiler{slots: map[string]int{}}
		e := agca.Sum{Terms: []agca.Expr{
			agca.Neg{E: agca.Prod{Factors: []agca.Expr{agca.CF(0.01), agca.V("d")}}},
			agca.C(1),
		}}
		fn := c.compileScalar(e, agca.NewVarSet("d"))
		m := &machine{regs: make([]types.Value, len(c.slots))}
		m.regs[c.slots["d"]] = types.Int(6)
		if got := fn(m).AsFloat(); got != 1-0.01*6 {
			b.Fatalf("-(0.01*6) + 1 = %v", got)
		}
		for b.Loop() {
			fn(m)
		}
	})
	b.Run("cmp-reg-reg", func(b *testing.B) {
		c := &compiler{slots: map[string]int{}}
		pass := 0
		n := c.compileCmpNode(agca.Cmp{Op: agca.OpLt, L: agca.V("a"), R: agca.V("b")},
			agca.NewVarSet("a", "b"), func(m *machine, mult float64) { pass++ })
		m := &machine{regs: make([]types.Value, len(c.slots))}
		m.regs[c.slots["a"]], m.regs[c.slots["b"]] = types.Float(1.5), types.Float(2.5)
		for b.Loop() {
			n(m, 1)
		}
		if pass == 0 {
			b.Fatal("1.5 < 2.5 never passed")
		}
	})
}
