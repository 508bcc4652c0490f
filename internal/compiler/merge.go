package compiler

import (
	"strings"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/opt"
	"dbtoaster/internal/trigger"
)

// mergeIncrements merges, within each trigger, the increments that share an
// access path: the same target, target keys and group-by, and the same
// non-value factors (maps, relations, lifts) in the same order. They differ
// only in their value factors, so
//
//	T[k] += Sum[k](A * s1);  T[k] += Sum[k](A * s2)  ==>  T[k] += Sum[k](A * (s1 + s2))
//
// runs A's loop once. A merged statement whose value sum simplifies to 0 is
// dropped. The merged statement runs at its first member's position.
//
// This is sound because of the depth order SortStatements establishes: every
// statement reads only maps strictly deeper than its target, and those are
// updated later in the trigger, so two increments of one target see the same
// state. mergeIncrements does not rely on the depth bookkeeping alone: it
// moves a statement ahead of another only when the two commute (neither
// writes what the other reads, and a replacement of the target is never
// crossed), and it never touches a statement that reads its own target.
func mergeIncrements(p *trigger.Program) {
	if !mergeAccessPaths {
		return
	}
	for ti := range p.Triggers {
		t := &p.Triggers[ti]
		t.Stmts = mergeTrigger(t.Stmts, agca.NewVarSet(t.Args...))
	}
}

// increment is one statement of a trigger split for merging.
type increment struct {
	pos   int         // position in the trigger's statement list
	key   string      // target, keys, group-by and non-value factors
	gb    []string    // group-by of the RHS (nil: no aggregation)
	path  []agca.Expr // the non-value factors, in order
	value agca.Expr   // the product of the value factors, sign folded in
	terms []agca.Expr // value terms merged into this leader
}

func mergeTrigger(stmts []trigger.Statement, args agca.VarSet) []trigger.Statement {
	increments := map[string]int{}
	for _, s := range stmts {
		if s.Kind == trigger.StmtIncrement {
			increments[s.TargetMap]++
		}
	}
	shared := false
	for _, n := range increments {
		shared = shared || n > 1
	}
	if !shared {
		return stmts // the common case: one increment per target
	}
	readSets := make([]map[string]bool, len(stmts))
	reads := func(i int) map[string]bool {
		if readSets[i] == nil {
			readSets[i] = map[string]bool{}
			for _, m := range agca.MapRefs(stmts[i].RHS) {
				readSets[i][m] = true
			}
		}
		return readSets[i]
	}
	split := make([]*increment, len(stmts))
	for i, s := range stmts {
		if s.Kind == trigger.StmtIncrement && increments[s.TargetMap] > 1 && !reads(i)[s.TargetMap] {
			split[i] = splitIncrement(s, i)
		}
	}
	// commutes reports whether statement j may run ahead of statement k.
	commutes := func(j, k int) bool {
		tj, tk := stmts[j].TargetMap, stmts[k].TargetMap
		if reads(j)[tk] || reads(k)[tj] {
			return false
		}
		return tj != tk || stmts[k].Kind == trigger.StmtIncrement
	}
	leaders := map[string]*increment{}
	merged := false
	absorbed := make([]bool, len(stmts))
	for j, inc := range split {
		if inc == nil {
			continue
		}
		lead, ok := leaders[inc.key]
		if !ok {
			leaders[inc.key] = inc
			continue
		}
		movable := true
		for k := lead.pos + 1; k < j && movable; k++ {
			movable = commutes(j, k)
		}
		if !movable {
			leaders[inc.key] = inc // later members merge into this one
			continue
		}
		lead.terms = append(lead.terms, inc.value)
		absorbed[j] = true
		merged = true
	}
	if !merged {
		return stmts
	}
	out := make([]trigger.Statement, 0, len(stmts))
	for i, s := range stmts {
		if absorbed[i] {
			continue
		}
		if inc := split[i]; inc != nil && len(inc.terms) > 0 {
			value := opt.CombineLikeTerms(agca.Add(append([]agca.Expr{inc.value}, inc.terms...)...))
			if agca.IsZero(value) {
				continue
			}
			rhs := opt.Simplify(opt.Rebuild(inc.gb, false, append(append([]agca.Expr(nil), inc.path...), value)))
			s = trigger.Statement{
				TargetMap:  s.TargetMap,
				TargetKeys: s.TargetKeys,
				Kind:       s.Kind,
				RHS:        opt.NormalizeOrder(rhs, args),
				Depth:      s.Depth,
			}
		}
		out = append(out, s)
	}
	return out
}

// splitIncrement separates an increment's right-hand side into its access
// path (the non-value factors) and its value factors.
func splitIncrement(s trigger.Statement, pos int) *increment {
	gb, neg, factors := opt.Factors(s.RHS)
	inc := &increment{pos: pos, gb: gb}
	var values []agca.Expr
	var b strings.Builder
	b.WriteString(s.TargetMap)
	b.WriteString("[" + strings.Join(s.TargetKeys, ",") + "]")
	if gb != nil {
		b.WriteString(" Sum[" + strings.Join(gb, ",") + "]")
	}
	for _, f := range factors {
		if opt.IsValue(f) {
			values = append(values, f)
			continue
		}
		inc.path = append(inc.path, f)
		b.WriteString(" * " + agca.String(f))
	}
	inc.key = b.String()
	inc.value = agca.One
	if len(values) > 0 {
		inc.value = agca.Mul(values...)
	}
	if neg {
		inc.value = agca.Neg{E: inc.value}
	}
	return inc
}
