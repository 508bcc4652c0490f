package exec

import (
	"cmp"
	"slices"
	"sort"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/types"
)

// rangeSum is one statement's sorted snapshot of a relation for a range-sum site:
// the entries ordered on the compared column with the running multiplicity
// totals the site's operator needs, so that each evaluation of
// Sum[](M[k…] * {k_i ⋚ e}) is a binary search instead of a scan of M.
type rangeSum struct {
	built bool
	// exact is false when some key does not order like a float64 under
	// types.Compare (strings, NaN, integers beyond 2^53); the site then scans.
	exact   bool
	entries []rangeEntry
	// sums[i] totals the multiplicities of entries[i:] (sites comparing with
	// > or >=) or of entries[:i] (< or <=); it has len(entries)+1 elements.
	sums []float64
}

type rangeEntry struct {
	key, mult float64
}

// orderable converts v to the float64 that orders exactly as v does under
// types.Compare against every other orderable value.
func orderable(v types.Value) (float64, bool) {
	switch v.Kind() {
	case types.KindInt:
		i := v.AsInt()
		return float64(i), -1<<53 <= i && i <= 1<<53
	case types.KindFloat:
		f := v.AsFloat()
		return f, f == f
	default:
		return 0, false
	}
}

func (rs *rangeSum) build(m *machine, name string, arity, col int, above bool) {
	rs.built, rs.exact = true, true
	rel := m.db.Relation(name)
	rs.entries = make([]rangeEntry, 0, rel.Len())
	rel.Foreach(func(t types.Tuple, mult float64) {
		if len(t) != arity {
			rs.exact = false // the scan reports the arity error
			return
		}
		key, ok := orderable(t[col])
		rs.exact = rs.exact && ok
		rs.entries = append(rs.entries, rangeEntry{key: key, mult: mult})
	})
	if !rs.exact {
		return
	}
	slices.SortFunc(rs.entries, func(a, b rangeEntry) int { return cmp.Compare(a.key, b.key) })
	n := len(rs.entries)
	rs.sums = make([]float64, n+1)
	if above {
		for i := n - 1; i >= 0; i-- {
			rs.sums[i] = rs.sums[i+1] + rs.entries[i].mult
		}
	} else {
		for i := 0; i < n; i++ {
			rs.sums[i+1] = rs.sums[i] + rs.entries[i].mult
		}
	}
}

// compileRangeSum recognizes the scalar shape Sum[](M[k…] * {k_i ⋚ e}) — every
// key of M distinct and unbound, e a value over bound variables — and lowers
// it to a lookup in a sorted snapshot of M, built on the first evaluation in
// a statement and dropped after it. Within a statement its reads are stable
// (no statement emits into a map its right-hand side reads), so the snapshot
// equals what each scan would see.
// The nested aggregates of the order-book queries ("volume above this price")
// have this shape and are evaluated once per row of the outer loop.
func (c *compiler) compileRangeSum(e agca.Expr, bound agca.VarSet) (scalar, bool) {
	agg, ok := e.(agca.AggSum)
	if !ok || len(agg.GroupBy) != 0 {
		return nil, false
	}
	p, ok := agg.E.(agca.Prod)
	if !ok || len(p.Factors) != 2 {
		return nil, false
	}
	var name string
	var keys []string
	switch a := p.Factors[0].(type) {
	case agca.MapRef:
		name, keys = a.Name, a.Keys
	case agca.Rel:
		name, keys = a.Name, a.Vars
	default:
		return nil, false
	}
	pos := map[string]int{}
	for i, k := range keys {
		if _, dup := pos[k]; dup || bound[k] {
			return nil, false
		}
		pos[k] = i
	}
	cmpN, ok := p.Factors[1].(agca.Cmp)
	if !ok {
		return nil, false
	}
	op, keyE, valE := cmpN.Op, cmpN.L, cmpN.R
	if _, isKey := keyOf(keyE, pos); !isKey {
		op, keyE, valE = op.Swap(), cmpN.R, cmpN.L
	}
	col, isKey := keyOf(keyE, pos)
	if !isKey || op == agca.OpEq || op == agca.OpNe ||
		agca.HasRelOrMap(valE) || len(agca.InputVars(valE, bound)) != 0 {
		return nil, false
	}
	val := c.compileScalar(valE, bound)
	scan := c.compileSubquery(e, bound)
	id := c.nRanges
	c.nRanges++
	arity := len(keys)
	above := op == agca.OpGt || op == agca.OpGe
	// strict: the boundary key itself is excluded from the qualifying side.
	strict := op == agca.OpGt || op == agca.OpLt
	return func(m *machine) types.Value {
		rs := &m.ranges[id]
		if !rs.built {
			rs.build(m, name, arity, col, above)
		}
		x, ok := orderable(val(m))
		if !rs.exact || !ok {
			return scan(m)
		}
		// i is the first entry on the high side of the boundary.
		i := sort.Search(len(rs.entries), func(i int) bool {
			if above == strict {
				return rs.entries[i].key > x
			}
			return rs.entries[i].key >= x
		})
		return types.Float(rs.sums[i])
	}, true
}

// keyOf reports the column of the atom that e, a plain variable, names.
func keyOf(e agca.Expr, pos map[string]int) (int, bool) {
	v, ok := e.(agca.Var)
	if !ok {
		return 0, false
	}
	col, ok := pos[v.Name]
	return col, ok
}
