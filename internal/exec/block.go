package exec

import (
	"fmt"

	"dbtoaster/internal/types"
)

// Block is a columnar batch of event tuples: the struct-of-arrays form the
// block executors run over, one Block per trigger (relation and direction).
// The engine runs every event through the row executors and builds no
// Blocks; the block lowering is kept for callers that measure it.
//
// Rows are kept as aliased tuples (no copy) so generic fallbacks and key
// emission can read them directly; Seal additionally extracts one dense typed
// slice per column whose values are kind-homogeneous across the whole block,
// which is what the specialized predicate and fold loops index. Column slices
// use absolute row indices, so a chunk [lo, hi) of the block addresses them
// without re-slicing.
type Block struct {
	arity  int
	rows   []types.Tuple
	cols   []blockCol
	sealed bool
}

// blockCol is one column of a sealed block. kind is the homogeneous value
// kind of the column, or types.KindNull to mark a mixed/unsupported column
// that must be read through the generic row path.
type blockCol struct {
	kind   types.Kind
	ints   []int64
	floats []float64
	strs   []string
}

// NewBlock returns an empty block for event tuples of the given arity.
func NewBlock(arity int) *Block {
	return &Block{arity: arity, cols: make([]blockCol, arity)}
}

// Reset empties the block for reuse, retaining allocated capacity.
func (b *Block) Reset() {
	b.rows = b.rows[:0]
	b.sealed = false
	for i := range b.cols {
		c := &b.cols[i]
		c.kind = types.KindNull
		c.ints = c.ints[:0]
		c.floats = c.floats[:0]
		c.strs = c.strs[:0]
	}
}

// Append adds one event tuple to the block. The tuple is aliased, not copied;
// callers must not mutate it afterwards. Appending after Seal or with the
// wrong arity panics (both are programming errors in the batch planner).
func (b *Block) Append(t types.Tuple) {
	if b.sealed {
		panic("exec: Append on a sealed Block")
	}
	if len(t) != b.arity {
		panic(fmt.Sprintf("exec: Block arity %d, event tuple has %d values", b.arity, len(t)))
	}
	b.rows = append(b.rows, t)
}

// Len returns the number of rows in the block.
func (b *Block) Len() int { return len(b.rows) }

// Row returns the i-th event tuple (aliased).
func (b *Block) Row(i int) types.Tuple { return b.rows[i] }

// Seal transposes the appended rows into typed column slices. A column whose
// values all share one of the int/float/string kinds gets a dense typed
// slice; mixed, bool or null columns stay generic (read via the row tuples).
// Sealing is idempotent and only worth the pass when a block executor will
// run over the block.
func (b *Block) Seal() { b.SealUsed(nil) }

// SealUsed seals only the columns marked in used (every column when used is
// nil), leaving the rest generic. The typed loops only touch the columns
// their executors were compiled against (BlockExecutor.UsedCols), so wide
// event schemas — TPC-H lineitem carries 16 columns while Q6 reads four —
// skip most of the transposition work.
func (b *Block) SealUsed(used []bool) {
	if b.sealed {
		return
	}
	b.sealed = true
	if len(b.rows) == 0 {
		return
	}
	for ci := range b.cols {
		col := &b.cols[ci]
		if used != nil && (ci >= len(used) || !used[ci]) {
			col.kind = types.KindNull
			continue
		}
		kind := b.rows[0][ci].Kind()
		if kind != types.KindInt && kind != types.KindFloat && kind != types.KindString {
			col.kind = types.KindNull
			continue
		}
		homogeneous := true
		for _, r := range b.rows[1:] {
			if r[ci].Kind() != kind {
				homogeneous = false
				break
			}
		}
		if !homogeneous {
			col.kind = types.KindNull
			continue
		}
		col.kind = kind
		switch kind {
		case types.KindInt:
			if cap(col.ints) < len(b.rows) {
				col.ints = make([]int64, len(b.rows))
			} else {
				col.ints = col.ints[:len(b.rows)]
			}
			for i, r := range b.rows {
				col.ints[i] = r[ci].AsInt()
			}
		case types.KindFloat:
			if cap(col.floats) < len(b.rows) {
				col.floats = make([]float64, len(b.rows))
			} else {
				col.floats = col.floats[:len(b.rows)]
			}
			for i, r := range b.rows {
				col.floats[i] = r[ci].AsFloat()
			}
		case types.KindString:
			if cap(col.strs) < len(b.rows) {
				col.strs = make([]string, len(b.rows))
			} else {
				col.strs = col.strs[:len(b.rows)]
			}
			for i, r := range b.rows {
				col.strs[i] = r[ci].AsString()
			}
		}
	}
}

// colKind returns the homogeneous kind of column c (types.KindNull when the
// block is unsealed or the column is mixed).
func (b *Block) colKind(c int) types.Kind {
	if !b.sealed {
		return types.KindNull
	}
	return b.cols[c].kind
}
