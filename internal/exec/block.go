package exec

import (
	"fmt"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/types"
)

// Block is a batch of event tuples for one trigger (relation and direction).
// Rows are aliased, not copied. The engine builds no Blocks: Block and
// BlockExecutor exist only for the traced exec rungs of the benchmark, and
// ROADMAP item 1(a) deletes them together with those rungs.
type Block struct {
	arity int
	rows  []types.Tuple
}

// NewBlock returns an empty block for event tuples of the given arity.
func NewBlock(arity int) *Block { return &Block{arity: arity} }

// Append adds one event tuple to the block. The tuple is aliased, not copied;
// callers must not mutate it afterwards. A tuple of the wrong arity panics.
func (b *Block) Append(t types.Tuple) {
	if len(t) != b.arity {
		panic(fmt.Sprintf("exec: Block arity %d, event tuple has %d values", b.arity, len(t)))
	}
	b.rows = append(b.rows, t)
}

// Len returns the number of rows in the block.
func (b *Block) Len() int { return len(b.rows) }

// SealUsed does nothing: the rows are run as they were appended.
func (b *Block) SealUsed(used []bool) {}

// BlockExecutor runs a compiled statement over the rows of a Block. It exists
// only for the traced exec rungs of the benchmark; ROADMAP item 1(a) deletes
// it together with them.
type BlockExecutor struct{ x *Executor }

// CompileBlockStatement is CompileStatement, wrapped to run over Blocks.
func CompileBlockStatement(rhs agca.Expr, targetKeys []string, args []string) (*BlockExecutor, error) {
	x, err := CompileStatement(rhs, targetKeys, args)
	if err != nil {
		return nil, err
	}
	return &BlockExecutor{x}, nil
}

// UsedCols returns nil: no column needs sealing.
func (bx *BlockExecutor) UsedCols() []bool { return nil }

// RunBlock runs the statement once per row in [lo, hi) of b, adding every
// result row into acc, and stops at the first error.
func (bx *BlockExecutor) RunBlock(db agca.Database, b *Block, lo, hi int, acc Accum) error {
	for _, row := range b.rows[lo:hi] {
		if err := bx.x.Run(db, row, acc); err != nil {
			return err
		}
	}
	return nil
}
