package exec

import (
	"fmt"
	"strings"
	"sync"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

// This file lowers trigger statements whose output key is fully determined by
// the trigger arguments — the shape of every single-view aggregate's hot
// statement (Q1, Q6, VWAP sums, the TPC-H probe queries) — into block
// executors: instead of one push-pipeline invocation per event, the statement
// runs as a short sequence of tight loops over the columnar Block, keeping a
// dense per-row multiplicity vector.
//
//   mults[i] = init            (constants and signs folded at compile time)
//   op_1 .. op_k               (each a loop over [lo, hi): predicate masks,
//                               column folds, batched map probes)
//   emit                       (keyed adds of the surviving rows, or one add
//                               of the block total for nullary targets)
//
// Comparisons specialize on the sealed block's column kinds at run time
// (int/float/string constant predicates run over the dense slices), and map
// probes hoist the store lookup out of the row loop: keys are encoded and
// hashed in one pass over the key columns, then probed with cached hashes.
// Shapes the lowering does not cover — statements that bind new variables per
// row (Rel scans, unbound Lifts, Exists) or emit keys not among the trigger
// arguments — report a CompileError and stay on the row-at-a-time path.

// blockRun is the per-call state of a block execution: the block and row
// range, the database, and the pooled scratch buffers.
type blockRun struct {
	b      *Block
	lo, hi int
	db     agca.Database
	sc     *blockScratch
}

// blockOp is one lowered factor: a loop over rows [lo, hi) that scales or
// masks the multiplicity vector.
type blockOp func(r *blockRun)

// blockRowScalar evaluates a scalar expression for one row of the block.
type blockRowScalar func(r *blockRun, i int) types.Value

// blockTerm is one additive term of the statement: a constant initial
// multiplicity (signs and constant factors folded in) followed by the ops of
// its non-constant factors.
type blockTerm struct {
	init float64
	ops  []blockOp
}

// blockScratch holds the reusable per-run buffers of a block executor.
// mults is indexed by absolute block row, like the column slices.
type blockScratch struct {
	mults    []float64
	keyBuf   []byte
	probeBuf []byte
	keyTuple types.Tuple
	hashes   []uint64
	offs     []int32
	vals     [][]types.Value
}

// BlockExecutor is one trigger statement compiled for columnar blocks. Like
// Executor it is immutable after compilation and safe for concurrent
// RunBlock calls; each call draws pooled scratch.
type BlockExecutor struct {
	terms    []blockTerm
	nArgs    int
	keyArgs  []int  // event-tuple positions forming the target key
	usedCols []bool // columns the typed loops index; the rest need no sealing
	valSizes []int
	prefills []prefill
	pool     sync.Pool
}

// UsedCols reports which event columns the executor's typed loops index —
// the columns worth sealing into dense slices. Callers must not mutate the
// returned slice. Columns read through generic row access (probe keys, row
// scalars, emitted target keys) are not marked: they cost the same either
// way.
func (x *BlockExecutor) UsedCols() []bool { return x.usedCols }

// blockCompiler carries the static state of one block compilation.
type blockCompiler struct {
	args     map[string]int // trigger argument -> event-tuple position
	used     []bool         // columns the typed loops will index
	valSizes []int
	prefills []prefill
	terms    []blockTerm
}

func (c *blockCompiler) argPos(name string) int {
	p, ok := c.args[name]
	if !ok {
		compilePanic("variable %q is not a trigger argument", name)
	}
	return p
}

// useCol marks column p as indexed by a typed loop and returns it.
func (c *blockCompiler) useCol(p int) int {
	c.used[p] = true
	return p
}

// CompileBlockStatement lowers "target[targetKeys] += rhs" under trigger
// arguments args into a block executor. Every target key must itself be a
// trigger argument (the emitted key is then a gather from the event columns),
// and the RHS must not bind variables per row. Unsupported shapes return a
// *CompileError; the caller keeps the statement on the row path.
func CompileBlockStatement(rhs agca.Expr, targetKeys []string, args []string) (x *BlockExecutor, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(*CompileError); ok {
				x, err = nil, ce
				return
			}
			panic(r)
		}
	}()
	c := &blockCompiler{args: make(map[string]int, len(args)), used: make([]bool, len(args))}
	for i, a := range args {
		c.args[a] = i
	}
	keyArgs := make([]int, len(targetKeys))
	for i, k := range targetKeys {
		p, ok := c.args[k]
		if !ok {
			compilePanic("target key %q is not a trigger argument", k)
		}
		keyArgs[i] = p
	}
	// Top-level bag union splits into additive terms (the accumulator is
	// additive, so emitting term by term equals emitting the sum).
	if sum, ok := stripAggSum(c, rhs).(agca.Sum); ok {
		for _, t := range sum.Terms {
			c.addTerm(t)
		}
	} else {
		c.addTerm(rhs)
	}
	return &BlockExecutor{
		terms:    c.terms,
		nArgs:    len(args),
		keyArgs:  keyArgs,
		usedCols: c.used,
		valSizes: c.valSizes,
		prefills: c.prefills,
	}, nil
}

// stripAggSum removes AggSum wrappers whose group-by variables are all
// trigger arguments: with every variable already bound, the projection is the
// identity on the (single-binding) result and the summation is exactly what
// the additive accumulator performs anyway.
func stripAggSum(c *blockCompiler, e agca.Expr) agca.Expr {
	for {
		agg, ok := e.(agca.AggSum)
		if !ok {
			return e
		}
		for _, g := range agg.GroupBy {
			if _, isArg := c.args[g]; !isArg {
				compilePanic("group-by variable %q is not a trigger argument", g)
			}
		}
		e = agg.E
	}
}

// addTerm flattens one additive term: products recurse, negations flip the
// sign, constants fold into the initial multiplicity, arg-bound AggSums
// strip, and every remaining factor lowers to a block op in source order
// (preserving the row pipeline's left-to-right zero short-circuit, so a
// factor that would not be evaluated row-at-a-time is skipped here too).
func (c *blockCompiler) addTerm(e agca.Expr) {
	term := blockTerm{init: 1}
	var factors []agca.Expr
	var walk func(e agca.Expr)
	walk = func(e agca.Expr) {
		switch n := e.(type) {
		case agca.Prod:
			for _, f := range n.Factors {
				walk(f)
			}
		case agca.Neg:
			term.init = -term.init
			walk(n.E)
		case agca.Const:
			term.init *= n.V.AsFloat()
		case agca.AggSum:
			walk(stripAggSum(c, n))
		default:
			factors = append(factors, e)
		}
	}
	walk(e)
	if term.init == 0 {
		return // the whole term is annihilated by a zero constant
	}
	for _, f := range factors {
		term.ops = append(term.ops, c.compileOp(f))
	}
	c.terms = append(c.terms, term)
}

// compileOp lowers one non-constant factor of a product.
func (c *blockCompiler) compileOp(e agca.Expr) blockOp {
	switch n := e.(type) {
	case agca.Var:
		return c.mulVarOp(c.useCol(c.argPos(n.Name)))
	case agca.Cmp:
		return c.cmpOp(n)
	case agca.MapRef:
		return c.probeOp(n.Name, n.Keys)
	case agca.Rel:
		// A relation atom with every variable bound is a multiplicity lookup;
		// with any unbound variable it binds rows, which the block form cannot
		// express. probeOp rejects unbound variables via argPos.
		return c.probeOp(n.Name, n.Vars)
	case agca.Lift:
		// A lift of a trigger argument is an equality filter; an unbound lift
		// introduces a per-row binding and stays on the row path.
		p, ok := c.args[n.Var]
		if !ok {
			compilePanic("lift binds variable %q per row", n.Var)
		}
		body := c.rowScalar(n.E)
		return func(r *blockRun) {
			mults := r.sc.mults
			for i := r.lo; i < r.hi; i++ {
				if mults[i] != 0 && !r.b.rows[i][p].Equal(body(r, i)) {
					mults[i] = 0
				}
			}
		}
	case agca.Exists:
		compilePanic("Exists requires per-row materialization")
		return nil
	default:
		// Div, Func, nested scalar Sum/Prod: fold the scalar into the
		// multiplicity row by row.
		return c.mulScalarOp(c.rowScalar(e))
	}
}

// mulVarOp multiplies the row multiplicities by event column p, with dense
// loops over sealed int/float columns.
func (c *blockCompiler) mulVarOp(p int) blockOp {
	return func(r *blockRun) {
		mults := r.sc.mults
		switch r.b.colKind(p) {
		case types.KindInt:
			col := r.b.cols[p].ints
			for i := r.lo; i < r.hi; i++ {
				mults[i] *= float64(col[i])
			}
		case types.KindFloat:
			col := r.b.cols[p].floats
			for i := r.lo; i < r.hi; i++ {
				mults[i] *= col[i]
			}
		default:
			for i := r.lo; i < r.hi; i++ {
				mults[i] *= r.b.rows[i][p].AsFloat()
			}
		}
	}
}

// mulScalarOp folds an arbitrary row scalar into the multiplicities,
// skipping rows already at zero (preserving the row pipeline's
// short-circuit: a scalar after a failed predicate is never evaluated).
func (c *blockCompiler) mulScalarOp(s blockRowScalar) blockOp {
	return func(r *blockRun) {
		mults := r.sc.mults
		for i := r.lo; i < r.hi; i++ {
			if mults[i] != 0 {
				mults[i] *= s(r, i).AsFloat()
			}
		}
	}
}

// cmpOp lowers a comparison factor to a predicate mask over the block. The
// dominant shapes — event column vs constant and column vs column — run over
// the sealed typed slices; everything else compares through row scalars.
func (c *blockCompiler) cmpOp(n agca.Cmp) blockOp {
	mask := cmpMaskFor(n.Op)
	lv, lVar := n.L.(agca.Var)
	rv, rVar := n.R.(agca.Var)
	lc, lConst := n.L.(agca.Const)
	rc, rConst := n.R.(agca.Const)
	switch {
	case lVar && rConst:
		return c.cmpColConstOp(c.useCol(c.argPos(lv.Name)), rc.V, mask, false)
	case lConst && rVar:
		// Compare(const, col) = -Compare(col, const); run the typed
		// column-vs-constant loop and flip the outcome sign.
		return c.cmpColConstOp(c.useCol(c.argPos(rv.Name)), lc.V, mask, true)
	case lVar && rVar:
		return c.cmpColColOp(c.useCol(c.argPos(lv.Name)), c.useCol(c.argPos(rv.Name)), mask)
	default:
		l := c.rowScalar(n.L)
		r := c.rowScalar(n.R)
		return func(run *blockRun) {
			mults := run.sc.mults
			for i := run.lo; i < run.hi; i++ {
				if mults[i] == 0 {
					continue
				}
				if mask&(1<<uint(types.Compare(l(run, i), r(run, i))+1)) == 0 {
					mults[i] = 0
				}
			}
		}
	}
}

// cmpColConstOp masks rows by comparing event column p against a constant.
// When swapped, the constant is the left operand of the source comparison
// and the computed outcome is negated before the mask test. The typed loops
// reproduce types.Compare exactly: same-kind compares are native, int
// columns against a float constant compare as floats (the cross-kind numeric
// rule), and any other pairing goes through types.Compare itself.
func (c *blockCompiler) cmpColConstOp(p int, cv types.Value, mask uint8, swapped bool) blockOp {
	test := func(cmp int) bool {
		if swapped {
			cmp = -cmp
		}
		return mask&(1<<uint(cmp+1)) != 0
	}
	return func(r *blockRun) {
		mults := r.sc.mults
		kind := r.b.colKind(p)
		switch {
		case kind == types.KindInt && cv.Kind() == types.KindInt:
			col, k := r.b.cols[p].ints, cv.AsInt()
			for i := r.lo; i < r.hi; i++ {
				cmp := 0
				if col[i] < k {
					cmp = -1
				} else if col[i] > k {
					cmp = 1
				}
				if !test(cmp) {
					mults[i] = 0
				}
			}
		case kind == types.KindInt && cv.Kind() == types.KindFloat:
			col, k := r.b.cols[p].ints, cv.AsFloat()
			for i := r.lo; i < r.hi; i++ {
				v := float64(col[i])
				cmp := 0
				if v < k {
					cmp = -1
				} else if v > k {
					cmp = 1
				}
				if !test(cmp) {
					mults[i] = 0
				}
			}
		case kind == types.KindFloat && (cv.Kind() == types.KindFloat || cv.Kind() == types.KindInt):
			col, k := r.b.cols[p].floats, cv.AsFloat()
			for i := r.lo; i < r.hi; i++ {
				cmp := 0
				if col[i] < k {
					cmp = -1
				} else if col[i] > k {
					cmp = 1
				}
				if !test(cmp) {
					mults[i] = 0
				}
			}
		case kind == types.KindString && cv.Kind() == types.KindString:
			col, k := r.b.cols[p].strs, cv.AsString()
			for i := r.lo; i < r.hi; i++ {
				if !test(strings.Compare(col[i], k)) {
					mults[i] = 0
				}
			}
		default:
			for i := r.lo; i < r.hi; i++ {
				if !test(types.Compare(r.b.rows[i][p], cv)) {
					mults[i] = 0
				}
			}
		}
	}
}

// cmpColColOp masks rows by comparing two event columns, with typed loops
// when both columns sealed to the same kind.
func (c *blockCompiler) cmpColColOp(lp, rp int, mask uint8) blockOp {
	return func(r *blockRun) {
		mults := r.sc.mults
		lk, rk := r.b.colKind(lp), r.b.colKind(rp)
		switch {
		case lk == types.KindInt && rk == types.KindInt:
			lc, rc := r.b.cols[lp].ints, r.b.cols[rp].ints
			for i := r.lo; i < r.hi; i++ {
				cmp := 0
				if lc[i] < rc[i] {
					cmp = -1
				} else if lc[i] > rc[i] {
					cmp = 1
				}
				if mask&(1<<uint(cmp+1)) == 0 {
					mults[i] = 0
				}
			}
		case lk == types.KindFloat && rk == types.KindFloat:
			lc, rc := r.b.cols[lp].floats, r.b.cols[rp].floats
			for i := r.lo; i < r.hi; i++ {
				cmp := 0
				if lc[i] < rc[i] {
					cmp = -1
				} else if lc[i] > rc[i] {
					cmp = 1
				}
				if mask&(1<<uint(cmp+1)) == 0 {
					mults[i] = 0
				}
			}
		case lk == types.KindString && rk == types.KindString:
			lc, rc := r.b.cols[lp].strs, r.b.cols[rp].strs
			for i := r.lo; i < r.hi; i++ {
				if mask&(1<<uint(strings.Compare(lc[i], rc[i])+1)) == 0 {
					mults[i] = 0
				}
			}
		default:
			for i := r.lo; i < r.hi; i++ {
				if mask&(1<<uint(types.Compare(r.b.rows[i][lp], r.b.rows[i][rp])+1)) == 0 {
					mults[i] = 0
				}
			}
		}
	}
}

// probeOp lowers a map reference (or fully bound relation atom) whose keys
// are all trigger arguments into a batched probe: the store is resolved once
// per block, the keys of all surviving rows are encoded and hashed in one
// pass over the key columns, and a second pass multiplies the cached-hash
// lookups into the multiplicities. keyCols follow the atom's key order, so
// the encoding matches the store's canonical tuple keys.
func (c *blockCompiler) probeOp(name string, keys []string) blockOp {
	keyCols := make([]int, len(keys))
	for i, k := range keys {
		keyCols[i] = c.argPos(k)
	}
	return func(r *blockRun) {
		mults := r.sc.mults
		store := r.db.Relation(name)
		if store.IsEmpty() {
			for i := r.lo; i < r.hi; i++ {
				mults[i] = 0
			}
			return
		}
		sc := r.sc
		n := r.hi - r.lo
		if cap(sc.offs) < n+1 {
			sc.offs = make([]int32, n+1)
			sc.hashes = make([]uint64, n)
		}
		offs := sc.offs[:n+1]
		hashes := sc.hashes[:n]
		buf := sc.keyBuf[:0]
		offs[0] = 0
		for i := r.lo; i < r.hi; i++ {
			j := i - r.lo
			if mults[i] == 0 {
				offs[j+1] = offs[j]
				continue
			}
			start := len(buf)
			row := r.b.rows[i]
			for _, col := range keyCols {
				buf = row[col].EncodeKey(buf)
			}
			offs[j+1] = int32(len(buf))
			hashes[j] = gmr.HashKey(buf[start:])
		}
		sc.keyBuf = buf
		for i := r.lo; i < r.hi; i++ {
			j := i - r.lo
			if mults[i] == 0 {
				continue
			}
			mults[i] *= store.GetEncodedHashed(hashes[j], buf[offs[j]:offs[j+1]])
		}
	}
}

// rowScalar lowers an expression in scalar position for per-row evaluation,
// mirroring compileScalar over block rows. Variables must be trigger
// arguments; map references with argument-bound keys probe the store row by
// row (they are rare in scalar position — the hot probes sit in relational
// position and batch).
func (c *blockCompiler) rowScalar(e agca.Expr) blockRowScalar {
	switch n := e.(type) {
	case agca.Const:
		v := n.V
		return func(r *blockRun, i int) types.Value { return v }
	case agca.Var:
		p := c.argPos(n.Name)
		return func(r *blockRun, i int) types.Value { return r.b.rows[i][p] }
	case agca.Neg:
		inner := c.rowScalar(n.E)
		return func(r *blockRun, i int) types.Value { return types.Neg(inner(r, i)) }
	case agca.Div:
		l := c.rowScalar(n.L)
		rr := c.rowScalar(n.R)
		return func(r *blockRun, i int) types.Value { return types.Div(l(r, i), rr(r, i)) }
	case agca.Sum:
		terms := make([]blockRowScalar, len(n.Terms))
		for i, t := range n.Terms {
			terms[i] = c.rowScalar(t)
		}
		return func(r *blockRun, i int) types.Value {
			acc := types.Value(types.Int(0))
			for _, t := range terms {
				acc = types.Add(acc, t(r, i))
			}
			return acc
		}
	case agca.Prod:
		factors := make([]blockRowScalar, len(n.Factors))
		for i, f := range n.Factors {
			factors[i] = c.rowScalar(f)
		}
		return func(r *blockRun, i int) types.Value {
			acc := types.Value(types.Int(1))
			for _, f := range factors {
				acc = types.Mul(acc, f(r, i))
			}
			return acc
		}
	case agca.Cmp:
		l := c.rowScalar(n.L)
		rr := c.rowScalar(n.R)
		mask := cmpMaskFor(n.Op)
		return func(r *blockRun, i int) types.Value {
			if mask&(1<<uint(types.Compare(l(r, i), rr(r, i))+1)) != 0 {
				return types.Int(1)
			}
			return types.Int(0)
		}
	case agca.Func:
		fn, ok := agca.ResolveFunc(n.Name)
		if !ok {
			compilePanic("unknown function %q", n.Name)
		}
		valsID := len(c.valSizes)
		c.valSizes = append(c.valSizes, len(n.Args))
		type colArg struct{ idx, pos int }
		type genArg struct {
			idx int
			fn  blockRowScalar
		}
		var colArgs []colArg
		var genArgs []genArg
		for i, a := range n.Args {
			switch an := a.(type) {
			case agca.Const:
				c.prefills = append(c.prefills, prefill{valsID: valsID, idx: i, val: an.V})
			case agca.Var:
				colArgs = append(colArgs, colArg{idx: i, pos: c.argPos(an.Name)})
			default:
				genArgs = append(genArgs, genArg{idx: i, fn: c.rowScalar(a)})
			}
		}
		return func(r *blockRun, i int) types.Value {
			vals := r.sc.vals[valsID]
			for _, ca := range colArgs {
				vals[ca.idx] = r.b.rows[i][ca.pos]
			}
			for _, ga := range genArgs {
				vals[ga.idx] = ga.fn(r, i)
			}
			return fn(vals)
		}
	case agca.MapRef:
		return c.rowProbeScalar(n.Name, n.Keys)
	case agca.Rel:
		return c.rowProbeScalar(n.Name, n.Vars)
	default:
		compilePanic("expression %T is not block-scalar", e)
		return nil
	}
}

// rowProbeScalar probes the named store with a key gathered from the event
// columns, one row at a time (the scalar-position analogue of probeOp).
func (c *blockCompiler) rowProbeScalar(name string, keys []string) blockRowScalar {
	keyCols := make([]int, len(keys))
	for i, k := range keys {
		keyCols[i] = c.argPos(k)
	}
	return func(r *blockRun, i int) types.Value {
		row := r.b.rows[i]
		buf := r.sc.probeBuf[:0]
		for _, col := range keyCols {
			buf = row[col].EncodeKey(buf)
		}
		r.sc.probeBuf = buf
		return types.Float(r.db.Relation(name).GetEncoded(buf))
	}
}

func (x *BlockExecutor) newScratch() *blockScratch {
	sc := &blockScratch{
		keyBuf:   make([]byte, 0, 256),
		keyTuple: make(types.Tuple, len(x.keyArgs)),
		vals:     make([][]types.Value, len(x.valSizes)),
	}
	for i, n := range x.valSizes {
		sc.vals[i] = make([]types.Value, n)
	}
	for _, p := range x.prefills {
		sc.vals[p.valsID][p.idx] = p.val
	}
	return sc
}

// RunBlock executes the statement over rows [lo, hi) of the block, adding
// every resulting delta into acc keyed by the statement's target keys.
// Chunks of one block may run concurrently (each call draws pooled scratch;
// the block itself is read-only), as long as their accumulators are disjoint
// or synchronized. Semantic panics (*agca.EvalError) are returned as errors.
func (x *BlockExecutor) RunBlock(db agca.Database, b *Block, lo, hi int, acc Accum) (err error) {
	if b.arity != x.nArgs {
		return fmt.Errorf("exec: block carries %d columns, executor expects %d", b.arity, x.nArgs)
	}
	if lo >= hi {
		return nil
	}
	sc, _ := x.pool.Get().(*blockScratch)
	if sc == nil {
		sc = x.newScratch()
	}
	defer func() {
		x.pool.Put(sc)
		if r := recover(); r != nil {
			if ee, ok := r.(*agca.EvalError); ok {
				err = ee
				return
			}
			panic(r)
		}
	}()
	if cap(sc.mults) < b.Len() {
		sc.mults = make([]float64, b.Len())
	}
	sc.mults = sc.mults[:b.Len()]
	run := blockRun{b: b, lo: lo, hi: hi, db: db, sc: sc}
	for ti := range x.terms {
		term := &x.terms[ti]
		for i := lo; i < hi; i++ {
			sc.mults[i] = term.init
		}
		for _, op := range term.ops {
			op(&run)
		}
		x.emitTerm(&run, acc)
	}
	return nil
}

// emitTerm adds the surviving rows of the current term into the accumulator.
// A nullary target collapses the whole chunk into a single add of the block
// total; a keyed target gathers each row's key from the event columns.
func (x *BlockExecutor) emitTerm(r *blockRun, acc Accum) {
	sc := r.sc
	if len(x.keyArgs) == 0 {
		total := 0.0
		for i := r.lo; i < r.hi; i++ {
			total += sc.mults[i]
		}
		if total != 0 {
			acc.AddEncoded(sc.keyBuf[:0], sc.keyTuple[:0], total)
		}
		return
	}
	for i := r.lo; i < r.hi; i++ {
		m := sc.mults[i]
		if m == 0 {
			continue
		}
		row := r.b.rows[i]
		for k, p := range x.keyArgs {
			sc.keyTuple[k] = row[p]
		}
		sc.keyBuf = sc.keyTuple.AppendKey(sc.keyBuf[:0])
		acc.AddEncoded(sc.keyBuf, sc.keyTuple, m)
	}
}
