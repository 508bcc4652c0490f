// Package exec compiles trigger-statement right-hand sides (AGCA
// expressions) into closure-based executors, replacing the tree-walking
// interpreter on the per-event hot path.
//
// A statement is compiled once into a static pipeline of node closures over a
// small register machine: every variable gets a fixed slot, relation and map
// atoms resolve their schema positions and probe columns at compile time and
// bind their access path (agca.Binder) on a machine's first run, constants,
// comparisons and lifted scalars fold into scalar closures with no
// intermediate GMRs, and results are emitted as keyed adds into a
// caller-supplied accumulator through a reused key buffer. The pipeline is
// push-based with sideways information passing, mirroring the interpreter's
// product semantics: each factor's closure binds its output slots and invokes
// the next factor once per matching row, so per-event work is proportional to
// the delta, not to interpreter overhead.
//
// Expressions the compiler cannot lower (union-incompatible sums, scalar
// subqueries with statically unbound outputs, ...) report a compile error and
// the engine falls back to the interpreter for that statement, keeping the
// two executors result-equivalent by construction.
package exec

import (
	"fmt"
	"sync"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

// Accum receives the rows an executor emits: keyed multiplicity adds.
// *gmr.GMR implements it (the engine emits straight into a view's store, or
// into a scratch delta). The key bytes and the tuple are only valid during
// the call; implementations must copy what they retain (gmr.AddEncoded
// clones the tuple on insert).
type Accum interface {
	AddEncoded(key []byte, t types.Tuple, m float64) float64
}

// node is one stage of the compiled pipeline: it receives the multiplicity
// accumulated by the stages to its left (with variable bindings already
// written to the machine's register slots) and pushes each of its result rows
// to the next stage.
type node func(m *machine, mult float64)

// scalar is a compiled scalar expression evaluated over the register slots.
type scalar func(m *machine) types.Value

// machine is the mutable per-run state of an executor: the variable register
// file, scratch buffers for probe values, emission keys and materialization
// tables, and the run's database and accumulator. Machines are pooled per
// executor; an executor itself is immutable and safe for concurrent Run calls
// (each run draws its own machine).
type machine struct {
	regs []types.Value
	// vals holds one value buffer per function call and Exists node.
	vals [][]types.Value
	// scratch holds one lazily created materialization GMR per Exists node;
	// the flat tables are Reset (retaining arena and probe-table capacity)
	// after use, so steady-state materialization allocates nothing.
	scratch []*gmr.GMR
	// ranges holds one sorted snapshot per range-sum site (rangesum.go), built
	// on a site's first evaluation in a run and dropped when the run ends.
	ranges []rangeSum
	// keyBuf is the shared key-encoding buffer. Uses never span a downstream
	// call: every node builds its key, consumes it, and returns before pushing
	// rows further, so one buffer serves all nodes of the pipeline.
	keyBuf   []byte
	keyTuple types.Tuple
	// scalarAcc accumulates the multiplicity sum of a scalar subquery; nested
	// subqueries save and restore it.
	scalarAcc float64

	db  agca.Database
	acc Accum
	// binder is the database the handles were bound against (nil when the
	// run's database does not bind); handles[i] is the i-th probing atom's
	// handle, nil until that atom first runs. Both outlive a run, so a
	// machine reused against the same database binds each atom once; a run
	// against another database drops them.
	binder  agca.Binder
	handles []agca.Handle
}

// prefill is a constant written into a machine's vals buffer at machine
// creation (a constant function argument resolved at compile time).
type prefill struct {
	valsID int
	idx    int
	val    types.Value
}

// Executor is one compiled statement: run it once per event.
type Executor struct {
	root     node
	nArgs    int
	nRegs    int
	valSizes []int
	nScratch int
	nRanges  int
	nHandles int
	keySlots []int
	prefills []prefill
	pool     sync.Pool
}

// MachineCache holds one machine for a single-threaded caller (the engine's
// sequential Apply path keeps one per statement), avoiding the sync.Pool
// round trip of Run. A cache belongs to the executor that first populated it
// and must not be used concurrently.
type MachineCache struct {
	m *machine
}

// newMachine allocates a machine for the executor. The registers, the
// emission key and every probe-value buffer share one backing array, and the
// key buffer grows on first use: the engine keeps a machine per statement, so
// their size is part of every engine's resident heap.
func (x *Executor) newMachine() *machine {
	n := x.nRegs + len(x.keySlots)
	for _, s := range x.valSizes {
		n += s
	}
	backing := make([]types.Value, n)
	take := func(s int) []types.Value {
		v := backing[:s:s]
		backing = backing[s:]
		return v
	}
	m := &machine{
		regs:     take(x.nRegs),
		keyTuple: take(len(x.keySlots)),
		vals:     make([][]types.Value, len(x.valSizes)),
		scratch:  make([]*gmr.GMR, x.nScratch),
		ranges:   make([]rangeSum, x.nRanges),
		handles:  make([]agca.Handle, x.nHandles),
	}
	for i, s := range x.valSizes {
		m.vals[i] = take(s)
	}
	for _, p := range x.prefills {
		m.vals[p.valsID][p.idx] = p.val
	}
	return m
}

// Run executes the compiled statement: args is the event tuple (one value per
// trigger argument, in trigger-argument order), db provides the relations and
// materialized maps the statement reads, and every result row is added into
// acc keyed by the statement's target keys. acc must not be a relation the
// statement reads: rows are emitted while the pipeline is still scanning, and a
// range-sum site's sorted snapshot (rangesum.go) is taken once per run. (The
// engine emits straight into a view only when the right-hand side does not
// read it.) Semantic errors (the interpreter's *agca.EvalError panics) are
// returned as errors. Run is safe for concurrent use as far as db is (an
// engine belongs to its write side; a snapshot takes any number of readers);
// each call draws a pooled machine.
func (x *Executor) Run(db agca.Database, args types.Tuple, acc Accum) error {
	m, _ := x.pool.Get().(*machine)
	if m == nil {
		m = x.newMachine()
	}
	err := x.runWith(m, db, args, acc)
	x.pool.Put(m)
	return err
}

// RunCached is Run drawing its machine from the caller-owned cache instead
// of the pool. Not safe for concurrent use of the same cache.
func (x *Executor) RunCached(c *MachineCache, db agca.Database, args types.Tuple, acc Accum) error {
	if c.m == nil {
		c.m = x.newMachine()
	}
	return x.runWith(c.m, db, args, acc)
}

func (x *Executor) runWith(m *machine, db agca.Database, args types.Tuple, acc Accum) (err error) {
	if len(args) != x.nArgs {
		return fmt.Errorf("exec: event carries %d values, executor expects %d", len(args), x.nArgs)
	}
	m.db = db
	if x.nHandles > 0 {
		if b, _ := db.(agca.Binder); b != m.binder {
			m.binder = b
			clear(m.handles)
		}
	}
	m.acc = acc
	// Trigger arguments occupy slots 0..nArgs-1 by construction.
	copy(m.regs[:x.nArgs], args)
	defer func() {
		m.db, m.acc = nil, nil
		for i := range m.ranges {
			m.ranges[i] = rangeSum{}
		}
		if r := recover(); r != nil {
			// A panic mid-pipeline can leave materialization scratch tables
			// partially filled (their nodes reset them only on normal exit);
			// scrub them so the reused machine starts clean.
			for _, sm := range m.scratch {
				if sm != nil {
					sm.Reset()
				}
			}
			if ee, ok := r.(*agca.EvalError); ok {
				err = ee
				return
			}
			panic(r)
		}
	}()
	x.root(m, 1)
	return nil
}

// emit builds the final emission node reading the target-key slots.
func emit(keySlots []int) node {
	return func(m *machine, mult float64) {
		if mult == 0 {
			return
		}
		for i, s := range keySlots {
			m.keyTuple[i] = m.regs[s]
		}
		m.keyBuf = m.keyTuple.AppendKey(m.keyBuf[:0])
		m.acc.AddEncoded(m.keyBuf, m.keyTuple, mult)
	}
}
