// Package exec compiles triggers into closure programs, replacing the
// tree-walking interpreter on the per-event hot path.
//
// CompileTrigger lowers a trigger's statements, in order, into one program
// over one register machine, as the paper's compiler emits one function per
// trigger. The trigger arguments fill the first registers once per event;
// each statement's variables get fixed slots above them, and the statements'
// regions overlap, since they run in order and write every local before
// reading it. Atoms resolve schema positions and probe columns at compile
// time and share one handle per (name, probe columns), bound (agca.Binder) on
// the machine's first run; scalars fold into closures with no intermediate
// GMRs; one key buffer serves every probe and emission. The pipeline pushes
// rows with sideways information passing, mirroring the interpreter's
// product semantics, so per-event work follows the delta.
//
// A statement's sink is fixed at compile time: an increment that does not
// read its target emits straight into it, anything else into a scratch delta
// the target merges after the statement. One recover per event turns the
// interpreter's *agca.EvalError panics into an error naming the statement. A
// statement the compiler cannot lower (union-incompatible sums, scalar
// subqueries with unbound outputs, ...) is an interpreted step of the same
// program. CompileStatement is the one-statement case, emitting into an
// accumulator chosen per run. CompileTrigger is the one lowering the engine
// runs; block.go only loops an Executor over a batch of rows for the
// benchmark's traced exec rungs.
package exec

import (
	"fmt"
	"sync"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

// Accum receives the rows an executor emits: keyed multiplicity adds.
// *gmr.GMR implements it. The key bytes and the tuple are only valid during
// the call; implementations must copy what they retain (gmr.AddEncoded
// clones the tuple on insert).
type Accum interface {
	AddEncoded(key []byte, t types.Tuple, m float64) float64
}

// Target is a statement's destination in a compiled trigger: a map whose
// key variables are Keys. Rows are added to it directly, or materialized
// into a scratch delta over Keys that Merge then adds whole (clearing the
// target first when replace is set).
type Target interface {
	Accum
	Keys() []string
	Merge(delta *gmr.GMR, replace bool)
}

// Stmt is one trigger statement as CompileTrigger takes it:
// "Target[TargetKeys] += RHS", or ":=" when Replace is set.
type Stmt struct {
	RHS        agca.Expr
	TargetKeys []string
	Target     Target
	Replace    bool
	// ReadsTarget marks a right-hand side that reads its own target: its
	// compiled rows are materialized before they reach the target.
	ReadsTarget bool
	// Interpret runs the statement through the interpreter (agca.Eval)
	// instead of lowering it.
	Interpret bool
}

// node is one stage of the compiled pipeline: it receives the multiplicity
// accumulated by the stages to its left (with variable bindings already
// written to the machine's register slots) and pushes each of its result rows
// to the next stage.
type node func(m *machine, mult float64)

// scalar is a compiled scalar expression evaluated over the register slots.
type scalar func(m *machine) types.Value

// program is a compiled sequence of statements over one register layout.
// It is immutable; the mutable state of a run lives in a machine.
type program struct {
	args     []string
	steps    []step
	nRegs    int
	nKey     int // the widest target key
	valSizes []int
	nScratch int
	nRanges  int
	nHandles int
	prefills []prefill
}

// step is one statement of a program: its pipeline or interpreter call.
// Range-sum sites are numbered in compile order, so a step's sites are the
// interval [rangeLo, rangeHi) of the machine's snapshots.
type step struct {
	run              node
	compiled         bool
	rangeLo, rangeHi int
}

// sink is where one step's rows go: acc, which is the target itself or, when
// scratch is set, the scratch delta that target merges after the step.
type sink struct {
	acc     Accum
	scratch *gmr.GMR
	target  Target
	replace bool
}

// machine is the mutable state of a program: the register file, scratch
// buffers for probe values, emission keys and materialization tables, the
// sinks, and the current run's database and accumulator. A Trigger owns one
// machine; an Executor pools them (each concurrent run draws its own).
type machine struct {
	regs []types.Value
	// vals holds one value buffer per function call and Exists node.
	vals [][]types.Value
	// scratch holds one lazily created materialization GMR per Exists node;
	// the flat tables are Reset (retaining arena and probe-table capacity)
	// after use, so steady-state materialization allocates nothing.
	scratch []*gmr.GMR
	// ranges holds one sorted snapshot per range-sum site (rangesum.go), built
	// on a site's first evaluation in a statement and dropped after it.
	ranges []rangeSum
	// keyBuf is the shared key-encoding buffer. Uses never span a downstream
	// call: every node builds its key, consumes it, and returns before pushing
	// rows further, so one buffer serves all nodes of the program.
	keyBuf   []byte
	keyTuple types.Tuple
	// scalarAcc accumulates the multiplicity sum of a scalar subquery; nested
	// subqueries save and restore it.
	scalarAcc float64
	// env binds the trigger arguments for interpreted steps; envSet marks
	// it filled for the current run.
	env    types.Env
	envSet bool

	sinks []sink
	db    agca.Database
	acc   Accum
	// binder is the database the handles were bound against (nil when the
	// run's database does not bind); handles[i] is the program's i-th
	// (name, probe columns) handle, nil until an atom first probes it. Both
	// outlive a run, so a machine reused against the same database binds each
	// access path once; a run against another database drops them.
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

// newMachine allocates a machine for the program. The registers, the
// emission key and every probe-value buffer share one backing array, and the
// key buffer grows on first use: the engine keeps a machine per trigger, so
// their size is part of every engine's resident heap.
func (p *program) newMachine() *machine {
	n := p.nRegs + p.nKey
	for _, s := range p.valSizes {
		n += s
	}
	backing := make([]types.Value, n)
	take := func(s int) []types.Value {
		v := backing[:s:s]
		backing = backing[s:]
		return v
	}
	m := &machine{
		regs:     take(p.nRegs),
		keyTuple: take(p.nKey),
		vals:     make([][]types.Value, len(p.valSizes)),
		scratch:  make([]*gmr.GMR, p.nScratch),
		ranges:   make([]rangeSum, p.nRanges),
		handles:  make([]agca.Handle, p.nHandles),
		sinks:    make([]sink, len(p.steps)),
	}
	for i, s := range p.valSizes {
		m.vals[i] = take(s)
	}
	for _, pf := range p.prefills {
		m.vals[pf.valsID][pf.idx] = pf.val
	}
	return m
}

// run executes steps [lo, hi) for one event under one recover: args fill the
// argument registers once, and a semantic error (the interpreter's
// *agca.EvalError panics) stops the run and is returned with the index of
// the step that raised it. Steps before it stay applied.
func (p *program) run(m *machine, db agca.Database, args types.Tuple, lo, hi int) (at int, err error) {
	if len(args) != len(p.args) {
		return lo, fmt.Errorf("exec: event carries %d values, executor expects %d", len(args), len(p.args))
	}
	m.db, m.envSet = db, false
	if p.nHandles > 0 {
		if b, _ := db.(agca.Binder); b != m.binder {
			m.binder = b
			clear(m.handles)
		}
	}
	copy(m.regs, args)
	defer func() {
		m.db, m.acc = nil, nil
		if r := recover(); r != nil {
			// A panic mid-pipeline can leave range snapshots built and
			// materialization scratch tables partially filled (their nodes
			// reset them only on normal exit); scrub them so the reused
			// machine starts clean.
			clear(m.ranges)
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
	for at = lo; at < hi; at++ {
		sk := &m.sinks[at]
		m.acc = sk.acc
		if sk.scratch != nil {
			sk.scratch.Reset()
		}
		st := &p.steps[at]
		st.run(m, 1)
		clear(m.ranges[st.rangeLo:st.rangeHi])
		if sk.scratch != nil {
			sk.target.Merge(sk.scratch, sk.replace)
		}
	}
	return at, nil
}

// Trigger is a trigger's statements compiled into one program with one
// machine and fixed sinks. It belongs to one goroutine (the engine's
// writer).
type Trigger struct {
	p *program
	m *machine
}

// Run executes statements [lo, hi) of the trigger for one event tuple (one
// value per trigger argument) against db. On a semantic error it returns the
// index of the failing statement; the statements before it stay applied.
func (t *Trigger) Run(db agca.Database, args types.Tuple, lo, hi int) (int, error) {
	return t.p.run(t.m, db, args, lo, hi)
}

// Compiled reports whether statement i was lowered (false: it runs through
// the interpreter).
func (t *Trigger) Compiled(i int) bool { return t.p.steps[i].compiled }

// Executor is one compiled statement emitting into an accumulator chosen per
// run: the one-statement case of a Trigger. It is immutable and safe for
// concurrent Run calls (each run draws a pooled machine).
type Executor struct {
	p    *program
	pool sync.Pool
}

// Run executes the compiled statement: args is the event tuple (one value per
// trigger argument, in trigger-argument order), db provides the relations and
// materialized maps the statement reads, and every result row is added into
// acc keyed by the statement's target keys. acc must not be a relation the
// statement reads: rows are emitted while the pipeline is still scanning, and a
// range-sum site's sorted snapshot (rangesum.go) is taken once per run.
// Semantic errors (the interpreter's *agca.EvalError panics) are returned as
// errors. Run is safe for concurrent use as far as db is (an engine belongs
// to its write side; a snapshot takes any number of readers).
func (x *Executor) Run(db agca.Database, args types.Tuple, acc Accum) error {
	m, _ := x.pool.Get().(*machine)
	if m == nil {
		m = x.p.newMachine()
	}
	m.sinks[0].acc = acc
	_, err := x.p.run(m, db, args, 0, 1)
	m.sinks[0].acc = nil
	x.pool.Put(m)
	return err
}

// emit builds the final emission node reading the target-key slots.
func emit(keySlots []int) node {
	return func(m *machine, mult float64) {
		if mult == 0 {
			return
		}
		key := m.keyTuple[:len(keySlots)]
		for i, s := range keySlots {
			key[i] = m.regs[s]
		}
		m.keyBuf = key.AppendKey(m.keyBuf[:0])
		m.acc.AddEncoded(m.keyBuf, key, mult)
	}
}

// interpret builds the step of a statement the compiler does not lower: the
// interpreter evaluates the right-hand side under the trigger arguments, and
// every result row is emitted keyed by the target keys, read from the
// arguments or from the result's columns.
func interpret(rhs agca.Expr, targetKeys, args []string) node {
	return func(m *machine, _ float64) {
		if !m.envSet {
			if m.env == nil {
				m.env = make(types.Env, len(args))
			}
			for i, a := range args {
				m.env[a] = m.regs[i]
			}
			m.envSet = true
		}
		res := agca.Eval(rhs, m.db, m.env)
		key := m.keyTuple[:len(targetKeys)]
		cols := make([]int, len(targetKeys))
		for i, k := range targetKeys {
			cols[i] = -1
			if v, ok := m.env[k]; ok {
				key[i] = v
			} else if cols[i] = res.Schema().Index(k); cols[i] < 0 {
				if res.IsEmpty() {
					// Nothing to apply; a truncated empty result may not
					// carry every column.
					return
				}
				panic(&agca.EvalError{Msg: fmt.Sprintf("result lacks key column %q (schema %v)", k, res.Schema())})
			}
		}
		res.Foreach(func(t types.Tuple, mult float64) {
			for i, c := range cols {
				if c >= 0 {
					key[i] = t[c]
				}
			}
			m.keyBuf = key.AppendKey(m.keyBuf[:0])
			m.acc.AddEncoded(m.keyBuf, key, mult)
		})
	}
}
