package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/exec"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/trigger"
	"dbtoaster/internal/types"
)

// Batch is a window of stream events grouped by target relation. Grouping
// preserves the relative order of events on the same relation and the
// first-appearance order of the relations; because every trigger program
// maintains its maps exactly, the final view contents after a window do not
// depend on the interleaving of events on different relations, which is what
// makes the per-relation grouping sound.
type Batch struct {
	groups []eventGroup
	n      int
}

type eventGroup struct {
	relation string
	events   []Event
}

// NewBatch groups a window of events by relation.
func NewBatch(events []Event) *Batch {
	b := &Batch{n: len(events)}
	pos := map[string]int{}
	for _, ev := range events {
		i, ok := pos[ev.Relation]
		if !ok {
			i = len(b.groups)
			pos[ev.Relation] = i
			b.groups = append(b.groups, eventGroup{relation: ev.Relation})
		}
		b.groups[i].events = append(b.groups[i].events, ev)
	}
	return b
}

// Len returns the number of events in the batch.
func (b *Batch) Len() int { return b.n }

// relationPlan is the cached batch execution plan for one relation's events:
// the conflict analysis verdict plus per-statement fast-path information.
type relationPlan struct {
	// class is the batch-execution class of the relation's triggers
	// (trigger.Program.RelationBatchSplit): BatchCommute groups batch,
	// BatchReevalTail groups batch their increments and run the replacement
	// tail once per window, BatchNone groups fall back to sequential
	// per-event execution. The split is statement-granular: a trigger may
	// carry a conflict closure (triggerPlan.seq) that replays per-event while
	// the remaining statements batch — in a merged multi-query program one
	// query's conflicting statements no longer sink every query sharing the
	// trigger. Downgraded to BatchNone when a target map does not resolve to
	// a view.
	class  trigger.BatchClass
	insert *triggerPlan
	delete *triggerPlan
	// insBlock/delBlock are the reusable columnar event blocks of the batched
	// path, one per direction (the write side is single-goroutine, so plan
	// scratch is safe to reuse across windows).
	insBlock *exec.Block
	delBlock *exec.Block
}

type triggerPlan struct {
	trig  *trigger.Trigger
	stmts []stmtPlan
	// incEnd is the end of the increment prefix: stmts[:incEnd] are the
	// incremental statements the batched path evaluates per event row,
	// stmts[incEnd:] the replacement tail a BatchReevalTail group runs once
	// per window.
	incEnd int
	// seq holds the indices of the conflict-closure statements (within
	// stmts[:incEnd]) that must keep per-event semantics: they read maps the
	// window writes, so batched windows replay them sequentially before the
	// batched phase. The closure and the batched set share no maps, so the
	// two phases commute.
	seq []int
	// hasBlock is true when at least one increment lowered to a block
	// executor, so the batched path seals the group's blocks into columns;
	// blockCols marks which columns those executors' typed loops index (the
	// union across statements — only they are worth transposing).
	hasBlock  bool
	blockCols []bool
	// needEnv is true when some increment takes the interpreter under the
	// current exec mode, so the batched path must keep the trigger
	// environment populated. Plans are rebuilt when the mode changes.
	needEnv bool
}

// stmtPlan precomputes everything about one statement that per-event
// execution would otherwise re-derive: the target view, the compiled closure
// executor (when the statement's shape lowers), where each target key comes
// from, and — for statements whose right-hand side is a pure scalar of the
// trigger arguments (no relation or map atoms) — the scalar expression
// itself, which the interpreted batch path evaluates without materializing
// intermediate GMRs.
type stmtPlan struct {
	stmt   *trigger.Statement
	target *View
	// exec is the statement's compiled executor; nil when compilation failed
	// (the statement stays on the interpreter) or the engine runs ExecInterp.
	exec *exec.Executor
	// block is the statement's columnar executor, compiled for increments
	// when the engine runs compiled columnar batches; nil when the shape does
	// not block-lower, in which case batched windows run the statement
	// row-at-a-time through exec (or the interpreter).
	block *exec.BlockExecutor
	// cache is the sequential path's dedicated executor machine (only the
	// engine's driving goroutine runs it; the batched path's concurrent
	// chunk workers draw pooled machines through Run instead).
	cache exec.MachineCache
	// directEmit marks compiled increments whose RHS does not read their own
	// target: the sequential path emits straight into the view.
	directEmit bool
	// scratch is the sequential path's reusable delta buffer for compiled
	// statements that cannot emit directly. Only the engine's driving
	// goroutine touches it (the batched path accumulates into per-worker
	// deltas instead).
	scratch *gmr.GMR
	// seqOnly marks conflict-closure statements (triggerPlan.seq): batched
	// windows run them on the sequential per-event pass and the block/chunk
	// evaluators skip them.
	seqOnly bool
	// keyArg[i] is the trigger-argument position feeding target key i, or -1
	// when the key must be read from a result column instead.
	keyArg []int
	// scalar, when non-nil, is the RHS stripped of its nullary Sum[] wrapper;
	// it is only set when every target key comes from the arguments.
	scalar agca.Expr
}

// planFor returns (building and caching if necessary) the batch plan for the
// relation's events, or nil when the program has no triggers for it. A
// one-entry cache short-circuits the common case of long runs of events on
// the same relation.
func (e *Engine) planFor(relation string) *relationPlan {
	if relation == e.lastRel && e.lastPlan != nil {
		return e.lastPlan
	}
	if p, ok := e.plans[relation]; ok {
		if p != nil {
			e.lastRel, e.lastPlan = relation, p
		}
		return p
	}
	ins := e.triggers["+"+relation]
	del := e.triggers["-"+relation]
	if ins == nil && del == nil {
		e.plans[relation] = nil
		return nil
	}
	class, seq := e.prog.RelationBatchSplit(relation)
	p := &relationPlan{class: class}
	if ins != nil {
		p.insert = e.planTrigger(ins, p, seq[ins.Key()])
	}
	if del != nil {
		p.delete = e.planTrigger(del, p, seq[del.Key()])
	}
	e.plans[relation] = p
	e.lastRel, e.lastPlan = relation, p
	return p
}

func (e *Engine) planTrigger(t *trigger.Trigger, rp *relationPlan, seq []int) *triggerPlan {
	tp := &triggerPlan{trig: t, stmts: make([]stmtPlan, len(t.Stmts)), incEnd: len(t.Stmts), seq: seq}
	for si := range t.Stmts {
		if t.Stmts[si].Kind == trigger.StmtReplace {
			tp.incEnd = si
			break
		}
	}
	isSeq := make(map[int]bool, len(seq))
	for _, si := range seq {
		isSeq[si] = true
	}
	argIdx := make(map[string]int, len(t.Args))
	for i, a := range t.Args {
		argIdx[a] = i
	}
	for si := range t.Stmts {
		s := &t.Stmts[si]
		sp := stmtPlan{stmt: s, target: e.views[s.TargetMap], keyArg: make([]int, len(s.TargetKeys)), seqOnly: isSeq[si]}
		if sp.target == nil {
			// An unknown target map is reported per event by the sequential
			// path; never take the batched one.
			rp.class = trigger.BatchNone
		}
		if sp.target != nil && e.execMode != ExecInterp {
			// Compile errors are expected for shapes the exec compiler does
			// not lower; those statements simply stay on the interpreter.
			sp.exec, _ = s.Executor(t.Args)
		}
		if sp.target != nil && s.Kind == trigger.StmtIncrement && !sp.seqOnly &&
			e.execMode == ExecCompiled && e.columnar {
			// Likewise, a block compile error keeps the statement on the
			// row-at-a-time path inside batched windows.
			sp.block, _ = s.BlockExecutor(t.Args)
			if sp.block != nil && si < tp.incEnd {
				tp.hasBlock = true
				if tp.blockCols == nil {
					tp.blockCols = make([]bool, len(t.Args))
				}
				for i, u := range sp.block.UsedCols() {
					if u {
						tp.blockCols[i] = true
					}
				}
			}
		}
		if sp.exec != nil && s.Kind == trigger.StmtIncrement {
			sp.directEmit = true
			for _, r := range s.ReadSet() {
				if r == s.TargetMap {
					sp.directEmit = false
					break
				}
			}
		}
		allFromArgs := true
		for i, k := range s.TargetKeys {
			if j, ok := argIdx[k]; ok {
				sp.keyArg[i] = j
			} else {
				sp.keyArg[i] = -1
				allFromArgs = false
			}
		}
		if allFromArgs && s.Kind == trigger.StmtIncrement {
			rhs := s.RHS
			if ag, ok := rhs.(agca.AggSum); ok && len(ag.GroupBy) == 0 {
				rhs = ag.E
			}
			bound := agca.NewVarSet(t.Args...)
			if !agca.HasRelOrMap(rhs) &&
				len(agca.OutputVars(rhs, bound)) == 0 &&
				len(agca.InputVars(rhs, bound)) == 0 {
				sp.scalar = rhs
			}
		}
		tp.stmts[si] = sp
		if si < tp.incEnd && !sp.seqOnly && (sp.exec == nil || e.execMode != ExecCompiled) {
			tp.needEnv = true
		}
	}
	return tp
}

// ApplyBatch processes a window of events. Groups whose triggers commute (no
// statement reads a map the group writes — the common shape of the paper's
// higher-order IVM programs, where a relation's delta queries only reference
// maps over the other relations) are executed on the batched path: the
// group's events are transposed into columnar blocks, per-event deltas are
// computed against the group's pre-state — through block executors where the
// statements lower, row-at-a-time otherwise — accumulated into key-hash-
// partitioned delta stores, and merged into the views with the combine work
// of even a single hot view spread across the worker pool. Groups with an
// argument-independent replacement tail (VWAP's re-evaluation) batch their
// increments the same way and run the tail once per window. Conflicting
// groups fall back to sequential per-event Apply, preserving the paper's
// one-trigger-per-event semantics exactly.
//
// A batched group is applied atomically: if any of its events fails, none of
// the group's deltas are merged.
//
// One epoch is published per batch: snapshot readers and subscribers observe
// batch boundaries, never a half-applied window.
func (e *Engine) ApplyBatch(b *Batch) error {
	if e.dur != nil {
		// Durable engines log the whole window as one record ahead of
		// executing it (durable.go) — group commit at batch granularity.
		return e.applyBatchDurable(b)
	}
	return e.applyBatchLogged(b)
}

// applyBatchLogged is ApplyBatch after the durability tee (or without one).
func (e *Engine) applyBatchLogged(b *Batch) error {
	if !e.serveActive.Load() {
		return e.applyBatchGroups(b, false)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.publishLocked()
	return e.applyBatchGroups(b, true)
}

// applyBatchGroups runs a batch's relation groups; in serving mode (serve
// true) callers hold e.mu.
func (e *Engine) applyBatchGroups(b *Batch, serve bool) error {
	for gi := range b.groups {
		g := &b.groups[gi]
		plan := e.planFor(g.relation)
		if plan == nil {
			// Relations the query does not reference are ignored, as the
			// paper's generated engines drop them.
			continue
		}
		if plan.class == trigger.BatchNone {
			for i := range g.events {
				if err := e.applyPlanned(plan, &g.events[i], serve); err != nil {
					return err
				}
			}
			continue
		}
		if err := e.applyGroup(plan, g.events); err != nil {
			return fmt.Errorf("engine: batch group %s: %w", g.relation, err)
		}
	}
	return nil
}

// workerDeltas accumulates, per target view, one worker's summed delta of
// its chunks, partitioned by output-key hash range. Every worker uses the
// same partition count, so part i of one worker's delta holds exactly the
// same key range as part i of another's — the disjointness the merge stage's
// lock-free combining relies on.
type workerDeltas struct {
	nParts int
	m      map[string]*gmr.Ranged
}

func newWorkerDeltas(nParts int) *workerDeltas {
	return &workerDeltas{nParts: nParts, m: map[string]*gmr.Ranged{}}
}

func (w *workerDeltas) acc(v *View) *gmr.Ranged {
	d, ok := w.m[v.name]
	if !ok {
		d = gmr.NewRanged(types.Schema(v.keys), w.nParts)
		w.m[v.name] = d
	}
	return d
}

// blockChunk is one unit of phase-1 work: a row range of one direction's
// columnar block, evaluated under that direction's trigger plan.
type blockChunk struct {
	tp     *triggerPlan
	block  *exec.Block
	lo, hi int
}

// applyGroup runs one batchable group. Phase 1 transposes the events into
// per-direction columnar blocks and evaluates the increment statements over
// row chunks (concurrently when more than one shard worker is configured),
// each worker accumulating into its own hash-range-partitioned deltas.
// Phase 2 combines the workers' deltas part by part — disjoint key ranges,
// so a single hot view's combine spreads across the pool — and applies the
// combined parts to the views. A re-evaluation tail, when present, runs once
// at the end on the driving goroutine.
func (e *Engine) applyGroup(plan *relationPlan, events []Event) error {
	insB, delB, n, err := e.buildGroupBlocks(plan, events)
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	// Phase 0: the conflict closure, per event in trigger order — exactly the
	// sequential path restricted to the closure statements. It runs before the
	// batched phases: the closure's reads and writes are disjoint from every
	// batchable statement's reads, so the batched deltas still see pre-window
	// state for everything they depend on.
	if err := e.runSeqStatements(plan, events); err != nil {
		return err
	}

	var chunks []blockChunk
	parallel := e.shards > 1 && n >= 2*e.shards
	for _, dir := range [2]struct {
		tp    *triggerPlan
		block *exec.Block
	}{{plan.insert, insB}, {plan.delete, delB}} {
		if dir.block == nil || dir.block.Len() == 0 {
			continue
		}
		if parallel {
			for _, r := range splitChunks(dir.block.Len(), e.shards) {
				chunks = append(chunks, blockChunk{tp: dir.tp, block: dir.block, lo: r[0], hi: r[1]})
			}
		} else {
			chunks = append(chunks, blockChunk{tp: dir.tp, block: dir.block, lo: 0, hi: dir.block.Len()})
		}
	}
	nw := 1
	if parallel && len(chunks) > 1 {
		nw = e.shards
		if nw > len(chunks) {
			nw = len(chunks)
		}
	}

	if nw == 1 {
		deltas := newWorkerDeltas(1)
		for _, c := range chunks {
			if err := e.evalBlockChunk(c.tp, c.block, c.lo, c.hi, deltas); err != nil {
				return err
			}
		}
		e.countEvents(uint64(n))
		for name, rd := range deltas.m {
			v := e.views[name]
			for i := 0; i < rd.NumParts(); i++ {
				if p := rd.Part(i); p != nil {
					v.MergeDelta(p)
				}
			}
		}
		e.captureGroupLocked(deltas.m)
	} else {
		results := make([]*workerDeltas, nw)
		errs := make([]error, nw)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wd := newWorkerDeltas(e.shards)
				results[w] = wd
				for {
					i := int(next.Add(1)) - 1
					if i >= len(chunks) {
						return
					}
					c := chunks[i]
					if err := e.evalBlockChunk(c.tp, c.block, c.lo, c.hi, wd); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		e.countEvents(uint64(n))
		combined := e.mergeRanged(results, nw)
		e.captureGroupLocked(combined)
	}

	if plan.class == trigger.BatchReevalTail {
		return e.runReevalTail(plan, events)
	}
	return nil
}

// buildGroupBlocks transposes a group's events into one columnar block per
// direction (skipping directions without a trigger), returning the number of
// rows transposed. Blocks are sealed into typed columns only when some
// statement will actually run a block executor over them.
func (e *Engine) buildGroupBlocks(plan *relationPlan, events []Event) (insB, delB *exec.Block, n int, err error) {
	for i := range events {
		ev := &events[i]
		var tp *triggerPlan
		var block **exec.Block
		if ev.Insert {
			tp, block = plan.insert, &insB
			if tp != nil && *block == nil {
				if plan.insBlock == nil {
					plan.insBlock = exec.NewBlock(len(tp.trig.Args))
				}
				plan.insBlock.Reset()
				*block = plan.insBlock
			}
		} else {
			tp, block = plan.delete, &delB
			if tp != nil && *block == nil {
				if plan.delBlock == nil {
					plan.delBlock = exec.NewBlock(len(tp.trig.Args))
				}
				plan.delBlock.Reset()
				*block = plan.delBlock
			}
		}
		if tp == nil {
			continue
		}
		if len(ev.Tuple) != len(tp.trig.Args) {
			return nil, nil, 0, fmt.Errorf("event on %s carries %d values, trigger expects %d",
				ev.Relation, len(ev.Tuple), len(tp.trig.Args))
		}
		(*block).Append(ev.Tuple)
		n++
	}
	if insB != nil && plan.insert.hasBlock {
		insB.SealUsed(plan.insert.blockCols)
	}
	if delB != nil && plan.delete.hasBlock {
		delB.SealUsed(plan.delete.blockCols)
	}
	return insB, delB, n, nil
}

// evalBlockChunk evaluates the increment statements of one trigger over rows
// [lo, hi) of a block against the engine's current (pre-window) state.
// Statements with block executors run their columnar loops over the whole
// chunk; the rest run row-at-a-time (compiled, scalar fast path, or
// interpreter). Evaluation only reads views, so chunks run concurrently.
func (e *Engine) evalBlockChunk(tp *triggerPlan, block *exec.Block, lo, hi int, deltas *workerDeltas) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if ee, ok := r.(*agca.EvalError); ok {
				err = ee
				return
			}
			panic(r)
		}
	}()
	compiled := e.execMode == ExecCompiled
	rowStmts := false
	for si := 0; si < tp.incEnd; si++ {
		sp := &tp.stmts[si]
		if sp.seqOnly {
			// Conflict-closure statements already ran on the per-event pass.
			continue
		}
		if compiled && sp.block != nil {
			if err := sp.block.RunBlock(e, block, lo, hi, deltas.acc(sp.target)); err != nil {
				return fmt.Errorf("statement %q: %w", sp.stmt.String(), err)
			}
			continue
		}
		rowStmts = true
	}
	if !rowStmts {
		return nil
	}
	var env types.Env
	if tp.needEnv {
		env = make(types.Env, len(tp.trig.Args))
	}
	for i := lo; i < hi; i++ {
		row := block.Row(i)
		if tp.needEnv {
			for j, a := range tp.trig.Args {
				env[a] = row[j]
			}
		}
		for si := 0; si < tp.incEnd; si++ {
			sp := &tp.stmts[si]
			if sp.seqOnly || (compiled && sp.block != nil) {
				continue
			}
			if compiled && sp.exec != nil {
				if err := sp.exec.Run(e, row, deltas.acc(sp.target)); err != nil {
					return fmt.Errorf("statement %q: %w", sp.stmt.String(), err)
				}
				continue
			}
			if sp.scalar != nil {
				m := agca.EvalScalar(sp.scalar, e, env).AsFloat()
				if m == 0 {
					continue
				}
				key := make(types.Tuple, len(sp.keyArg))
				for k, j := range sp.keyArg {
					key[k] = row[j]
				}
				deltas.acc(sp.target).Add(key, m)
				continue
			}
			if err := e.stmtDelta(sp, env, row, deltas.acc(sp.target)); err != nil {
				return fmt.Errorf("statement %q: %w", sp.stmt.String(), err)
			}
		}
	}
	return nil
}

// mergeRanged is phase 2 of a multi-worker group. Stage A combines the
// workers' deltas part by part: parts with the same index hold the same key-
// hash range across workers, so the (view, part) combine tasks are mutually
// disjoint and run lock-free across the pool — this is where one hot view's
// merge work parallelizes. Parts only one worker touched are adopted by
// pointer. Stage B applies each view's combined parts to the view, one task
// per view (a view's flat store is a single structure; applying it is the
// serial minimum). Small groups skip the goroutine fan-out.
func (e *Engine) mergeRanged(results []*workerDeltas, nw int) map[string]*gmr.Ranged {
	perView := map[string][]*gmr.Ranged{}
	total := 0
	for _, wd := range results {
		if wd == nil {
			continue
		}
		for name, rd := range wd.m {
			perView[name] = append(perView[name], rd)
			total += rd.Len()
		}
	}
	combined := make(map[string]*gmr.Ranged, len(perView))
	type partTask struct {
		dst  *gmr.Ranged
		srcs []*gmr.Ranged
		part int
	}
	var tasks []partTask
	for name, list := range perView {
		combined[name] = list[0]
		if len(list) == 1 {
			continue
		}
		for p := 0; p < list[0].NumParts(); p++ {
			tasks = append(tasks, partTask{dst: list[0], srcs: list[1:], part: p})
		}
	}
	combinePart := func(t partTask) {
		dstPart := t.dst.Part(t.part)
		for _, src := range t.srcs {
			sp := src.Part(t.part)
			if sp == nil {
				continue
			}
			if dstPart == nil {
				t.dst.SetPart(t.part, sp)
				dstPart = sp
				continue
			}
			dstPart.MergeInto(sp, 1)
		}
	}
	// Stage A: combine across workers, parallel over (view, part).
	const inlineThreshold = 256
	if total < inlineThreshold || len(tasks) <= 1 {
		for _, t := range tasks {
			combinePart(t)
		}
	} else {
		runTasks(nw, len(tasks), func(i int) { combinePart(tasks[i]) })
	}

	// Stage B: apply combined parts, parallel over views.
	names := make([]string, 0, len(combined))
	for name := range combined {
		names = append(names, name)
	}
	applyView := func(i int) {
		v := e.views[names[i]]
		rd := combined[names[i]]
		for p := 0; p < rd.NumParts(); p++ {
			if part := rd.Part(p); part != nil {
				v.MergeDelta(part)
			}
		}
	}
	if total < inlineThreshold || len(names) <= 1 {
		for i := range names {
			applyView(i)
		}
	} else {
		runTasks(nw, len(names), func(i int) { applyView(i) })
	}
	return combined
}

// runTasks runs n tasks across up to nw goroutines pulling from a shared
// counter.
func runTasks(nw, n int, task func(i int)) {
	if nw > n {
		nw = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(i)
			}
		}()
	}
	wg.Wait()
}

// runSeqStatements replays a split group's conflict-closure statements
// (triggerPlan.seq) per event on the driving goroutine. Events are processed
// in stream order, each through its direction's closure statements in trigger
// order, so the closure observes exactly the intermediate states sequential
// execution would have produced — the closure is closed under "maintains a
// map a closure statement reads", so no map it touches is updated anywhere
// else in the window.
func (e *Engine) runSeqStatements(plan *relationPlan, events []Event) error {
	hasSeq := (plan.insert != nil && len(plan.insert.seq) > 0) ||
		(plan.delete != nil && len(plan.delete.seq) > 0)
	if !hasSeq {
		return nil
	}
	for i := range events {
		ev := &events[i]
		tp := plan.delete
		if ev.Insert {
			tp = plan.insert
		}
		if tp == nil || len(tp.seq) == 0 {
			continue
		}
		var env types.Env
		for _, si := range tp.seq {
			sp := &tp.stmts[si]
			if err := e.executeStmt(sp, ev.Tuple, tp.trig.Args, &env); err != nil {
				return fmt.Errorf("%s: statement %q: %w", tp.trig.Key(), sp.stmt.String(), err)
			}
		}
	}
	return nil
}

// runReevalTail executes the trailing replacement statements of a
// BatchReevalTail group once, after the merged increments. The tails of the
// relation's triggers are identical and argument-independent (that is what
// earned the class), so running the last applicable event's tail on the
// post-window state produces exactly the map contents sequential per-event
// execution would have left behind.
func (e *Engine) runReevalTail(plan *relationPlan, events []Event) error {
	for i := len(events) - 1; i >= 0; i-- {
		ev := &events[i]
		tp := plan.delete
		if ev.Insert {
			tp = plan.insert
		}
		if tp == nil || tp.incEnd == len(tp.stmts) {
			continue
		}
		var env types.Env
		for si := tp.incEnd; si < len(tp.stmts); si++ {
			if err := e.executeStmt(&tp.stmts[si], ev.Tuple, tp.trig.Args, &env); err != nil {
				return fmt.Errorf("%s: statement %q: %w", tp.trig.Key(), tp.stmts[si].stmt.String(), err)
			}
		}
		return nil
	}
	return nil
}

// captureGroupLocked folds the batched path's per-view deltas into the
// subscription hub's capture accumulators — the batched path feeds
// subscribers from the very deltas it merged into the views, with no extra
// evaluation. Callers hold e.mu.
func (e *Engine) captureGroupLocked(deltas map[string]*gmr.Ranged) {
	if !e.capturing {
		return
	}
	for name, rd := range deltas {
		c := e.capture[name]
		if c == nil {
			continue
		}
		for p := 0; p < rd.NumParts(); p++ {
			c.MergeInto(rd.Part(p), 1)
		}
	}
}

// splitChunks cuts total rows into at most n contiguous [lo, hi) ranges.
// The first total%n ranges carry one extra row, so no range is ever empty
// and sizes differ by at most one — in particular a total just above the
// parallelism gate (2*shards) still yields balanced chunks rather than a
// degenerate trailing sliver.
func splitChunks(total, n int) [][2]int {
	if n > total {
		n = total
	}
	if n <= 0 {
		return nil
	}
	base, rem := total/n, total%n
	out := make([][2]int, 0, n)
	lo := 0
	for i := 0; i < n; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, [2]int{lo, lo + size})
		lo += size
	}
	return out
}

// stmtDelta evaluates one general (non-scalar) statement for one event
// through the interpreter and accumulates the resulting target-key deltas.
// It mirrors the key binding semantics of the sequential execute path: keys
// bound by the trigger environment win over result columns of the same name.
func (e *Engine) stmtDelta(sp *stmtPlan, env types.Env, tuple types.Tuple, acc *gmr.Ranged) error {
	res := agca.Eval(sp.stmt.RHS, e, env)
	schema := res.Schema()
	cols := make([]int, len(sp.keyArg))
	for i, j := range sp.keyArg {
		if j >= 0 {
			continue
		}
		col := schema.Index(sp.stmt.TargetKeys[i])
		if col < 0 {
			if res.IsEmpty() {
				// Nothing to apply; a truncated empty result may not carry
				// every column.
				return nil
			}
			return fmt.Errorf("result lacks key column %q (schema %v)", sp.stmt.TargetKeys[i], schema)
		}
		cols[i] = col
	}
	res.Foreach(func(t types.Tuple, m float64) {
		key := make(types.Tuple, len(sp.keyArg))
		for i, j := range sp.keyArg {
			if j >= 0 {
				key[i] = tuple[j]
			} else {
				key[i] = t[cols[i]]
			}
		}
		acc.Add(key, m)
	})
	return nil
}
