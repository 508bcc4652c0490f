package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/exec"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/serve"
	"dbtoaster/internal/types"
	"dbtoaster/internal/wal"
	"dbtoaster/internal/workload"
)

// This file is the traced run (--trace 1): the workload's own phases again,
// shorter, with spans recorded around every call into a layer, and then the
// layer suite — each layer timed from outside through its public functions,
// and the ablation ladder that switches the layers of the served
// configuration on one at a time. Everything here is reported, never gated.

// traceShare is the share of the run's work the traced run spends on
// repeating the workload's phases; the rest of its time goes to the suite.
const traceShare = 0.3

// tracedRecoverReps is how many Recover calls the traced run makes, one after
// the other.
const tracedRecoverReps = 3

// tracedRun produces every per-layer metric and the span file.
func (r *runner) tracedRun(m map[string]float64) error {
	r.tr = newTracer()
	r.share = traceShare
	heap0 := heapLive()

	// Setup, once, span by span.
	var info setupInfo
	var err error
	root := r.tr.begin("setup", -1, -1)
	if r.w.live {
		var s *served
		if s, info, err = buildServed(r.procs, r.outDir, r.tr, root); err != nil {
			return err
		}
		s.close()
	} else {
		for _, set := range r.w.engineSets() {
			_, one, err := buildEngine(set, r.procs, r.tr, root)
			if err != nil {
				return err
			}
			info.add(one)
		}
	}
	r.tr.end(root)
	m["sql.parse_translate_ms"] = info.parseMs
	m["sql.statements"] = float64(info.sqlStatements)
	m["compiler.compile_ms"] = info.compileMs
	m["compiler.maps"] = float64(info.maps)
	m["compiler.statements"] = float64(info.statements)
	m["compiler.shared_maps"] = float64(info.sharedMaps)
	m["engine.init_ms"] = info.initMs

	// The workload's closed loop, untraced then traced: the ratio of the two
	// rates is what the spans cost.
	var plain, traced, mean []float64
	if !r.w.live {
		var engines []*engine.Engine
		for i, set := range r.w.engineSets() {
			eng, _, err := buildEngine(set, r.procs, nil, -1)
			if err != nil {
				return err
			}
			// One segment only: the untraced and the traced cycles must see
			// the same data.
			cur, perEvent := phaseCursor(r.own.segs[:1], r.w.window)
			p, t, _, err := r.overheadLoop(eng, cur, perEvent, r.w.rounds*r.w.cycles[i], "closed-loop."+set[0])
			if err != nil {
				return err
			}
			plain, traced, mean = append(plain, p.rate()), append(traced, t.rate()), append(mean, p.meanRate())
			engines = append(engines, eng)
		}
		engineCounts(m, engines)
	}

	sv, err := r.servedSequence(heap0, func(eng *engine.Engine, cur *cursor) (*cycleTimes, error) {
		p, t, _, err := r.overheadLoop(eng, cur, false, r.w.fillCycles, "fill")
		if r.w.live && err == nil {
			plain, traced, mean = []float64{p.rate()}, []float64{t.rate()}, []float64{p.meanRate()}
			engineCounts(m, []*engine.Engine{eng})
		}
		return p, err
	}, true)
	if err != nil {
		return err
	}
	for len(r.recTimes) < tracedRecoverReps {
		if err := r.recoverAgain(); err != nil {
			return err
		}
	}
	m["trace.overhead_pct"] = 100 * (geomean(plain)/geomean(traced) - 1)
	m["engine.closed_loop_mean_eps"] = geomean(mean)

	vis, hop, late := sortedMs(sv.lat.visible), sortedMs(sv.lat.hop), sortedMs(sv.lat.late)
	m["serve.visible_p50_ms"] = percentile(vis, 50)
	m["serve.visible_p95_ms"] = percentile(vis, 95)
	m["serve.snapshot_p50_ms"] = percentile(sortedMs(sv.lat.snapshot), 50)
	m["serve.hop_p50_ms"] = percentile(hop, 50)
	m["serve.hop_p95_ms"] = percentile(hop, 95)
	m["serve.visible_p99_ms"] = percentile(vis, 99)
	m["serve.visible_max_ms"] = percentile(vis, 100)
	m["serve.visible_samples"] = float64(len(vis))
	m["serve.snapshot_samples"] = float64(len(sv.lat.snapshot))
	m["serve.delivered_batches"] = float64(sv.hub.delivered)
	m["serve.coalesced"] = float64(sv.hub.coalesced)
	m["serve.catchup_ms"] = sv.catchupMs
	m["serve.snapshot_http_ms"] = sv.quietSnapshotMs
	m["gen.rate_eps"] = sv.lat.rateEps
	m["gen.late_p95_ms"] = percentile(late, 95)
	m["gen.backlog_end_events"] = float64(sv.lat.backlog)
	m["wal.chain_length"] = float64(r.recStats.ChainLength)
	m["wal.scan_ms"] = r.scanMs
	m["wal.replay_ns_per_event"] = 0
	if n := r.recStats.ReplayedEvents; n > 0 {
		m["wal.replay_ns_per_event"] = (slices.Min(r.recTimes)*1e3 - r.scanMs) * 1e6 / float64(n)
	}

	if err := r.layerSuite(m, 1e9/sv.fill.rate()); err != nil {
		return err
	}
	m["trace.spans"] = float64(len(r.tr.spans))
	path, err := r.tr.write(r.outDir, r.w.name, r.stamp)
	if err != nil {
		return err
	}
	fmt.Printf("# %d spans written to %s\n", len(r.tr.spans), path)
	return nil
}

// engineCounts reports what the engines hold and how their statements run.
func engineCounts(m map[string]float64, engines []*engine.Engine) {
	var views, bytes, compiled, interp int
	for _, eng := range engines {
		views += len(eng.ViewSizes())
		bytes += eng.MemoryBytes()
		st := eng.ExecStats()
		compiled += st.CompiledStmts
		interp += st.InterpStmts
	}
	m["engine.views"] = float64(views)
	m["engine.view_bytes"] = float64(bytes)
	m["engine.compiled_stmts"] = float64(compiled)
	m["engine.interp_stmts"] = float64(interp)
}

// overheadLoop runs the same number of sawtooth cycles untraced and then
// traced on one engine, and a last untraced forward pass so that the engine
// ends where the gate expects it. refCycles is the work table's cycle count;
// the traced run does traceShare of it, half of that each way.
func (r *runner) overheadLoop(eng *engine.Engine, cur *cursor, perEvent bool, refCycles int, name string) (plain, traced *cycleTimes, events int, err error) {
	cycles := max(r.scaled(float64(refCycles))/2, 1)
	tr := r.tr
	defer func() { r.tr = tr }()
	plain, traced = newCycleTimes(len(cur.segs)), newCycleTimes(len(cur.segs))
	for _, c := range []struct {
		t    *tracer
		into *cycleTimes
	}{{nil, plain}, {tr, traced}} {
		r.tr = c.t
		runtime.GC()
		for i := 0; i < cycles; i++ { // cycle by cycle: each is a region of its own
			n, err := r.runCycles(eng, cur, perEvent, 1, name, c.into)
			events += n
			if err != nil {
				return plain, traced, events, err
			}
		}
	}
	r.tr = nil
	n, _, err := r.closedLoop(eng, cur, perEvent, 1, name)
	return plain, traced, events + n, err
}

// timeOp runs fn n times and returns nanoseconds per call.
func timeOp(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// layerSuite measures every layer directly, on the served configuration's
// input. fullNs is the measured ns/event of the whole served stack, which the
// ladder's rungs should add up to.
func (r *runner) layerSuite(m map[string]float64, fullNs float64) error {
	root := r.tr.begin("layer-suite", -1, -1)
	defer r.tr.end(root)
	steps := []struct {
		name string
		fn   func(map[string]float64) error
	}{
		{"suite.engine", r.suiteEngine},
		{"suite.ladder", func(m map[string]float64) error { return r.suiteLadder(m, fullNs, root) }},
		{"suite.exec", r.suiteExec},
		{"suite.gmr", r.suiteGMR},
		{"suite.wal", r.suiteWAL},
		{"suite.serve", r.suiteServe},
	}
	for _, s := range steps {
		if r.stop.Load() {
			return errInterrupted
		}
		sp := r.tr.begin(s.name, root, -1)
		if err := s.fn(m); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		r.tr.end(sp)
	}
	return nil
}

// suitePasses is the fixed work of one suite cell: a forward and a mirrored
// pass over the served segment.
const suitePasses = 2

// untracedLoop is closedLoop without spans, for suite cells that compare
// configurations (a span per window would be the same in all of them, but it
// is not what the cell measures).
func (r *runner) untracedLoop(eng *engine.Engine, window, passes int) (float64, error) {
	tr := r.tr
	r.tr = nil
	defer func() { r.tr = tr }()
	cur, perEvent := phaseCursor(r.srv.segs, window)
	runtime.GC()
	n, elapsed, err := r.closedLoop(eng, cur, perEvent, passes, "")
	return float64(elapsed.Nanoseconds()) / float64(n), err
}

// suiteEngine: per-query Apply and ApplyBatch cost on the five TPC-H queries,
// NewBatch alone, and Acquire after a write.
func (r *runner) suiteEngine(m map[string]float64) error {
	for _, q := range tpchFive {
		for _, mode := range []struct {
			metric string
			window int
		}{{"engine.apply_ns_per_event.", 1}, {"engine.applybatch_ns_per_event.", 256}} {
			eng, _, err := buildEngine([]string{q}, r.procs, nil, -1)
			if err != nil {
				return err
			}
			ns, err := r.untracedLoop(eng, mode.window, suitePasses)
			if err != nil {
				return err
			}
			m[mode.metric+q] = ns
		}
	}

	windows := r.srv.segs[0].windows(256)
	events := len(r.srv.segs[0].fwd)
	m["engine.newbatch_ns_per_event"] = timeOp(4, func() {
		for _, w := range windows {
			engine.NewBatch(w)
		}
	}) / float64(events)

	// Acquire right after a write is the expensive one: every view the
	// window touched gets a new frozen header.
	eng, _, err := buildEngine(servedCfg.queries, r.procs, nil, -1)
	if err != nil {
		return err
	}
	eng.Acquire()
	var total time.Duration
	wins := r.srv.segs[0].windows(servedCfg.window)
	for _, w := range wins {
		if err := eng.ApplyBatch(engine.NewBatch(w)); err != nil {
			return err
		}
		start := time.Now()
		eng.Acquire()
		total += time.Since(start)
	}
	m["engine.acquire_ns"] = float64(total.Nanoseconds()) / float64(len(wins))
	return nil
}

// rung is one configuration of the ablation ladder.
type rung struct {
	perEvent  bool
	rowPath   bool // SetColumnar(false)
	subscribe bool // one in-process Subscribe consumer on the watched view
	wal       bool
	policy    wal.SyncPolicy
	ckptEvery uint64
	server    bool // serve.New, nobody connected
	client    bool // plus one serve.Client
	windows   int  // 0: suitePasses passes; otherwise exactly this many windows
}

// runRung builds the configuration, applies the fixed work closed-loop and
// returns ns/event.
func (r *runner) runRung(c rung) (float64, error) {
	eng, _, err := buildEngine(servedCfg.queries, r.procs, nil, -1)
	if err != nil {
		return 0, err
	}
	eng.SetColumnar(!c.rowPath)
	if c.wal {
		dir, err := os.MkdirTemp(r.outDir, "rung-")
		if err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		o := durabilityOptions(dir)
		o.Sync, o.CheckpointEvery = c.policy, c.ckptEvery
		if err := eng.SetDurability(o); err != nil {
			return 0, err
		}
		defer eng.CloseDurability()
	}
	if c.subscribe {
		view, err := eng.Program().ResultMapFor(servedCfg.watch)
		if err != nil {
			return 0, err
		}
		sub, err := eng.Subscribe(view, engine.SubscribeOptions{})
		if err != nil {
			return 0, err
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range sub.C {
			}
		}()
		defer func() { sub.Cancel(); <-done }()
	}
	if c.server {
		s := &served{eng: eng}
		defer s.close()
		if s.srv, err = serve.New(eng, serve.Options{}); err != nil {
			return 0, err
		}
		if c.client {
			if s.client, err = serve.Dial(s.srv.StreamAddr(), servedCfg.watch, serve.ClientOptions{Buffer: clientBuffer}); err != nil {
				return 0, err
			}
			s.rec = startReceiver(s.client)
		}
	}
	window := servedCfg.window
	if c.perEvent {
		window = 1
	}
	if c.windows == 0 {
		return r.untracedLoop(eng, window, suitePasses)
	}
	cur := newCursor(r.srv.segs, window)
	events := 0
	start := time.Now()
	for i := 0; i < c.windows; i++ {
		w := cur.next()
		if err := eng.ApplyBatch(engine.NewBatch(w)); err != nil {
			return 0, err
		}
		events += len(w)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(events), nil
}

// suiteLadder switches the layers of the served configuration on one at a
// time; every metric but the first is the marginal ns/event of a rung over
// the rung below it. The three WAL policies are alternatives measured over
// the same rung; the ladder continues from the interval policy, which is the
// one the served configuration runs.
func (r *runner) suiteLadder(m map[string]float64, fullNs float64, parent int) error {
	ckpt := servedCfg.ckptEvery
	configs := []struct {
		name string
		c    rung
	}{
		{"seq", rung{perEvent: true}},
		{"row", rung{rowPath: true}},
		{"columnar", rung{}},
		{"capture", rung{subscribe: true}},
		{"none", rung{subscribe: true, wal: true, policy: wal.SyncNone}},
		{"interval", rung{subscribe: true, wal: true, policy: wal.SyncInterval}},
		// One fsync per window: a few hundred windows are a second of disk
		// time already.
		{"commit", rung{subscribe: true, wal: true, policy: wal.SyncEachCommit, windows: r.scaled(256 / traceShare)}},
		{"checkpoint", rung{subscribe: true, wal: true, policy: wal.SyncInterval, ckptEvery: ckpt}},
		{"hub", rung{wal: true, policy: wal.SyncInterval, ckptEvery: ckpt, server: true}},
		{"tcp", rung{wal: true, policy: wal.SyncInterval, ckptEvery: ckpt, server: true, client: true}},
	}
	ns := map[string]float64{}
	for _, cfg := range configs {
		if r.stop.Load() {
			return errInterrupted
		}
		sp := r.tr.begin("ladder."+cfg.name, parent, -1)
		v, err := r.runRung(cfg.c)
		r.tr.end(sp)
		if err != nil {
			return fmt.Errorf("rung %s: %w", cfg.name, err)
		}
		ns[cfg.name] = v
	}
	m["engine.seq_ns_per_event"] = ns["seq"]
	m["engine.batch_row_ns_per_event"] = ns["row"] - ns["seq"]
	m["exec.columnar_gain_ns_per_event"] = ns["columnar"] - ns["row"]
	m["engine.capture_ns_per_event"] = ns["capture"] - ns["columnar"]
	m["wal.none_ns_per_event"] = ns["none"] - ns["capture"]
	m["wal.interval_ns_per_event"] = ns["interval"] - ns["capture"]
	m["wal.commit_ns_per_event"] = ns["commit"] - ns["capture"]
	m["wal.checkpoint_ns_per_event"] = ns["checkpoint"] - ns["interval"]
	// The hub replaces the in-process consumer: it is the engine's one
	// subscriber from here on.
	m["serve.hub_ns_per_event"] = ns["hub"] - ns["checkpoint"]
	m["serve.tcp_ns_per_event"] = ns["tcp"] - ns["hub"]
	// The marginals above telescope to the top rung, so the residual is what
	// the served sequence's own fill cost beyond it.
	m["ladder.full_ns_per_event"] = fullNs
	m["ladder.residual_ns_per_event"] = fullNs - ns["tcp"]
	return nil
}

// warmQ3 returns a Q3 engine after one forward pass of the served segment,
// with the LINEITEM tuples of that pass.
func (r *runner) warmQ3() (*engine.Engine, []types.Tuple, error) {
	eng, _, err := buildEngine([]string{"Q3"}, r.procs, nil, -1)
	if err != nil {
		return nil, nil, err
	}
	var rows []types.Tuple
	for _, ev := range r.srv.segs[0].fwd {
		if err := eng.Apply(ev); err != nil {
			return nil, nil, err
		}
		if ev.Relation == "LINEITEM" && ev.Insert {
			rows = append(rows, ev.Tuple)
		}
	}
	return eng, rows, nil
}

// suiteExec runs the statements of the warmed Q3 engine's LINEITEM insert
// trigger directly against the engine as the database: the row executor, the
// block executor, block construction, and interpreter against compiled.
func (r *runner) suiteExec(m map[string]float64) error {
	eng, rows, err := r.warmQ3()
	if err != nil {
		return err
	}
	trig, ok := eng.Program().TriggerFor("LINEITEM", true)
	if !ok || len(rows) == 0 {
		return fmt.Errorf("Q3 has no LINEITEM insert trigger to run")
	}
	var runNs, blockNs, sealNs float64
	var ran, blocked int
	for i := range trig.Stmts {
		st := &trig.Stmts[i]
		acc := gmr.New(types.Schema(st.TargetKeys))
		if x, err := st.Executor(trig.Args); err == nil {
			start := time.Now()
			for _, row := range rows {
				if err := x.Run(eng, row, acc); err != nil {
					return err
				}
			}
			runNs += float64(time.Since(start).Nanoseconds()) / float64(len(rows))
			ran++
		}
		if x, err := st.BlockExecutor(trig.Args); err == nil {
			start := time.Now()
			b := exec.NewBlock(len(trig.Args))
			for _, row := range rows {
				b.Append(row)
			}
			b.SealUsed(x.UsedCols())
			sealNs += float64(time.Since(start).Nanoseconds()) / float64(len(rows))
			acc.Reset()
			start = time.Now()
			if err := x.RunBlock(eng, b, 0, b.Len(), acc); err != nil {
				return err
			}
			blockNs += float64(time.Since(start).Nanoseconds()) / float64(len(rows))
			blocked++
		}
	}
	m["exec.run_ns_per_stmt"] = runNs / float64(max(ran, 1))
	m["exec.runblock_ns_per_row"] = blockNs / float64(max(blocked, 1))
	m["exec.block_seal_ns_per_row"] = sealNs / float64(max(blocked, 1))

	var perMode [2]float64
	for i, mode := range []engine.ExecMode{engine.ExecCompiled, engine.ExecInterp} {
		e, _, err := buildEngine([]string{"Q3"}, r.procs, nil, -1)
		if err != nil {
			return err
		}
		e.SetExecMode(mode)
		if perMode[i], err = r.untracedLoop(e, 1, 1); err != nil {
			return err
		}
	}
	m["exec.interp_over_compiled"] = perMode[1] / perMode[0]
	return nil
}

// suiteGMR times the store's operations on the keys of the largest view of
// the warmed Q3 engine.
func (r *runner) suiteGMR(m map[string]float64) error {
	eng, _, err := r.warmQ3()
	if err != nil {
		return err
	}
	var src *gmr.GMR
	for name := range eng.ViewSizes() {
		if g := eng.View(name).Data(); src == nil || g.Len() > src.Len() {
			src = g
		}
	}
	entries := src.Entries()
	n := float64(len(entries))
	if n == 0 {
		return fmt.Errorf("the warmed Q3 engine holds no entries")
	}
	const reps = 8
	var g *gmr.GMR
	m["gmr.add_ns"] = timeOp(reps, func() {
		g = gmr.New(src.Schema())
		for _, e := range entries {
			g.Add(e.Tuple, e.Mult)
		}
	}) / n
	sink := 0.0
	m["gmr.get_ns"] = timeOp(reps, func() {
		for _, e := range entries {
			sink += g.Get(e.Tuple)
		}
	}) / n
	m["gmr.upsert_existing_ns"] = timeOp(reps, func() {
		for _, e := range entries {
			g.Add(e.Tuple, 1)
		}
	}) / n
	m["gmr.foreach_ns_per_entry"] = timeOp(reps, func() {
		g.Foreach(func(_ types.Tuple, mult float64) { sink += mult })
	}) / n
	m["gmr.merge_ns_per_entry"] = timeOp(reps, func() {
		gmr.New(src.Schema()).MergeInto(g, 1)
	}) / n
	m["gmr.bytes_per_entry"] = float64(g.MemSize()) / float64(g.Len())

	// Freeze after a mutation publishes a new header; the writer's first
	// mutation after a freeze copies the slot and probe tables.
	var freezeNs, cowNs time.Duration
	for i := 0; i < reps*8; i++ {
		e := entries[i%len(entries)]
		start := time.Now()
		g.Freeze()
		freezeNs += time.Since(start)
		start = time.Now()
		g.Add(e.Tuple, 1)
		cowNs += time.Since(start)
	}
	m["gmr.freeze_ns"] = float64(freezeNs.Nanoseconds()) / (reps * 8)
	m["gmr.cow_first_write_us"] = float64(cowNs.Nanoseconds()) / (reps * 8) / 1e3

	flat := g.AppendFlat(nil)
	m["gmr.append_flat_ns_per_byte"] = timeOp(reps, func() { flat = g.AppendFlat(flat[:0]) }) / float64(len(flat))
	frozen := g.Freeze()
	base := frozen.FlatBase()
	dirty := len(entries) / 16
	for _, e := range entries[:dirty] {
		g.Add(e.Tuple, 1)
	}
	delta, ok := g.Freeze().AppendFlatDelta(nil, base)
	m["gmr.flat_delta_bytes_per_dirty_slot"] = 0
	if ok && dirty > 0 {
		m["gmr.flat_delta_bytes_per_dirty_slot"] = float64(len(delta)) / float64(dirty)
	}
	runtime.KeepAlive(sink)
	return nil
}

// suiteWAL drives the log directly with the served segment's windows, and
// takes one base and one delta checkpoint of a warmed served-set engine.
func (r *runner) suiteWAL(m map[string]float64) error {
	dir, err := os.MkdirTemp(r.outDir, "wal-direct-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	windows := r.srv.segs[0].windows(servedCfg.window)
	units := make([][]wal.Event, len(windows))
	events := 0
	for i, w := range windows {
		for _, ev := range w {
			units[i] = append(units[i], wal.Event{Relation: ev.Relation, Insert: ev.Insert, Tuple: ev.Tuple})
		}
		events += len(w)
	}
	log, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNone}, 0)
	if err != nil {
		return err
	}
	start := time.Now()
	for _, u := range units {
		if _, err := log.Append(true, u); err != nil {
			log.Close()
			return err
		}
	}
	if err := log.Sync(); err != nil {
		log.Close()
		return err
	}
	m["wal.append_ns_per_event"] = float64(time.Since(start).Nanoseconds()) / float64(events)
	m["wal.log_bytes_per_event"] = float64(log.Stats().AppendedBytes) / float64(events)
	syncs := make([]float64, 0, 64)
	for i := 0; i < 64; i++ {
		if _, err := log.Append(true, units[i%len(units)]); err != nil {
			log.Close()
			return err
		}
		start := time.Now()
		if err := log.Sync(); err != nil {
			log.Close()
			return err
		}
		syncs = append(syncs, ms(time.Since(start)))
	}
	sort.Float64s(syncs)
	m["wal.sync_p50_ms"] = percentile(syncs, 50)
	if err := log.Close(); err != nil {
		return err
	}

	eng, _, err := buildEngine(servedCfg.queries, r.procs, nil, -1)
	if err != nil {
		return err
	}
	ckdir, err := os.MkdirTemp(r.outDir, "ckpt-direct-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(ckdir)
	o := durabilityOptions(ckdir)
	o.CheckpointEvery = 0 // explicit checkpoints only
	if err := eng.SetDurability(o); err != nil {
		return err
	}
	defer eng.CloseDurability()
	checkpoint := func() (engine.CheckpointInfo, float64, error) {
		start := time.Now()
		if err := eng.Checkpoint(); err != nil {
			return engine.CheckpointInfo{}, 0, err
		}
		took := ms(time.Since(start))
		info, _ := eng.LastCheckpointInfo()
		return info, took, info.Err
	}
	for _, w := range windows {
		if err := eng.ApplyBatch(engine.NewBatch(w)); err != nil {
			return err
		}
	}
	full, took, err := checkpoint()
	if err != nil {
		return err
	}
	m["wal.checkpoint_ms"] = took
	m["wal.checkpoint_bytes_full"] = float64(full.Bytes)
	// A delta after a sixteenth of a mirrored pass.
	rev := workload.Batches(r.srv.segs[0].rev, servedCfg.window)
	for _, w := range rev[:len(rev)/16] {
		if err := eng.ApplyBatch(engine.NewBatch(w)); err != nil {
			return err
		}
	}
	delta, _, err := checkpoint()
	if err != nil {
		return err
	}
	m["wal.checkpoint_bytes_delta"] = float64(delta.Bytes)
	return nil
}

// suiteServe times the wire codec on the entries of the final Q3 result.
func (r *runner) suiteServe(m map[string]float64) error {
	eng, _, err := r.warmQ3()
	if err != nil {
		return err
	}
	entries := eng.Result().Entries()
	n := float64(len(entries))
	if n == 0 {
		return fmt.Errorf("the warmed Q3 result is empty")
	}
	b := serve.Batch{Events: 1, Entries: entries}
	var frame []byte
	m["serve.encode_ns_per_entry"] = timeOp(64, func() { frame = serve.AppendBatch(frame[:0], b) }) / n
	m["serve.wire_bytes_per_entry"] = float64(len(frame)) / n
	var derr error
	m["serve.decode_ns_per_entry"] = timeOp(64, func() {
		if _, _, err := serve.DecodeFrame(frame); err != nil {
			derr = err
		}
	}) / n
	return derr
}
