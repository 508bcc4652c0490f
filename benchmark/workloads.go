package main

// refSeconds is the --seconds value the work table below is calibrated for
// (BENCHMARK.json's run_seconds) on the reference host: 2 cores, GOMAXPROCS 2.
// Every count scales linearly with --seconds and with nothing else: the
// amount of work in a run is a function of (workload, seconds), never of a
// rate measured in that run.
const refSeconds = 30

// workloadCfg is one row of the frozen work table.
type workloadCfg struct {
	name string
	// queries are the workload.Spec names; scale is the generator scale of
	// each segment the sawtooth replays, segments how many there are (0
	// means one; with more, the sawtooth walks them in turn).
	queries  []string
	scale    float64
	segments int
	// perQuery: the closed-loop phase runs one engine per query (the paper's
	// protocol, refresh_eps = geometric mean of the rates); otherwise one
	// CompileSet engine runs them all.
	perQuery bool
	// window is the ApplyBatch window of the closed-loop phase; 1 means
	// per-event Engine.Apply.
	window int
	// live: there is no memory-only phase; setup_s, refresh_eps and
	// live_heap_mb are those of the served engine itself, measured while it
	// takes its closed-loop fill.
	live bool
	// The memory-only closed loop is rounds rounds in which every engine in
	// turn takes cycles[i] sawtooth cycles (at refSeconds; indexed like
	// queries with perQuery), timed as one region (with several segments:
	// cycle by cycle, and cycles is a multiple of their number). A setup group
	// and a Recover call go between the rounds.
	rounds int
	cycles []int
	// setupReps is how many times the setup sequence is repeated per timed
	// group, sized so that a group takes a second or more; setup_s is the
	// fastest of setupGroups group means.
	setupReps int
	// fillCycles is the closed-loop fill the served engine takes after the
	// recovery fixture, in timed sawtooth cycles at refSeconds. On a live
	// workload that fill is the measured closed-loop phase, with a setup group
	// and a Recover call between its cycles.
	fillCycles int
}

// engineSets lists the query set of each engine of the memory-only phase: one
// per query on a perQuery workload, otherwise one for all of them.
func (w *workloadCfg) engineSets() [][]string {
	if !w.perQuery {
		return [][]string{w.queries}
	}
	sets := make([][]string, len(w.queries))
	for i, q := range w.queries {
		sets[i] = []string{q}
	}
	return sets
}

// setupGroups is how many setup groups a run times.
const setupGroups = 4

// servedCfg is the one served configuration every run includes: Q1 and Q3
// in one CompileSet engine over the TPC-H segment, durable on the real disk,
// behind a serve.Server, with one TCP subscriber on Q1 and one HTTP reader on
// Q3. The open-loop rate is a constant, about a third of what the closed loop
// sustains on the reference host, and is never derived from a rate measured
// in the same run.
var servedCfg = struct {
	queries     []string
	scale       float64
	window      int    // events per ApplyBatch window
	rate        int    // events/s the open loop offers
	openWindows int    // length of the open-loop schedule at refSeconds, in windows (an untraced run: half)
	watch       string // the query the subscriber follows
	read        string // the query the HTTP reader fetches
	snapReads   int    // snapshot reads per second
	ckptEvery   uint64 // CheckpointEvery
	tailEvents  int    // log tail recovery replays, at refSeconds
	recoverReps int    // recovery_s is the fastest of this many Recover calls
}{
	queries: []string{"Q1", "Q3"}, scale: 16, window: 64, rate: 100000, openWindows: 16000,
	watch: "Q1", read: "Q3", snapReads: 100, ckptEvery: 400000, tailEvents: 320000, recoverReps: 6,
}

var tpchFive = []string{"Q1", "Q6", "Q3", "Q10", "Q12"}

// all18 is every registered query, in workload.Names order.
var all18 = []string{"AXF", "BSP", "BSV", "MDDB1", "MST", "PSP", "Q1", "Q10", "Q11a", "Q12", "Q17a", "Q18a", "Q22a", "Q3", "Q4", "Q6", "SSB4", "VWAP"}

var workloads = []*workloadCfg{
	{
		name: "tpch-event", queries: tpchFive, scale: 16, perQuery: true, window: 1,
		rounds: 5, cycles: []int{18, 36, 2, 4, 9}, setupReps: 170, fillCycles: 2,
	},
	{
		name: "tpch-batch", queries: tpchFive, scale: 16, perQuery: true, window: 256,
		rounds: 5, cycles: []int{8, 10, 1, 2, 4}, setupReps: 170, fillCycles: 2,
	},
	{
		name: "shared-18", queries: all18, scale: 0.125, segments: 15, window: 256,
		rounds: 3, cycles: []int{15}, setupReps: 34, fillCycles: 2,
	},
	{
		name: "live-e2e", queries: servedCfg.queries, scale: servedCfg.scale, window: servedCfg.window, live: true,
		setupReps: 290, fillCycles: 7,
	},
}

func findWorkload(name string) *workloadCfg {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef declares one metric; BENCHMARK.json repeats the declaration and a
// test holds the two equal in both directions.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"refresh_eps", "events/s"},
	{"live_heap_mb", "MB"},
	{"recovery_s", "s"},
	{"disk_bytes_per_event", "B/event"},
}

var perLayer = []metricDef{
	{"sql.parse_translate_ms", "ms"},
	{"sql.statements", "count"},
	{"compiler.compile_ms", "ms"},
	{"compiler.maps", "count"},
	{"compiler.statements", "count"},
	{"compiler.shared_maps", "count"},
	{"engine.init_ms", "ms"},
	{"engine.apply_ns_per_event.Q1", "ns/event"},
	{"engine.apply_ns_per_event.Q6", "ns/event"},
	{"engine.apply_ns_per_event.Q3", "ns/event"},
	{"engine.apply_ns_per_event.Q10", "ns/event"},
	{"engine.apply_ns_per_event.Q12", "ns/event"},
	{"engine.applybatch_ns_per_event.Q1", "ns/event"},
	{"engine.applybatch_ns_per_event.Q6", "ns/event"},
	{"engine.applybatch_ns_per_event.Q3", "ns/event"},
	{"engine.applybatch_ns_per_event.Q10", "ns/event"},
	{"engine.applybatch_ns_per_event.Q12", "ns/event"},
	{"engine.closed_loop_mean_eps", "events/s"},
	{"engine.newbatch_ns_per_event", "ns/event"},
	{"engine.acquire_ns", "ns"},
	{"engine.view_bytes", "B"},
	{"engine.views", "count"},
	{"engine.compiled_stmts", "count"},
	{"engine.interp_stmts", "count"},
	{"engine.seq_ns_per_event", "ns/event"},
	{"engine.batch_row_ns_per_event", "ns/event"},
	{"exec.columnar_gain_ns_per_event", "ns/event"},
	{"engine.capture_ns_per_event", "ns/event"},
	{"wal.none_ns_per_event", "ns/event"},
	{"wal.interval_ns_per_event", "ns/event"},
	{"wal.commit_ns_per_event", "ns/event"},
	{"wal.checkpoint_ns_per_event", "ns/event"},
	{"serve.hub_ns_per_event", "ns/event"},
	{"serve.tcp_ns_per_event", "ns/event"},
	{"ladder.full_ns_per_event", "ns/event"},
	{"ladder.residual_ns_per_event", "ns/event"},
	{"exec.run_ns_per_stmt", "ns"},
	{"exec.runblock_ns_per_row", "ns/row"},
	{"exec.block_seal_ns_per_row", "ns/row"},
	{"exec.interp_over_compiled", "ratio"},
	{"gmr.add_ns", "ns"},
	{"gmr.get_ns", "ns"},
	{"gmr.upsert_existing_ns", "ns"},
	{"gmr.foreach_ns_per_entry", "ns/entry"},
	{"gmr.merge_ns_per_entry", "ns/entry"},
	{"gmr.bytes_per_entry", "B/entry"},
	{"gmr.freeze_ns", "ns"},
	{"gmr.cow_first_write_us", "us"},
	{"gmr.append_flat_ns_per_byte", "ns/B"},
	{"gmr.flat_delta_bytes_per_dirty_slot", "B/slot"},
	{"wal.append_ns_per_event", "ns/event"},
	{"wal.log_bytes_per_event", "B/event"},
	{"wal.sync_p50_ms", "ms"},
	{"wal.checkpoint_ms", "ms"},
	{"wal.checkpoint_bytes_full", "B"},
	{"wal.checkpoint_bytes_delta", "B"},
	{"wal.chain_length", "count"},
	{"wal.scan_ms", "ms"},
	{"wal.replay_ns_per_event", "ns/event"},
	{"serve.encode_ns_per_entry", "ns/entry"},
	{"serve.decode_ns_per_entry", "ns/entry"},
	{"serve.wire_bytes_per_entry", "B/entry"},
	{"serve.visible_p50_ms", "ms"},
	{"serve.visible_p95_ms", "ms"},
	{"serve.snapshot_p50_ms", "ms"},
	{"serve.hop_p50_ms", "ms"},
	{"serve.hop_p95_ms", "ms"},
	{"serve.delivered_batches", "count"},
	{"serve.coalesced", "count"},
	{"serve.catchup_ms", "ms"},
	{"serve.snapshot_http_ms", "ms"},
	{"serve.visible_p99_ms", "ms"},
	{"serve.visible_max_ms", "ms"},
	{"serve.visible_samples", "count"},
	{"serve.snapshot_samples", "count"},
	{"gen.build_s", "s"},
	{"gen.rate_eps", "events/s"},
	{"gen.late_p95_ms", "ms"},
	{"gen.backlog_end_events", "events"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
}
