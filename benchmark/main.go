// Command benchmark is the repository's one measuring instrument: it runs a
// named workload for a fixed amount of work, prints every metric by name and
// unit, checks the views against a non-incremental reference, and ends with
// one JSON line. See README.md in this directory for the protocol and
// BENCHMARK.json at the repository root for the declared metrics.
//
//	bash benchmark/run.sh -workload live-e2e -seed 1
//	bash benchmark/run.sh -workload tpch-event -seed 1 -trace 1
//	bash benchmark/run.sh -selfcheck 5
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"syscall"
	"time"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/serve"
	"dbtoaster/internal/wal"
	"dbtoaster/internal/workload"
)

// defaultOutDir holds everything the benchmark writes: trace files and the
// temporary log directories of the durable engines (and, put there by run.sh,
// the binary and the build cache). It is relative to the repository root,
// which run.sh is started from, and named in the root .gitignore.
const defaultOutDir = "benchmark/out"

type options struct {
	outDir    string
	workload  string
	seed      int64
	seconds   float64
	trace     int
	procs     int
	quick     bool
	selfcheck int
	// acrossSeeds gives selfcheck run i the seed seed+i instead of seed.
	acrossSeeds bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: tpch-event, tpch-batch, shared-18, live-e2e")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated input; it changes nothing else")
	flag.Float64Var(&o.seconds, "seconds", refSeconds, "run length the fixed work table is scaled to")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run, prints the per-layer metrics and writes "+defaultOutDir+"/trace-<workload>.json")
	flag.IntVar(&o.procs, "procs", 2, "GOMAXPROCS and engine shard count")
	flag.BoolVar(&o.quick, "quick", false, "smoke run: generator scale 1 and -seconds 1; its numbers mean nothing")
	flag.IntVar(&o.selfcheck, "selfcheck", 0, "run every workload (or the one named) N times on -seed and hold the spreads against the bounds")
	flag.BoolVar(&o.acrossSeeds, "across-seeds", false, "with -selfcheck: run i gets seed+i, as the driver does it")
	flag.Parse()
	o.outDir = defaultOutDir
	if o.quick {
		o.seconds = 1
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var err error
	switch {
	case o.selfcheck > 0:
		err = selfcheck(ctx, o)
	case findWorkload(o.workload) == nil:
		err = fmt.Errorf("unknown workload %q (want one of tpch-event, tpch-batch, shared-18, live-e2e)", o.workload)
	default:
		err = runAndReport(ctx, o, cancel)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// report is everything one run measured.
type report struct {
	metrics           map[string]float64
	attempted, failed int
	problems          []string
}

// runAndReport runs one workload and prints its metrics, then the result
// line the driver reads.
func runAndReport(ctx context.Context, o options, restoreSignals func()) error {
	runtime.GOMAXPROCS(o.procs)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	w := findWorkload(o.workload)
	fmt.Printf("# workload=%s seconds=%g trace=%d quick=%v %+v\n", w.name, o.seconds, o.trace, o.quick, newStamp(o))

	// The stop flag is what the writer loops poll; every phase unwinds
	// through its deferred teardown (CloseDurability, Server.Shutdown,
	// Client.Close, temp directories) when it is set. The first signal asks
	// for that; a second one gets the default action, in case a phase that
	// does not poll is what hangs.
	var stop atomic.Bool
	go func() {
		<-ctx.Done()
		stop.Store(true)
		restoreSignals()
	}()

	rep, err := runWorkload(w, o, &stop)
	if err != nil {
		return err
	}
	defs := endToEnd
	if o.trace != 0 {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Printf("%-40s %16.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = value{v, d.unit}
	}
	for _, p := range rep.problems {
		fmt.Println("FAILED:", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if rep.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", rep.failed, rep.attempted)
	}
	return nil
}

// stamp identifies the host and the code a result came from.
type stamp struct {
	Host       string `json:"host"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Shards     int    `json:"shards"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func newStamp(o options) stamp {
	host, _ := os.Hostname()
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return stamp{Host: host, CPUs: runtime.NumCPU(), GOMAXPROCS: o.procs, Shards: o.procs, Go: runtime.Version(), Commit: commit, Seed: o.seed}
}

// runWorkload takes one workload through its phases.
func runWorkload(w *workloadCfg, o options, stop *atomic.Bool) (*report, error) {
	scale, servedScale := w.scale, servedCfg.scale
	if o.quick {
		scale, servedScale = math.Min(scale, 1), 1
	}
	r := &runner{w: w, procs: o.procs, seconds: o.seconds, share: 1, outDir: o.outDir, stop: stop, stamp: newStamp(o)}
	var err error
	if r.own, err = newInput(w.queries, scale, o.seed, max(w.segments, 1)); err != nil {
		return nil, err
	}
	if r.srv, err = newInput(servedCfg.queries, servedScale, o.seed, 1); err != nil {
		return nil, err
	}
	m := map[string]float64{"gen.build_s": r.own.segs[0].buildS}
	defer func() {
		if r.fixDir != "" {
			os.RemoveAll(r.fixDir)
		}
	}()

	if o.trace != 0 {
		err = r.tracedRun(m)
	} else {
		err = r.measuredRun(m)
	}
	if err != nil {
		return nil, err
	}
	return &report{metrics: m, attempted: r.attempted, failed: r.failed, problems: r.problems}, nil
}

// newInput generates the segments of a query set: n of them, from seeds
// derived from the run's. Sets that draw on the same generators at the same
// scale and seed get the same segment, which is then generated and kept
// once: a resident input is the harness's own weight on the collector and
// shows in the latencies.
func newInput(queries []string, scale float64, seed int64, n int) (*input, error) {
	ms, err := workload.Combine(queries)
	if err != nil {
		return nil, err
	}
	// MultiSpec.Stream generates one stream per group, in order of first
	// appearance, so the groups, the scale and the seed determine it.
	var groups []string
	for _, spec := range ms.Specs {
		if !slices.Contains(groups, spec.Group) {
			groups = append(groups, spec.Group)
		}
	}
	in := &input{ms: ms}
	for i := 0; i < n; i++ {
		// A prime stride keeps the derived seeds of runs seeded n, n+1, ...
		// apart.
		sub := seed + int64(i)*7919
		key := fmt.Sprint(groups, scale, sub)
		seg, ok := segments[key]
		if !ok {
			seg = buildSegment(ms, scale, sub)
			segments[key] = seg
		}
		in.segs = append(in.segs, seg)
	}
	return in, nil
}

// segments holds the segments generated so far in this process, by
// generator key.
var segments = map[string]*segment{}

// measuredRun is the untraced run: the end-to-end metrics. The run's repeated
// timed regions take turns: between two closed-loop regions (the rounds of the
// memory-only phase, or the served engine's fill cycles on a live workload)
// come a setup group and a Recover call, so that each metric's repetitions
// are spread over most of the run and the fastest of them has seen the host at
// its quietest.
func (r *runner) measuredRun(m map[string]float64) error {
	w := r.w
	heap0 := heapLive() // the inputs are resident, no engine exists yet
	r.lap("")

	// Only live-e2e offers the served engine the open-loop schedule in an
	// untraced run: on the three memory-only workloads the served sequence is
	// cut down to what recovery_s and disk_bytes_per_event need, and the time
	// goes to their own closed loop.
	sv, err := r.servedSequence(heap0, r.timedFill, w.live)
	if err != nil {
		return err
	}
	m["disk_bytes_per_event"] = float64(sv.diskBytes) / float64(sv.events)
	if w.live {
		m["refresh_eps"] = sv.fill.rate()
		m["live_heap_mb"] = sv.heapMB
		fmt.Printf("# refresh_eps is %.6g by the fastest cycle, %.6g by the mean; cycles took %.3f s\n", sv.fill.rate(), sv.fill.meanRate(), sv.fill.secs)
		vis, snap := sortedMs(sv.lat.visible), sortedMs(sv.lat.snapshot)
		fmt.Printf("# visible latency over %d windows: p50 %.3f ms, p95 %.3f ms; %d snapshot reads: p50 %.3f ms; the generator ran %.3f ms late at p95 and ended %d events behind\n",
			len(vis), percentile(vis, 50), percentile(vis, 95), len(snap), percentile(snap, 50),
			percentile(sortedMs(sv.lat.late), 95), sv.lat.backlog)
	} else {
		heap1 := heapLive() // the served stack is gone, the memory-only engines do not exist yet
		mem, err := r.newMemoryPhase()
		if err != nil {
			return err
		}
		for k := 0; k < w.rounds; k++ {
			if err := r.between(); err != nil {
				return err
			}
			if err := mem.round(r); err != nil {
				return err
			}
		}
		r.lap("closed-loop rounds, setup groups and recover calls in turn")
		if err := r.finishMemoryPhase(m, mem, heap1); err != nil {
			return err
		}
	}
	for len(r.setups) < setupGroups || len(r.recTimes) < servedCfg.recoverReps {
		if err := r.between(); err != nil {
			return err
		}
	}
	r.lap("remaining setup groups and recover calls")
	m["setup_s"] = slices.Min(r.setups)
	m["recovery_s"] = slices.Min(r.recTimes)
	fmt.Printf("# setup groups took %.6f s per repetition\n", r.setups)
	fmt.Printf("# recover calls took %.3f s, each replaying %d events behind a %d-link chain\n", r.recTimes, r.recStats.ReplayedEvents, r.recStats.ChainLength)
	return nil
}

// between makes, between two closed-loop regions, the next of the run's setup
// groups and the next of its Recover calls, if any are left to make.
func (r *runner) between() error {
	if len(r.setups) < setupGroups {
		if err := r.setupGroup(); err != nil {
			return err
		}
	}
	if len(r.recTimes) < servedCfg.recoverReps {
		return r.recoverAgain()
	}
	return nil
}

// timedFill is the served engine's closed-loop fill, cycles timed one by one.
// On a live workload it is the measured closed-loop phase, and the run's setup
// groups and Recover calls go between its cycles.
func (r *runner) timedFill(eng *engine.Engine, cur *cursor) (*cycleTimes, error) {
	times := newCycleTimes(len(cur.segs))
	for i, cycles := 0, r.scaled(float64(r.w.fillCycles)); i < cycles; i++ {
		if r.w.live {
			if err := r.between(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		if _, err := r.runCycles(eng, cur, false, 1, "fill", times); err != nil {
			return nil, err
		}
	}
	return times, nil
}

// finishMemoryPhase ends the memory-only closed-loop phase: refresh_eps from
// the cycles its rounds timed, the live heap at the end of its last forward
// pass, and every engine's views held against the non-incremental reference.
func (r *runner) finishMemoryPhase(m map[string]float64, mem *memoryPhase, heap0 uint64) error {
	refreshEps, meanEps, err := mem.finish(r)
	if err != nil {
		return err
	}
	m["refresh_eps"] = refreshEps
	fmt.Printf("# refresh_eps is %.6g by the fastest cycle, %.6g by the mean\n", refreshEps, meanEps)
	m["live_heap_mb"] = float64(heapLive()-heap0) / 1e6
	ref, err := reference(r.own, mem.curs[0]) // the sawtooth stopped at the same place for every engine
	if err != nil {
		return err
	}
	for i, eng := range mem.engines {
		queries := r.w.queries
		if r.w.perQuery {
			queries = queries[i : i+1]
		}
		r.checkEngine(eng, queries, ref, "after the closed-loop phase")
	}
	r.lap("gate")
	return nil
}

// servedOut is the outcome of the served sequence.
type servedOut struct {
	fill      *cycleTimes // the fill's timed cycles (refresh_eps on a live workload)
	heapMB    float64     // live heap after the fill
	lat       *latencies
	diskBytes int64  // bytes the served engine wrote after the recovery fixture
	events    uint64 // events it logged after the recovery fixture
	catchupMs float64
	hub       hubTotals
	// Traced runs only: a snapshot read with the writer quiet.
	quietSnapshotMs float64
}

type hubTotals struct{ delivered, coalesced uint64 }

// hubTotalsOf sums the fan-out counters over the server's hubs.
func hubTotalsOf(srv *serve.Server) hubTotals {
	var t hubTotals
	for _, st := range srv.StreamStats() {
		t.delivered += st.Delivered
		t.coalesced += st.Coalesced
	}
	return t
}

// servedSequence takes the served engine through its phases. The recovery
// fixture comes first: the writer pauses on it, its directory is copied, and
// the first of the run's Recover calls is made from the copy and gated against
// the writer's own views; the other calls can then go wherever the run wants
// them. After that the closed-loop fill (if there is one), the open-loop
// schedule (if asked for), and the gates on the copies of the result.
func (r *runner) servedSequence(heap0 uint64, fillFn func(*engine.Engine, *cursor) (*cycleTimes, error), openLoop bool) (*servedOut, error) {
	s, _, err := buildServed(r.procs, r.outDir, nil, -1)
	if err != nil {
		return nil, err
	}
	defer s.close()
	out := &servedOut{}

	cur := newCursor(r.srv.segs, servedCfg.window)
	if err := r.leaveFixture(s, cur); err != nil {
		return nil, err
	}
	r.lap("recovery fixture")
	if err := r.firstRecovery(s); err != nil {
		return nil, err
	}
	r.lap("first recover call")

	// The fixture ends inside a pass; cycles run from one pass boundary to the
	// second next.
	for cur.idx != 0 {
		if _, err := r.applyWindows(s.eng, cur, 1); err != nil {
			return nil, err
		}
	}
	if out.fill, err = fillFn(s.eng, cur); err != nil {
		return nil, err
	}
	if cur.pass%2 == 0 { // the views are empty: the open loop starts on full ones
		if _, _, err := r.closedLoop(s.eng, cur, false, 1, "fill"); err != nil {
			return nil, err
		}
	}
	out.heapMB = float64(heapLive()-heap0) / 1e6
	r.lap(fmt.Sprintf("fill (%d cycles)", out.fill.regions()))
	ref, err := reference(r.srv, cur)
	if err != nil {
		return nil, err
	}
	r.checkEngine(s.eng, servedCfg.queries, ref, "after the fill")
	r.lap("gate")

	if openLoop {
		before := hubTotalsOf(s.srv)
		if out.lat, err = r.measureLatency(s, cur); err != nil {
			return nil, err
		}
		after := hubTotalsOf(s.srv)
		out.hub = hubTotals{after.delivered - before.delivered, after.coalesced - before.coalesced}
		r.lap("open loop")
		if ref, err = reference(r.srv, cur); err != nil {
			return nil, err
		}
		r.checkEngine(s.eng, servedCfg.queries, ref, "after the open-loop phase")
	}
	// What the fixture wrote is not counted: its four checkpoints in 416 000
	// events are not the writer's steady state, and their size is the seed's.
	if out.diskBytes, err = diskBytes(s.eng); err != nil {
		return nil, err
	}
	out.diskBytes -= r.fixBytes
	out.events = s.eng.Events() - r.fixEvents
	// Gate: in-process view = subscriber's copy = HTTP snapshot.
	r.checkCopies(s)

	t0 := time.Now()
	if c, err := dialAndCatchUp(s, servedCfg.read); err != nil {
		r.fail(1, "second subscriber: %v", err)
	} else {
		out.catchupMs = ms(time.Since(t0))
		c.Close()
	}

	if r.tr != nil {
		reads := make([]float64, 0, 50)
		for i := 0; i < cap(reads); i++ {
			start := time.Now()
			if _, err := serve.FetchSnapshot(s.srv.SnapshotAddr(), servedCfg.read); err != nil {
				return nil, err
			}
			reads = append(reads, ms(time.Since(start)))
		}
		out.quietSnapshotMs = median(reads)
	}
	r.lap("gate")
	return out, nil
}

// firstRecovery copies the directory of the writer, paused on the recovery
// fixture with its log drained, as if the writer had been abandoned there (no
// final checkpoint: recovery composes the chain and replays the tail behind
// it), makes the run's first Recover call from the copy and holds what it
// recovered against the writer's own views.
func (r *runner) firstRecovery(s *served) error {
	logged := s.eng.LogNextLSN()
	var err error
	if r.fixBytes, err = diskBytes(s.eng); err != nil { // returns once the logger has written everything out
		return err
	}
	r.fixEvents = s.eng.Events()
	if r.fixDir, err = copyDir(s.dir, r.outDir); err != nil {
		return err
	}
	if r.tr != nil {
		start := time.Now()
		if _, err := wal.Scan(wal.DiskFS(), r.fixDir); err != nil {
			return fmt.Errorf("scan: %w", err)
		}
		r.scanMs = ms(time.Since(start))
	}
	secs, stats, back, err := r.recoverOnce()
	if err != nil {
		return err
	}
	r.recTimes, r.recStats = []float64{secs}, stats
	r.attempted += 2
	if got := stats.NextLSN; got != logged {
		r.fail(1, "recovered to LSN %d, the writer logged %d events", got, logged)
	}
	if got := stats.ChainLength; got != fixtureChain {
		r.fail(1, "recovery composed %d links, the fixture is a base and %d delta links", got, fixtureChain-1)
	}
	for _, q := range servedCfg.queries {
		r.attempted++
		live, _ := s.eng.ResultFor(q)
		recovered, err := back.ResultFor(q)
		if err != nil {
			r.fail(1, "recovered engine: %s: %v", q, err)
			continue
		}
		if ok, diff := sameWithin(recovered, live); !ok {
			r.fail(1, "recovered %s differs from the engine that wrote the log: %s", q, diff)
		}
	}
	return nil
}

// recoverAgain makes one more Recover call from the fixture; it must end
// where the first one did.
func (r *runner) recoverAgain() error {
	secs, stats, _, err := r.recoverOnce()
	if err != nil {
		return err
	}
	r.attempted++
	if stats.NextLSN != r.recStats.NextLSN || stats.ChainLength != r.recStats.ChainLength {
		r.fail(1, "recover call %d ended at LSN %d behind %d links, the first at LSN %d behind %d",
			len(r.recTimes), stats.NextLSN, stats.ChainLength, r.recStats.NextLSN, r.recStats.ChainLength)
	}
	r.recTimes = append(r.recTimes, secs)
	return nil
}
