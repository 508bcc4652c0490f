package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/serve"
	"dbtoaster/internal/workload"
)

var errInterrupted = errors.New("interrupted")

// perEventChunk is how many per-event Apply calls share one stop check and
// one trace span; it has no effect on what the engine sees.
const perEventChunk = 256

// input is a query set with the segments its sawtooth replays.
type input struct {
	ms   *workload.MultiSpec
	segs []*segment
}

// runner carries one run of one workload through its phases.
type runner struct {
	w *workloadCfg
	// own is the workload's own input (the memory-only closed-loop phase);
	// srv is the served configuration's. They are the same on a live
	// workload and share the segment whenever the scales agree.
	own, srv *input
	procs    int
	seconds  float64
	share    float64 // 1, or traceShare in a traced run
	outDir   string
	stop     *atomic.Bool
	tr       *tracer
	stamp    stamp
	lapAt    time.Time
	setups   []float64 // seconds per repetition of each setup group timed so far
	// fixDir is the recovery fixture, a copy of the directory the served
	// engine's writer paused on, fixBytes and fixEvents what the writer had
	// written and logged by then; recTimes are the seconds of the Recover
	// calls made from it so far, recStats what the first of them reported,
	// scanMs what wal.Scan of it took (traced runs only).
	fixDir    string
	fixBytes  int64
	fixEvents uint64
	recTimes  []float64
	recStats  *engine.RecoveryStats
	scanMs    float64

	attempted, failed int
	problems          []string
}

// fail records failed operations and why; the run goes on so that every
// problem of a run is reported, and ends with correct=false.
func (r *runner) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// scaled converts a count calibrated at refSeconds to this run's --seconds
// and, in a traced run, to the share of the work its phases repeat.
func (r *runner) scaled(ref float64) int {
	n := int(math.Round(ref * r.seconds / refSeconds * r.share))
	if n < 1 {
		n = 1
	}
	return n
}

// applyWindow hands one window to the engine the way the workload prescribes
// and records the spans of the traced run.
func (r *runner) applyWindow(eng *engine.Engine, w []engine.Event, perEvent bool, parent, idx int) error {
	ws := r.tr.begin("window", parent, idx)
	if perEvent {
		sp := r.tr.begin("engine.Apply", ws, idx)
		for _, ev := range w {
			if err := eng.Apply(ev); err != nil {
				return fmt.Errorf("window %d: apply %s: %w", idx, ev.Relation, err)
			}
		}
		r.tr.end(sp)
	} else {
		sp := r.tr.begin("engine.NewBatch", ws, idx)
		b := engine.NewBatch(w)
		r.tr.end(sp)
		sp = r.tr.begin("engine.ApplyBatch", ws, idx)
		if err := eng.ApplyBatch(b); err != nil {
			return fmt.Errorf("window %d: apply batch: %w", idx, err)
		}
		r.tr.end(sp)
	}
	r.tr.end(ws)
	return nil
}

// closedLoop is the throughput protocol: one writer applies a fixed number
// of sawtooth passes as fast as it can. It returns the events applied and the
// time they took. The caller collects garbage before its timed region.
func (r *runner) closedLoop(eng *engine.Engine, cur *cursor, perEvent bool, passes int, name string) (int, time.Duration, error) {
	phase := r.tr.begin(name, -1, -1)
	events := 0
	start := time.Now()
	for i, end := 0, cur.pass+passes; cur.pass < end; i++ {
		if r.stop.Load() {
			return events, time.Since(start), errInterrupted
		}
		w := cur.next()
		if err := r.applyWindow(eng, w, perEvent, phase, i); err != nil {
			return events, time.Since(start), err
		}
		events += len(w)
	}
	elapsed := time.Since(start)
	r.tr.end(phase)
	r.attempted += events
	return events, elapsed, nil
}

// cycleTimes holds the durations of the timed regions of a closed loop, filed
// under the segment each covered. A region is a fixed number of whole sawtooth
// cycles (a forward and a mirrored pass) over one segment, so the regions over
// one segment are repeated measurements of the same fixed work.
type cycleTimes struct {
	events []int       // per segment: the events of one region over it
	secs   [][]float64 // per segment: the duration of each region over it
}

func newCycleTimes(segments int) *cycleTimes {
	return &cycleTimes{events: make([]int, segments), secs: make([][]float64, segments)}
}

// rate is the closed-loop rate with each segment's region taken at its
// fastest: events of one region over every segment, divided by the sum of the
// segments' shortest region times. The host changes speed for stretches of half a second
// to a few seconds (a fixed loop takes 8, 10 or 13 ms from one stretch to the
// next), and the noise is one-sided: a region is never faster than the quiet
// host lets the code be. The fastest of regions spread over the whole run is
// what the code costs; their median is the host's mood during the run, and
// moves by a quarter from one run of the same code to the next. A region is a
// quarter second or more, long enough to hold its share of collections.
func (c *cycleTimes) rate() float64 {
	var events int
	var secs float64
	for i, s := range c.secs {
		if len(s) == 0 {
			continue
		}
		events += c.events[i]
		secs += slices.Min(s)
	}
	return float64(events) / secs
}

// meanRate is the same phase's plain rate: all events over all the time.
func (c *cycleTimes) meanRate() float64 {
	var events int
	var secs float64
	for i, s := range c.secs {
		for _, t := range s {
			events += c.events[i]
			secs += t
		}
	}
	return float64(events) / secs
}

// total is the time all regions took together.
func (c *cycleTimes) total() float64 {
	sum := 0.0
	for _, s := range c.secs {
		for _, t := range s {
			sum += t
		}
	}
	return sum
}

// regions is how many regions were timed.
func (c *cycleTimes) regions() int {
	n := 0
	for _, s := range c.secs {
		n += len(s)
	}
	return n
}

// runCycles applies n whole sawtooth cycles closed-loop. With one segment they
// are timed together, as one region; with several, the sawtooth moves to the
// next segment after every cycle and each cycle is a region of its own. The
// cursor must stand at the start of a forward pass.
func (r *runner) runCycles(eng *engine.Engine, cur *cursor, perEvent bool, n int, name string, into *cycleTimes) (int, error) {
	per := 1
	if len(cur.segs) == 1 {
		per = n
	}
	total := 0
	for i := 0; i < n; i += per {
		seg := cur.pass / 2 % len(cur.segs)
		events, elapsed, err := r.closedLoop(eng, cur, perEvent, 2*per, name)
		total += events
		if err != nil {
			return total, err
		}
		into.events[seg] = events
		into.secs[seg] = append(into.secs[seg], elapsed.Seconds())
	}
	return total, nil
}

// applyWindows applies the next n windows of the sawtooth in batches, untimed.
func (r *runner) applyWindows(eng *engine.Engine, cur *cursor, n int) (int, error) {
	events := 0
	for i := 0; i < n; i++ {
		if r.stop.Load() {
			return events, errInterrupted
		}
		w := cur.next()
		if err := eng.ApplyBatch(engine.NewBatch(w)); err != nil {
			return events, fmt.Errorf("apply batch: %w", err)
		}
		events += len(w)
	}
	r.attempted += events
	return events, nil
}

// phaseCursor returns the cursor a phase at the given window size walks;
// per-event phases are chunked only for bookkeeping.
func phaseCursor(segs []*segment, window int) (*cursor, bool) {
	if window <= 1 {
		return newCursor(segs, perEventChunk), true
	}
	return newCursor(segs, window), false
}

// heapLive returns the bytes of live heap objects after two collections (the
// second one frees what finalizers and sync.Pool victims kept alive through
// the first).
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// lap prints how long the phase that just ended took, as a comment line.
func (r *runner) lap(phase string) {
	now := time.Now()
	if !r.lapAt.IsZero() {
		fmt.Printf("# %-28s %6.2f s\n", phase, now.Sub(r.lapAt).Seconds())
	}
	r.lapAt = now
}

// setupGroup times one group of the setup sequence: the whole sequence a fixed
// number of times, a second or more together, and files the mean seconds per
// repetition in r.setups. setup_s is the fastest of the run's setupGroups
// groups, which the run spreads over its length. Teardown of the served stack is not timed.
func (r *runner) setupGroup() error {
	reps := r.scaled(float64(r.w.setupReps))
	runtime.GC()
	var timed time.Duration
	for i := 0; i < reps; i++ {
		if r.stop.Load() {
			return errInterrupted
		}
		start := time.Now()
		if r.w.live {
			s, _, err := buildServed(r.procs, r.outDir, nil, -1)
			timed += time.Since(start)
			if err != nil {
				return err
			}
			s.close()
			continue
		}
		for _, set := range r.w.engineSets() {
			if _, _, err := buildEngine(set, r.procs, nil, -1); err != nil {
				return err
			}
		}
		timed += time.Since(start)
	}
	r.attempted += reps
	r.setups = append(r.setups, timed.Seconds()/float64(reps))
	return nil
}

// memoryPhase is the memory-only, unobserved closed-loop phase: per-query
// engines (refresh_eps is the geometric mean of their rates), or one engine
// over the whole set. The engines take turns, a few cycles each per round, and
// the run puts its other repeated measurements between the rounds, so that
// every engine's cycles are spread over the whole run and a slow stretch of
// the host covers a few of each engine's cycles instead of all of one
// engine's. Each engine still sees its own stream alone and in order.
type memoryPhase struct {
	sets     [][]string
	engines  []*engine.Engine // retained for the heap measurement and the gate
	curs     []*cursor        // where each engine's sawtooth stands
	times    []*cycleTimes
	perEvent bool
}

func (r *runner) newMemoryPhase() (*memoryPhase, error) {
	p := &memoryPhase{sets: r.w.engineSets()}
	for _, set := range p.sets {
		eng, _, err := buildEngine(set, r.procs, nil, -1)
		if err != nil {
			return nil, err
		}
		cur, perEvent := phaseCursor(r.own.segs, r.w.window)
		p.engines, p.curs, p.perEvent = append(p.engines, eng), append(p.curs, cur), perEvent
		p.times = append(p.times, newCycleTimes(len(r.own.segs)))
	}
	return p, nil
}

// round gives every engine in turn its cycles of one round.
func (p *memoryPhase) round(r *runner) error {
	for i, set := range p.sets {
		runtime.GC()
		if _, err := r.runCycles(p.engines[i], p.curs[i], p.perEvent, r.scaled(float64(r.w.cycles[i])), "closed-loop."+set[0], p.times[i]); err != nil {
			return err
		}
	}
	return nil
}

// finish gives every engine one more forward pass, so that the phase ends
// with the views full, and returns refresh_eps and the plain mean rate.
func (p *memoryPhase) finish(r *runner) (refreshEps, meanEps float64, err error) {
	rates := make([]float64, len(p.sets))
	means := make([]float64, len(p.sets))
	for i, set := range p.sets {
		if _, _, err := r.closedLoop(p.engines[i], p.curs[i], p.perEvent, 1, "closed-loop."+set[0]); err != nil {
			return 0, 0, err
		}
		rates[i], means[i] = p.times[i].rate(), p.times[i].meanRate()
		fmt.Printf("# closed loop %-6s %3d regions, %6.2f s timed, %.6g events/s by the fastest, %.6g by the mean\n",
			set[0], p.times[i].regions(), p.times[i].total(), rates[i], means[i])
	}
	return geomean(rates), geomean(means), nil
}

// receipt is one delta batch as the TCP subscriber saw it.
type receipt struct {
	at     time.Time
	events uint64
}

// receiver drains a serve.Client's channel for as long as the client lives,
// timestamping every delta batch on arrival. It does nothing else: the
// latency sample must not wait behind the harness's own bookkeeping.
type receiver struct {
	mu       sync.Mutex
	receipts []receipt
	done     chan struct{}
}

// startReceiver starts draining the client's channel.
func startReceiver(c *serve.Client) *receiver {
	rec := &receiver{done: make(chan struct{})}
	go func() {
		defer close(rec.done)
		for b := range c.C {
			if b.Initial {
				continue
			}
			now := time.Now()
			rec.mu.Lock()
			rec.receipts = append(rec.receipts, receipt{at: now, events: b.Events})
			rec.mu.Unlock()
		}
	}()
	return rec
}

// snapshot copies the receipts recorded so far.
func (rec *receiver) snapshot() []receipt {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return append([]receipt(nil), rec.receipts...)
}

// lastEvents is the stream position of the newest receipt.
func (rec *receiver) lastEvents() uint64 {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.receipts) == 0 {
		return 0
	}
	return rec.receipts[len(rec.receipts)-1].events
}

// latencies is the outcome of the open-loop phase.
type latencies struct {
	visible  []float64 // ms, due time -> receipt, publishing windows in order
	hop      []float64 // ms, ApplyBatch return -> receipt
	snapshot []float64 // ms, FetchSnapshot round trips
	late     []float64 // ms, generator lateness per window
	backlog  int       // events due but unsent when the schedule ended
	rateEps  float64   // events/s the generator achieved
	events   int
}

// measureLatency runs the open-loop phase on the served engine: windows are
// due at a constant rate fixed in the work table, each window's visibility
// latency runs from its due time to the subscriber's receipt of a batch that
// covers it, and one HTTP reader fetches snapshots beside the writer.
func (r *runner) measureLatency(s *served, cur *cursor) (*latencies, error) {
	w := servedCfg
	// The open loop has its full length in a traced run, whose per-layer
	// percentiles rest on it, and half of it in an untraced run, where no
	// end-to-end metric does: there it is the reads running beside the writes,
	// the checkpoints falling into them and the gate after them that count, and
	// the time goes to more Recover calls.
	windows := max(int(math.Round(float64(w.openWindows)*r.seconds/refSeconds)), 1)
	if r.tr == nil {
		windows = max(windows/2, 1)
	}
	interval := time.Duration(float64(time.Second) * float64(w.window) / float64(w.rate))
	out := &latencies{}

	// The tap is a second, in-process subscription on the watched view, read
	// by the writer right after each window: it tells exactly which windows
	// published a change (a stream position is a view's last publication and
	// trails on windows that leave the view unchanged), so that exactly those
	// are sampled, whether or not the hub coalesced them.
	view, err := s.eng.Program().ResultMapFor(w.watch)
	if err != nil {
		return nil, err
	}
	tap, err := s.eng.Subscribe(view, engine.SubscribeOptions{Buffer: 1, SkipInitial: true})
	if err != nil {
		return nil, err
	}
	defer tap.Cancel()

	rec := s.rec
	pos := make([]uint64, windows)        // engine position after each window
	applied := make([]time.Time, windows) // when ApplyBatch returned
	published := make([]bool, windows)

	// One HTTP reader, paced on its own fixed schedule for the length of the
	// writer's schedule.
	reads := int(float64(windows) * interval.Seconds() * float64(w.snapReads))
	snapDone := make(chan struct{})
	var snapMs []float64
	var snapFailed int
	var writerDone atomic.Bool
	go func() {
		defer close(snapDone)
		loop := newOpenLoop(reads, time.Second/time.Duration(w.snapReads))
		_ = loop.run(time.Now, func(_ int, d time.Duration) { time.Sleep(d) }, func(int) error {
			if writerDone.Load() {
				return errInterrupted // the writer finished early; stop reading
			}
			start := time.Now()
			res, err := serve.FetchSnapshot(s.srv.SnapshotAddr(), w.read)
			if err != nil || res.Truncated {
				snapFailed++
				return nil
			}
			snapMs = append(snapMs, ms(time.Since(start)))
			return nil
		})
	}()

	runtime.GC()
	phase := r.tr.begin("open-loop", -1, -1)
	loop := newOpenLoop(windows, interval)
	err = loop.run(time.Now, func(i int, d time.Duration) {
		sp := r.tr.begin("gen.wait", phase, i)
		spinFor(d)
		r.tr.end(sp)
	}, func(i int) error {
		if r.stop.Load() {
			return errInterrupted
		}
		win := cur.next()
		if err := r.applyWindow(s.eng, win, false, phase, i); err != nil {
			return err
		}
		applied[i] = time.Now()
		pos[i] = s.eng.Events()
		out.events += len(win)
		select {
		case <-tap.C:
			published[i] = true
		default:
		}
		return nil
	})
	writerDone.Store(true)
	r.tr.end(phase)
	<-snapDone
	if err != nil {
		return nil, err
	}

	// Wait for the subscriber to see the last publication (5 s at most).
	last := -1
	for i := windows - 1; i >= 0; i-- {
		if published[i] {
			last = i
			break
		}
	}
	if last >= 0 {
		deadline := time.Now().Add(5 * time.Second)
		for rec.lastEvents() < pos[last] && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}

	// Attribute receipts to windows: a publishing window is covered by the
	// first batch whose position reaches the window's own.
	receipts := rec.snapshot()
	j, sampled, unseen := 0, 0, 0
	for i := 0; i < windows; i++ {
		if !published[i] {
			continue
		}
		sampled++
		for j < len(receipts) && receipts[j].events < pos[i] {
			j++
		}
		if j == len(receipts) {
			unseen++
			continue
		}
		out.visible = append(out.visible, ms(receipts[j].at.Sub(loop.due(i))))
		out.hop = append(out.hop, ms(receipts[j].at.Sub(applied[i])))
		r.tr.add("serve.hop", applied[i], receipts[j].at, phase, i)
	}
	out.snapshot = snapMs
	out.late = msSlice(loop.lateness())
	out.backlog = loop.backlog * w.window
	out.rateEps = float64(out.events) / loop.sent[windows-1].Sub(loop.start).Seconds()

	r.attempted += out.events + sampled + reads
	if unseen > 0 {
		r.fail(unseen, "%d publishing windows never reached the subscriber within 5 s", unseen)
	}
	if snapFailed > 0 {
		r.fail(snapFailed, "%d snapshot reads failed", snapFailed)
	}
	// A generator more than a quarter second behind when its schedule ends
	// was not keeping up: the backlog was growing, and the latencies measure
	// the queue, not the system.
	if float64(out.backlog) > 0.25*float64(w.rate) {
		r.fail(1, "open loop fell behind: %d events were still unsent when the schedule ended (rate %d/s)", out.backlog, w.rate)
	}
	return out, nil
}

// spinFor busy-waits instead of sleeping. A sleeping goroutine in an
// otherwise idle Go process wakes on the netpoller's 1 ms granularity —
// time.Sleep(100µs) takes 1.1 ms — which is the whole interval between two
// windows: a sleeping generator would be late by a tick on every window and
// the tick, not the system, would be the measured latency. Yielding in the
// loop (runtime.Gosched) is worse: an always-runnable goroutine keeps the
// scheduler from ever reaching its network poll, and the subscriber's socket
// is then only read on sysmon's 10 ms tick.
func spinFor(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

// diskBytes returns the bytes the served engine wrote to its directory so
// far: log records plus checkpoint links. The logger writes off the apply
// path, so the counter is read once it has stopped moving.
func diskBytes(eng *engine.Engine) (int64, error) {
	prev := int64(-1)
	for i := 0; i < 2000; i++ {
		st, ok := eng.LogStats()
		if !ok {
			return 0, errors.New("durability is not armed")
		}
		if st.Err != nil {
			return 0, st.Err
		}
		total := st.AppendedBytes + st.CheckpointBytes
		if total == prev && st.NextLSN == eng.LogNextLSN() {
			return total, nil
		}
		prev = total
		time.Sleep(15 * time.Millisecond) // longer than the 10 ms group-commit interval
	}
	return 0, errors.New("log byte counter did not settle")
}

// leaveFixture brings the fresh served engine's directory to the state
// recovery is measured from: a base and three delta links, then a log tail of
// a fixed number of events (to within one window).
// Explicit checkpoints, a quarter pass apart, extend the chain until it is
// four links long (RebaseEvery is 4, so that takes one to four of them); the
// tail is shorter than CheckpointEvery, so no periodic checkpoint falls into
// it.
func (r *runner) leaveFixture(s *served, cur *cursor) error {
	quarter := len(cur.win[0][0]) / 4
	for {
		if _, err := r.applyWindows(s.eng, cur, quarter); err != nil {
			return err
		}
		if err := s.eng.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		info, _ := s.eng.LastCheckpointInfo()
		if info.Err != nil {
			return fmt.Errorf("checkpoint: %w", info.Err)
		}
		if info.ChainLen == fixtureChain {
			break
		}
	}
	for tail, want := 0, r.scaled(float64(servedCfg.tailEvents)); tail < want; {
		n, err := r.applyWindows(s.eng, cur, 1)
		if err != nil {
			return err
		}
		tail += n
	}
	return nil
}

// recoverOnce recovers a fresh engine from the recovery fixture and returns
// how long Engine.Recover took. recovery_s is the fastest of the run's
// servedCfg.recoverReps calls, which the run spreads over its length.
func (r *runner) recoverOnce() (float64, *engine.RecoveryStats, *engine.Engine, error) {
	if r.stop.Load() {
		return 0, nil, nil, errInterrupted
	}
	eng, _, err := buildEngine(servedCfg.queries, r.procs, nil, -1)
	if err != nil {
		return 0, nil, nil, err
	}
	runtime.GC()
	sp := r.tr.begin("engine.Recover", -1, len(r.recTimes))
	start := time.Now()
	stats, err := eng.Recover(durabilityOptions(r.fixDir))
	elapsed := time.Since(start)
	r.tr.end(sp)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("recover: %w", err)
	}
	r.attempted++
	return elapsed.Seconds(), stats, eng, nil
}

// sortedMs sorts a latency sample in place and returns it.
func sortedMs(xs []float64) []float64 {
	sort.Float64s(xs)
	return xs
}
