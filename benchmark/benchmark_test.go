package main

import (
	"math"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
	"dbtoaster/internal/workload"
)

func TestPercentileAgainstSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 19, 20, 21, 100, 1001} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		s := sortedCopy(xs)
		if !sort.Float64sAreSorted(s) {
			t.Fatal("sortedCopy did not sort")
		}
		for _, p := range []float64{1, 50, 95, 99, 100} {
			got := percentile(s, p)
			// Oracle: the smallest sample value with at least p% of the
			// sample at or below it, found by counting.
			want := math.NaN()
			for _, v := range s {
				atOrBelow := 0
				for _, u := range s {
					if u <= v {
						atOrBelow++
					}
				}
				if float64(atOrBelow) >= p/100*float64(n) {
					want = v
					break
				}
			}
			if got != want {
				t.Errorf("n=%d p=%v: got %v, want %v", n, p, got, want)
			}
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1.5, 2, 10, 11, 40], n=4) == [1.75, 10.0, 25.5]
	q1, q2, q3 = quartiles([]float64{1.5, 2, 10, 11, 40})
	if q1 != 1.75 || q2 != 10 || q3 != 25.5 {
		t.Errorf("quartiles = %v %v %v, want 1.75 10 25.5", q1, q2, q3)
	}
	if got := relSpread([]float64{1.5, 2, 10, 11, 40}); math.Abs(got-2.375) > 1e-12 {
		t.Errorf("relSpread = %v, want 2.375", got)
	}
}

// TestCycleRateTakesTheFastestRegion: slow stretches that leave each segment
// one region at full speed move the mean rate and leave the reported one
// alone; a cost paid in every region moves both.
func TestCycleRateTakesTheFastestRegion(t *testing.T) {
	fill := func(slow int, every float64) *cycleTimes {
		c := newCycleTimes(2)
		c.events = []int{1000, 3000}
		for i := 0; i < 5; i++ {
			a, b := 1.0+every, 2.0+every
			if i < slow {
				a *= 2
			}
			c.secs[0] = append(c.secs[0], a)
			c.secs[1] = append(c.secs[1], b)
		}
		return c
	}
	calm := fill(0, 0)
	if got := calm.rate(); got != 4000.0/3 || calm.meanRate() != got {
		t.Errorf("calm: rate %v, mean rate %v, want 4000/3 for both", got, calm.meanRate())
	}
	burst := fill(4, 0)
	if got := burst.rate(); got != calm.rate() {
		t.Errorf("four slow regions of five moved the rate to %v", got)
	}
	if burst.meanRate() >= calm.meanRate() {
		t.Error("four slow regions of five left the mean rate alone")
	}
	if slower := fill(0, 0.5); slower.rate() >= calm.rate() {
		t.Error("a cost paid in every region left the rate alone")
	}
	if calm.regions() != 10 || calm.total() != 15 {
		t.Errorf("%d regions in %v s, want 10 in 15", calm.regions(), calm.total())
	}
}

// TestSawtoothFillsAndDrains replays forward then mirrored over every
// registered query's stream: no multiplicity may go negative on the way and
// the base relations must be empty again at the end.
func TestSawtoothFillsAndDrains(t *testing.T) {
	for _, spec := range workload.All() {
		ms, err := workload.Combine([]string{spec.Name})
		if err != nil {
			t.Fatal(err)
		}
		seg := buildSegment(ms, 0.25, 3)
		if len(seg.fwd) == 0 || len(seg.rev) != len(seg.fwd) {
			t.Fatalf("%s: %d forward and %d mirrored events", spec.Name, len(seg.fwd), len(seg.rev))
		}
		for i, ev := range seg.fwd {
			back := seg.rev[len(seg.rev)-1-i]
			if back.Insert == ev.Insert || back.Relation != ev.Relation {
				t.Fatalf("%s: event %d is not mirrored", spec.Name, i)
			}
			if len(ev.Tuple) > 0 && &back.Tuple[0] != &ev.Tuple[0] {
				t.Fatalf("%s: event %d: the mirrored tuple is a copy", spec.Name, i)
			}
		}
		db, err := baseRelations(ms.Catalog, nil, seg.fwd, len(seg.fwd))
		if err != nil {
			t.Fatalf("%s forward: %v", spec.Name, err)
		}
		for i, ev := range seg.rev {
			m := 1.0
			if !ev.Insert {
				m = -1
			}
			if got := db.rels[ev.Relation].Add(ev.Tuple, m); got < 0 {
				t.Fatalf("%s: mirrored event %d drove %v negative", spec.Name, i, ev.Tuple)
			}
		}
		for name, rel := range db.rels {
			if rel.Len() != 0 {
				t.Errorf("%s: %s holds %d tuples after the mirrored pass", spec.Name, name, rel.Len())
			}
		}
	}
}

func TestCursorWalksTheSawtooth(t *testing.T) {
	in, err := newInput([]string{"Q1"}, 0.1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := in.segs[0], in.segs[1]
	if a == b || len(a.fwd) == 0 {
		t.Fatal("two segments wanted")
	}
	// Forward and mirrored over the first segment, then over the second,
	// then the first again.
	passes := [][]engine.Event{a.fwd, a.rev, b.fwd, b.rev, a.fwd}
	cur := newCursor(in.segs, 64)
	for p, want := range passes {
		for off := 0; off < len(want); {
			seg, prefix := cur.position()
			wantSeg, wantPrefix := in.segs[p/2%2], off
			if p%2 == 1 {
				wantPrefix = len(want) - off
			}
			if seg != wantSeg || prefix != wantPrefix {
				t.Fatalf("pass %d offset %d: position is prefix %d of segment %p, want %d of %p", p, off, prefix, seg, wantPrefix, wantSeg)
			}
			w := cur.next()
			if len(w) == 0 || len(w) > 64 {
				t.Fatalf("pass %d: window of %d events", p, len(w))
			}
			for i, ev := range w {
				if ev.Relation != want[off+i].Relation || ev.Insert != want[off+i].Insert || !ev.Tuple.Equal(want[off+i].Tuple) {
					t.Fatalf("pass %d offset %d: window diverges from the pass", p, off+i)
				}
			}
			off += len(w)
		}
		if cur.pass != p+1 {
			t.Fatalf("after pass %d the cursor counts %d passes", p, cur.pass)
		}
	}
}

// TestOpenLoopTimesFromDueTime drives the scheduler with a fake clock: a sink
// that stalls must not move the due times, and the windows behind the stall
// must be reported late.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	wait := func(_ int, d time.Duration) { clock = clock.Add(d) }
	const interval = 10 * time.Millisecond
	loop := newOpenLoop(10, interval)
	err := loop.run(now, wait, func(i int) error {
		clock = clock.Add(time.Millisecond) // every window costs 1 ms
		if i == 3 {
			clock = clock.Add(45 * time.Millisecond) // and the fourth stalls
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Unix(1000, 0)
	late := loop.lateness()
	for i := range late {
		if due := loop.due(i); !due.Equal(start.Add(time.Duration(i) * interval)) {
			t.Errorf("window %d due at %v: the schedule moved", i, due.Sub(start))
		}
	}
	// Window 3 is sent on time at 30 ms and returns at 76 ms; windows 4..7
	// are sent back to back at 76, 77, 78, 79 ms against due times of 40, 50,
	// 60, 70 ms; window 8 (due at 80 ms) is on time again.
	want := []time.Duration{0, 0, 0, 0, 36 * time.Millisecond, 27 * time.Millisecond, 18 * time.Millisecond, 9 * time.Millisecond, 0, 0}
	for i := range want {
		if late[i] != want[i] {
			t.Errorf("window %d lateness %v, want %v", i, late[i], want[i])
		}
	}
	if loop.backlog != 0 {
		t.Errorf("backlog %d, want 0: the loop caught up before its schedule ended", loop.backlog)
	}

	// A sink slower than the schedule ends with a backlog.
	clock = time.Unix(2000, 0)
	slow := newOpenLoop(10, interval)
	_ = slow.run(now, wait, func(int) error { clock = clock.Add(25 * time.Millisecond); return nil })
	if slow.backlog != 5 {
		t.Errorf("backlog %d, want 5 (windows 5..9 were sent after the schedule's end)", slow.backlog)
	}
}

// TestBookReferenceEqualsNaiveEvaluation holds the hand-hoisted MST and PSP
// references against agca.Eval where the latter is affordable.
func TestBookReferenceEqualsNaiveEvaluation(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		in, err := newInput([]string{"MST", "PSP"}, 0.02, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{len(in.segs[0].fwd) - int(seed)*7} {
			db, err := baseRelations(in.ms.Catalog, nil, in.segs[0].fwd, n)
			if err != nil {
				t.Fatal(err)
			}
			if pairs := db.Relation("BIDS").Len() * db.Relation("ASKS").Len(); pairs == 0 || pairs > naiveCostLimit {
				t.Fatalf("seed %d: %d bid x ask pairs: not a case the naive evaluation gates", seed, pairs)
			}
			for _, q := range in.ms.Queries {
				want := agca.Eval(q.Expr, db, types.Env{})
				got := bookReference(q.Name, db)
				if got == nil {
					t.Fatalf("no book reference for %s", q.Name)
				}
				if ok, diff := sameWithin(got, want); !ok {
					t.Errorf("seed %d, %d events, %s: %s", seed, n, q.Name, diff)
				}
				if want.Len() == 0 {
					t.Errorf("seed %d, %d events, %s: empty result proves nothing", seed, n, q.Name)
				}
			}
		}
	}
	if bookReference("Q1", agca.MapDB{}) != nil {
		t.Error("bookReference answered for a query it does not know")
	}
}

func TestSameWithinSeesMissingAndChangedTuples(t *testing.T) {
	a := gmr.New(types.Schema{"k"})
	b := gmr.New(types.Schema{"k"})
	a.Add(types.Tuple{types.Int(1)}, 1e9)
	b.Add(types.Tuple{types.Int(1)}, 1e9+1) // inside the relative tolerance
	if ok, diff := sameWithin(a, b); !ok {
		t.Errorf("rounding-sized difference rejected: %s", diff)
	}
	b.Add(types.Tuple{types.Int(2)}, 1)
	if ok, _ := sameWithin(a, b); ok {
		t.Error("a tuple missing from the view went unnoticed")
	}
	if ok, _ := sameWithin(b, a); ok {
		t.Error("a tuple missing from the reference went unnoticed")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclarationMatchesTheHarness holds BENCHMARK.json and the harness's
// metric tables equal in both directions, name by name and unit by unit.
func TestDeclarationMatchesTheHarness(t *testing.T) {
	decl, err := readDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, the work table is calibrated for %d", decl.RunSeconds, refSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the work table", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d declared as %q, the work table has %q", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why (%d characters)", w.Name, len(w.Why))
		}
	}
	check := func(kind string, have []metricDef, declared map[string]string) {
		seen := map[string]bool{}
		for _, d := range have {
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s metric %q is not a valid name", kind, d.name)
			}
			if seen[d.name] {
				t.Errorf("%s metric %q listed twice", kind, d.name)
			}
			seen[d.name] = true
			unit, ok := declared[d.name]
			if !ok {
				t.Errorf("%s metric %q is emitted but not declared", kind, d.name)
			} else if unit != d.unit {
				t.Errorf("%s metric %q: emitted in %q, declared in %q", kind, d.name, d.unit, unit)
			}
		}
		for name := range declared {
			if !seen[name] {
				t.Errorf("%s metric %q is declared but not emitted", kind, name)
			}
		}
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, d := range decl.EndToEnd {
		e2e[d.Name] = d.Unit
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
	}
	for _, d := range decl.PerLayer {
		layer[d.Name] = d.Unit
	}
	check("end-to-end", endToEnd, e2e)
	check("per-layer", perLayer, layer)
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's limits", len(perLayer), len(endToEnd))
	}
}

// TestQuickSmoke runs the untraced run with and without the open loop and a
// traced run in-process at -quick size: all must be correct, emit exactly the
// declared metrics of their kind, and stay well under ten seconds together.
func TestQuickSmoke(t *testing.T) {
	start := time.Now()
	var stop atomic.Bool
	for _, c := range []struct {
		workload string
		trace    int
		defs     []metricDef
	}{{"live-e2e", 0, endToEnd}, {"tpch-event", 0, endToEnd}, {"tpch-batch", 1, perLayer}} {
		o := options{outDir: t.TempDir(), workload: c.workload, seed: 2, seconds: 1, trace: c.trace, procs: 2, quick: true}
		rep, err := runWorkload(findWorkload(c.workload), o, &stop)
		if err != nil {
			t.Fatalf("%s: %v", c.workload, err)
		}
		if rep.failed != 0 || rep.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", c.workload, rep.failed, rep.attempted, rep.problems)
		}
		for _, d := range c.defs {
			v, ok := rep.metrics[d.name]
			if !ok {
				t.Errorf("%s trace=%d: %s was not measured", c.workload, c.trace, d.name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s trace=%d: %s = %v", c.workload, c.trace, d.name, v)
			}
		}
		for _, d := range endToEnd {
			if c.trace == 0 && rep.metrics[d.name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", c.workload, d.name, rep.metrics[d.name])
			}
		}
	}
	if took := time.Since(start); took > 10*time.Second && !raceDetector {
		t.Errorf("quick smoke took %v", took)
	}
}

// TestInterruptUnwinds stops a run in mid-flight: it must end with
// errInterrupted after its teardown, leaving no log directory behind.
func TestInterruptUnwinds(t *testing.T) {
	var stop atomic.Bool
	timer := time.AfterFunc(300*time.Millisecond, func() { stop.Store(true) })
	defer timer.Stop()
	o := options{outDir: t.TempDir(), workload: "live-e2e", seed: 1, seconds: 4, procs: 2, quick: true}
	if _, err := runWorkload(findWorkload("live-e2e"), o, &stop); err != errInterrupted {
		t.Fatalf("err = %v, want errInterrupted", err)
	}
	left, err := os.ReadDir(o.outDir)
	if err != nil || len(left) != 0 {
		t.Errorf("left behind: %v (%v)", left, err)
	}
}
