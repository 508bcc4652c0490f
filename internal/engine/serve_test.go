package engine_test

import (
	"testing"
	"time"

	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
	"dbtoaster/internal/workload"
)

// mustSpec fetches a workload spec or fails the test.
func mustSpec(t *testing.T, name string) workload.Spec {
	t.Helper()
	spec, ok := workload.Get(name)
	if !ok {
		t.Fatalf("unknown workload query %q", name)
	}
	return spec
}

// TestSnapshotIsolation pins the core snapshot semantics: an acquired
// snapshot never changes while the engine keeps applying events, re-acquiring
// an unchanged epoch returns the identical snapshot, and frozen stores refuse
// mutation.
func TestSnapshotIsolation(t *testing.T) {
	spec := mustSpec(t, "Q1")
	eng := newEngineFor(t, spec, compiler.ModeDBToaster)
	events := spec.Stream(0.1, 1)
	if len(events) < 40 {
		t.Fatalf("stream too short: %d", len(events))
	}
	for _, ev := range events[:20] {
		if err := eng.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}

	snap := eng.Acquire()
	if again := eng.Acquire(); again != snap {
		t.Fatalf("re-acquiring an unchanged epoch built a new snapshot")
	}
	if snap.Events() != eng.Events() {
		t.Fatalf("snapshot events %d, engine events %d", snap.Events(), eng.Events())
	}
	before := snap.Result().Clone()
	sizeBefore := snap.ViewSizes()

	for _, ev := range events[20:] {
		if err := eng.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}

	if !gmr.Equal(snap.Result(), before, 0) {
		t.Fatalf("snapshot result drifted under concurrent writes:\n got  %v\n want %v", snap.Result(), before)
	}
	for name, n := range snap.ViewSizes() {
		if n != sizeBefore[name] {
			t.Fatalf("snapshot view %s size drifted: %d -> %d", name, sizeBefore[name], n)
		}
	}

	after := eng.Acquire()
	if after == snap || after.Version() <= snap.Version() {
		t.Fatalf("epoch did not advance: before %d, after %d", snap.Version(), after.Version())
	}
	if after.Events() != eng.Events() {
		t.Fatalf("new snapshot events %d, engine events %d", after.Events(), eng.Events())
	}
	if gmr.Equal(after.Result(), before, 0) {
		t.Fatalf("later epoch unexpectedly equals the earlier snapshot")
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("mutating a snapshot store did not panic")
			}
		}()
		snap.Result().Add(types.Tuple{}, 1)
	}()
}

// TestSnapshotAdHocEval serves an ad-hoc AGCA query from a pinned epoch: in
// REP mode the base tables are materialized views, so the original query
// expression evaluated against the snapshot must reproduce the maintained
// result of the same epoch.
func TestSnapshotAdHocEval(t *testing.T) {
	spec := mustSpec(t, "Q6")
	eng := newEngineFor(t, spec, compiler.ModeREP)
	events := spec.Stream(0.1, 1)
	if len(events) > 80 {
		events = events[:80]
	}
	for _, ev := range events {
		if err := eng.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	snap := eng.Acquire()
	got, err := snap.Eval(spec.Query.Expr)
	if err != nil {
		t.Fatalf("ad-hoc eval: %v", err)
	}
	if g, w := got.ScalarValue(), snap.Result().ScalarValue(); g != w {
		t.Fatalf("ad-hoc eval over snapshot = %v, maintained result = %v", g, w)
	}
}

// applyBatchEntries folds a delivered change batch into a consumer-side copy.
func applyBatchEntries(local *gmr.GMR, cb engine.ChangeBatch) {
	for _, e := range cb.Entries {
		local.Add(e.Tuple, e.Mult)
	}
}

// resultCopy returns an empty GMR over the engine's result-view schema.
func resultCopy(eng *engine.Engine) *gmr.GMR {
	keys := eng.View(eng.Program().Queries[0].ResultMap).Keys()
	return gmr.New(types.Schema(keys))
}

// TestSubscribeStream subscribes to the result view, replays a stream through
// a mix of single events and batch windows, and asserts that the catch-up
// batch plus the delivered deltas reproduce the final maintained result, with
// strictly increasing epochs.
func TestSubscribeStream(t *testing.T) {
	spec := mustSpec(t, "Q1")
	eng := newEngineFor(t, spec, compiler.ModeDBToaster)
	events := spec.Stream(0.1, 1)
	if len(events) > 200 {
		events = events[:200]
	}

	// Warm the engine first so the catch-up batch is non-trivial.
	for _, ev := range events[:50] {
		if err := eng.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}

	sub, err := eng.Subscribe("", engine.SubscribeOptions{Buffer: len(events) + 2})
	if err != nil {
		t.Fatal(err)
	}
	local := resultCopy(eng)

	rest := events[50:]
	for i := 0; i < len(rest); {
		if i%3 == 0 {
			if err := eng.Apply(rest[i]); err != nil {
				t.Fatal(err)
			}
			i++
			continue
		}
		end := i + 17
		if end > len(rest) {
			end = len(rest)
		}
		if err := eng.ApplyBatch(engine.NewBatch(rest[i:end])); err != nil {
			t.Fatal(err)
		}
		i = end
	}
	sub.Cancel()

	first := true
	var lastEvents uint64
	for cb := range sub.C {
		if first {
			if !cb.Initial {
				t.Fatalf("first batch is not the catch-up batch: %+v", cb)
			}
			first = false
		} else if cb.Initial {
			t.Fatalf("Initial batch delivered mid-stream")
		}
		if cb.Events <= lastEvents && lastEvents != 0 {
			t.Fatalf("batch positions not strictly increasing: %d after %d", cb.Events, lastEvents)
		}
		lastEvents = cb.Events
		if cb.Coalesced != 0 {
			t.Fatalf("unexpected coalescing with an oversized buffer: %+v", cb)
		}
		applyBatchEntries(local, cb)
	}
	if first {
		t.Fatalf("no batches delivered")
	}
	if want := eng.Result(); !gmr.Equal(local, want, 1e-9) {
		t.Fatalf("subscriber copy diverged:\n got  %v\n want %v", local, want)
	}
	subscribeLifecycle(t, eng, spec.Stream(0.1, 2))
}

// subscribeLifecycle drives the result view's subscriptions through every
// transition while events keep flowing — subscribe, cancel, re-subscribe,
// two at once, cancel one, cancel the other — and checks that the view
// captures exactly while someone is subscribed and that every consumer's copy
// (catch-up batch plus deltas) equals the view when its subscription ended.
func subscribeLifecycle(t *testing.T, eng *engine.Engine, events []engine.Event) {
	t.Helper()
	view := eng.View(eng.Program().Queries[0].ResultMap)
	if len(events) > 250 {
		events = events[:250]
	}
	chunk := 0
	flow := func() {
		t.Helper()
		part := events[chunk*len(events)/5 : (chunk+1)*len(events)/5]
		if chunk%2 == 0 {
			applyAll(t, eng, part)
		} else if err := eng.ApplyBatch(engine.NewBatch(part)); err != nil {
			t.Fatal(err)
		}
		chunk++
	}
	subscribe := func() *engine.Subscription {
		t.Helper()
		// A slot per publication the subscription can see: nothing coalesces.
		sub, err := eng.Subscribe(view.Name(), engine.SubscribeOptions{Buffer: len(events) + 2})
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	capturing := func(step string, want bool) {
		t.Helper()
		if got := view.Capturing(); got != want {
			t.Fatalf("%s: view capturing = %v, want %v", step, got, want)
		}
	}
	// cancel ends a subscription and holds the consumer's copy to the view.
	cancel := func(step string, sub *engine.Subscription) {
		t.Helper()
		sub.Cancel()
		local := resultCopy(eng)
		for cb := range sub.C {
			applyBatchEntries(local, cb)
		}
		if want := eng.Result(); !gmr.Equal(local, want, 1e-9) {
			t.Fatalf("%s: consumer copy diverged:\n got  %v\n want %v", step, local, want)
		}
	}

	capturing("before any subscription", false)
	a := subscribe()
	capturing("subscribed", true)
	flow()
	cancel("cancelled", a)
	capturing("cancelled", false)
	flow()
	a = subscribe()
	capturing("re-subscribed", true)
	flow()
	b := subscribe()
	flow()
	cancel("first of two cancelled", a)
	capturing("one of two left", true)
	flow()
	cancel("last cancelled", b)
	capturing("last cancelled", false)
}

// TestSubscribeCoalesce pins the backpressure policy deterministically: with
// a one-slot channel and a stalled consumer, publications coalesce into the
// pending delta and are delivered — with the fold count — once the consumer
// frees the slot, losing no state.
func TestSubscribeCoalesce(t *testing.T) {
	spec := mustSpec(t, "Q1")
	eng := newEngineFor(t, spec, compiler.ModeDBToaster)
	events := spec.Stream(0.1, 1)
	// Skip the stream's table-loading prefix (no LINEITEM events, so no Q1
	// publications): every window below changes the result.
	batches := workload.Batches(events[20:140], 20)

	sub, err := eng.Subscribe("", engine.SubscribeOptions{Buffer: 1, SkipInitial: true})
	if err != nil {
		t.Fatal(err)
	}
	local := resultCopy(eng)

	// Batch 1 fills the only slot; batches 2 and 3 coalesce.
	for i := 0; i < 3; i++ {
		if err := eng.ApplyBatch(engine.NewBatch(batches[i])); err != nil {
			t.Fatal(err)
		}
	}
	applyBatchEntries(local, <-sub.C) // delivered batch 1; frees the slot
	// Batch 4 carries the coalesced 2+3+4 delta.
	if err := eng.ApplyBatch(engine.NewBatch(batches[3])); err != nil {
		t.Fatal(err)
	}
	cb := <-sub.C
	if cb.Coalesced != 2 {
		t.Fatalf("Coalesced = %d, want 2 (publications 2 and 3 folded in)", cb.Coalesced)
	}
	applyBatchEntries(local, cb)
	sub.Cancel()
	if _, ok := <-sub.C; ok {
		t.Fatalf("channel not closed after Cancel")
	}

	if want := eng.Result(); !gmr.Equal(local, want, 1e-9) {
		t.Fatalf("coalesced delivery lost state:\n got  %v\n want %v", local, want)
	}
	if n := eng.Subscribers()[eng.Program().Queries[0].ResultMap]; n != 0 {
		t.Fatalf("subscription not removed after Cancel: %d left", n)
	}
}

// TestSubscribeCancelFlush pins Cancel's convergence guarantee: a delta left
// pending because the writer went idle with the channel full is flushed at
// Cancel when the consumer has drained, so the consumer still reaches the
// final state.
func TestSubscribeCancelFlush(t *testing.T) {
	spec := mustSpec(t, "Q1")
	eng := newEngineFor(t, spec, compiler.ModeDBToaster)
	events := spec.Stream(0.1, 1)
	batches := workload.Batches(events[20:80], 20)

	sub, err := eng.Subscribe("", engine.SubscribeOptions{Buffer: 1, SkipInitial: true})
	if err != nil {
		t.Fatal(err)
	}
	local := resultCopy(eng)
	// Batch 1 fills the slot; batch 2's delta is stranded pending — the
	// writer then goes idle.
	for i := 0; i < 2; i++ {
		if err := eng.ApplyBatch(engine.NewBatch(batches[i])); err != nil {
			t.Fatal(err)
		}
	}
	applyBatchEntries(local, <-sub.C)
	sub.Cancel()
	n := 0
	for cb := range sub.C {
		n++
		applyBatchEntries(local, cb)
	}
	if n != 1 {
		t.Fatalf("Cancel flushed %d batches, want the 1 stranded delta", n)
	}
	if want := eng.Result(); !gmr.Equal(local, want, 1e-9) {
		t.Fatalf("consumer did not converge after Cancel flush:\n got  %v\n want %v", local, want)
	}
}

// TestSubscribeFlushRule pins the consumer's half of the flush rule: with a
// one-slot channel, the second of two publications coalesces; a consumer that
// takes the first, finds the channel empty and calls Flush receives the
// second with no further write.
func TestSubscribeFlushRule(t *testing.T) {
	spec := mustSpec(t, "Q1")
	eng := newEngineFor(t, spec, compiler.ModeDBToaster)
	batches := workload.Batches(spec.Stream(0.1, 1)[20:60], 20)
	sub, err := eng.Subscribe("", engine.SubscribeOptions{Buffer: 1, SkipInitial: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	local := resultCopy(eng)
	for _, b := range batches {
		if err := eng.ApplyBatch(engine.NewBatch(b)); err != nil {
			t.Fatal(err)
		}
	}
	applyBatchEntries(local, <-sub.C)
	if len(sub.C) != 0 {
		t.Fatalf("%d batches still queued, want the second publication pending", len(sub.C))
	}
	sub.Flush()
	select {
	case cb := <-sub.C:
		if cb.Coalesced != 1 || cb.Events != eng.Events() {
			t.Fatalf("flushed batch: Coalesced %d at %d, want 1 at %d", cb.Coalesced, cb.Events, eng.Events())
		}
		applyBatchEntries(local, cb)
	default:
		t.Fatal("Flush left the coalesced delta pending")
	}
	if want := eng.Result(); !gmr.Equal(local, want, 1e-9) {
		t.Fatalf("consumer did not converge after Flush:\n got  %v\n want %v", local, want)
	}
}

// TestSubscribeFlushConcurrent runs the flush rule against a live writer
// (the CI race step runs it with -race): the consumer drains a one-slot
// subscription and calls Flush whenever it finds the channel empty while the
// writer publishes. Batches must arrive in strictly increasing Events order,
// and once the writer is done, one more drain-and-flush must leave the
// consumer equal to the result.
func TestSubscribeFlushConcurrent(t *testing.T) {
	spec := mustSpec(t, "Q1")
	eng := newEngineFor(t, spec, compiler.ModeDBToaster)
	batches := workload.Batches(spec.Stream(0.5, 1)[20:], 4)
	sub, err := eng.Subscribe("", engine.SubscribeOptions{Buffer: 1, SkipInitial: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	local := resultCopy(eng)
	writer := make(chan error, 1)
	go func() {
		for _, b := range batches {
			if err := eng.ApplyBatch(engine.NewBatch(b)); err != nil {
				writer <- err
				return
			}
		}
		writer <- nil
	}()
	var last uint64
	n, writing := 0, true
	for {
		if len(sub.C) == 0 {
			sub.Flush()
			if !writing && len(sub.C) == 0 {
				break
			}
		}
		select {
		case cb := <-sub.C:
			if cb.Events <= last {
				t.Fatalf("batch at %d after one at %d", cb.Events, last)
			}
			last = cb.Events
			n++
			applyBatchEntries(local, cb)
		case err := <-writer:
			if err != nil {
				t.Fatal(err)
			}
			writing = false
		case <-time.After(10 * time.Second):
			t.Fatal("consumer blocked on an empty channel with the delta pending")
		}
	}
	if want := eng.Result(); !gmr.Equal(local, want, 1e-6) {
		t.Fatalf("consumer diverged after %d batches:\n got  %v\n want %v", n, local, want)
	}
}

// TestSubscribeSync pins Sync's contract: the frozen view equals the
// consumer's copy once the backlog — the queued batch and the pending
// delta — is applied, and the next publication on C composes onto it.
func TestSubscribeSync(t *testing.T) {
	spec := mustSpec(t, "Q1")
	eng := newEngineFor(t, spec, compiler.ModeDBToaster)
	batches := workload.Batches(spec.Stream(0.1, 1)[20:100], 20)
	sub, err := eng.Subscribe("", engine.SubscribeOptions{Buffer: 1, SkipInitial: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	local := resultCopy(eng)
	for _, b := range batches[:3] {
		if err := eng.ApplyBatch(engine.NewBatch(b)); err != nil {
			t.Fatal(err)
		}
	}
	frozen, backlog := sub.Sync()
	if len(backlog) != 2 || backlog[1].Coalesced != 2 || backlog[1].Events != eng.Events() {
		t.Fatalf("backlog %+v, want the queued batch and the pending delta at %d", backlog, eng.Events())
	}
	for _, cb := range backlog {
		applyBatchEntries(local, cb)
	}
	if !gmr.Equal(local, frozen, 1e-9) {
		t.Fatalf("copy plus backlog is not the frozen view:\n got  %v\n want %v", local, frozen)
	}
	if err := eng.ApplyBatch(engine.NewBatch(batches[3])); err != nil {
		t.Fatal(err)
	}
	applyBatchEntries(local, <-sub.C)
	if want := eng.Result(); !gmr.Equal(local, want, 1e-9) {
		t.Fatalf("the batch after Sync does not compose:\n got  %v\n want %v", local, want)
	}
}

// TestSubscribeReplaceMode exercises delta capture for replacement
// statements: REP-mode triggers rewrite the result wholesale, and the hub
// must deliver the difference (retraction of the old state plus the new one)
// so a consumer copy still tracks exactly.
func TestSubscribeReplaceMode(t *testing.T) {
	spec := mustSpec(t, "Q1")
	eng := newEngineFor(t, spec, compiler.ModeREP)
	events := spec.Stream(0.1, 1)
	if len(events) > 60 {
		events = events[:60]
	}

	sub, err := eng.Subscribe("", engine.SubscribeOptions{Buffer: len(events) + 2})
	if err != nil {
		t.Fatal(err)
	}
	local := resultCopy(eng)
	for _, ev := range events {
		if err := eng.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	sub.Cancel()
	for cb := range sub.C {
		applyBatchEntries(local, cb)
	}
	if want := eng.Result(); !gmr.Equal(local, want, 1e-6) {
		t.Fatalf("replace-mode subscriber copy diverged:\n got  %v\n want %v", local, want)
	}
	subscribeLifecycle(t, eng, spec.Stream(0.1, 2))
}

// TestSubscribeUnknownView pins the error path.
func TestSubscribeUnknownView(t *testing.T) {
	spec := mustSpec(t, "Q1")
	eng := newEngineFor(t, spec, compiler.ModeDBToaster)
	if _, err := eng.Subscribe("NO_SUCH_VIEW", engine.SubscribeOptions{}); err == nil {
		t.Fatalf("subscribing to an unknown view did not error")
	}
}
