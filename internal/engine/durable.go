package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dbtoaster/internal/gmr"
	"dbtoaster/internal/wal"
)

// This file wires the write-ahead log and checkpointer (package wal) into the
// engine's write side.
//
// With durability armed (SetDurability), every commit unit — an Apply event
// or an ApplyBatch window, both through Engine.commit — is logged ahead of
// execution: the record is appended (and, per sync policy, fsynced) first,
// and only then executed — so any state a crash can lose is state the log
// can replay, and any event the log rejects is an event the views never saw.
// Every stream event is logged, including events on relations the program
// ignores, so the logged-event count (the LSN) maps one-to-one onto a prefix
// of the input stream.
//
// Checkpoints bound replay: every CheckpointEvery logged events, the writer
// pins a snapshot (Engine.Acquire — O(#views)), rotates the log segment, and
// a background goroutine serializes the snapshot and publishes the
// checkpoint, concurrent with continued writes. With DeltaCheckpoints on,
// checkpoints form chains (wal chain format): periodically a base link
// writes every view's full flat-store image (gmr.AppendFlat), and the links
// between carry, per view, either an incremental delta of the slots touched
// since the previous checkpoint (gmr.AppendFlatDelta against the FlatBase
// captured then) or — when the view's dirty fraction crossed
// deltaDirtyThreshold, or the view's store structurally diverged (arena
// compaction, Clear/Reset) — a fresh full image. Recovery (Engine.Recover)
// composes the newest valid chain (install the base, patch each delta link)
// and replays the committed log tail through the engine's commit path —
// each record the way it was originally committed, a window in the grouped
// order it was logged and run in, so float accumulation orders match and
// recovered state is byte-equal to an uninterrupted run at the same
// committed event count.

// DurabilityOptions configures the log, checkpointer and recovery source.
type DurabilityOptions struct {
	// Dir is the log/checkpoint directory.
	Dir string
	// FS is the filesystem to write through; nil means the real disk. Tests
	// inject wal.FaultFS here.
	FS wal.FS
	// Sync selects the group-commit sync policy (default: sync each commit).
	Sync wal.SyncPolicy
	// SyncInterval is the group-commit window for wal.SyncInterval.
	SyncInterval time.Duration
	// CheckpointEvery is the number of logged events between checkpoints;
	// 0 disables periodic checkpoints (log-only durability, unbounded replay).
	CheckpointEvery uint64
	// SynchronousCheckpoints serializes and writes checkpoints on the writer
	// thread instead of a background goroutine. Benchmarks and crash tests
	// use it to make checkpoint timing deterministic.
	SynchronousCheckpoints bool
	// DeltaCheckpoints enables incremental checkpoint chains: between base
	// checkpoints, each link serializes only the slots touched since the
	// previous checkpoint, making steady-state checkpoint bytes proportional
	// to the change rate instead of the store size.
	DeltaCheckpoints bool
	// RebaseEvery bounds chain length: after this many consecutive links the
	// next checkpoint is a fresh base, bounding recovery compose time and
	// letting GC drop the old chain. 0 means 8.
	RebaseEvery int
}

// deltaDirtyThreshold is the dirty-slot fraction above which a view is
// written as a full image inside a delta link: past that point a delta is
// barely smaller but still lengthens recovery.
const deltaDirtyThreshold = 0.5

func (o *DurabilityOptions) rebaseEvery() int {
	if o.RebaseEvery <= 0 {
		return 8
	}
	return o.RebaseEvery
}

// durability is the engine's armed durability state.
type durability struct {
	opts DurabilityOptions
	fs   wal.FS
	log  *wal.Log
	// buf is the writer's reused buffer a unit is laid out in for the log.
	buf []Event
	// lastCkpt is the LSN of the newest checkpoint this incarnation started
	// (writer-thread only).
	lastCkpt uint64
	// ckptBusy is set while a background checkpoint is in flight; a due
	// checkpoint is skipped rather than queued when the previous one is still
	// writing. It also orders the chain state below: the writer only reads it
	// after observing ckptBusy false, and the background goroutine only
	// writes it before storing false, so the atomic is the happens-before
	// edge.
	ckptBusy atomic.Bool
	wg       sync.WaitGroup

	// Chain state, updated only when a checkpoint publishes successfully —
	// after a failed write the next link parents off the last durable
	// checkpoint, whose files GC retained. bases maps each view to the
	// structural fingerprint of its image at that checkpoint (the delta
	// boundary); adminAt pins the engine's administrative generation, so any
	// view rewiring (program reload, recovery install) forces a re-base.
	bases    map[string]gmr.FlatBase
	prevLSN  uint64
	chainLen int
	haveBase bool
	adminAt  uint64

	// infoMu/lastInfo expose the most recent checkpoint attempt's outcome.
	infoMu   sync.Mutex
	lastInfo CheckpointInfo
	// errMu/err hold a background checkpoint failure until the write path can
	// surface it.
	errMu sync.Mutex
	err   error
}

func (d *durability) setErr(err error) {
	d.errMu.Lock()
	if d.err == nil {
		d.err = err
	}
	d.errMu.Unlock()
}

func (d *durability) takeErr() error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	err := d.err
	d.err = nil
	return err
}

// SetDurability arms write-ahead logging and periodic checkpoints. Call it
// from the writer goroutine before streaming events — on a fresh engine, or
// on one that just recovered with Recover (the log then resumes at the
// recovered LSN, in a new segment). Close with CloseDurability.
func (e *Engine) SetDurability(o DurabilityOptions) error {
	if e.dur != nil {
		return fmt.Errorf("engine: durability already armed")
	}
	fs := o.FS
	if fs == nil {
		fs = wal.DiskFS()
	}
	log, err := wal.Open(wal.Options{Dir: o.Dir, FS: fs, Policy: o.Sync, Interval: o.SyncInterval}, e.recoveredLSN)
	if err != nil {
		return err
	}
	e.dur = &durability{opts: o, fs: fs, log: log, lastCkpt: e.recoveredLSN}
	return nil
}

// CloseDurability flushes and closes the log, waiting for an in-flight
// checkpoint to finish. The engine keeps running memory-only afterwards.
func (e *Engine) CloseDurability() error {
	d := e.dur
	if d == nil {
		return nil
	}
	e.dur = nil
	d.wg.Wait()
	err := d.log.Close()
	if cerr := d.takeErr(); err == nil {
		err = cerr
	}
	return err
}

// LogNextLSN returns the next log sequence number (the number of events
// logged so far, counting from the first incarnation). Zero when durability
// is off and nothing was recovered.
func (e *Engine) LogNextLSN() uint64 {
	if e.dur == nil {
		return e.recoveredLSN
	}
	return e.dur.log.NextLSN()
}

// append logs one commit unit's events as one record (and, per the sync
// policy, fsynced) ahead of running them, first surfacing a failed
// background checkpoint. The record lists the unit in grouped order (events
// indexed by order), which is the order the engine runs it in and the order
// Recover replays it in; buf is the reused buffer it is laid out in.
func (d *durability) append(batch bool, events []Event, order []int32) error {
	if err := d.takeErr(); err != nil {
		return fmt.Errorf("engine: checkpoint failed: %w", err)
	}
	d.buf = d.buf[:0]
	for _, j := range order {
		d.buf = append(d.buf, events[j])
	}
	_, err := d.log.Append(batch, d.buf)
	return err
}

// maybeCheckpoint starts a checkpoint when enough events were logged since
// the last one. Runs on the writer thread.
func (d *durability) maybeCheckpoint(e *Engine) error {
	if d.opts.CheckpointEvery == 0 || d.log.NextLSN()-d.lastCkpt < d.opts.CheckpointEvery {
		return nil
	}
	return d.checkpointWith(e, d.opts.SynchronousCheckpoints)
}

// Checkpoint forces a checkpoint now (synchronously, regardless of
// SynchronousCheckpoints). It requires armed durability.
func (e *Engine) Checkpoint() error {
	if e.dur == nil {
		return fmt.Errorf("engine: durability not armed")
	}
	d := e.dur
	if err := d.checkpointWith(e, true); err != nil {
		return err
	}
	return d.takeErr()
}

// CheckpointInfo describes the most recent checkpoint attempt.
type CheckpointInfo struct {
	// LSN is the checkpoint's replay cut point.
	LSN uint64
	// Base reports whether the link was a full base (true) or a delta.
	Base bool
	// Bytes is the serialized size of the published link (0 on failure).
	Bytes int
	// ChainLen is the chain length ending at this link (1 for a base).
	ChainLen int
	// DirtyFraction maps each view to its dirty-slot fraction at the
	// checkpoint (1 when the view was not delta-eligible); nil for a base.
	DirtyFraction map[string]float64
	// Err is the write failure, if any.
	Err error
}

// LastCheckpointInfo returns the outcome of the most recent checkpoint
// attempt this incarnation, and false if none has run (or durability is
// off). Unlike the sticky write-path error, this reports failures promptly —
// and successes at all.
func (e *Engine) LastCheckpointInfo() (CheckpointInfo, bool) {
	d := e.dur
	if d == nil {
		return CheckpointInfo{}, false
	}
	d.infoMu.Lock()
	defer d.infoMu.Unlock()
	return d.lastInfo, d.lastInfo.LSN != 0 || d.lastInfo.Bytes != 0 || d.lastInfo.Err != nil
}

// LogStats returns the armed log's observable counters (wal.Log.Stats), and
// false when durability is off.
func (e *Engine) LogStats() (wal.Stats, bool) {
	if e.dur == nil {
		return wal.Stats{}, false
	}
	return e.dur.log.Stats(), true
}

// checkpointWith pins the current state and publishes it as a checkpoint
// chain link. The snapshot pin, LSN capture, link-kind decision and segment
// rotation happen on the writer thread (cheap: O(#views) freeze, a few
// scalar reads, one file create); the per-view dirty scans, serialization,
// the checkpoint write and garbage collection run in the background unless
// sync is set. A checkpoint that finds the previous background one still in
// flight is skipped — the log simply stays longer until the next due point.
// That skip also serializes all chain-state access and directory GC: at most
// one checkpoint is in flight at a time.
func (d *durability) checkpointWith(e *Engine, sync bool) error {
	if d.ckptBusy.Load() {
		return nil
	}
	snap := e.Acquire()
	lsn := d.log.NextLSN()
	events := e.Events()
	// A delta link needs a parent strictly below it, a same-admin view set,
	// and a chain short enough that recovery compose time stays bounded;
	// anything else re-bases. The per-view dirty fractions are measured in
	// the background — a view that diverged structurally or crossed the
	// threshold just falls back to a full image inside the delta link.
	isBase := !d.opts.DeltaCheckpoints || !d.haveBase || snap.admin != d.adminAt ||
		lsn <= d.prevLSN || d.chainLen >= d.opts.rebaseEvery()
	if err := d.log.Rotate(); err != nil {
		return err
	}
	d.lastCkpt = lsn
	names := make([]string, 0, len(snap.views))
	for name := range snap.views {
		names = append(names, name)
	}
	sort.Strings(names)
	write := func() error {
		c := &wal.ChainCheckpoint{LSN: lsn, EngineEvents: events, Base: isBase}
		chainLen := 1
		var dirtyFrac map[string]float64
		if !isBase {
			c.ParentLSN = d.prevLSN
			chainLen = d.chainLen + 1
			dirtyFrac = make(map[string]float64, len(names))
		}
		newBases := make(map[string]gmr.FlatBase, len(names))
		for _, name := range names {
			g := snap.views[name]
			newBases[name] = g.FlatBase()
			if !isBase {
				frac := 1.0
				if base, ok := d.bases[name]; ok {
					if dirty, total, ok := g.FlatDirty(base); ok {
						if total == 0 {
							frac = 0
						} else {
							frac = float64(dirty) / float64(total)
						}
						if frac < deltaDirtyThreshold {
							if data, ok := g.AppendFlatDelta(nil, base); ok {
								dirtyFrac[name] = frac
								c.Views = append(c.Views, wal.ViewPayload{Name: name, Delta: true, Data: data})
								continue
							}
						}
					}
				}
				dirtyFrac[name] = frac
			}
			c.Views = append(c.Views, wal.ViewPayload{Name: name, Data: g.AppendFlat(nil)})
		}
		_, size, err := wal.WriteChainCheckpoint(d.fs, d.opts.Dir, c)
		d.log.NoteCheckpoint(size, err)
		d.infoMu.Lock()
		d.lastInfo = CheckpointInfo{LSN: lsn, Base: isBase, Bytes: size, ChainLen: chainLen, DirtyFraction: dirtyFrac, Err: err}
		d.infoMu.Unlock()
		if err != nil {
			return err
		}
		// Publish succeeded: the next link may parent off this one. A failed
		// publish leaves the previous chain state in place instead.
		d.bases = newBases
		d.prevLSN = lsn
		d.chainLen = chainLen
		d.haveBase = true
		d.adminAt = snap.admin
		_, err = d.log.GC()
		return err
	}
	if sync {
		if err := write(); err != nil {
			d.setErr(err)
		}
		return nil
	}
	d.ckptBusy.Store(true)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer d.ckptBusy.Store(false)
		if err := write(); err != nil {
			d.setErr(err)
		}
	}()
	return nil
}

// RecoveryStats reports what Recover reconstructed.
type RecoveryStats struct {
	// CheckpointLSN is the LSN of the checkpoint chain head recovery started
	// from (0 with HadCheckpoint false means replay from an empty engine).
	CheckpointLSN uint64
	HadCheckpoint bool
	// ChainLength is the number of links composed (1 for a plain base; 0
	// without a checkpoint).
	ChainLength int
	// ReplayedEvents is the number of events re-executed from the log tail.
	ReplayedEvents uint64
	// NextLSN is where logging resumes (the recovered committed prefix).
	NextLSN uint64
	// TruncatedTail is true when a torn record was dropped at the log's end.
	TruncatedTail bool
	// SkippedCheckpoints lists damaged checkpoint files that were bypassed.
	SkippedCheckpoints []string
}

// Recover loads durable state from o.Dir into this engine: the newest valid
// checkpoint's flat-store images become the view stores verbatim, and the
// committed log tail is replayed through the commit path Apply and
// ApplyBatch share, one record at a time (wal.Recovered.Replay), each as the
// unit it was committed as. A torn log tail is truncated (and the segment
// repaired on disk). A corrupt record with valid records after it fails
// Recover before anything is installed or replayed, since wal.Scan validates
// the whole tail first; a checkpoint set that does not fit the program fails
// it too. After any other failure the engine must be considered unusable.
//
// Call it on a fresh engine, after LoadStatic/Init and after configuring the
// execution mode the original run used — replay re-executes triggers, so
// recovered state is byte-equal to the original only under the original
// execution configuration — and before the first Acquire, Subscribe or
// serve.New: a serving engine is refused. Arm durability again afterwards
// with SetDurability to resume logging.
func (e *Engine) Recover(o DurabilityOptions) (*RecoveryStats, error) {
	if e.dur != nil {
		return nil, fmt.Errorf("engine: recover with durability armed")
	}
	if e.serveActive.Load() {
		// Serving mode keeps the event count on the atomic epoch clock and
		// hands readers frozen views; installing a checkpoint under them would
		// lose the count and bypass every subscription's capture.
		return nil, fmt.Errorf("engine: recover on a serving engine (Acquire or Subscribe ran first); recover before serving starts")
	}
	if e.Events() != 0 {
		return nil, fmt.Errorf("engine: recover on a non-fresh engine (%d events applied)", e.Events())
	}
	fs := o.FS
	if fs == nil {
		fs = wal.DiskFS()
	}
	rec, err := wal.Scan(fs, o.Dir)
	if err != nil {
		return nil, err
	}
	stats := &RecoveryStats{
		NextLSN:            rec.NextLSN,
		TruncatedTail:      rec.TruncatedTail,
		SkippedCheckpoints: rec.SkippedCheckpoints,
	}
	if len(rec.Chain) > 0 {
		head := rec.Chain[len(rec.Chain)-1]
		stats.HadCheckpoint = true
		stats.CheckpointLSN = head.LSN
		stats.ChainLength = len(rec.Chain)
		if err := e.loadChain(rec.Chain); err != nil {
			return nil, err
		}
	}
	// Replay hands over one record at a time in buffers it reuses: nothing
	// the unserved, undurable engine runs keeps an event's tuple past the
	// commit (stores copy values in). A window was logged in grouped order,
	// so committing it as it stands runs it exactly as it first ran.
	err = rec.Replay(func(r *wal.Record) error {
		if err := e.commit(r.Events, r.Batch); err != nil {
			return fmt.Errorf("engine: replay at LSN %d: %w", r.First, err)
		}
		stats.ReplayedEvents += uint64(len(r.Events))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := rec.RepairTail(fs, o.Dir); err != nil {
		return nil, err
	}
	e.recoveredLSN = rec.NextLSN
	return stats, nil
}

// loadChain composes a checkpoint chain — the base link's full images
// patched by each delta link in order — and installs the result as the
// engine's view stores. Every link must carry exactly the program's views
// (the chain format guarantees a link lists all views), each full image must
// match the view's key schema, and every delta payload must apply cleanly;
// anything else means the directory belongs to a different program or is
// damaged, and nothing is installed.
func (e *Engine) loadChain(chain []*wal.ChainCheckpoint) error {
	loaded := make(map[string]*gmr.GMR, len(e.views))
	for li, c := range chain {
		if len(c.Views) != len(e.views) {
			return fmt.Errorf("engine: checkpoint LSN %d has %d views, program has %d", c.LSN, len(c.Views), len(e.views))
		}
		for i := range c.Views {
			p := &c.Views[i]
			v, ok := e.views[p.Name]
			if !ok {
				return fmt.Errorf("engine: checkpoint view %q not in program", p.Name)
			}
			if p.Delta {
				g, ok := loaded[p.Name]
				if !ok || li == 0 {
					return fmt.Errorf("engine: checkpoint LSN %d: delta payload for view %q without a prior image", c.LSN, p.Name)
				}
				if err := g.ApplyFlatDelta(p.Data); err != nil {
					return fmt.Errorf("engine: checkpoint LSN %d view %q: %w", c.LSN, p.Name, err)
				}
				continue
			}
			g, err := gmr.LoadFlat(p.Data)
			if err != nil {
				return fmt.Errorf("engine: checkpoint LSN %d view %q: %w", c.LSN, p.Name, err)
			}
			gs, vs := g.Schema(), v.Keys()
			if len(gs) != len(vs) {
				return fmt.Errorf("engine: checkpoint view %q: schema %v, program expects %v", p.Name, gs, vs)
			}
			for j := range gs {
				if gs[j] != vs[j] {
					return fmt.Errorf("engine: checkpoint view %q: schema %v, program expects %v", p.Name, gs, vs)
				}
			}
			loaded[p.Name] = g
		}
	}
	// All links validated and composed; install atomically so a bad
	// checkpoint never leaves a half-replaced engine.
	for name, g := range loaded {
		e.views[name].data = g
	}
	e.eventsPlain = chain[len(chain)-1].EngineEvents
	e.adminGen.Add(1)
	return nil
}
