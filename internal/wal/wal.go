// Package wal gives the engine durable state: a write-ahead event log with
// group commit and periodic snapshot checkpoints of every view's flat store.
//
// The log is a sequence of append-only segment files (`wal-<first LSN>.log`)
// holding length-prefixed, CRC-32C-checksummed records; each record frames
// one commit unit — a single event or a whole batch window — so a batched
// apply amortizes to one append and (under group commit) one fsync. LSNs
// number logged events, not records. Checkpoints form chains (chain.go): a
// base file (`ckpt-<LSN>.base`) serializes each view's frozen flat store
// near-verbatim from an engine snapshot, concurrently with the writer, and
// delta files (`ckpt-<LSN>-<parent>.delta`) carry only the slots touched
// since the parent checkpoint, so steady-state checkpoint cost tracks the
// change rate rather than the store size. Recovery loads the newest chain
// that validates whole (falling back to an older head if any link is
// damaged) and replays the log tail after the head, truncating a torn tail
// while treating a bad record with valid records after it as corruption. The
// crash-consistency contract and formats are documented in
// docs/durability.md; FaultFS is the in-process crash harness the recovery
// property tests inject through.
package wal

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy selects when appended records become durable.
type SyncPolicy int

const (
	// SyncEachCommit fsyncs after every Append — one sync per commit unit,
	// so a batch window is still one sync (group commit at batch
	// granularity).
	SyncEachCommit SyncPolicy = iota
	// SyncInterval fsyncs at most once per configured interval: appends
	// between syncs ride the next one, bounding data loss by the interval
	// instead of paying a sync per commit.
	SyncInterval
	// SyncNone never fsyncs on the append path; only Rotate, Checkpoint and
	// Close force durability. Crash loss is unbounded.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncEachCommit:
		return "commit"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// Options configures a Log.
type Options struct {
	// Dir is the directory holding segments and checkpoints.
	Dir string
	// FS is the filesystem to write through; nil means the real disk.
	FS FS
	// Policy selects the sync policy; the zero value is SyncEachCommit.
	Policy SyncPolicy
	// Interval is the group-commit window for SyncInterval; 0 means 10ms.
	Interval time.Duration
}

const defaultSyncInterval = 10 * time.Millisecond

// logQueueDepth bounds the async pipeline: a full queue back-pressures the
// writer instead of buffering unbounded un-durable state.
const logQueueDepth = 256

// logTask is one unit of work for the logger goroutine: a record to encode
// and write, or (events nil) a barrier.
type logTask struct {
	// Record task (events non-nil): one commit unit to encode and write —
	// and, under SyncEachCommit, to sync before replying.
	batch  bool
	first  uint64
	events []Event

	// Barrier tasks (events nil), in precedence order: closeSeg syncs and
	// closes the segment and stops the logger; rotateTo syncs, closes and
	// opens the named segment; otherwise the task syncs unsynced writes.
	rotateTo string
	closeSeg bool

	// reply, when non-nil, receives the task's error once everything enqueued
	// before it has been handled.
	reply chan error
}

// Log is the write side of the event log. One goroutine appends (the engine's
// writer); every policy hands each commit unit to the logger goroutine, which
// encodes and writes records in enqueue (= LSN) order and owns the segment
// handle. Under SyncEachCommit Append waits for the logger to write and fsync
// the record — it is on disk when Append returns, which is that policy's
// whole point. Under SyncInterval and SyncNone Append only stamps LSNs and
// enqueues the unit — the classic group-commit log buffer: serialization and
// I/O overlap with execution, durability lags by at most the queue plus (for
// SyncInterval) the sync interval. The first write, sync or rotation failure
// poisons the log under every policy: the durable log stays an ordered prefix
// of the committed units, and the failure surfaces on every later Append,
// Sync, Rotate and Close.
type Log struct {
	fs       FS
	dir      string
	policy   SyncPolicy
	interval time.Duration

	mu      sync.Mutex
	nextLSN uint64
	closed  bool
	syncErr error // sticky logger failure, surfaced on every later call

	// Checkpoint totals (NoteCheckpoint/Stats), under mu.
	ckptCount int64
	ckptBytes int64

	// appendedBytes counts record bytes written to segments; atomic because
	// the logger goroutine writes without holding mu.
	appendedBytes atomic.Int64

	// dirMu serializes directory-shape operations — segment creation
	// (openSegment, including the logger's rotations), checkpoint GC and
	// segment removal — so a GC listing never races a concurrent rotation's
	// create/rename and deletes from a stale view of the directory.
	dirMu sync.Mutex

	// The segment, owned by the logger goroutine once Open has started it.
	seg      File
	segName  string
	unsynced bool

	queue chan logTask
	stop  chan struct{}
	wg    sync.WaitGroup
}

// Open creates (or reuses) dir and starts a fresh segment at nextLSN.
// Existing segments are left untouched — after recovery the writer resumes
// into a new segment rather than appending to an old one, so no file is ever
// reopened for writing.
func Open(opts Options, nextLSN uint64) (*Log, error) {
	fs := opts.FS
	if fs == nil {
		fs = DiskFS()
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: empty directory")
	}
	if err := fs.MkdirAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	interval := opts.Interval
	if interval <= 0 {
		interval = defaultSyncInterval
	}
	l := &Log{
		fs:       fs,
		dir:      opts.Dir,
		policy:   opts.Policy,
		interval: interval,
		nextLSN:  nextLSN,
		queue:    make(chan logTask, logQueueDepth),
		stop:     make(chan struct{}),
	}
	if err := l.openSegment(segmentName(l.nextLSN)); err != nil {
		return nil, err
	}
	l.wg.Add(1)
	go l.logger()
	if l.policy == SyncInterval {
		l.wg.Add(1)
		go l.syncLoop()
	}
	return l, nil
}

func segmentName(first uint64) string { return fmt.Sprintf("wal-%016x.log", first) }

// openSegment starts the named segment. Called by Open and by the logger
// goroutine on rotation.
func (l *Log) openSegment(name string) error {
	l.dirMu.Lock()
	f, err := l.fs.Create(join(l.dir, name))
	l.dirMu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: create segment %s: %w", name, err)
	}
	l.seg = f
	l.segName = name
	return nil
}

// fail parks the first failure; every later call surfaces it.
func (l *Log) fail(err error) {
	l.mu.Lock()
	if l.syncErr == nil {
		l.syncErr = err
	}
	l.mu.Unlock()
}

func (l *Log) sticky() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncErr
}

// syncSeg flushes the segment if it has unsynced writes. Logger goroutine
// only.
func (l *Log) syncSeg() error {
	if !l.unsynced {
		return nil
	}
	if err := l.seg.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.unsynced = false
	return nil
}

// logger owns the segment handle: it encodes and writes records in enqueue
// (= LSN) order and executes barrier tasks. Its first failure poisons the
// log — a failed record write leaves the segment tail torn, so nothing may be
// written, synced past or rotated away from after it: later records are
// dropped, later syncs and rotations skipped, and every task's reply carries
// the failure. The durable log therefore stays a clean prefix of the
// committed units ending at most in one torn record, which recovery truncates.
// Replies are always sent, so Append, Sync, Rotate and Close never hang.
func (l *Log) logger() {
	defer l.wg.Done()
	var buf []byte
	for task := range l.queue {
		err := l.sticky()
		switch {
		case task.events != nil:
			if err != nil {
				break
			}
			buf = appendRecord(buf[:0], task.batch, task.first, task.events)
			if _, werr := l.seg.Write(buf); werr != nil {
				err = fmt.Errorf("wal: append: %w", werr)
				break
			}
			l.appendedBytes.Add(int64(len(buf)))
			l.unsynced = true
			if l.policy == SyncEachCommit {
				err = l.syncSeg()
			}
		case task.closeSeg:
			cerr := l.syncSeg()
			if xerr := l.seg.Close(); cerr == nil && xerr != nil {
				cerr = fmt.Errorf("wal: close segment %s: %w", l.segName, xerr)
			}
			if err == nil {
				err = cerr
			}
		case err != nil:
			// A poisoned log neither syncs past its torn tail nor rotates
			// away from it (a torn record in a non-final segment would read
			// as mid-log corruption).
		case task.rotateTo != "":
			if err = l.syncSeg(); err == nil {
				if xerr := l.seg.Close(); xerr != nil {
					err = fmt.Errorf("wal: close segment %s: %w", l.segName, xerr)
				} else {
					err = l.openSegment(task.rotateTo)
				}
			}
		default:
			err = l.syncSeg()
		}
		if err != nil {
			l.fail(err)
		}
		if task.reply != nil {
			task.reply <- err
		}
		if task.closeSeg {
			return
		}
	}
}

// await hands a task to the logger and waits for its reply.
func (l *Log) await(task logTask) error {
	task.reply = make(chan error, 1)
	l.queue <- task
	return <-task.reply
}

// syncLoop is the SyncInterval group-commit timer: each tick enqueues a sync
// task behind whatever records are already queued, so the flush covers them.
// A full queue means the logger is saturated; the backlog rides a later tick.
func (l *Log) syncLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			select {
			case l.queue <- logTask{}:
			default:
			}
		}
	}
}

// NextLSN returns the LSN the next appended event will carry.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// Append frames events as one commit unit and commits it to the log, returning
// the record's first LSN. Under SyncEachCommit the record is written and
// fsynced before Append returns; on error the LSN counter is unchanged and
// nothing was committed — the caller must not execute the events — and the
// log is poisoned. Under SyncInterval and SyncNone the unit is handed to the
// logger goroutine: Append assigns LSNs and returns once the copy is
// enqueued, the record reaches disk asynchronously in LSN order, and a failed
// write surfaces on a subsequent Append, Sync, Rotate or Close — losing the
// queued suffix in a crash is the same contract as losing an unsynced tail.
func (l *Log) Append(batch bool, events []Event) (uint64, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: append on closed log")
	}
	if err := l.syncErr; err != nil {
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: logger failed: %w", err)
	}
	first := l.nextLSN
	l.nextLSN = first + uint64(len(events))
	l.mu.Unlock()
	switch {
	case len(events) == 0:
	case l.policy != SyncEachCommit:
		// The caller reuses its events slice across commits, so the logger
		// gets a copy — that copy (plus the channel send) is the writer
		// thread's whole per-commit cost; encoding and I/O happen on the
		// logger.
		l.queue <- logTask{batch: batch, first: first, events: append([]Event(nil), events...)}
	default:
		if err := l.await(logTask{batch: batch, first: first, events: events}); err != nil {
			l.mu.Lock()
			l.nextLSN = first
			l.mu.Unlock()
			return 0, err
		}
	}
	return first, nil
}

// Sync forces everything appended so far to durable storage.
func (l *Log) Sync() error {
	if l.isClosed() {
		return fmt.Errorf("wal: sync on closed log")
	}
	return l.await(logTask{})
}

// Rotate syncs and closes the current segment and starts a new one at the
// current LSN. The checkpointer rotates at its snapshot LSN so that segment
// boundaries align with checkpoint boundaries and whole segments become
// garbage-collectable. It is a barrier: every record appended before the
// rotation is durable in the old segment when Rotate returns.
func (l *Log) Rotate() error {
	l.mu.Lock()
	closed, name := l.closed, segmentName(l.nextLSN)
	l.mu.Unlock()
	if closed {
		return fmt.Errorf("wal: rotate on closed log")
	}
	return l.await(logTask{rotateTo: name})
}

func (l *Log) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// RemoveSegmentsBelow garbage-collects segments whose every record carries an
// LSN below lsn — that is, segments wholly covered by a retained checkpoint.
// A segment's span is bounded by the next segment's first LSN, so the newest
// segment is never removed.
func (l *Log) RemoveSegmentsBelow(lsn uint64) error {
	l.dirMu.Lock()
	defer l.dirMu.Unlock()
	return l.removeSegmentsBelowLocked(lsn)
}

func (l *Log) removeSegmentsBelowLocked(lsn uint64) error {
	// fs and dir are immutable after Open; no need for l.mu here (and Log.GC
	// must not take it — the lock order is l.mu before dirMu, never reversed).
	names, err := l.fs.List(l.dir)
	if err != nil {
		return fmt.Errorf("wal: list %s: %w", l.dir, err)
	}
	segs := segmentLSNs(names)
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].lsn <= lsn {
			if err := l.fs.Remove(join(l.dir, segs[i].name)); err != nil {
				return fmt.Errorf("wal: remove %s: %w", segs[i].name, err)
			}
		}
	}
	return nil
}

// gc garbage-collects the log's directory as one serialized unit: checkpoint
// files unreachable from the newest retained chains (the package GC), then
// the segments wholly covered by the oldest retained head. Holding dirMu
// across both steps means a concurrent Rotate cannot interleave a segment
// create between the listing and the removals.
func (l *Log) GC() (oldestRetained uint64, err error) {
	l.dirMu.Lock()
	defer l.dirMu.Unlock()
	oldestRetained, err = gc(l.fs, l.dir)
	if serr := l.removeSegmentsBelowLocked(oldestRetained); err == nil {
		err = serr
	}
	return oldestRetained, err
}

// Stats is a point-in-time snapshot of the log's observable counters.
type Stats struct {
	// NextLSN is the LSN the next appended event will carry.
	NextLSN uint64
	// Err is the sticky logger/sync failure that would surface on the next
	// Append, or nil.
	Err error
	// AppendedBytes is the total record bytes written to segment files.
	AppendedBytes int64
	// Checkpoints and CheckpointBytes total the checkpoint attempts reported
	// via NoteCheckpoint and the bytes of the successful ones.
	Checkpoints     int64
	CheckpointBytes int64
}

// Stats returns the log's current counters. Safe to call concurrently with
// appends and checkpoints.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		NextLSN:         l.nextLSN,
		Err:             l.syncErr,
		AppendedBytes:   l.appendedBytes.Load(),
		Checkpoints:     l.ckptCount,
		CheckpointBytes: l.ckptBytes,
	}
}

// NoteCheckpoint counts a checkpoint attempt against this log's directory,
// and the bytes it wrote if it succeeded, for Stats to report. The
// checkpointer (the engine's durability layer) calls it after every attempt,
// failed or not; the engine's CheckpointInfo describes the last one.
func (l *Log) NoteCheckpoint(bytes int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ckptCount++
	if err == nil {
		l.ckptBytes += int64(bytes)
	}
}

// Close drains the pipeline, syncs and closes the log. It reports the first
// failure the logger parked, so a write error is never silently dropped at
// shutdown.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	err := l.await(logTask{closeSeg: true})
	l.wg.Wait()
	return err
}

// named is a (file name, LSN parsed from the name) pair.
type named struct {
	name string
	lsn  uint64
}

func parseLSNName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if len(hex) != 16 {
		return 0, false
	}
	lsn, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return lsn, true
}

func segmentLSNs(names []string) []named {
	var out []named
	for _, n := range names {
		if lsn, ok := parseLSNName(n, "wal-", ".log"); ok {
			out = append(out, named{n, lsn})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].lsn < out[j].lsn })
	return out
}
