package engine

import (
	"fmt"
	"sync"

	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

// This file implements the engine's change-stream serving layer: consumers
// subscribe to a materialized view and receive its changes pushed as
// ChangeBatch values, instead of polling snapshots. The write side captures,
// for every subscribed view, the net delta of each published epoch — by
// teeing statement emission, on Apply and ApplyBatch alike — and flushes it
// to subscribers at publication time: the delta's entries are built once and
// every subscriber's Mailbox gets the same immutable slice.
//
// Delivery goes through a Mailbox per subscriber, which never blocks the
// writer. The serving tier's fan-out hub gives each remote client stream a
// Mailbox too, so both streams share one queue and one meaning of Coalesced.

// ChangeBatch is one push notification on a view subscription: the net
// change of the subscribed view between two published epochs (or, for the
// first batch of a subscription, the view's full contents — the catch-up
// state).
type ChangeBatch struct {
	// View is the subscribed view's name.
	View string
	// Events identifies the publication this batch brings the subscriber up
	// to: the engine's processed-event count at the epoch boundary. Batches
	// on one subscription arrive with strictly increasing Events.
	Events uint64
	// Initial marks the catch-up batch: Entries is the view's state at
	// subscription time, not a delta.
	Initial bool
	// Coalesced counts the publications merged into this batch that found the
	// subscriber's channel full; a batch delivered on the first try has 0.
	Coalesced int
	// Entries is the delta (or initial state): tuples with the multiplicity
	// change to add to the consumer's copy. Entries are immutable.
	Entries []gmr.Entry
}

// SubscribeOptions configure a view subscription.
type SubscribeOptions struct {
	// Buffer is the subscription channel's capacity (minimum 1). The default
	// 16 absorbs short consumer stalls before coalescing kicks in.
	Buffer int
	// SkipInitial suppresses the catch-up batch; the consumer then sees only
	// deltas for epochs after the subscription.
	SkipInitial bool
	// ResumeFrom, when non-nil, is the events position the consumer's copy of
	// the view already reflects — the resume token of a previous subscription
	// (every ChangeBatch.Events is one). When it matches the engine's current
	// position the catch-up batch is skipped: the consumer is already current
	// and the subscription delivers only subsequent deltas. A stale token
	// falls back to the full catch-up batch, since the engine retains no
	// per-epoch delta history (the serving tier's fan-out hub layers bounded
	// delta retention on top for finer-grained resumes).
	ResumeFrom *uint64
}

// Mailbox is a bounded, losslessly coalescing queue of ChangeBatch values
// with one sender — the engine's writer for a Subscription, the fan-out hub
// goroutine for a remote client stream — and one consumer. Delivery never
// blocks the sender: a publication that finds C full is merged (GMR ring
// addition) into a pending delta, losing only the intermediate epochs a slow
// consumer could not have kept up with; a delta that cancels out to zero is
// dropped. Flush delivers the pending delta if C has room, labelled with the
// position of the last publication merged into it, so any goroutine may call
// it. The flush rule: a consumer that finds C empty calls Flush before it
// blocks. The sender flushes on every Push, so a consumer that never calls
// Flush still converges, but only once the sender publishes again.
type Mailbox struct {
	// C delivers the change batches. It is closed by Close.
	C <-chan ChangeBatch

	view string
	ch   chan ChangeBatch

	mu sync.Mutex
	// pending accumulates publications that found ch full; coalesced counts
	// them and events is the position of the last one merged.
	pending   *gmr.GMR
	coalesced int
	events    uint64
	closed    bool
	// Running totals for stats: batches delivered, publications coalesced.
	delivered, coalescedTotal uint64
}

// NewMailbox returns an empty mailbox for a view with the given key schema,
// whose channel holds buffer batches (minimum 1).
func NewMailbox(view string, keys []string, buffer int) *Mailbox {
	m := &Mailbox{
		view:    view,
		ch:      make(chan ChangeBatch, max(buffer, 1)),
		pending: gmr.New(types.Schema(keys)),
	}
	m.C = m.ch
	return m
}

// Push offers one publication: entries (shared and immutable — every
// mailbox of the view may hold the same slice) bring the consumer up to
// events. With nothing pending and room in the channel the slice is sent as
// is; otherwise it is merged into the pending delta, which is delivered now if
// the channel has room and coalesces (counted) if not.
func (m *Mailbox) Push(entries []gmr.Entry, events uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	if m.pending.IsEmpty() && len(m.ch) < cap(m.ch) {
		m.ch <- ChangeBatch{View: m.view, Events: events, Entries: entries}
		m.delivered++
		return
	}
	for _, e := range entries {
		m.pending.Add(e.Tuple, e.Mult)
	}
	m.events = events
	if !m.flushLocked() {
		m.coalesced++
		m.coalescedTotal++
	}
}

// Flush delivers the pending delta if the channel has room, without
// blocking.
func (m *Mailbox) Flush() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flushLocked()
}

// flushLocked delivers the pending delta if the channel has room and reports
// whether nothing is left pending. A full channel keeps the backlog without
// building its sorted entries. Every send happens under m.mu and consumers
// only receive, so room seen here stays. Callers hold m.mu.
func (m *Mailbox) flushLocked() bool {
	if m.closed || m.pending.IsEmpty() {
		m.coalesced = 0
		return true
	}
	if len(m.ch) == cap(m.ch) {
		return false
	}
	m.ch <- m.takeLocked()
	return true
}

// takeLocked turns the pending delta into a batch and empties it. Entries
// copies the tuples out of the pending store's slab, so the batch stays
// valid when Reset recycles the store. Callers hold m.mu.
func (m *Mailbox) takeLocked() ChangeBatch {
	cb := ChangeBatch{View: m.view, Events: m.events, Coalesced: m.coalesced, Entries: m.pending.Entries()}
	m.pending.Reset()
	m.coalesced = 0
	m.delivered++
	return cb
}

// Close flushes the pending delta if the channel has room (a consumer that
// drained before the close therefore converges to the final state; otherwise
// the delta is discarded) and closes C. Later calls do nothing.
func (m *Mailbox) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.closed {
		m.flushLocked()
		m.closed = true
		close(m.ch)
	}
}

// Totals returns the batches delivered and the publications coalesced over
// the mailbox's life.
func (m *Mailbox) Totals() (delivered, coalesced uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.delivered, m.coalescedTotal
}

// Subscription is one consumer's handle on a view's change stream: a Mailbox
// the engine's writer pushes every publication of the view into, under the
// writer lock. Receive from C, and call Flush when C is empty before blocking
// on it (the Mailbox flush rule) to get a coalesced delta without waiting for
// the next publication; Cancel closes C. Batches arrive in strictly
// increasing Events order, and after the catch-up batch, applying every
// batch's Entries to the consumer's copy reproduces the view at each
// delivered epoch.
type Subscription struct {
	*Mailbox
	e *Engine
}

// Subscribe registers a consumer for the named view's change stream ("" means
// the query result view). Unless opts.SkipInitial is set, the first batch on
// the channel is the view's state at the subscription's epoch; every
// subsequent batch is the net delta of one or more published epochs.
// Subscribe after Init and LoadStatic — the catch-up batch reflects the state
// at call time. Like the first Acquire, the first Subscribe switches the
// engine into serving mode and must not race with a write (set the serving
// topology up before concurrent maintenance begins); every later call is
// safe from any goroutine, concurrently with the write side.
func (e *Engine) Subscribe(view string, opts SubscribeOptions) (*Subscription, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.enterServeLocked()
	if view == "" {
		view = e.prog.ResultMap
	}
	v, ok := e.views[view]
	if !ok {
		return nil, fmt.Errorf("engine: subscribe: unknown view %q", view)
	}
	buf := opts.Buffer
	if buf < 1 {
		buf = 16
	}
	sub := &Subscription{Mailbox: NewMailbox(view, v.Keys(), buf), e: e}
	skipInitial := opts.SkipInitial
	if opts.ResumeFrom != nil && *opts.ResumeFrom == e.events.Load() {
		skipInitial = true
	}
	if !skipInitial {
		// The catch-up batch is built under the writer lock, so it is exactly
		// the state of the subscription's epoch: deltas of later epochs
		// compose onto it gap-free.
		sub.ch <- ChangeBatch{
			View:    view,
			Events:  e.events.Load(),
			Initial: true,
			Entries: v.data.Freeze().Entries(),
		}
	}
	e.subs[view] = append(e.subs[view], sub)
	if v.capture == nil {
		v.capture = gmr.New(types.Schema(v.Keys()))
	}
	return sub, nil
}

// Cancel removes the subscription and closes its channel. A pending
// coalesced delta is flushed into the channel first if there is room — a
// consumer that drains before cancelling therefore always converges to the
// final state; if the channel is still full, the pending delta is discarded.
// Safe to call at any time, any number of times.
func (s *Subscription) Cancel() {
	e := s.e
	e.mu.Lock()
	defer e.mu.Unlock()
	s.Close()
	list := e.subs[s.view]
	for i, sub := range list {
		if sub == s {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		delete(e.subs, s.view)
		e.views[s.view].capture = nil
	} else {
		e.subs[s.view] = list
	}
}

// Sync brings the consumer level with the view: under the writer lock it
// freezes the view and takes every batch still in C, plus the pending delta
// as a last batch. The frozen view, which may be read outside the lock,
// equals the consumer's copy once that backlog is applied, and every later
// batch on C follows it. Sync must not race another receive from C.
func (s *Subscription) Sync() (*gmr.GMR, []ChangeBatch) {
	e := s.e
	e.mu.Lock()
	defer e.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	var backlog []ChangeBatch
	for len(s.ch) > 0 {
		backlog = append(backlog, <-s.ch)
	}
	if !s.pending.IsEmpty() {
		backlog = append(backlog, s.takeLocked())
	}
	return e.views[s.view].data.Freeze(), backlog
}

// flushSubscribersLocked delivers the epoch's captured per-view deltas: each
// changed view's entries are built once and pushed to every subscriber's
// mailbox. Callers hold e.mu (it runs inside publishLocked, on the writer).
func (e *Engine) flushSubscribersLocked(events uint64) {
	for view, subs := range e.subs {
		delta := e.views[view].capture
		if delta.IsEmpty() {
			continue
		}
		entries := delta.Entries()
		for _, sub := range subs {
			sub.Push(entries, events)
		}
		delta.Reset()
	}
}
