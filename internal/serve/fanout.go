package serve

import (
	"time"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

// A hub multiplexes ONE engine subscription per view onto any number of
// remote client streams. The hub goroutine owns a materialized copy of the
// view (seeded from the subscription's catch-up batch and advanced by every
// delta), so attaching a client at any moment yields catch-up state that is
// gap-free consistent with the deltas that follow — without ever touching
// the engine again. It also retains the last retainPublications per-epoch
// deltas, so a reconnecting client whose resume token is still covered
// receives one merged delta instead of a full snapshot.
//
// Each client stream is an engine.Mailbox, the queue behind an in-process
// subscription, with the hub goroutine as its one sender: a full buffer
// coalesces the delta losslessly into the client's pending delta, never
// blocking the hub — a slow client cannot stall the writer, the hub, or its
// peers — and on the fast path every client receives the engine's immutable
// entries slice itself, so fan-out to N clients costs N channel sends, not N
// copies of the delta.

const (
	// hubBuffer is the hub's own engine-subscription buffer: deep enough
	// that a hub busy fanning out (or serving an attach) rarely makes the
	// writer coalesce, which would merge publications every client and the
	// retention window would otherwise see one by one.
	hubBuffer = 256
	// retainPublications is how many recent publications a hub keeps for
	// merged-delta resumes.
	retainPublications = 64
	// chunkEntries caps the entries per catch-up frame.
	chunkEntries = 4096
)

// retained is one retained publication: the delta covering (from, to].
type retained struct {
	from, to uint64
	entries  []gmr.Entry
}

// hubReq is a request executed on the hub goroutine (attach, detach, stats),
// serializing all hub state access without locks.
type hubReq func(h *hub)

type hub struct {
	view      string
	keys      []string
	sub       *engine.Subscription
	state     *gmr.GMR
	events    uint64
	retain    []retained
	clientBuf int
	clients   map[*engine.Mailbox]bool
	reqs      chan hubReq
	stopped   chan struct{}
}

// newHub subscribes to the view and seeds the hub's state from the catch-up
// batch synchronously, so the first client attach (whenever it happens)
// observes a fully seeded hub. Must be called where engine.Subscribe is safe
// (server construction, per the serving-mode contract).
func newHub(eng *engine.Engine, view string, opts Options) (*hub, error) {
	sub, err := eng.Subscribe(view, engine.SubscribeOptions{Buffer: hubBuffer})
	if err != nil {
		return nil, err
	}
	keys := eng.View(view).Keys()
	h := &hub{
		view:      view,
		keys:      keys,
		sub:       sub,
		state:     gmr.New(types.Schema(keys)),
		clientBuf: opts.clientBuffer(),
		clients:   map[*engine.Mailbox]bool{},
		reqs:      make(chan hubReq),
		stopped:   make(chan struct{}),
	}
	// The engine delivers the catch-up batch first (built under its writer
	// lock), so seeding here is exactly the view at the subscription's epoch;
	// an attach at any later moment composes gap-free with the deltas.
	cb := <-sub.C
	for _, e := range cb.Entries {
		h.state.Add(e.Tuple, e.Mult)
	}
	h.events = cb.Events
	go h.loop()
	return h, nil
}

// loop is the hub goroutine: it applies subscription deltas and serves
// attach/detach/stats requests. A short idle tick retries pending coalesced
// deltas, so a client that stalled and recovered converges even when the
// writer goes quiescent (a push-driven flush alone would strand the pending
// delta until the next publication). It exits when the engine subscription
// is cancelled (the server's drain path), closing every client stream.
func (h *hub) loop() {
	defer close(h.stopped)
	tick := time.NewTicker(idleFlushInterval)
	defer tick.Stop()
	for {
		select {
		case cb, ok := <-h.sub.C:
			if !ok {
				for c := range h.clients {
					c.Close(h.events)
				}
				return
			}
			h.apply(cb)
		case <-tick.C:
			for c := range h.clients {
				c.Flush(h.events)
			}
		case req := <-h.reqs:
			req(h)
		}
	}
}

// idleFlushInterval is how often the hub retries pending coalesced deltas
// while the stream is quiet. Flushing is a no-op for clients with nothing
// pending.
const idleFlushInterval = 25 * time.Millisecond

// apply advances the hub's materialized state by one publication, records it
// in the retention window, and fans it out.
func (h *hub) apply(cb engine.ChangeBatch) {
	for _, e := range cb.Entries {
		h.state.Add(e.Tuple, e.Mult)
	}
	if len(h.retain) == retainPublications {
		copy(h.retain, h.retain[1:])
		h.retain = h.retain[:retainPublications-1]
	}
	h.retain = append(h.retain, retained{from: h.events, to: cb.Events, entries: cb.Entries})
	h.events = cb.Events
	for c := range h.clients {
		c.Push(cb.Entries, cb.Events)
	}
}

// attachResp is the hub's answer to a client attach: the chosen resume mode,
// the position the stream starts at, and the catch-up batches the connection
// must write before draining the client buffer.
type attachResp struct {
	c       *engine.Mailbox
	mode    ResumeMode
	events  uint64
	catchup []Batch
}

// do runs a request on the hub goroutine, waits for it to finish, and
// reports whether the hub was still alive to take it.
func (h *hub) do(req hubReq) bool {
	done := make(chan struct{})
	select {
	case h.reqs <- func(h *hub) {
		req(h)
		close(done)
	}:
		<-done
		return true
	case <-h.stopped:
		return false
	}
}

// attach registers a new client stream. With no (or a stale) resume token
// the catch-up is the hub's full state, chunked; a token equal to the hub's
// position attaches with nothing to send; a token still covered by the
// retention window gets one merged delta. The catch-up batches bypass the
// client buffer (the connection writes them first), so an arbitrarily large
// snapshot never deadlocks a small buffer; deltas enqueued meanwhile wait in
// the buffer behind them in order.
func (h *hub) attach(resume *uint64) (attachResp, bool) {
	var resp attachResp
	ok := h.do(func(h *hub) {
		c := engine.NewMailbox(h.view, h.keys, h.clientBuf)
		resp = attachResp{c: c, events: h.events}
		switch {
		case resume != nil && *resume == h.events:
			resp.mode = ResumeCurrent
		case resume != nil && h.mergeSince(*resume, &resp):
			resp.mode = ResumeDelta
		default:
			resp.mode = ResumeSnapshot
			resp.catchup = h.stateChunks()
		}
		h.clients[c] = true
	})
	return resp, ok
}

// mergeSince builds the merged-delta catch-up for a resume token, reporting
// whether the retention window still covers it.
func (h *hub) mergeSince(token uint64, resp *attachResp) bool {
	start := -1
	for i := range h.retain {
		if h.retain[i].from == token {
			start = i
			break
		}
	}
	if start < 0 {
		return false
	}
	merged := gmr.New(types.Schema(h.keys))
	for _, r := range h.retain[start:] {
		for _, e := range r.entries {
			merged.Add(e.Tuple, e.Mult)
		}
	}
	n := len(h.retain) - start
	resp.catchup = []Batch{{
		Events:    h.events,
		Resumed:   true,
		Coalesced: uint32(n - 1),
		Entries:   merged.Entries(),
	}}
	return true
}

// stateChunks cuts the hub's materialized state into catch-up batches of at
// most chunkEntries entries; the first carries the reset flag. An empty view
// still yields one (empty) reset batch so the client learns its position.
func (h *hub) stateChunks() []Batch {
	entries := h.state.Entries()
	var out []Batch
	for first := true; first || len(entries) > 0; first = false {
		n := len(entries)
		if n > chunkEntries {
			n = chunkEntries
		}
		out = append(out, Batch{
			Events:  h.events,
			Reset:   first,
			Initial: true,
			Entries: entries[:n],
		})
		entries = entries[n:]
	}
	return out
}

// detach removes a client and closes its stream (flushing a pending delta
// into it first if there is room, as engine.Subscription.Cancel does).
func (h *hub) detach(c *engine.Mailbox) {
	h.do(func(h *hub) {
		if h.clients[c] {
			delete(h.clients, c)
			c.Close(h.events)
		}
	})
}

// HubStats reports one view's fan-out counters. Delivered and Coalesced sum
// over the attached clients' streams: batches delivered, and publications
// that found a client's buffer full (engine.Mailbox.Totals).
type HubStats struct {
	View      string `json:"view"`
	Clients   int    `json:"clients"`
	Events    uint64 `json:"events"`
	Delivered uint64 `json:"delivered"`
	Coalesced uint64 `json:"coalesced"`
	Retained  int    `json:"retained"`
}

// stats snapshots the hub's counters on the hub goroutine.
func (h *hub) statsNow() HubStats {
	st := HubStats{View: h.view}
	if !h.do(func(h *hub) {
		st.Clients = len(h.clients)
		st.Events = h.events
		st.Retained = len(h.retain)
		for c := range h.clients {
			delivered, coalesced := c.Totals()
			st.Delivered += delivered
			st.Coalesced += coalesced
		}
	}) {
		st.Events = h.events
	}
	return st
}

// shutdown cancels the engine subscription, which makes the hub loop exit
// and close every client buffer, and waits for it.
func (h *hub) shutdown() {
	h.sub.Cancel()
	<-h.stopped
}
