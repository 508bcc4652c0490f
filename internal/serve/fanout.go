package serve

import (
	"slices"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

// A hub multiplexes ONE engine subscription per view onto any number of
// remote client streams and keeps no copy of the view: a client's catch-up is
// cut from the frozen view that Subscription.Sync returns level with the
// hub's position, so it composes gap-free with the deltas that follow. The
// last retainPublications deltas are kept, so a reconnecting client whose
// resume token is still covered receives one merged delta, not a snapshot.
//
// Each client stream is an engine.Mailbox with the hub goroutine as its
// sender and the connection's writer as its consumer, so a slow client
// coalesces losslessly and never stalls the writer, the hub or its peers.
// On the fast path every client gets the engine's immutable entries slice
// itself: fan-out to N clients is N channel sends, not N copies. The hub and
// every connection follow the Mailbox flush rule, so a coalesced delta
// reaches the client even when the writer goes quiet.

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
	events    uint64
	retain    []retained
	clientBuf int
	clients   map[*engine.Mailbox]bool
	reqs      chan hubReq
	stopped   chan struct{}
}

// newHub subscribes to the view's deltas; the hub starts at the engine's
// current position. Must be called where engine.Subscribe is safe (server
// construction, per the serving-mode contract).
func newHub(eng *engine.Engine, view string, opts Options) (*hub, error) {
	sub, err := eng.Subscribe(view, engine.SubscribeOptions{Buffer: hubBuffer, SkipInitial: true})
	if err != nil {
		return nil, err
	}
	h := &hub{
		view:      view,
		keys:      eng.View(view).Keys(),
		sub:       sub,
		events:    eng.Events(),
		clientBuf: opts.clientBuffer(),
		clients:   map[*engine.Mailbox]bool{},
		reqs:      make(chan hubReq),
		stopped:   make(chan struct{}),
	}
	go h.loop()
	return h, nil
}

// loop is the hub goroutine: it applies subscription deltas and serves
// attach/detach/stats requests, flushing its subscription's pending delta
// whenever the channel is empty. It exits when the engine subscription is
// cancelled (the server's drain path), closing every client stream.
func (h *hub) loop() {
	defer close(h.stopped)
	for {
		if len(h.sub.C) == 0 {
			h.sub.Flush()
		}
		select {
		case cb, ok := <-h.sub.C:
			if !ok {
				for c := range h.clients {
					c.Close()
				}
				return
			}
			h.apply(cb)
		case req := <-h.reqs:
			req(h)
		}
	}
}

// apply advances the hub's position by one publication, records it in the
// retention window, and fans it out.
func (h *hub) apply(cb engine.ChangeBatch) {
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

// attach registers a new client stream. It first syncs the hub with the
// engine, applying the subscription's backlog, so the hub's position is the
// view's current one. With no (or a stale) resume token the catch-up is the
// frozen view, chunked; a token equal to the hub's position attaches with
// nothing to send; a token still covered by the retention window gets one
// merged delta. The catch-up batches bypass the client buffer (the
// connection writes them first), so an arbitrarily large snapshot never
// deadlocks a small buffer; deltas enqueued meanwhile wait in the buffer
// behind them in order.
func (h *hub) attach(resume *uint64) (attachResp, bool) {
	var resp attachResp
	ok := h.do(func(h *hub) {
		view, backlog := h.sub.Sync()
		for _, cb := range backlog {
			h.apply(cb)
		}
		c := engine.NewMailbox(h.view, h.keys, h.clientBuf)
		resp = attachResp{c: c, events: h.events}
		switch {
		case resume != nil && *resume == h.events:
			resp.mode = ResumeCurrent
		case resume != nil && h.mergeSince(*resume, &resp):
			resp.mode = ResumeDelta
		default:
			resp.mode = ResumeSnapshot
			resp.catchup = h.chunks(view.Entries())
		}
		h.clients[c] = true
	})
	return resp, ok
}

// mergeSince builds the merged-delta catch-up for a resume token, reporting
// whether the retention window still covers it.
func (h *hub) mergeSince(token uint64, resp *attachResp) bool {
	start := slices.IndexFunc(h.retain, func(r retained) bool { return r.from == token })
	if start < 0 {
		return false
	}
	merged := gmr.New(types.Schema(h.keys))
	for _, r := range h.retain[start:] {
		for _, e := range r.entries {
			merged.Add(e.Tuple, e.Mult)
		}
	}
	n := uint32(len(h.retain) - start - 1)
	resp.catchup = []Batch{{Events: h.events, Resumed: true, Coalesced: n, Entries: merged.Entries()}}
	return true
}

// chunks cuts a view's entries into catch-up batches of at most chunkEntries
// entries at the hub's position; the first carries the reset flag. An empty
// view still yields one (empty) reset batch so the client learns its
// position.
func (h *hub) chunks(entries []gmr.Entry) []Batch {
	var out []Batch
	for first := true; first || len(entries) > 0; first = false {
		n := min(len(entries), chunkEntries)
		out = append(out, Batch{Events: h.events, Reset: first, Initial: true, Entries: entries[:n]})
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
			c.Close()
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
