package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/trigger"
	"dbtoaster/internal/types"
)

// Options configure a Server. The zero value serves snapshots and streams on
// ephemeral loopback ports with the default buffers.
type Options struct {
	// SnapshotAddr is the HTTP listen address for snapshot reads
	// (default "127.0.0.1:0"); "-" disables the HTTP listener.
	SnapshotAddr string
	// StreamAddr is the TCP listen address for change streams
	// (default "127.0.0.1:0"); "-" disables the stream listener (no hubs
	// are created and the engine carries no subscriptions).
	StreamAddr string
	// ClientBuffer is each client stream's bounded buffer in batches
	// (default 16, minimum 1): the slack a client gets before its deltas
	// coalesce.
	ClientBuffer int
	// WriteBuffer, when positive, shrinks each stream connection's socket
	// write buffer — tests use it to make a stalled reader back up onto the
	// server quickly.
	WriteBuffer int
	// Status, when set, is merged into the /stats response — the process
	// embedding the server reports its own state (e.g. dbtserve's replay
	// progress) through it.
	Status func() map[string]any
}

func (o Options) clientBuffer() int {
	if o.ClientBuffer < 1 {
		return 16
	}
	return o.ClientBuffer
}

// QueryInfo is one registered query: its result view and key schema.
type QueryInfo struct {
	Query string   `json:"query"`
	View  string   `json:"view"`
	Keys  []string `json:"keys"`
}

// Server exposes one engine's registered queries over the network: snapshot
// reads over HTTP (each response pinned to one Acquire epoch) and change
// streams over TCP (one fan-out hub per result view, multiplexing one engine
// subscription onto all of that view's clients).
//
// Construct the server with New before concurrent maintenance begins: it
// takes the engine's first Acquire/Subscribe, which flips the engine into
// serving mode and must not race with a write. After New returns, the writer
// may run freely; Shutdown drains gracefully.
type Server struct {
	eng  *engine.Engine
	hubs map[string]*hub // result view -> fan-out hub
	opts Options

	httpLn  net.Listener
	httpSrv *http.Server
	tcpLn   net.Listener

	wg       sync.WaitGroup
	draining atomic.Bool
	mu       sync.Mutex
	conns    map[net.Conn]bool
}

// New builds and starts a server for the engine. Every query in the
// program's Queries (compiler.Compile registers one, CompileSet all of them)
// is served; a program without queries is an error. New subscribes the hubs
// and pins the first snapshot, so it must run before concurrent writes begin
// (the engine's serving-mode contract).
func New(eng *engine.Engine, opts Options) (*Server, error) {
	if len(eng.Program().Queries) == 0 {
		return nil, fmt.Errorf("serve: program has no queries")
	}
	s := &Server{
		eng:   eng,
		hubs:  map[string]*hub{},
		opts:  opts,
		conns: map[net.Conn]bool{},
	}

	// Flip the engine into serving mode up front, whether or not any hub
	// subscribes: snapshot requests may arrive from any goroutine later.
	eng.Acquire()

	if opts.StreamAddr != "-" {
		for _, q := range eng.Program().Queries {
			view := q.ResultMap
			if _, ok := s.hubs[view]; ok {
				continue // shared result view (multi-query programs): one hub
			}
			h, err := newHub(eng, view, opts)
			if err != nil {
				s.stopHubs()
				return nil, fmt.Errorf("serve: subscribe %s: %w", view, err)
			}
			s.hubs[view] = h
		}
		addr := opts.StreamAddr
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			s.stopHubs()
			return nil, fmt.Errorf("serve: stream listen: %w", err)
		}
		s.tcpLn = ln
		s.wg.Add(1)
		go s.acceptLoop(ln)
	}

	if opts.SnapshotAddr != "-" {
		addr := opts.SnapshotAddr
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			s.closeStream()
			return nil, fmt.Errorf("serve: snapshot listen: %w", err)
		}
		s.httpLn = ln
		mux := http.NewServeMux()
		mux.HandleFunc("/queries", s.handleQueries)
		mux.HandleFunc("/snapshot", s.handleSnapshot)
		mux.HandleFunc("/stats", s.handleStats)
		s.httpSrv = &http.Server{Handler: mux}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.httpSrv.Serve(ln)
		}()
	}
	return s, nil
}

// SnapshotAddr returns the HTTP listener's address ("" when disabled).
func (s *Server) SnapshotAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// StreamAddr returns the TCP stream listener's address ("" when disabled).
func (s *Server) StreamAddr() string {
	if s.tcpLn == nil {
		return ""
	}
	return s.tcpLn.Addr().String()
}

// resolve looks a query up in the program's registry; "" means the primary
// query.
func (s *Server) resolve(query string) (trigger.QueryDef, error) {
	q, err := s.eng.Program().Query(query)
	if err != nil {
		return q, fmt.Errorf("serve: unknown query %q", query)
	}
	return q, nil
}

// queryInfos lists the program's queries sorted by name.
func (s *Server) queryInfos() []QueryInfo {
	var out []QueryInfo
	for _, q := range s.eng.Program().Queries {
		out = append(out, QueryInfo{Query: q.Name, View: q.ResultMap, Keys: q.ResultKeys})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Query < out[j].Query })
	return out
}

// StreamStats snapshots every hub's fan-out counters, sorted by view.
func (s *Server) StreamStats() []HubStats {
	views := make([]string, 0, len(s.hubs))
	for v := range s.hubs {
		views = append(views, v)
	}
	sort.Strings(views)
	out := make([]HubStats, 0, len(views))
	for _, v := range views {
		out = append(out, s.hubs[v].statsNow())
	}
	return out
}

// acceptLoop accepts stream connections until the listener closes.
func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		if s.draining.Load() {
			conn.Close()
			continue
		}
		s.mu.Lock()
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// serveConn runs one client stream: handshake, catch-up, then the fan-out
// buffer until the client disconnects or the server drains.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	if s.opts.WriteBuffer > 0 {
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetWriteBuffer(s.opts.WriteBuffer)
		}
	}
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	var scratch []byte

	sendError := func(msg string) {
		bw.Write(AppendError(scratch[:0], ErrorFrame{Msg: msg}))
		bw.Flush()
	}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	frame, err := ReadFrame(br, nil)
	if err != nil {
		return
	}
	msg, _, err := DecodeFrame(frame)
	if err != nil {
		sendError(err.Error())
		return
	}
	hello, ok := msg.(*Hello)
	if !ok {
		sendError("serve: expected hello frame")
		return
	}
	if hello.Version != ProtocolVersion {
		sendError(fmt.Sprintf("serve: unsupported protocol version %d (want %d)", hello.Version, ProtocolVersion))
		return
	}
	q, err := s.resolve(hello.Query)
	if err != nil {
		sendError(err.Error())
		return
	}
	h, ok := s.hubs[q.ResultMap]
	if !ok {
		sendError(fmt.Sprintf("serve: no stream hub for view %q", q.ResultMap))
		return
	}
	var resume *uint64
	if hello.Resume {
		resume = &hello.ResumeEvents
	}
	resp, alive := h.attach(resume)
	if !alive {
		bw.Write(AppendBye(scratch[:0], Bye{}))
		bw.Flush()
		return
	}
	defer h.detach(resp.c)

	// The close detector: the client sends nothing after the hello, so a
	// read returning (EOF or reset) means it went away — close the conn to
	// unblock a writer stalled in a send, and detach the stream, which
	// closes its buffer and unblocks a writer parked on an idle receive.
	// (detach is idempotent: the deferred one becomes a no-op.)
	conn.SetReadDeadline(time.Time{})
	go func() {
		io.Copy(io.Discard, br)
		conn.Close()
		h.detach(resp.c)
	}()

	scratch = AppendSubAck(scratch[:0], SubAck{
		Version: ProtocolVersion,
		Mode:    resp.mode,
		Events:  resp.events,
		View:    q.ResultMap,
		Keys:    q.ResultKeys,
	})
	if _, err := bw.Write(scratch); err != nil {
		return
	}
	// Catch-up first, bypassing the bounded buffer: deltas enqueued while
	// these frames drain wait in the buffer behind them, in order.
	for _, b := range resp.catchup {
		scratch = AppendBatch(scratch[:0], b)
		if _, err := bw.Write(scratch); err != nil {
			return
		}
	}
	if err := bw.Flush(); err != nil {
		return
	}
	for cb := range resp.c.C {
		scratch = AppendBatch(scratch[:0], Batch{Events: cb.Events, Coalesced: uint32(cb.Coalesced), Entries: cb.Entries})
		if _, err := bw.Write(scratch); err != nil {
			return
		}
		// The Mailbox flush rule, after the socket's own flush.
		if len(resp.c.C) == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
			resp.c.Flush()
		}
	}
	// The hub closed the stream: on a drain tell the client it may resume
	// against a restarted instance.
	if s.draining.Load() {
		bw.Write(AppendBye(scratch[:0], Bye{}))
		bw.Flush()
	}
}

// Shutdown drains the server: it stops accepting, cancels the hubs' engine
// subscriptions (each hub flushes what it can and closes its client streams,
// whose writers send a Bye frame), shuts the HTTP side down, and waits for
// every connection up to the context's deadline, force-closing stragglers.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.tcpLn != nil {
		s.tcpLn.Close()
	}
	s.stopHubs()
	var httpErr error
	if s.httpSrv != nil {
		httpErr = s.httpSrv.Shutdown(ctx)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return httpErr
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
		if httpErr != nil {
			return httpErr
		}
		return ctx.Err()
	}
}

func (s *Server) stopHubs() {
	for _, h := range s.hubs {
		h.shutdown()
	}
}

func (s *Server) closeStream() {
	if s.tcpLn != nil {
		s.tcpLn.Close()
	}
	s.stopHubs()
}

// SnapshotRow is one result row of a snapshot response.
type SnapshotRow struct {
	Key  []any   `json:"key"`
	Mult float64 `json:"mult"`
}

// SnapshotResult is the /snapshot response: one query's full result at one
// pinned epoch.
type SnapshotResult struct {
	Query     string        `json:"query"`
	View      string        `json:"view"`
	Events    uint64        `json:"events"`
	Version   uint64        `json:"version"`
	Keys      []string      `json:"keys"`
	Rows      []SnapshotRow `json:"rows"`
	Truncated bool          `json:"truncated,omitempty"`
}

// StatsResult is the /stats response.
type StatsResult struct {
	Events   uint64         `json:"events"`
	Draining bool           `json:"draining"`
	Queries  []QueryInfo    `json:"queries"`
	Streams  []HubStats     `json:"streams"`
	Extra    map[string]any `json:"extra,omitempty"`
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// handleQueries lists the registered queries with their views and schemas.
func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.queryInfos())
}

// handleSnapshot serves one query's result pinned to one Acquire() epoch:
// the epoch is acquired once and every row of the response reads from its
// frozen stores, so the payload is transactionally consistent no matter how
// many events the writer applies while it streams out.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	q, err := s.resolve(r.URL.Query().Get("query"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	limit := 0
	if l := r.URL.Query().Get("limit"); l != "" {
		// Only a plain non-negative decimal: Atoi alone would take a sign.
		if limit, err = strconv.Atoi(l); err != nil || l[0] < '0' || l[0] > '9' {
			http.Error(w, "serve: bad limit", http.StatusBadRequest)
			return
		}
	}
	snap := s.eng.Acquire()
	res := SnapshotResult{
		Query:   q.Name,
		View:    q.ResultMap,
		Events:  snap.Events(),
		Version: snap.Version(),
		Keys:    q.ResultKeys,
	}
	entries := snap.Relation(q.ResultMap).Entries()
	if limit > 0 && len(entries) > limit {
		entries = entries[:limit]
		res.Truncated = true
	}
	res.Rows = make([]SnapshotRow, 0, len(entries))
	for _, e := range entries {
		key := make([]any, len(e.Tuple))
		for i, v := range e.Tuple {
			key[i] = jsonValue(v)
		}
		res.Rows = append(res.Rows, SnapshotRow{Key: key, Mult: e.Mult})
	}
	writeJSON(w, res)
}

// jsonValue maps a runtime value to its natural JSON form. JSON collapses
// the numeric kinds; remote readers that need kind-exact tuples use the
// binary change stream instead (documented in docs/serving.md).
func jsonValue(v types.Value) any {
	switch v.Kind() {
	case types.KindInt:
		return v.AsInt()
	case types.KindFloat:
		return v.AsFloat()
	case types.KindString:
		return v.AsString()
	case types.KindBool:
		return v.AsBool()
	default:
		return nil
	}
}

// handleStats reports the server's position and fan-out counters.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	res := StatsResult{
		Events:   s.eng.Events(),
		Draining: s.draining.Load(),
		Queries:  s.queryInfos(),
		Streams:  s.StreamStats(),
	}
	if s.opts.Status != nil {
		res.Extra = s.opts.Status()
	}
	writeJSON(w, res)
}
