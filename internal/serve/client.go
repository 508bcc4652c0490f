package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

// ClientOptions configure a stream client.
type ClientOptions struct {
	// Buffer is the capacity of C in batches (default 16). A consumer that
	// stops draining C eventually stops the client's TCP reads, which is
	// exactly the signal the server's backpressure needs: the server then
	// coalesces this client's deltas without stalling the writer or peers.
	Buffer int
	// Reconnect makes the client redial after a connection failure or a
	// server drain, resubscribing with its resume token (the events position
	// of its local copy). The server answers with the cheapest sufficient
	// catch-up: nothing (current), a merged delta (still inside the
	// retention window), or a snapshot that resets the local copy.
	Reconnect bool
	// ResumeFrom, when non-nil, is the resume token for the FIRST dial —
	// a consumer resuming its own persisted copy.
	ResumeFrom *uint64
	// BackoffMin/BackoffMax bound the reconnect backoff
	// (defaults 50ms and 2s).
	BackoffMin, BackoffMax time.Duration
	// DialTimeout bounds each dial attempt (default 5s).
	DialTimeout time.Duration
}

func (o ClientOptions) buffer() int {
	if o.Buffer < 1 {
		return 16
	}
	return o.Buffer
}

func (o ClientOptions) backoffMin() time.Duration {
	if o.BackoffMin <= 0 {
		return 50 * time.Millisecond
	}
	return o.BackoffMin
}

func (o ClientOptions) backoffMax() time.Duration {
	if o.BackoffMax <= 0 {
		return 2 * time.Second
	}
	return o.BackoffMax
}

func (o ClientOptions) dialTimeout() time.Duration {
	if o.DialTimeout <= 0 {
		return 5 * time.Second
	}
	return o.DialTimeout
}

// Client is one query's remote change-stream consumer: it dials a server's
// stream address, subscribes, maintains a local materialized copy of the
// result from the catch-up state and every delta, and forwards each decoded
// batch on C. With Reconnect set it survives connection loss by redialing
// with its resume token.
type Client struct {
	// C delivers every decoded batch in stream order: catch-up chunks
	// (Initial, the first with Reset), resume deltas (Resumed), and regular
	// deltas. It is closed when the client stops (Close, a fatal server
	// error, or a disconnect with Reconnect off). Err reports why.
	C <-chan Batch

	addr  string
	query string
	opts  ClientOptions

	ch     chan Batch
	closed chan struct{}
	done   chan struct{}

	mu     sync.Mutex
	conn   net.Conn
	state  *gmr.GMR
	events uint64
	seeded bool
	view   string
	keys   []string
	mode   ResumeMode
	err    error
}

// Dial connects to a server's stream address and subscribes to the query
// ("" means the primary query). The handshake runs synchronously — a
// rejection (unknown query, version mismatch) surfaces here — and the
// catch-up plus all subsequent batches arrive on C from a background reader.
func Dial(addr, query string, opts ClientOptions) (*Client, error) {
	c := &Client{
		addr:   addr,
		query:  query,
		opts:   opts,
		ch:     make(chan Batch, opts.buffer()),
		closed: make(chan struct{}),
		done:   make(chan struct{}),
	}
	c.C = c.ch
	conn, br, ack, err := c.connect(opts.ResumeFrom)
	if err != nil {
		return nil, err
	}
	c.acceptAck(conn, ack)
	go c.run(conn, br)
	return c, nil
}

// connect dials, sends the hello, and waits for the subscription ack.
func (c *Client) connect(resume *uint64) (net.Conn, *bufio.Reader, *SubAck, error) {
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.dialTimeout())
	if err != nil {
		return nil, nil, nil, err
	}
	hello := Hello{Version: ProtocolVersion, Query: c.query}
	if resume != nil {
		hello.Resume = true
		hello.ResumeEvents = *resume
	}
	if _, err := conn.Write(AppendHello(nil, hello)); err != nil {
		conn.Close()
		return nil, nil, nil, fmt.Errorf("serve: hello: %w", err)
	}
	br := bufio.NewReaderSize(conn, 1<<16)
	conn.SetReadDeadline(time.Now().Add(c.opts.dialTimeout()))
	frame, err := ReadFrame(br, nil)
	if err != nil {
		conn.Close()
		return nil, nil, nil, fmt.Errorf("serve: reading subscription ack: %w", err)
	}
	conn.SetReadDeadline(time.Time{})
	msg, _, err := DecodeFrame(frame)
	if err != nil {
		conn.Close()
		return nil, nil, nil, err
	}
	switch m := msg.(type) {
	case *SubAck:
		return conn, br, m, nil
	case *ErrorFrame:
		conn.Close()
		return nil, nil, nil, fmt.Errorf("serve: server rejected subscription: %s", m.Msg)
	case *Bye:
		conn.Close()
		return nil, nil, nil, fmt.Errorf("serve: server is draining")
	default:
		conn.Close()
		return nil, nil, nil, fmt.Errorf("serve: unexpected %T before subscription ack", msg)
	}
}

// acceptAck installs a new connection's subscription state.
func (c *Client) acceptAck(conn net.Conn, ack *SubAck) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.conn = conn
	// Close may have run between the dial and this install: it closed the
	// previous conn under mu, so close this one here and let the reader see
	// the error immediately.
	select {
	case <-c.closed:
		conn.Close()
	default:
	}
	c.view = ack.View
	c.keys = ack.Keys
	c.mode = ack.Mode
	if c.state == nil {
		c.state = gmr.New(types.Schema(ack.Keys))
	}
	if ack.Mode == ResumeCurrent || ack.Mode == ResumeDelta {
		// Nothing (or only a delta) follows; the local copy stands.
		c.seeded = true
	}
	if ack.Mode == ResumeCurrent {
		c.events = ack.Events
	}
}

// run is the client's reader loop, spanning reconnects.
func (c *Client) run(conn net.Conn, br *bufio.Reader) {
	defer close(c.done)
	defer close(c.ch)
	var buf []byte
	for {
		err := c.readLoop(conn, br, &buf)
		conn.Close()
		select {
		case <-c.closed:
			return
		default:
		}
		if err != nil && !c.opts.Reconnect {
			c.fail(err)
			return
		}
		if err == nil && !c.opts.Reconnect {
			// Server drain without reconnect: a clean end of stream.
			return
		}
		if conn, br = c.redial(); conn == nil {
			return
		}
	}
}

// redial reconnects with backoff until it succeeds or the client closes.
func (c *Client) redial() (net.Conn, *bufio.Reader) {
	backoff := c.opts.backoffMin()
	for {
		select {
		case <-c.closed:
			return nil, nil
		case <-time.After(backoff):
		}
		var resume *uint64
		c.mu.Lock()
		if c.seeded {
			ev := c.events
			resume = &ev
		}
		c.mu.Unlock()
		conn, br, ack, err := c.connect(resume)
		if err == nil {
			c.acceptAck(conn, ack)
			return conn, br
		}
		if backoff *= 2; backoff > c.opts.backoffMax() {
			backoff = c.opts.backoffMax()
		}
	}
}

// readLoop decodes frames from one connection until it ends. A nil return
// is a graceful end (Bye); anything else is the transport or protocol error.
func (c *Client) readLoop(conn net.Conn, br *bufio.Reader, buf *[]byte) error {
	for {
		frame, err := ReadFrame(br, *buf)
		if err != nil {
			return err
		}
		*buf = frame
		msg, _, err := DecodeFrame(frame)
		if err != nil {
			return err
		}
		switch m := msg.(type) {
		case *Batch:
			c.apply(m)
			select {
			case c.ch <- *m:
			case <-c.closed:
				return nil
			}
		case *Bye:
			return nil
		case *ErrorFrame:
			return fmt.Errorf("serve: server error: %s", m.Msg)
		default:
			return fmt.Errorf("serve: unexpected %T frame on stream", msg)
		}
	}
}

// apply folds one batch into the local materialized copy.
func (c *Client) apply(b *Batch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b.Reset {
		c.state = gmr.New(types.Schema(c.keys))
	}
	for _, e := range b.Entries {
		c.state.Add(e.Tuple, e.Mult)
	}
	c.events = b.Events
	c.seeded = true
}

// fail records a terminal error.
func (c *Client) fail(err error) {
	c.mu.Lock()
	c.err = err
	c.mu.Unlock()
}

// Close stops the client and waits for the reader to exit; C is closed.
func (c *Client) Close() {
	c.mu.Lock()
	select {
	case <-c.closed:
		c.mu.Unlock()
		<-c.done
		return
	default:
	}
	close(c.closed)
	if c.conn != nil {
		c.conn.Close()
	}
	c.mu.Unlock()
	<-c.done
}

// Err reports why the stream ended (nil for Close or a clean drain).
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Events returns the stream position the local copy reflects — the client's
// resume token.
func (c *Client) Events() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.events
}

// View and Keys describe the subscribed result view (valid after Dial).
func (c *Client) View() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.view
}

// Keys returns the result view's key schema.
func (c *Client) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.keys
}

// Mode returns the resume mode of the most recent subscription ack.
func (c *Client) Mode() ResumeMode {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mode
}

// Result returns a copy of the local materialized result. The copy is
// consistent with the batches delivered on C so far only if the caller has
// drained C past them; the internal copy itself is always exactly the
// batches the reader has applied.
func (c *Client) Result() *gmr.GMR {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == nil {
		return gmr.New(nil)
	}
	return c.state.Clone()
}

// ResultEquals compares the local materialized copy against the given
// entries (canonical order, exact multiplicities) without copying.
func (c *Client) ResultEquals(entries []gmr.Entry) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state == nil {
		return len(entries) == 0
	}
	return entriesEqual(c.state.Entries(), entries)
}

// normalizeBase turns an address into an HTTP base URL.
func normalizeBase(addr string) string {
	if strings.Contains(addr, "://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + strings.TrimSuffix(addr, "/")
}

// httpGet fetches one JSON endpoint.
func httpGet(addr, path string, out any) error {
	resp, err := http.Get(normalizeBase(addr) + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var msg strings.Builder
		buf := make([]byte, 512)
		n, _ := resp.Body.Read(buf)
		msg.Write(buf[:n])
		return fmt.Errorf("serve: %s: %s: %s", path, resp.Status, strings.TrimSpace(msg.String()))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// FetchSnapshot reads one query's result over the server's HTTP snapshot
// endpoint: the whole response is pinned to a single engine epoch.
func FetchSnapshot(addr, query string) (*SnapshotResult, error) {
	var res SnapshotResult
	path := "/snapshot"
	if query != "" {
		path += "?query=" + query
	}
	if err := httpGet(addr, path, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// FetchStats reads the server's /stats endpoint.
func FetchStats(addr string) (*StatsResult, error) {
	var res StatsResult
	if err := httpGet(addr, "/stats", &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// FetchQueries lists the served queries.
func FetchQueries(addr string) ([]QueryInfo, error) {
	var res []QueryInfo
	if err := httpGet(addr, "/queries", &res); err != nil {
		return nil, err
	}
	return res, nil
}
