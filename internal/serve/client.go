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
	// ResumeFrom, when non-nil, is the resume token to subscribe with: the
	// events position a local copy already reflects — Events() of an earlier
	// client whose connection ended, or a consumer's own persisted copy. The
	// server answers with the cheapest sufficient catch-up: nothing
	// (current), a merged delta (still inside the retention window), or a
	// snapshot that resets the copy.
	ResumeFrom *uint64
}

func (o ClientOptions) buffer() int {
	if o.Buffer < 1 {
		return 16
	}
	return o.Buffer
}

// dialTimeout bounds the dial and the wait for the subscription ack.
const dialTimeout = 5 * time.Second

// Client is one query's remote change-stream consumer: it dials a server's
// stream address, subscribes, maintains a local materialized copy of the
// result from the catch-up state and every delta, and forwards each decoded
// batch on C. A client serves one connection; to survive its loss, Dial
// again with ResumeFrom set to this client's Events().
type Client struct {
	// C delivers every decoded batch in stream order: catch-up chunks
	// (Initial, the first with Reset), resume deltas (Resumed), and regular
	// deltas. It is closed when the stream ends (Close, a server drain, a
	// fatal server error, or a lost connection). Err reports why.
	C <-chan Batch

	conn      net.Conn
	view      string
	keys      []string
	mode      ResumeMode
	ch        chan Batch
	closed    chan struct{}
	closeOnce sync.Once
	done      chan struct{}

	// The local copy, its position and why the stream ended, written by the
	// reader goroutine.
	mu     sync.Mutex
	state  *gmr.GMR
	events uint64
	err    error
}

// Dial connects to a server's stream address and subscribes to the query
// ("" means the primary query). The handshake runs synchronously — a
// rejection (unknown query, version mismatch) surfaces here — and the
// catch-up plus all subsequent batches arrive on C from a background reader.
func Dial(addr, query string, opts ClientOptions) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	br, ack, err := subscribe(conn, query, opts.ResumeFrom)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c := &Client{
		ch:     make(chan Batch, opts.buffer()),
		closed: make(chan struct{}),
		done:   make(chan struct{}),
		conn:   conn,
		state:  gmr.New(types.Schema(ack.Keys)),
		view:   ack.View,
		keys:   ack.Keys,
		mode:   ack.Mode,
	}
	c.C = c.ch
	if ack.Mode == ResumeCurrent {
		// Nothing follows; the caller's copy is current.
		c.events = ack.Events
	}
	go c.run(br)
	return c, nil
}

// subscribe sends the hello and waits for the subscription ack.
func subscribe(conn net.Conn, query string, resume *uint64) (*bufio.Reader, *SubAck, error) {
	hello := Hello{Version: ProtocolVersion, Query: query}
	if resume != nil {
		hello.Resume = true
		hello.ResumeEvents = *resume
	}
	if _, err := conn.Write(AppendHello(nil, hello)); err != nil {
		return nil, nil, fmt.Errorf("serve: hello: %w", err)
	}
	br := bufio.NewReaderSize(conn, 1<<16)
	conn.SetReadDeadline(time.Now().Add(dialTimeout))
	frame, err := ReadFrame(br, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: reading subscription ack: %w", err)
	}
	conn.SetReadDeadline(time.Time{})
	msg, _, err := DecodeFrame(frame)
	if err != nil {
		return nil, nil, err
	}
	switch m := msg.(type) {
	case *SubAck:
		return br, m, nil
	case *ErrorFrame:
		return nil, nil, fmt.Errorf("serve: server rejected subscription: %s", m.Msg)
	case *Bye:
		return nil, nil, fmt.Errorf("serve: server is draining")
	default:
		return nil, nil, fmt.Errorf("serve: unexpected %T before subscription ack", msg)
	}
}

// run is the client's reader loop; it records why the stream ended unless
// Close ended it.
func (c *Client) run(br *bufio.Reader) {
	defer close(c.done)
	defer close(c.ch)
	err := c.readLoop(br)
	c.conn.Close()
	select {
	case <-c.closed:
	default:
		if err != nil {
			c.fail(err)
		}
	}
}

// readLoop decodes frames until the stream ends. A nil return is a graceful
// end (Bye, or Close); anything else is the transport or protocol error.
func (c *Client) readLoop(br *bufio.Reader) error {
	var buf []byte
	for {
		frame, err := ReadFrame(br, buf)
		if err != nil {
			return err
		}
		buf = frame
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
}

// fail records a terminal error.
func (c *Client) fail(err error) {
	c.mu.Lock()
	c.err = err
	c.mu.Unlock()
}

// Close stops the client and waits for the reader to exit; C is closed.
func (c *Client) Close() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.conn.Close()
	})
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

// View returns the subscribed result view's name.
func (c *Client) View() string { return c.view }

// Keys returns the result view's key schema.
func (c *Client) Keys() []string { return c.keys }

// Mode returns how the server answered the subscription's resume token.
func (c *Client) Mode() ResumeMode { return c.mode }

// Result returns a copy of the local materialized result. The copy is
// consistent with the batches delivered on C so far only if the caller has
// drained C past them; the internal copy itself is always exactly the
// batches the reader has applied.
func (c *Client) Result() *gmr.GMR {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state.Clone()
}

// ResultEquals compares the local materialized copy against the given
// entries (canonical order, exact multiplicities) without copying.
func (c *Client) ResultEquals(entries []gmr.Entry) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
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
