// Command tpch_dashboard keeps a small "live business dashboard" of TPC-H
// style views (revenue by return flag, shipping-priority revenue, the
// urgent-order count Q12, and the large-order report Q18a) fresh over the
// synthetic order/lineitem agenda stream — the online decision-support
// scenario of the paper's evaluation.
//
// This version is a fully networked consumer: it spawns a dbtserve process
// (one shared engine serving all four queries, replaying the agenda), then
// each dashboard panel is a serve.Client that subscribes to its query's
// change stream over TCP and maintains a local copy of the result purely
// from the pushed catch-up and delta batches. When the server goes
// quiescent (the /stats replay flag clears), every panel's state is checked
// against an HTTP snapshot of the same view: each key on either side must be
// on the other, with multiplicities equal within a relative 1e-9. It is the
// end-to-end check of the serving tier.
//
// Run it from the repository root (it builds and spawns ./cmd/dbtserve), or
// point it at an already-running dbtserve that serves the four queries (its
// default query set):
//
//	go run ./examples/tpch_dashboard
//	go run ./examples/tpch_dashboard -snapshot-addr 127.0.0.1:8080 -stream-addr 127.0.0.1:9090
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dbtoaster/internal/gmr"
	"dbtoaster/internal/serve"
	"dbtoaster/internal/types"
)

var dashboardQueries = []string{"Q1", "Q3", "Q12", "Q18a"}

func main() {
	// Single exit point: every error path — including an interrupt — returns
	// through run, so the spawned server is always terminated and reaped.
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tpch_dashboard:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tpch_dashboard", flag.ContinueOnError)
	events := fs.Int("events", 12000, "number of agenda events the server replays")
	batch := fs.Int("batch", 64, "events per maintenance batch (one publication each)")
	seed := fs.Int64("seed", 3, "stream generator seed")
	snapshotAt := fs.String("snapshot-addr", "", "attach to a running dbtserve: its HTTP address (with -stream-addr; empty = spawn one)")
	streamAt := fs.String("stream-addr", "", "attach to a running dbtserve: its TCP stream address")
	wait := fs.Duration("wait", 60*time.Second, "how long to wait for the server to finish its replay")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// SIGINT/SIGTERM abort the wait loop; the deferred cleanup still
	// terminates the spawned server.
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		close(stop)
	}()

	snapshotAddr, streamAddr := *snapshotAt, *streamAt
	if snapshotAddr == "" || streamAddr == "" {
		var cleanup func()
		var err error
		snapshotAddr, streamAddr, cleanup, err = spawnServer(*events, *batch, *seed)
		if err != nil {
			return err
		}
		defer cleanup()
	}

	// One networked subscriber per panel. Dial is synchronous through the
	// subscription ack; the catch-up state and every delta arrive on C.
	type panel struct {
		query   string
		client  *serve.Client
		local   *gmr.GMR
		batches int
		coal    int
	}
	var panels []*panel
	defer func() {
		for _, p := range panels {
			p.client.Close()
		}
	}()
	for _, q := range dashboardQueries {
		c, err := dialRetry(streamAddr, q, *wait, stop)
		if err != nil {
			return fmt.Errorf("%s: %w", q, err)
		}
		panels = append(panels, &panel{query: q, client: c,
			local: gmr.New(types.Schema(c.Keys()))})
	}

	// drain applies every already-delivered batch to the panel's local copy
	// without blocking; ok=false means the stream ended.
	drain := func(p *panel) (bool, error) {
		for {
			select {
			case b, ok := <-p.client.C:
				if !ok {
					if err := p.client.Err(); err != nil {
						return false, fmt.Errorf("%s: stream ended: %w", p.query, err)
					}
					return false, fmt.Errorf("%s: stream ended before the replay finished", p.query)
				}
				if b.Reset {
					p.local = gmr.New(types.Schema(p.client.Keys()))
				}
				for _, e := range b.Entries {
					p.local.Add(e.Tuple, e.Mult)
				}
				p.batches++
				p.coal += int(b.Coalesced)
			default:
				return true, nil
			}
		}
	}

	// Wait for the server to go quiescent (the replay flag in /stats clears;
	// a server without the flag — attached externally — counts as quiescent),
	// draining the panels the whole time so no stream ever backs up.
	deadline := time.Now().Add(*wait)
	for {
		for _, p := range panels {
			if _, err := drain(p); err != nil {
				return err
			}
		}
		st, err := serve.FetchStats(snapshotAddr)
		if err == nil {
			replaying, ok := st.Extra["replaying"].(bool)
			if !ok || !replaying {
				break
			}
		}
		select {
		case <-stop:
			return fmt.Errorf("interrupted")
		case <-time.After(50 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server did not go quiescent within %v", *wait)
		}
	}

	// The consistency check: each panel's stream-maintained copy against an
	// HTTP snapshot of the same view. With the writer quiescent the two read
	// paths must expose the same state (sameState). State, not positions: a
	// stream position is the view's LAST PUBLICATION, which legitimately
	// trails the snapshot's global event count for views the trailing
	// batches left unchanged (see docs/serving.md). In-flight deltas may
	// still be on the wire, so each panel gets a short convergence window.
	fmt.Printf("%-6s %8s %12s %10s %10s %9s\n",
		"Query", "batches", "coalesced", "rows", "snapshot", "in-sync")
	for _, p := range panels {
		var snap *serve.SnapshotResult
		var diff error
		for end := time.Now().Add(10 * time.Second); ; {
			if _, err := drain(p); err != nil {
				return err
			}
			var err error
			snap, err = serve.FetchSnapshot(snapshotAddr, p.query)
			if err != nil {
				return fmt.Errorf("%s: snapshot: %w", p.query, err)
			}
			if diff = sameState(p.local, snap); diff == nil || time.Now().After(end) {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		fmt.Printf("%-6s %8d %12d %10d %10d %9v\n",
			p.query, p.batches, p.coal, p.local.Len(), len(snap.Rows), diff == nil)
		if diff != nil {
			return fmt.Errorf("%s: stream copy disagrees with the quiescent snapshot: %w", p.query, diff)
		}
	}
	return nil
}

// sameState compares a stream-maintained copy with a snapshot of the same
// view: every key of either side must be a key of the other, with
// multiplicities equal within a relative 1e-9 (the two copies sum the same
// contributions in different orders). Neither side keeps a zero row, so a
// key missing from one side shows as a multiplicity of 0 there. Both sides
// render their keys through rowKey, so a JSON number and a types.Value
// compare alike.
func sameState(local *gmr.GMR, snap *serve.SnapshotResult) error {
	rows := map[string][2]float64{} // key -> {stream, snapshot} multiplicity
	for _, e := range local.Entries() {
		key := make([]any, len(e.Tuple))
		for i, v := range e.Tuple {
			key[i] = jsonForm(v)
		}
		r := rows[rowKey(key)]
		r[0] += e.Mult
		rows[rowKey(key)] = r
	}
	for _, row := range snap.Rows {
		r := rows[rowKey(row.Key)]
		r[1] += row.Mult
		rows[rowKey(row.Key)] = r
	}
	for k, r := range rows {
		if math.Abs(r[0]-r[1]) > 1e-9*math.Max(math.Abs(r[0]), math.Abs(r[1])) {
			return fmt.Errorf("row %s: stream mult %g, snapshot mult %g (0: no such row)", k, r[0], r[1])
		}
	}
	return nil
}

// jsonForm maps a value to what it reads as after a JSON round trip: JSON
// collapses the numeric kinds, so every number becomes a float64.
func jsonForm(v types.Value) any {
	switch {
	case v.IsNumeric():
		return v.AsFloat()
	case v.Kind() == types.KindString:
		return v.AsString()
	case v.Kind() == types.KindBool:
		return v.AsBool()
	}
	return nil
}

// rowKey is the one rendering of a key that both read paths are compared in.
func rowKey(key []any) string { return fmt.Sprintf("%#v", key) }

// spawnServer builds dbtserve into a temporary directory and starts it on
// ephemeral ports, parses the announced addresses from its first stdout
// line, and returns a cleanup that sends SIGTERM (exercising the server's
// graceful drain) and reaps it. The binary is executed directly — not via
// `go run`, which does not forward SIGTERM to the built child and would
// leave the server orphaned.
func spawnServer(events, batch int, seed int64) (snapshotAddr, streamAddr string, cleanup func(), err error) {
	dir, err := os.MkdirTemp("", "tpch_dashboard")
	if err != nil {
		return "", "", nil, err
	}
	bin := dir + "/dbtserve"
	build := exec.Command("go", "build", "-o", bin, "./cmd/dbtserve")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		os.RemoveAll(dir)
		return "", "", nil, fmt.Errorf("building dbtserve (run from the repository root): %w", err)
	}
	cmd := exec.Command(bin,
		"-queries", strings.Join(dashboardQueries, ","),
		"-scale", "1.0",
		"-events", fmt.Sprint(events),
		"-batch", fmt.Sprint(batch),
		"-seed", fmt.Sprint(seed),
		"-replay", "once")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		os.RemoveAll(dir)
		return "", "", nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return "", "", nil, fmt.Errorf("spawning dbtserve: %w", err)
	}
	cleanup = func() {
		defer os.RemoveAll(dir)
		cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}
	// The announce line: "dbtserve: serving N queries (...) http=HOST:PORT tcp=HOST:PORT".
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if !strings.HasPrefix(line, "dbtserve: serving") {
			continue
		}
		for _, f := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(f, "http="); ok {
				snapshotAddr = v
			}
			if v, ok := strings.CutPrefix(f, "tcp="); ok {
				streamAddr = v
			}
		}
		if snapshotAddr == "" || streamAddr == "" {
			cleanup()
			return "", "", nil, fmt.Errorf("could not parse server addresses from %q", line)
		}
		// Keep the pipe drained so the server never blocks on stdout.
		go func() {
			for sc.Scan() {
			}
		}()
		return snapshotAddr, streamAddr, cleanup, nil
	}
	cleanup()
	return "", "", nil, fmt.Errorf("dbtserve exited before announcing its addresses")
}

// dialRetry dials the stream address until it accepts (the spawned server
// binds before announcing, so usually the first attempt lands).
func dialRetry(addr, query string, wait time.Duration, stop <-chan struct{}) (*serve.Client, error) {
	deadline := time.Now().Add(wait)
	for {
		c, err := serve.Dial(addr, query, serve.ClientOptions{Buffer: 256})
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		select {
		case <-stop:
			return nil, fmt.Errorf("interrupted")
		case <-time.After(100 * time.Millisecond):
		}
	}
}
