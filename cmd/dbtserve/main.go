// Command dbtserve is the networked serving tier: it compiles a set of
// workload queries into ONE hash-consed shared engine (compiler.CompileSet,
// so alpha-equivalent maps across the query set are maintained once), keeps
// the views fresh by replaying the combined update agenda, and serves remote
// consumers over two listeners — snapshot reads over HTTP/JSON (each
// response pinned to one engine epoch) and change-stream subscriptions over
// the binary TCP protocol of internal/serve. SIGINT/SIGTERM drain
// gracefully: the stream clients get a Bye frame and may reconnect with
// their resume tokens.
//
// examples/tpch_dashboard is its end-to-end client: pointed at a running
// server, it checks every query's change-stream copy against a quiescent
// snapshot.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/serve"
	"dbtoaster/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dbtserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dbtserve", flag.ContinueOnError)
	queries := fs.String("queries", "Q1,Q3,Q12,Q18a", "comma-separated workload queries to serve from one shared engine")
	mode := fs.String("mode", "dbtoaster", "compilation mode: dbtoaster | ivm")
	scale := fs.Float64("scale", 0.25, "stream scale factor")
	seed := fs.Int64("seed", 1, "stream generator seed")
	batch := fs.Int("batch", 64, "events per maintenance batch (one publication each)")
	replay := fs.String("replay", "once", "agenda replay: once | loop | off")
	maxEvents := fs.Int("events", 0, "cap on replayed events (0 = the full generated stream)")
	httpAddr := fs.String("http", "127.0.0.1:0", "snapshot (HTTP) listen address; - disables")
	tcpAddr := fs.String("tcp", "127.0.0.1:0", "change-stream (TCP) listen address; - disables")
	clientBuf := fs.Int("client-buffer", 16, "per-client stream buffer in batches before coalescing")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ms, err := workload.Combine(strings.Split(*queries, ","))
	if err != nil {
		return err
	}
	copts := compiler.OptionsFor(compiler.ModeDBToaster)
	switch *mode {
	case "dbtoaster":
	case "ivm":
		copts = compiler.OptionsFor(compiler.ModeIVM)
	default:
		return fmt.Errorf("unknown mode %q (want dbtoaster|ivm)", *mode)
	}
	prog, rep, err := compiler.CompileSet(ms.Queries, ms.Catalog, copts)
	if err != nil {
		return err
	}
	eng := engine.New(prog)
	for name, data := range ms.Statics() {
		eng.LoadStatic(name, data)
	}
	if err := eng.Init(); err != nil {
		return err
	}

	// replaying/replayed drive the /stats extra block, so remote consumers
	// (the dashboard example, the CI smoke) can tell when the agenda is done.
	// The flag goes up before the server announces its addresses, so no
	// client can take a server that has yet to start its replay for quiescent.
	var replaying atomic.Bool
	replaying.Store(*replay != "off")
	var replayed atomic.Uint64
	srv, err := serve.New(eng, serve.Options{
		SnapshotAddr: *httpAddr,
		StreamAddr:   *tcpAddr,
		ClientBuffer: *clientBuf,
		Status: func() map[string]any {
			return map[string]any{
				"replaying": replaying.Load(),
				"replayed":  replayed.Load(),
			}
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("dbtserve: serving %d queries (%d maps, %d saved by sharing) http=%s tcp=%s\n",
		len(ms.Names), rep.TotalMaps, rep.DisjointMaps-rep.TotalMaps, srv.SnapshotAddr(), srv.StreamAddr())

	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	writerDone := make(chan error, 1)
	go func() {
		writerDone <- replayLoop(eng, ms, *scale, *seed, *batch, *maxEvents, *replay, &replaying, &replayed, stop)
	}()

	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "dbtserve: %v, draining\n", s)
		close(stop)
		if err := <-writerDone; err != nil {
			srv.Shutdown(context.Background())
			return err
		}
	case err := <-writerDone:
		if err != nil {
			srv.Shutdown(context.Background())
			return err
		}
		// Replay finished (or was off): keep serving until a signal.
		s := <-sig
		fmt.Fprintf(os.Stderr, "dbtserve: %v, draining\n", s)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("dbtserve: drained")
	return nil
}

// replayLoop drives the combined agenda through the engine until done (or,
// with -replay loop, until stop closes; multiplicities keep accumulating,
// which a long-running serving demo tolerates).
func replayLoop(eng *engine.Engine, ms *workload.MultiSpec, scale float64, seed int64, batch, maxEvents int, mode string, replaying *atomic.Bool, replayed *atomic.Uint64, stop <-chan struct{}) error {
	defer replaying.Store(false)
	if mode == "off" {
		return nil
	}
	if mode != "once" && mode != "loop" {
		return fmt.Errorf("unknown replay mode %q (want once|loop|off)", mode)
	}
	stream := ms.Stream(scale, seed)
	if maxEvents > 0 && len(stream) > maxEvents {
		stream = stream[:maxEvents]
	}
	batches := workload.Batches(stream, batch)
	for {
		for _, window := range batches {
			select {
			case <-stop:
				return nil
			default:
			}
			if err := eng.ApplyBatch(engine.NewBatch(window)); err != nil {
				return err
			}
			replayed.Add(uint64(len(window)))
		}
		if mode != "loop" {
			return nil
		}
	}
}
