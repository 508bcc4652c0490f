package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dbtoaster/internal/catalog"
	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/serve"
	"dbtoaster/internal/sql"
	"dbtoaster/internal/trigger"
	"dbtoaster/internal/wal"
	"dbtoaster/internal/workload"
)

// setupInfo is what one pass through the setup sequence cost and produced,
// layer by layer. Sums over several engines are taken with add.
type setupInfo struct {
	parseMs, compileMs, initMs                  float64
	sqlStatements, maps, statements, sharedMaps int
}

func (a *setupInfo) add(b setupInfo) {
	a.parseMs += b.parseMs
	a.compileMs += b.compileMs
	a.initMs += b.initMs
	a.sqlStatements += b.sqlStatements
	a.maps += b.maps
	a.statements += b.statements
	a.sharedMaps += b.sharedMaps
}

// buildEngine runs the setup sequence a user of the library runs, starting
// from SQL text: parse and translate each query's script, compile (Compile
// for one query, CompileSet for several), create the engine, load the static
// tables and initialise. Nothing is reused between calls, so repeating it
// measures setup_s.
func buildEngine(names []string, procs int, tr *tracer, parent int) (*engine.Engine, setupInfo, error) {
	var info setupInfo

	sp := tr.begin("sql.Parse+Translate", parent, -1)
	start := time.Now()
	cat := catalog.New()
	queries := make([]compiler.Query, 0, len(names))
	statics := map[string]*gmr.GMR{}
	for _, name := range names {
		spec, ok := workload.Get(name)
		if !ok {
			return nil, info, fmt.Errorf("unknown query %q", name)
		}
		script, err := sql.Parse(spec.SQL)
		if err != nil {
			return nil, info, fmt.Errorf("parse %s: %w", name, err)
		}
		qcat, err := script.Catalog()
		if err != nil {
			return nil, info, fmt.Errorf("catalog of %s: %w", name, err)
		}
		if err := cat.Merge(qcat); err != nil {
			return nil, info, fmt.Errorf("merge catalog of %s: %w", name, err)
		}
		qs, err := script.Queries(name)
		if err != nil {
			return nil, info, fmt.Errorf("translate %s: %w", name, err)
		}
		if len(qs) != 1 {
			return nil, info, fmt.Errorf("%s.sql defines %d queries, want 1", name, len(qs))
		}
		queries = append(queries, compiler.Query{Name: name, Expr: qs[0].Expr})
		info.sqlStatements += len(script.Relations) + len(script.Selects)
		for rel, data := range spec.Statics() {
			if _, ok := statics[rel]; !ok {
				statics[rel] = data
			}
		}
	}
	info.parseMs = ms(time.Since(start))
	tr.end(sp)

	sp = tr.begin("compiler.Compile", parent, -1)
	start = time.Now()
	var prog *trigger.Program
	var err error
	if len(queries) == 1 {
		prog, err = compiler.Compile(queries[0], cat, compiler.OptionsFor(compiler.ModeDBToaster))
	} else {
		var share *compiler.ShareReport
		prog, share, err = compiler.CompileSet(queries, cat, compiler.OptionsFor(compiler.ModeDBToaster))
		if err == nil {
			info.sharedMaps = len(share.Shared)
		}
	}
	if err != nil {
		return nil, info, fmt.Errorf("compile %v: %w", names, err)
	}
	info.compileMs = ms(time.Since(start))
	tr.end(sp)
	stats := prog.ComputeStats()
	info.maps, info.statements = stats.NumMaps, stats.NumStatements

	sp = tr.begin("engine.New+LoadStatic+Init", parent, -1)
	start = time.Now()
	eng := engine.New(prog)
	eng.SetShards(procs)
	for rel, data := range statics {
		eng.LoadStatic(rel, data)
	}
	if err := eng.Init(); err != nil {
		return nil, info, fmt.Errorf("init %v: %w", names, err)
	}
	info.initMs = ms(time.Since(start))
	tr.end(sp)
	return eng, info, nil
}

// served is an engine with the whole serving stack on: durable on the real
// disk, a serve.Server in front of it, and one serve.Client subscribed to the
// watched query over TCP.
type served struct {
	eng    *engine.Engine
	dir    string
	srv    *serve.Server
	client *serve.Client
	rec    *receiver
}

// durabilityOptions is the one durability configuration the benchmark runs:
// group commit at the default 10 ms interval, a checkpoint every
// servedCfg.ckptEvery events, delta checkpoint chains of a base and three
// links, and checkpoints written on the writer's thread so that the bytes on
// disk are a function of the input alone.
func durabilityOptions(dir string) engine.DurabilityOptions {
	return engine.DurabilityOptions{
		Dir:                    dir,
		Sync:                   wal.SyncInterval,
		CheckpointEvery:        servedCfg.ckptEvery,
		SynchronousCheckpoints: true,
		DeltaCheckpoints:       true,
		RebaseEvery:            fixtureChain,
	}
}

// fixtureChain is the length of the checkpoint chain recovery composes: a
// base and three delta links.
const fixtureChain = 4

// buildServed is buildEngine plus SetDurability, serve.New and Dial. The
// caller owns the result and must call close.
func buildServed(procs int, tmpRoot string, tr *tracer, parent int) (s *served, info setupInfo, err error) {
	eng, info, err := buildEngine(servedCfg.queries, procs, tr, parent)
	if err != nil {
		return nil, info, err
	}
	s = &served{eng: eng}
	defer func() {
		if err != nil {
			s.close()
		}
	}()

	sp := tr.begin("engine.SetDurability", parent, -1)
	s.dir, err = os.MkdirTemp(tmpRoot, "wal-")
	if err != nil {
		return nil, info, err
	}
	if err := eng.SetDurability(durabilityOptions(s.dir)); err != nil {
		return nil, info, fmt.Errorf("arm durability: %w", err)
	}
	tr.end(sp)

	sp = tr.begin("serve.New", parent, -1)
	s.srv, err = serve.New(eng, serve.Options{})
	if err != nil {
		return nil, info, fmt.Errorf("start server: %w", err)
	}
	tr.end(sp)

	sp = tr.begin("serve.Dial", parent, -1)
	s.client, err = serve.Dial(s.srv.StreamAddr(), servedCfg.watch, serve.ClientOptions{Buffer: clientBuffer})
	if err != nil {
		return nil, info, fmt.Errorf("dial stream: %w", err)
	}
	s.rec = startReceiver(s.client)
	tr.end(sp)
	return s, info, nil
}

// clientBuffer is the capacity of serve.Client.C. The receiver does nothing
// but timestamp, so the default 16 would do; 256 keeps a scheduler hiccup on
// the two-core host from turning into coalescing, which would blur which
// window a receipt belongs to.
const clientBuffer = 256

// close tears the stack down in dependency order; a second call is a no-op.
func (s *served) close() {
	if s.client != nil {
		s.client.Close() // closes C, which ends the receiver
		if s.rec != nil {
			<-s.rec.done
		}
		s.client = nil
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.srv.Shutdown(ctx) // a straggler is force-closed; nothing to do about it here
		cancel()
		s.srv = nil
	}
	_ = s.eng.CloseDurability() // no-op when already closed; write errors surfaced on the apply path
	if s.dir != "" {
		os.RemoveAll(s.dir)
		s.dir = ""
	}
}

// copyDir copies the regular files of dir into a new directory under tmpRoot
// and returns its path.
func copyDir(dir, tmpRoot string) (string, error) {
	to, err := os.MkdirTemp(tmpRoot, "fixture-")
	if err != nil {
		return "", err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return to, err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return to, err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			return to, err
		}
	}
	return to, nil
}
