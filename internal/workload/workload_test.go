package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/frame"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

func TestRegistryPopulated(t *testing.T) {
	if len(Names("finance")) != 6 {
		t.Errorf("finance queries = %v", Names("finance"))
	}
	if len(Names("tpch")) < 10 {
		t.Errorf("tpch queries = %v", Names("tpch"))
	}
	if len(Names("mddb")) != 1 {
		t.Errorf("mddb queries = %v", Names("mddb"))
	}
	if _, ok := Get("VWAP"); !ok {
		t.Error("VWAP missing")
	}
	if _, ok := Get("nope"); ok {
		t.Error("unexpected query found")
	}
	if len(All()) != len(Names("")) {
		t.Error("All / Names mismatch")
	}
}

func TestStreamsAreDeterministic(t *testing.T) {
	for _, spec := range All() {
		a := spec.Stream(0.05, 42)
		b := spec.Stream(0.05, 42)
		if len(a) != len(b) {
			t.Fatalf("%s: stream length not deterministic", spec.Name)
		}
		for i := range a {
			if a[i].Relation != b[i].Relation || a[i].Insert != b[i].Insert || !a[i].Tuple.Equal(b[i].Tuple) {
				t.Fatalf("%s: stream event %d differs between runs", spec.Name, i)
			}
		}
	}
}

func TestStreamsRespectCatalogArity(t *testing.T) {
	for _, spec := range All() {
		events := spec.Stream(0.05, 7)
		if len(events) == 0 {
			t.Fatalf("%s: empty stream", spec.Name)
		}
		for _, ev := range events {
			cols, err := spec.Catalog.Columns(ev.Relation)
			if err != nil {
				t.Fatalf("%s: stream touches unknown relation %s", spec.Name, ev.Relation)
			}
			if len(cols) != len(ev.Tuple) {
				t.Fatalf("%s: event on %s has %d values, schema has %d columns",
					spec.Name, ev.Relation, len(ev.Tuple), len(cols))
			}
		}
	}
}

func TestQueriesCompileInAllModes(t *testing.T) {
	modes := []compiler.Mode{compiler.ModeDBToaster, compiler.ModeIVM, compiler.ModeREP, compiler.ModeNaive}
	for _, spec := range All() {
		for _, mode := range modes {
			if _, err := compiler.Compile(spec.Query, spec.Catalog, compiler.OptionsFor(mode)); err != nil {
				t.Errorf("%s (%s): %v", spec.Name, mode, err)
			}
		}
	}
}

// TestWorkloadCorrectnessAgainstOracle replays a short prefix of every
// workload stream through the DBToaster and IVM compilations and checks the
// maintained view against a from-scratch evaluation at regular intervals.
func TestWorkloadCorrectnessAgainstOracle(t *testing.T) {
	modes := []compiler.Mode{compiler.ModeDBToaster, compiler.ModeIVM}
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			// Expensive queries (the paper's own worst cases, §9.1) are
			// checked on a shorter prefix to keep the oracle comparison fast.
			caps := map[string]int{"MST": 30, "VWAP": 90, "PSP": 90, "BSP": 140, "AXF": 140, "BSV": 140, "MDDB1": 150}
			limit := 250
			if c, ok := caps[spec.Name]; ok {
				limit = c
			}
			events := spec.Stream(0.03, 11)
			if len(events) > limit {
				events = events[:limit]
			}
			statics := spec.Statics()

			// Reference database.
			oracleDB := agca.MapDB{}
			for _, r := range spec.Catalog.Relations() {
				oracleDB[r.Name] = gmr.New(types.Schema(r.Columns))
			}
			for name, data := range statics {
				oracleDB[name] = data
			}

			for _, mode := range modes {
				prog, err := compiler.Compile(spec.Query, spec.Catalog, compiler.OptionsFor(mode))
				if err != nil {
					t.Fatalf("%s compile: %v", mode, err)
				}
				eng := engine.New(prog)
				for name, data := range statics {
					eng.LoadStatic(name, data)
				}
				if err := eng.Init(); err != nil {
					t.Fatalf("%s init: %v", mode, err)
				}
				odb := agca.MapDB{}
				for k, v := range oracleDB {
					odb[k] = v.Clone()
				}
				checkEvery := len(events)/5 + 1
				for i, ev := range events {
					if err := eng.Apply(ev); err != nil {
						t.Fatalf("%s event %d: %v", mode, i, err)
					}
					m := 1.0
					if !ev.Insert {
						m = -1
					}
					odb[ev.Relation].Add(ev.Tuple, m)
					if i%checkEvery != 0 && i != len(events)-1 {
						continue
					}
					want := agca.Eval(spec.Query.Expr, odb, types.Env{})
					got := eng.Result()
					aligned := want
					if !got.Schema().Equal(want.Schema()) && len(got.Schema()) == len(want.Schema()) {
						aligned = gmr.Project(want, got.Schema())
					}
					if !gmr.Equal(got, aligned, 1e-4) {
						t.Fatalf("%s diverged at event %d:\n got  %v\n want %v", mode, i, got, aligned)
					}
				}
			}
		})
	}
}

func TestBatchesPartitionTheStream(t *testing.T) {
	spec, ok := Get("Q1")
	if !ok {
		t.Fatal("Q1 not registered")
	}
	events := spec.Stream(0.1, 1)
	for _, n := range []int{1, 7, 64, 0} {
		batches := Batches(events, n)
		total := 0
		for i, b := range batches {
			if len(b) == 0 {
				t.Fatalf("n=%d: empty batch %d", n, i)
			}
			if n >= 1 && len(b) > n {
				t.Fatalf("n=%d: batch %d has %d events", n, i, len(b))
			}
			for _, ev := range b {
				if !ev.Tuple.Equal(events[total].Tuple) || ev.Relation != events[total].Relation {
					t.Fatalf("n=%d: batch %d reorders the stream", n, i)
				}
				total++
			}
		}
		if total != len(events) {
			t.Fatalf("n=%d: batches cover %d of %d events", n, total, len(events))
		}
	}
}

// TestStreamsPinned pins every generator's output byte for byte at a few
// (scale, seed) points: the benchmark's inputs, the goldens and the
// correctness gates all depend on the streams, so a generator change must not
// move a single event. Events are hashed through the kind-exact frame value
// codec, so the pin also catches a value changing kind (Float(3) for Int(3)),
// which the canonical key would hide.
func TestStreamsPinned(t *testing.T) {
	for _, tc := range []struct {
		query  string
		scale  float64
		seed   int64
		sha256 string
	}{
		{"Q1", 0.1, 1, "94046536c64c6b251ca165eac504fa1de80681787751bf108f771f004ed9d5ee"},
		{"Q1", 1, 1, "6c40dea91cae26c85ba23007d692f22d0fd024f1f1b2d6032fbab07a81881d08"},
		{"Q1", 4, 7, "a7c0209283f96bb58d224b3615a4962159b990ae3c86971322e66bd139370775"},
		{"Q1", 16, 3, "9d9f0c2c488bd036ff11e1e3d949569859b60fd84d3e7055dfaf60ee89300e06"},
		{"VWAP", 0.1, 1, "3deb7d57ece19c70c241672689c5f9fa70a4dbf23c3db7c8d722e9e236dc6d46"},
		{"VWAP", 1, 1, "3ef43384b05f8bea7c9a087d476fe87c0cedfddfcc8aea25d4cf06915f763831"},
		{"VWAP", 4, 7, "8abccea443fae5fa73d855b2b88e5d7cf1f9c8f5c92044511f9a02338dbacc80"},
		{"VWAP", 16, 3, "ac0356634e119c907b4e3ff60cf2865607c8af55de13fe86a2a06a698cbb06f8"},
		{"MDDB1", 0.1, 1, "86ef1879fad8fde7baa9545ccc75fe49405adeda090e86ec6c4d4dc03b920e46"},
		{"MDDB1", 1, 1, "bb2529a4700ad58c3146c9482952a80c467a87c3f4c40705f0474332b2aa1e7c"},
		{"MDDB1", 4, 7, "f0f786ae3d8ffb8acc0d5e2231f9dad29287ff6f851462e756c8de13f57a61f1"},
	} {
		spec, ok := Get(tc.query)
		if !ok {
			t.Fatalf("unknown query %s", tc.query)
		}
		h := sha256.New()
		var buf []byte
		for _, ev := range spec.Stream(tc.scale, tc.seed) {
			buf = append(buf[:0], ev.Relation...)
			if ev.Insert {
				buf = append(buf, '+')
			} else {
				buf = append(buf, '-')
			}
			for _, v := range ev.Tuple {
				buf = frame.AppendValue(buf, v)
			}
			h.Write(buf)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha256 {
			t.Errorf("%s (%s) stream at scale %v seed %d: sha256 %s, want %s", tc.query, spec.Group, tc.scale, tc.seed, got, tc.sha256)
		}
	}
}
