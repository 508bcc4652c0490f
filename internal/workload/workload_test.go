package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
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

			// Oracle database.
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
// move a single event.
func TestStreamsPinned(t *testing.T) {
	for _, tc := range []struct {
		query  string
		scale  float64
		seed   int64
		sha256 string
	}{
		{"Q1", 0.1, 1, "24ccf3d3876c1f3a5804e89a5340a5a6707b8b0b6bae0a02e1f2d22c9ab245ff"},
		{"Q1", 1, 1, "d075ece0dfb6a2bf1f6fb1b99fbc15b1e3ea6359b64ca53928ea0984435d75de"},
		{"Q1", 4, 7, "058db121755ac5f633c7c281bc9b53e49f3595246e65ec9a867bd8aa7382969f"},
		{"Q1", 16, 3, "e482f8e48d4a62f9e16e58d9b08afd32b23140fd3fd71505ed234d664d4f71fb"},
		{"VWAP", 0.1, 1, "7f6adf698643a5cd8f6bb7578fc027b81fb827bdb11fb7bddd73a104238aad0e"},
		{"VWAP", 1, 1, "31d6dcf25af21577a17ee5f2b39a60513920096fefbe8e0f954b655b9914650d"},
		{"VWAP", 4, 7, "97b48e1e185791ef9ac2869bd49b92c14c4a9467b228fbbd973324899e5fc82d"},
		{"VWAP", 16, 3, "44f2bc02223a2af496a4410a9ed419321a4911430e6cf6d1e248e1be6ebf1c5d"},
		{"MDDB1", 0.1, 1, "45b6a0c5e925a3eba9bd51e48164f1061d7d9c6b369942cd315bbf00775ca4d2"},
		{"MDDB1", 1, 1, "7df23357167d8a79735d14e6153b4beb44b1992c3df263749947b1a6c5c68816"},
		{"MDDB1", 4, 7, "bf73fda3da34766ac2be9644d38deec055e0405d1afd2a5f09f176813107674e"},
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
			h.Write(ev.Tuple.AppendKey(buf))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha256 {
			t.Errorf("%s (%s) stream at scale %v seed %d: sha256 %s, want %s", tc.query, spec.Group, tc.scale, tc.seed, got, tc.sha256)
		}
	}
}
