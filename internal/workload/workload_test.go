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
// which the canonical key would hide. A change of that codec re-records the
// digests; when it became compact, each stream was hashed through both the
// fixed-width and the compact codec in one run, and the first still gave the
// earlier digest.
func TestStreamsPinned(t *testing.T) {
	for _, tc := range []struct {
		query  string
		scale  float64
		seed   int64
		sha256 string
	}{
		{"Q1", 0.1, 1, "70f7842e36c53eb2571ac8302efdcdd1778f2a41d25c6773f6ff36e566d3678f"},
		{"Q1", 1, 1, "70955b8e0cd27f74bd9fdca7abcea3ffd3dbffd562ef9202589d04ff66dc17f4"},
		{"Q1", 4, 7, "b749cd05d8d99e3517f041d2e7736bd4bcb7f18a745bd997feaf0660a5265dd2"},
		{"Q1", 16, 3, "dcd1cb045d6e2f539842e0a8af416225a0fac6adad7573c58aa792bb7fe7c350"},
		{"VWAP", 0.1, 1, "18b8b0ad36c4dd5c153b43896ddadb47024788a029f274c7225c98ed34c0c9cd"},
		{"VWAP", 1, 1, "d5da6bd30e2d0f13b7442f427f8ef1ee59ac14a57a66d85fed1f6ecae8501f85"},
		{"VWAP", 4, 7, "f33cc3509384de3ad2f4f92af6a704452f51d4d0b46c3db39574637bdc676c20"},
		{"VWAP", 16, 3, "70559a59318958fd9b8d7efbe6ec6ea526dbad1046facb0527b4d7de992b5351"},
		{"MDDB1", 0.1, 1, "bf4b49c0da6c07859d2f4849f9fd4b12ac63ae4dac93de71913c5fa128de1d1c"},
		{"MDDB1", 1, 1, "789b5da1550faa6304a3eec1a0086559e899823aeaa6102c30358479de995625"},
		{"MDDB1", 4, 7, "9f8436dced328a485e1ce343a62a6d0f6f91d0016d3ed9ea01daff16501afa28"},
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
