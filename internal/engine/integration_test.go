package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/catalog"
	"dbtoaster/internal/compiler"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

// The integration tests replay randomized update streams through every
// compilation mode of the same query and require the maintained view to equal
// a from-scratch evaluation of the query after every single event. This is
// the correctness oracle for the whole compiler + runtime stack.

func iv(vs ...int64) types.Tuple {
	t := make(types.Tuple, len(vs))
	for i, v := range vs {
		t[i] = types.Int(v)
	}
	return t
}

// oracle keeps plain copies of the base relations and evaluates the original
// query from scratch.
type oracle struct {
	db   agca.MapDB
	expr agca.Expr
}

func newOracle(cat *catalog.Catalog, expr agca.Expr) *oracle {
	db := agca.MapDB{}
	for _, r := range cat.Relations() {
		db[r.Name] = gmr.New(types.Schema(r.Columns))
	}
	return &oracle{db: db, expr: expr}
}

func (o *oracle) apply(ev Event) {
	m := 1.0
	if !ev.Insert {
		m = -1
	}
	o.db[ev.Relation].Add(ev.Tuple, m)
}

func (o *oracle) result() *gmr.GMR {
	return agca.Eval(o.expr, o.db, types.Env{})
}

// runAllModes compiles q in every mode, replays the stream and compares
// against the oracle after every event.
func runAllModes(t *testing.T, name string, expr agca.Expr, cat *catalog.Catalog, stream []Event, statics map[string]*gmr.GMR) {
	t.Helper()
	modes := []compiler.Mode{compiler.ModeDBToaster, compiler.ModeIVM, compiler.ModeREP, compiler.ModeNaive}
	for _, mode := range modes {
		mode := mode
		t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
			prog, err := compiler.Compile(compiler.Query{Name: name, Expr: expr}, cat, compiler.OptionsFor(mode))
			if err != nil {
				t.Fatalf("compile (%s): %v", mode, err)
			}
			eng := New(prog)
			for sname, data := range statics {
				eng.LoadStatic(sname, data)
			}
			if err := eng.Init(); err != nil {
				t.Fatalf("init: %v", err)
			}
			or := newOracle(cat, expr)
			for sname, data := range statics {
				or.db[sname] = data
			}
			for i, ev := range stream {
				if err := eng.Apply(ev); err != nil {
					t.Fatalf("event %d %+v: %v\nprogram:\n%s", i, ev, err, prog.String())
				}
				or.apply(ev)
				want := or.result()
				got := eng.Result()
				if !viewsAgree(got, want) {
					t.Fatalf("divergence after event %d (%+v):\n got  %v\n want %v\nprogram:\n%s",
						i, ev, got, want, prog.String())
				}
			}
		})
	}
}

// viewsAgree compares the maintained view to the oracle's result, aligning
// column order when needed.
func viewsAgree(got, want *gmr.GMR) bool {
	const tol = 1e-6
	if got.Schema().Equal(want.Schema()) {
		return gmr.Equal(got, want, tol)
	}
	if len(got.Schema()) != len(want.Schema()) {
		return got.IsEmpty() && want.IsEmpty()
	}
	aligned := gmr.Project(want, got.Schema())
	return gmr.Equal(got, aligned, tol)
}

// streamGen builds a randomized insert/delete stream over the given relations
// where deletions always remove a currently present tuple.
type streamGen struct {
	rng  *rand.Rand
	live map[string][]types.Tuple
}

func newStreamGen(seed int64) *streamGen {
	return &streamGen{rng: rand.New(rand.NewSource(seed)), live: map[string][]types.Tuple{}}
}

func (g *streamGen) insert(rel string, t types.Tuple) Event {
	g.live[rel] = append(g.live[rel], t)
	return Event{Relation: rel, Insert: true, Tuple: t}
}

func (g *streamGen) maybeDelete(rel string) (Event, bool) {
	tuples := g.live[rel]
	if len(tuples) == 0 {
		return Event{}, false
	}
	i := g.rng.Intn(len(tuples))
	t := tuples[i]
	g.live[rel] = append(tuples[:i], tuples[i+1:]...)
	return Event{Relation: rel, Insert: false, Tuple: t}, true
}

func TestExample1CountOfProduct(t *testing.T) {
	// Example 1: Q = count of R x S, maintained under inserts and deletes.
	cat := catalog.New().Add("R", "A").Add("S", "B")
	q := agca.SumOver(nil, agca.Mul(agca.R("R", "A"), agca.R("S", "B")))
	g := newStreamGen(1)
	var stream []Event
	for i := 0; i < 30; i++ {
		switch g.rng.Intn(4) {
		case 0:
			stream = append(stream, g.insert("R", iv(int64(g.rng.Intn(5)))))
		case 1:
			stream = append(stream, g.insert("S", iv(int64(g.rng.Intn(5)))))
		case 2:
			if ev, ok := g.maybeDelete("R"); ok {
				stream = append(stream, ev)
			}
		default:
			if ev, ok := g.maybeDelete("S"); ok {
				stream = append(stream, ev)
			}
		}
	}
	runAllModes(t, "example1", q, cat, stream, nil)
}

func TestExample1PaperTable(t *testing.T) {
	// Reproduce the exact table of Example 1: starting from ||R||=2, ||S||=3,
	// the query value follows 6, 8, 12, 15, 18 under the scripted inserts.
	cat := catalog.New().Add("R", "A").Add("S", "B")
	q := agca.SumOver(nil, agca.Mul(agca.R("R", "A"), agca.R("S", "B")))
	prog, err := compiler.Compile(compiler.Query{Name: "example1", Expr: q}, cat, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	eng := New(prog)
	if err := eng.Init(); err != nil {
		t.Fatal(err)
	}
	apply := func(rel string, v int64) {
		if err := eng.Apply(Event{Relation: rel, Insert: true, Tuple: iv(v)}); err != nil {
			t.Fatal(err)
		}
	}
	// Initial state: R has 2 tuples, S has 3 tuples.
	apply("R", 1)
	apply("R", 2)
	apply("S", 1)
	apply("S", 2)
	apply("S", 3)
	wantSeq := []float64{6, 8, 12, 15, 18}
	inserts := []struct {
		rel string
		v   int64
	}{{"", 0}, {"S", 4}, {"R", 3}, {"S", 5}, {"S", 6}}
	for i, step := range inserts {
		if i > 0 {
			apply(step.rel, step.v)
		}
		if got := eng.Result().ScalarValue(); got != wantSeq[i] {
			t.Fatalf("time point %d: Q = %v, want %v", i, got, wantSeq[i])
		}
	}
}

func TestExample2SalesByExchangeRate(t *testing.T) {
	// Example 2: SUM(LI.PRICE * O.XCH) over Orders ⋈ Lineitem.
	cat := catalog.New().Add("O", "ORDK", "XCH").Add("LI", "ORDK", "PRICE")
	q := agca.SumOver(nil, agca.Mul(
		agca.R("O", "ok", "xch"),
		agca.R("LI", "ok2", "price"),
		agca.Eq(agca.V("ok"), agca.V("ok2")),
		agca.V("price"), agca.V("xch")))
	g := newStreamGen(2)
	var stream []Event
	for i := 0; i < 40; i++ {
		switch g.rng.Intn(5) {
		case 0, 1:
			stream = append(stream, g.insert("O", iv(int64(g.rng.Intn(6)), int64(1+g.rng.Intn(3)))))
		case 2, 3:
			stream = append(stream, g.insert("LI", iv(int64(g.rng.Intn(6)), int64(10+g.rng.Intn(90)))))
		default:
			if ev, ok := g.maybeDelete("LI"); ok {
				stream = append(stream, ev)
			}
		}
	}
	runAllModes(t, "example2", q, cat, stream, nil)
}

func TestGroupByThreeWayJoin(t *testing.T) {
	// Shape of TPC-H Q3/Q10: Customer ⋈ Orders ⋈ Lineitem with a group-by
	// aggregate and a selection.
	cat := catalog.New().
		Add("C", "CK", "MKT").
		Add("O", "OK", "CK").
		Add("LI", "OK", "PRICE")
	q := agca.SumOver([]string{"ck"}, agca.Mul(
		agca.R("C", "ck", "mkt"),
		agca.Eq(agca.V("mkt"), agca.C(1)),
		agca.R("O", "ok", "ck"),
		agca.R("LI", "ok", "price"),
		agca.V("price")))
	g := newStreamGen(3)
	var stream []Event
	for i := 0; i < 60; i++ {
		switch g.rng.Intn(7) {
		case 0:
			stream = append(stream, g.insert("C", iv(int64(g.rng.Intn(4)), int64(g.rng.Intn(2)+1))))
		case 1, 2:
			stream = append(stream, g.insert("O", iv(int64(g.rng.Intn(8)), int64(g.rng.Intn(4)))))
		case 3, 4:
			stream = append(stream, g.insert("LI", iv(int64(g.rng.Intn(8)), int64(10+g.rng.Intn(50)))))
		case 5:
			if ev, ok := g.maybeDelete("O"); ok {
				stream = append(stream, ev)
			}
		default:
			if ev, ok := g.maybeDelete("LI"); ok {
				stream = append(stream, ev)
			}
		}
	}
	runAllModes(t, "q3shape", q, cat, stream, nil)
}

func TestSelfJoinQuery(t *testing.T) {
	// Example 12 shape: R(A) * R(A) * S(B) — deltas are non-linear.
	cat := catalog.New().Add("R", "A").Add("S", "B")
	q := agca.SumOver([]string{"A", "B"}, agca.Mul(agca.R("R", "A"), agca.R("R", "A"), agca.R("S", "B")))
	g := newStreamGen(4)
	var stream []Event
	for i := 0; i < 40; i++ {
		switch g.rng.Intn(4) {
		case 0, 1:
			stream = append(stream, g.insert("R", iv(int64(g.rng.Intn(3)))))
		case 2:
			stream = append(stream, g.insert("S", iv(int64(g.rng.Intn(3)))))
		default:
			if ev, ok := g.maybeDelete("R"); ok {
				stream = append(stream, ev)
			}
		}
	}
	runAllModes(t, "selfjoin", q, cat, stream, nil)
}

func TestEqualityCorrelatedNestedAggregate(t *testing.T) {
	// Simplified Q17a / §6.1 shape: orders joined with line items, filtered by
	// a nested per-order aggregate correlated on an equality.
	cat := catalog.New().Add("O", "CK", "OK").Add("LI", "OK", "QTY")
	nested := agca.SumOver(nil, agca.Mul(agca.R("LI", "ok", "qty1"), agca.V("qty1")))
	q := agca.SumOver([]string{"ck"}, agca.Mul(
		agca.R("O", "ck", "ok"),
		agca.R("LI", "ok", "qty"),
		agca.Lift{Var: "z", E: nested},
		agca.Gt(agca.V("z"), agca.C(30)),
		agca.V("qty")))
	g := newStreamGen(5)
	var stream []Event
	for i := 0; i < 50; i++ {
		switch g.rng.Intn(5) {
		case 0:
			stream = append(stream, g.insert("O", iv(int64(g.rng.Intn(3)), int64(g.rng.Intn(4)))))
		case 1, 2:
			stream = append(stream, g.insert("LI", iv(int64(g.rng.Intn(4)), int64(5+g.rng.Intn(20)))))
		case 3:
			if ev, ok := g.maybeDelete("LI"); ok {
				stream = append(stream, ev)
			}
		default:
			if ev, ok := g.maybeDelete("O"); ok {
				stream = append(stream, ev)
			}
		}
	}
	runAllModes(t, "q17shape", q, cat, stream, nil)
}

func TestInequalityCorrelatedNestedAggregate(t *testing.T) {
	// VWAP shape: SUM(price*volume) over bids whose cumulative volume above
	// their price stays under a fraction of the total volume.
	cat := catalog.New().Add("B", "PRICE", "VOL")
	total := agca.SumOver(nil, agca.Mul(agca.R("B", "p3", "v3"), agca.V("v3")))
	above := agca.SumOver(nil, agca.Mul(agca.R("B", "p2", "v2"), agca.Gt(agca.V("p2"), agca.V("p1")), agca.V("v2")))
	q := agca.SumOver(nil, agca.Mul(
		agca.R("B", "p1", "v1"),
		agca.Lift{Var: "t", E: total},
		agca.Lift{Var: "a", E: above},
		agca.Gt(agca.Mul(agca.CF(0.25), agca.V("t")), agca.V("a")),
		agca.V("p1"), agca.V("v1")))
	g := newStreamGen(6)
	var stream []Event
	for i := 0; i < 35; i++ {
		if g.rng.Intn(4) == 0 {
			if ev, ok := g.maybeDelete("B"); ok {
				stream = append(stream, ev)
				continue
			}
		}
		stream = append(stream, g.insert("B", iv(int64(10+g.rng.Intn(10)), int64(1+g.rng.Intn(5)))))
	}
	runAllModes(t, "vwapshape", q, cat, stream, nil)
}

func TestUncorrelatedNestedAggregate(t *testing.T) {
	// PSP shape: join of bids and asks filtered by uncorrelated averages.
	cat := catalog.New().Add("B", "P", "V").Add("A", "P", "V")
	bTotal := agca.SumOver(nil, agca.Mul(agca.R("B", "bp1", "bv1"), agca.V("bv1")))
	aTotal := agca.SumOver(nil, agca.Mul(agca.R("A", "ap1", "av1"), agca.V("av1")))
	q := agca.SumOver(nil, agca.Mul(
		agca.R("B", "bp", "bv"),
		agca.R("A", "ap", "av"),
		agca.Lift{Var: "tb", E: bTotal},
		agca.Lift{Var: "ta", E: aTotal},
		agca.Gt(agca.Mul(agca.V("bv"), agca.C(10)), agca.V("tb")),
		agca.Gt(agca.Mul(agca.V("av"), agca.C(10)), agca.V("ta")),
		agca.Add(agca.V("ap"), agca.Neg{E: agca.V("bp")})))
	g := newStreamGen(7)
	var stream []Event
	for i := 0; i < 35; i++ {
		rel := "B"
		if g.rng.Intn(2) == 0 {
			rel = "A"
		}
		if g.rng.Intn(4) == 0 {
			if ev, ok := g.maybeDelete(rel); ok {
				stream = append(stream, ev)
				continue
			}
		}
		stream = append(stream, g.insert(rel, iv(int64(50+g.rng.Intn(20)), int64(1+g.rng.Intn(9)))))
	}
	runAllModes(t, "pspshape", q, cat, stream, nil)
}

func TestAverageQueryWithDivision(t *testing.T) {
	// AVG(price) per group expressed as SUM/COUNT, the paper's piecewise
	// materialization example for algebraic aggregates.
	cat := catalog.New().Add("LI", "GRP", "PRICE")
	sum := agca.SumOver([]string{"g"}, agca.Mul(agca.R("LI", "g", "p"), agca.V("p")))
	cnt := agca.SumOver([]string{"g"}, agca.R("LI", "g", "p2"))
	q := agca.SumOver([]string{"g"}, agca.Mul(
		agca.Exists{E: agca.SumOver([]string{"g"}, agca.R("LI", "g", "p3"))},
		agca.Div{L: sum, R: cnt}))
	g := newStreamGen(8)
	var stream []Event
	for i := 0; i < 40; i++ {
		if g.rng.Intn(5) == 0 {
			if ev, ok := g.maybeDelete("LI"); ok {
				stream = append(stream, ev)
				continue
			}
		}
		stream = append(stream, g.insert("LI", iv(int64(g.rng.Intn(3)), int64(10+g.rng.Intn(40)))))
	}
	runAllModes(t, "avgshape", q, cat, stream, nil)
}

func TestStaticRelationJoin(t *testing.T) {
	// Q5/Q10 shape: a dynamic fact stream joined with a static dimension that
	// is preloaded and never updated.
	cat := catalog.New().Add("O", "CK", "PRICE").AddStatic("NATION", "CK", "NK")
	q := agca.SumOver([]string{"nk"}, agca.Mul(
		agca.R("O", "ck", "price"),
		agca.R("NATION", "ck", "nk"),
		agca.V("price")))
	nation := gmr.New(types.Schema{"CK", "NK"})
	for ck := int64(0); ck < 6; ck++ {
		nation.Add(iv(ck, ck%2), 1)
	}
	statics := map[string]*gmr.GMR{"NATION": nation}
	g := newStreamGen(9)
	var stream []Event
	for i := 0; i < 40; i++ {
		if g.rng.Intn(5) == 0 {
			if ev, ok := g.maybeDelete("O"); ok {
				stream = append(stream, ev)
				continue
			}
		}
		stream = append(stream, g.insert("O", iv(int64(g.rng.Intn(6)), int64(1+g.rng.Intn(99)))))
	}
	runAllModes(t, "staticjoin", q, cat, stream, statics)
}

func TestFourWayLinearJoin(t *testing.T) {
	// Example 10 / SSB shape: R ⋈ S ⋈ T ⋈ U linear chain, scalar aggregate.
	cat := catalog.New().Add("R", "A", "B").Add("S", "B", "C").Add("T", "C", "D").Add("U", "D", "E")
	q := agca.SumOver(nil, agca.Mul(
		agca.R("R", "a", "b"),
		agca.R("S", "b", "c"),
		agca.R("T", "c", "d"),
		agca.R("U", "d", "e"),
		agca.V("e")))
	g := newStreamGen(10)
	rels := []string{"R", "S", "T", "U"}
	var stream []Event
	for i := 0; i < 60; i++ {
		rel := rels[g.rng.Intn(4)]
		if g.rng.Intn(5) == 0 {
			if ev, ok := g.maybeDelete(rel); ok {
				stream = append(stream, ev)
				continue
			}
		}
		stream = append(stream, g.insert(rel, iv(int64(g.rng.Intn(3)), int64(g.rng.Intn(3)))))
	}
	runAllModes(t, "chain4", q, cat, stream, nil)
}
