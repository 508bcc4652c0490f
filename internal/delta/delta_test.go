package delta

import (
	"math/rand"
	"testing"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

func it(vs ...int64) types.Tuple {
	t := make(types.Tuple, len(vs))
	for i, v := range vs {
		t[i] = types.Int(v)
	}
	return t
}

func TestEventString(t *testing.T) {
	if got := InsertEvent("R", "x", "y").String(); got != "+R(x,y)" {
		t.Errorf("String = %q", got)
	}
	if got := (Event{Relation: "S", Args: []string{"a"}}).String(); got != "-S(a)" {
		t.Errorf("String = %q", got)
	}
}

func TestTriggerArgs(t *testing.T) {
	args := TriggerArgs("orders", []string{"OK", "CK"})
	if len(args) != 2 || args[0] != "orders_OK_t" {
		t.Errorf("TriggerArgs = %v", args)
	}
}

func TestDeltaOfUnrelatedRelationIsZero(t *testing.T) {
	q := agca.SumOver(nil, agca.R("R", "A", "B"))
	d, err := Apply(q, InsertEvent("S", "x"))
	if err != nil {
		t.Fatal(err)
	}
	// Simplification not applied here, but the delta should contain no S or R
	// relation atoms and evaluate to zero.
	db := agca.MapDB{}
	res := agca.Eval(d, db, types.Env{"x": types.Int(1)})
	if res.ScalarValue() != 0 {
		t.Fatalf("unrelated delta should be zero, got %v", res)
	}
}

func TestDeltaArityMismatch(t *testing.T) {
	q := agca.R("R", "A", "B")
	if _, err := Apply(q, InsertEvent("R", "x")); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestNonIncrementalConstructs(t *testing.T) {
	div := agca.Div{L: agca.SumOver(nil, agca.R("R", "A")), R: agca.C(2)}
	if _, err := Apply(div, InsertEvent("R", "x")); err != ErrNonIncremental {
		t.Fatalf("expected ErrNonIncremental, got %v", err)
	}
	// Division not involving the updated relation has delta zero.
	if d, err := Apply(div, InsertEvent("S", "x")); err != nil || !agca.IsZero(d) {
		t.Fatalf("unrelated division delta = %v, %v", d, err)
	}
	ex := agca.Exists{E: agca.R("R", "A")}
	if _, err := Apply(ex, InsertEvent("R", "x")); err != ErrNonIncremental {
		t.Fatalf("expected ErrNonIncremental for Exists, got %v", err)
	}
}

// checkDeltaCorrect verifies the fundamental delta property
// Q(D + u) = Q(D) + ∆Q(D) for a single-tuple insert or delete.
func checkDeltaCorrect(t *testing.T, q agca.Expr, db agca.MapDB, rel string, tuple types.Tuple, insert bool) {
	t.Helper()
	cols := db[rel].Schema()
	args := TriggerArgs(rel, cols)
	ev := Event{Relation: rel, Insert: insert, Args: args}
	d, err := Apply(q, ev)
	if err != nil {
		t.Fatalf("delta failed: %v", err)
	}

	env := types.Env{}
	for i, a := range args {
		env[a] = tuple[i]
	}

	before := agca.Eval(q, db, types.Env{})
	deltaVal := agca.Eval(d, db, env)

	// Apply the update to a copy of the database and evaluate again.
	db2 := agca.MapDB{}
	for k, v := range db {
		db2[k] = v.Clone()
	}
	m := 1.0
	if !insert {
		m = -1
	}
	db2[rel].Add(tuple, m)
	after := agca.Eval(q, db2, types.Env{})

	want := before.Clone()
	// Align schemas: delta of an aggregate may come back with the same schema.
	want.MergeInto(gmr.Project(deltaVal, want.Schema()), 1)
	if !gmr.Equal(after, want, 1e-6) {
		t.Fatalf("delta incorrect for %s %v:\n  Q(D)=%v\n  dQ=%v\n  Q(D+u)=%v\n  Q(D)+dQ=%v",
			ev, tuple, before, deltaVal, after, want)
	}
}

func TestDeltaCorrectnessSimpleJoinCount(t *testing.T) {
	// Example 1: Q counts tuples in R x S.
	r := gmr.New(types.Schema{"A"})
	r.Add(it(1), 1)
	r.Add(it(2), 1)
	s := gmr.New(types.Schema{"B"})
	s.Add(it(10), 1)
	s.Add(it(20), 1)
	s.Add(it(30), 1)
	db := agca.MapDB{"R": r, "S": s}
	q := agca.SumOver(nil, agca.Mul(agca.R("R", "A"), agca.R("S", "B")))

	checkDeltaCorrect(t, q, db, "R", it(3), true)
	checkDeltaCorrect(t, q, db, "S", it(40), true)
	checkDeltaCorrect(t, q, db, "R", it(1), false)
}

func TestDeltaCorrectnessEquijoinAggregate(t *testing.T) {
	// Example 2 / 6: SUM(price * xch) over Orders ⋈ Lineitem.
	o := gmr.New(types.Schema{"ORDK", "XCH"})
	o.Add(it(1, 2), 1)
	o.Add(it(2, 3), 1)
	li := gmr.New(types.Schema{"ORDK", "PRICE"})
	li.Add(it(1, 100), 1)
	li.Add(it(1, 50), 1)
	li.Add(it(2, 10), 1)
	db := agca.MapDB{"O": o, "LI": li}
	q := agca.SumOver(nil, agca.Mul(
		agca.R("O", "ok", "xch"),
		agca.R("LI", "ok2", "price"),
		agca.Eq(agca.V("ok"), agca.V("ok2")),
		agca.V("price"), agca.V("xch")))

	checkDeltaCorrect(t, q, db, "O", it(3, 7), true)
	checkDeltaCorrect(t, q, db, "LI", it(2, 200), true)
	checkDeltaCorrect(t, q, db, "LI", it(1, 100), false)
	checkDeltaCorrect(t, q, db, "O", it(2, 3), false)
}

func TestDeltaCorrectnessGroupBy(t *testing.T) {
	li := gmr.New(types.Schema{"OK", "QTY"})
	li.Add(it(1, 5), 1)
	li.Add(it(2, 7), 1)
	db := agca.MapDB{"LI": li}
	q := agca.SumOver([]string{"ok"}, agca.Mul(agca.R("LI", "ok", "qty"), agca.V("qty")))
	checkDeltaCorrect(t, q, db, "LI", it(1, 3), true)
	checkDeltaCorrect(t, q, db, "LI", it(3, 9), true)
	checkDeltaCorrect(t, q, db, "LI", it(2, 7), false)
}

func TestDeltaCorrectnessSelfJoin(t *testing.T) {
	// Example 12: Q[A,B] = R(A)*R(A)*S(B) has a non-linear delta.
	r := gmr.New(types.Schema{"A"})
	r.Add(it(1), 2)
	r.Add(it(3), 1)
	s := gmr.New(types.Schema{"B"})
	s.Add(it(9), 1)
	db := agca.MapDB{"R": r, "S": s}
	q := agca.SumOver([]string{"A", "B"}, agca.Mul(agca.R("R", "A"), agca.R("R", "A"), agca.R("S", "B")))
	checkDeltaCorrect(t, q, db, "R", it(1), true)
	checkDeltaCorrect(t, q, db, "R", it(5), true)
	checkDeltaCorrect(t, q, db, "R", it(1), false)
}

func TestDeltaCorrectnessNestedAggregate(t *testing.T) {
	// Example 5 / 7: R(A,B) filtered by B < SUM(D) over S where A > C.
	r := gmr.New(types.Schema{"A", "B"})
	r.Add(it(5, 2), 1)
	r.Add(it(1, 50), 1)
	s := gmr.New(types.Schema{"C", "D"})
	s.Add(it(2, 10), 1)
	s.Add(it(4, 20), 1)
	db := agca.MapDB{"R": r, "S": s}
	qn := agca.SumOver(nil, agca.Mul(agca.R("S", "C", "D"), agca.Gt(agca.V("A"), agca.V("C")), agca.V("D")))
	q := agca.SumOver([]string{"A", "B"},
		agca.Mul(agca.R("R", "A", "B"), agca.LiftE("z", qn), agca.Lt(agca.V("B"), agca.V("z"))))

	checkDeltaCorrect(t, q, db, "S", it(1, 100), true)
	checkDeltaCorrect(t, q, db, "S", it(2, 10), false)
	checkDeltaCorrect(t, q, db, "R", it(7, 3), true)
}

func TestDeltaDegreeReduction(t *testing.T) {
	// Theorem 1: deg(∆Q) = deg(Q) - 1 for queries without nested aggregates.
	q := agca.SumOver(nil, agca.Mul(agca.R("R", "A", "B"), agca.R("S", "B", "C"), agca.R("T", "C", "D")))
	if agca.Degree(q) != 3 {
		t.Fatalf("degree = %d", agca.Degree(q))
	}
	d, err := Apply(q, InsertEvent("S", "x", "y"))
	if err != nil {
		t.Fatal(err)
	}
	if got := agca.Degree(d); got != 2 {
		t.Fatalf("delta degree = %d, want 2 (was %d)", got, agca.Degree(q))
	}
	d2, err := Apply(d, InsertEvent("R", "u", "v"))
	if err != nil {
		t.Fatal(err)
	}
	if got := agca.Degree(d2); got != 1 {
		t.Fatalf("second-order delta degree = %d, want 1", got)
	}
}

func TestDeltaRandomizedProperty(t *testing.T) {
	// Randomized check of Q(D+u) = Q(D) + ∆Q on a two-relation aggregate join.
	rng := rand.New(rand.NewSource(7))
	q := agca.SumOver([]string{"b"}, agca.Mul(
		agca.R("R", "a", "b"),
		agca.R("S", "b", "c"),
		agca.V("a"), agca.V("c")))
	for trial := 0; trial < 25; trial++ {
		r := gmr.New(types.Schema{"A", "B"})
		s := gmr.New(types.Schema{"B", "C"})
		for i := 0; i < 5; i++ {
			r.Add(it(int64(rng.Intn(4)), int64(rng.Intn(3))), 1)
			s.Add(it(int64(rng.Intn(3)), int64(rng.Intn(4))), 1)
		}
		db := agca.MapDB{"R": r, "S": s}
		tuple := it(int64(rng.Intn(4)), int64(rng.Intn(3)))
		if rng.Intn(2) == 0 {
			checkDeltaCorrect(t, q, db, "R", tuple, rng.Intn(2) == 0)
		} else {
			checkDeltaCorrect(t, q, db, "S", tuple, rng.Intn(2) == 0)
		}
	}
}

// TestLiftDeltaRestrictedToSlice pins the slice restriction of the lift rule
// on Q17a's shape: an insert into L changes the nested aggregate for one pk
// only, so the delta binds pk — the correlation variable — to the trigger
// argument outside the lift, and nothing else: the nested query's own
// variables (ok2, qty2) must not leak into the outer query.
func TestLiftDeltaRestrictedToSlice(t *testing.T) {
	nested := agca.SumOver(nil, agca.Mul(agca.R("L", "ok2", "pk", "qty2"), agca.V("qty2")))
	q := agca.SumOver(nil, agca.Mul(
		agca.R("P", "pk"),
		agca.R("L", "ok", "pk", "qty"),
		agca.LiftE("sq", nested),
		agca.Lt(agca.Mul(agca.C(2), agca.V("qty")), agca.V("sq")),
		agca.V("qty")))

	ev := InsertEvent("L", "L_OK_t", "L_PK_t", "L_QTY_t")
	d, err := Apply(agca.LiftE("sq", nested), ev)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.(agca.Sum); !ok {
		t.Fatalf("an uncorrelated lift has no slice to restrict to: %s", agca.String(d))
	}
	// With no outer L atom to bind pk, the restriction is all the delta binds.
	d, err = Apply(agca.SumOver(nil, agca.Mul(agca.R("P", "pk"), agca.LiftE("sq", nested), agca.V("sq"))), ev)
	if err != nil {
		t.Fatal(err)
	}
	// Bindings to trigger arguments outside every nested aggregate.
	outer := map[string]bool{}
	var walk func(e agca.Expr)
	walk = func(e agca.Expr) {
		switch n := e.(type) {
		case agca.Lift:
			if _, isArg := n.E.(agca.Var); isArg {
				outer[n.Var] = true
			}
		case agca.Sum:
			for _, x := range n.Terms {
				walk(x)
			}
		case agca.Prod:
			for _, x := range n.Factors {
				walk(x)
			}
		case agca.Neg:
			walk(n.E)
		case agca.AggSum:
			walk(n.E)
		}
	}
	walk(d)
	if len(outer) != 1 || !outer["pk"] {
		t.Errorf("delta binds %v outside the lift, want exactly pk (not the nested query's ok2, qty2): %s", outer, agca.String(d))
	}

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		p := gmr.New(types.Schema{"PK"})
		l := gmr.New(types.Schema{"OK", "PK", "QTY"})
		for i := 0; i < 6; i++ {
			p.Add(it(int64(rng.Intn(3))), 1)
			l.Add(it(int64(i), int64(rng.Intn(3)), int64(1+rng.Intn(9))), 1)
		}
		db := agca.MapDB{"P": p, "L": l}
		checkDeltaCorrect(t, q, db, "L", it(int64(10+trial), int64(rng.Intn(4)), int64(1+rng.Intn(9))), true)
		var victim types.Tuple
		l.Foreach(func(tu types.Tuple, _ float64) { victim = tu.Clone() })
		checkDeltaCorrect(t, q, db, "L", victim, false)
		checkDeltaCorrect(t, q, db, "P", it(int64(rng.Intn(3))), rng.Intn(2) == 0)
	}
}
