package agca

import (
	"testing"

	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

// paperDB builds the example database of paper Example 3: R(A,B) with tuples
// (1,2)↦q1, (3,5)↦q2, (4,2)↦q3.
func paperDB(q1, q2, q3 float64) MapDB {
	r := gmr.New(types.Schema{"A", "B"})
	r.Add(types.Tuple{types.Int(1), types.Int(2)}, q1)
	r.Add(types.Tuple{types.Int(3), types.Int(5)}, q2)
	r.Add(types.Tuple{types.Int(4), types.Int(2)}, q3)
	return MapDB{"R": r}
}

func it(vs ...int64) types.Tuple {
	t := make(types.Tuple, len(vs))
	for i, v := range vs {
		t[i] = types.Int(v)
	}
	return t
}

func TestExample3RelationRenamingAndSelection(t *testing.T) {
	db := paperDB(7, 11, 13)
	// [[R(x,y)]](D, <x:3>) selects on x because it is bound.
	res := Eval(R("R", "x", "y"), db, types.Env{"x": types.Int(3)})
	if res.Len() != 1 || res.Get(it(3, 5)) != 11 {
		t.Fatalf("bound-variable selection wrong: %v", res)
	}
	// sigma_{A<B}(R) as R(x,y) * (x < y)
	q := Mul(R("R", "x", "y"), Lt(V("x"), V("y")))
	res = Eval(q, db, types.Env{})
	if res.Len() != 2 || res.Get(it(1, 2)) != 7 || res.Get(it(3, 5)) != 11 {
		t.Fatalf("selection via comparison wrong: %v", res)
	}
}

func TestExample4SumAggregate(t *testing.T) {
	// Sum[y](R(x,y) * 2 * x) over the Example 3 database yields
	// y=2 ↦ 2*q1 + 8*q3 and y=5 ↦ 6*q2.
	db := paperDB(7, 11, 13)
	q := SumOver([]string{"y"}, Mul(R("R", "x", "y"), C(2), V("x")))
	res := Eval(q, db, types.Env{})
	if got := res.Get(it(2)); got != 2*7+8*13 {
		t.Errorf("y=2 multiplicity = %v, want %v", got, 2*7+8*13)
	}
	if got := res.Get(it(5)); got != 6*11 {
		t.Errorf("y=5 multiplicity = %v, want %v", got, 6*11)
	}
}

func TestExample5NestedAggregate(t *testing.T) {
	// SELECT * FROM R WHERE B < (SELECT SUM(D) FROM S WHERE A > C)
	// == Sum[A,B](R(A,B) * (z := Qn) * (B < z)),
	// Qn = Sum[](S(C,D) * (A > C) * D)
	r := gmr.New(types.Schema{"A", "B"})
	r.Add(it(5, 2), 1)  // A=5: Qn sums D for C<5 -> 10+20=30 > 2: keep
	r.Add(it(1, 50), 1) // A=1: Qn = 0 (no C<1), 50 > 0: drop
	s := gmr.New(types.Schema{"C", "D"})
	s.Add(it(2, 10), 1)
	s.Add(it(4, 20), 1)
	s.Add(it(9, 99), 1)
	db := MapDB{"R": r, "S": s}

	qn := SumOver(nil, Mul(R("S", "C", "D"), Gt(V("A"), V("C")), V("D")))
	q := SumOver([]string{"A", "B"}, Mul(R("R", "A", "B"), Lift{Var: "z", E: qn}, Lt(V("B"), V("z"))))
	res := Eval(q, db, types.Env{})
	if res.Len() != 1 || res.Get(it(5, 2)) != 1 {
		t.Fatalf("nested aggregate result wrong: %v", res)
	}
}

func TestProdSidewaysBinding(t *testing.T) {
	// R(A,B) * S(B,C): B flows from R into S.
	r := gmr.New(types.Schema{"A", "B"})
	r.Add(it(1, 10), 2)
	r.Add(it(2, 20), 1)
	s := gmr.New(types.Schema{"B", "C"})
	s.Add(it(10, 100), 3)
	s.Add(it(30, 300), 5)
	db := MapDB{"R": r, "S": s}
	res := Eval(Mul(R("R", "A", "B"), R("S", "B", "C")), db, types.Env{})
	if res.Len() != 1 || res.Get(it(1, 10, 100)) != 6 {
		t.Fatalf("join wrong: %v", res)
	}
	if !res.Schema().Equal(types.Schema{"A", "B", "C"}) {
		t.Fatalf("schema = %v", res.Schema())
	}
}

func TestSelfJoinRepeatedVariable(t *testing.T) {
	// R(x,x) keeps only tuples whose two columns are equal.
	r := gmr.New(types.Schema{"A", "B"})
	r.Add(it(1, 1), 4)
	r.Add(it(1, 2), 9)
	db := MapDB{"R": r}
	res := Eval(R("R", "x", "x"), db, types.Env{})
	if res.Len() != 1 || res.Get(it(1)) != 4 {
		t.Fatalf("repeated variable atom wrong: %v", res)
	}
}

func TestNegationAndSum(t *testing.T) {
	r := gmr.New(types.Schema{"A"})
	r.Add(it(1), 2)
	db := MapDB{"R": r}
	// R - R = 0
	res := Eval(Subtract(R("R", "A"), R("R", "A")), db, types.Env{})
	if res.Len() != 0 {
		t.Fatalf("R - R should be empty, got %v", res)
	}
	// 0 - R = -R (GMR semantics, not relational difference)
	res = Eval(Subtract(Zero, R("R", "A")), db, types.Env{})
	if res.Get(it(1)) != -2 {
		t.Fatalf("0 - R should have negative multiplicities: %v", res)
	}
}

func TestLiftBindsAndChecks(t *testing.T) {
	db := MapDB{}
	res := Eval(Lift{Var: "x", E: C(7)}, db, types.Env{})
	if res.Len() != 1 || res.Get(it(7)) != 1 {
		t.Fatalf("lift should bind x to 7: %v", res)
	}
	// Already-bound consistent value: singleton; inconsistent: empty.
	res = Eval(Lift{Var: "x", E: C(7)}, db, types.Env{"x": types.Int(7)})
	if res.Len() != 1 {
		t.Fatal("consistent lift should keep the tuple")
	}
	res = Eval(Lift{Var: "x", E: C(7)}, db, types.Env{"x": types.Int(8)})
	if res.Len() != 0 {
		t.Fatal("inconsistent lift should be empty")
	}
}

func TestCountAndSumAggregates(t *testing.T) {
	// Q = Sum[](R(A,B) * S(C,D) * (B=C) * A * D), Example 6's query shape.
	r := gmr.New(types.Schema{"A", "B"})
	r.Add(it(2, 1), 1)
	r.Add(it(3, 2), 1)
	s := gmr.New(types.Schema{"C", "D"})
	s.Add(it(1, 10), 1)
	s.Add(it(2, 20), 1)
	db := MapDB{"R": r, "S": s}
	q := SumOver(nil, Mul(R("R", "A", "B"), R("S", "C", "D"), Eq(V("B"), V("C")), V("A"), V("D")))
	res := Eval(q, db, types.Env{})
	want := 2.0*10 + 3.0*20
	if res.ScalarValue() != want {
		t.Fatalf("aggregate = %v, want %v", res.ScalarValue(), want)
	}
}

func TestExistsNode(t *testing.T) {
	r := gmr.New(types.Schema{"A"})
	r.Add(it(1), 5)
	r.Add(it(2), 3)
	db := MapDB{"R": r}
	res := Eval(Exists{E: R("R", "A")}, db, types.Env{})
	if res.Get(it(1)) != 1 || res.Get(it(2)) != 1 {
		t.Fatalf("Exists should clamp multiplicities to 1: %v", res)
	}
}

func TestDivAndFunc(t *testing.T) {
	db := MapDB{}
	res := Eval(Div{L: C(10), R: C(4)}, db, types.Env{})
	if res.ScalarValue() != 2.5 {
		t.Fatalf("Div = %v", res.ScalarValue())
	}
	res = Eval(Div{L: C(10), R: C(0)}, db, types.Env{})
	if res.ScalarValue() != 0 {
		t.Fatalf("Div by zero = %v", res.ScalarValue())
	}
	v := EvalScalar(Func{Name: "year", Args: []Expr{C(19970901)}}, db, types.Env{})
	if v.AsInt() != 1997 {
		t.Fatalf("year() = %v", v)
	}
	v = EvalScalar(Func{Name: "substring", Args: []Expr{CS("hello"), C(0), C(2)}}, db, types.Env{})
	if v.AsString() != "he" {
		t.Fatalf("substring = %v", v)
	}
	v = EvalScalar(Func{Name: "like", Args: []Expr{CS("PROMO BRASS"), CS("PROMO%")}}, db, types.Env{})
	if !v.AsBool() {
		t.Fatal("like should match prefix pattern")
	}
	v = EvalScalar(Func{Name: "like", Args: []Expr{CS("ECONOMY"), CS("%BRASS")}}, db, types.Env{})
	if v.AsBool() {
		t.Fatal("like should not match")
	}
	v = EvalScalar(Func{Name: "like", Args: []Expr{CS("special packages requests"), CS("%special%requests%")}}, db, types.Env{})
	if !v.AsBool() {
		t.Fatal("multi-wildcard like should match")
	}
	v = EvalScalar(Func{Name: "listmax", Args: []Expr{C(1), C(5), C(3)}}, db, types.Env{})
	if v.AsInt() != 5 {
		t.Fatalf("listmax = %v", v)
	}
	v = EvalScalar(Func{Name: "in_list", Args: []Expr{CS("MAIL"), CS("MAIL"), CS("SHIP")}}, db, types.Env{})
	if !v.AsBool() {
		t.Fatal("in_list should match")
	}
	v = EvalScalar(Func{Name: "vec_length", Args: []Expr{C(3), C(4), C(0)}}, db, types.Env{})
	if v.AsFloat() != 5 {
		t.Fatalf("vec_length = %v", v)
	}
}

func TestStringComparison(t *testing.T) {
	r := gmr.New(types.Schema{"NAME", "VAL"})
	r.Add(types.Tuple{types.Str("GERMANY"), types.Int(1)}, 1)
	r.Add(types.Tuple{types.Str("FRANCE"), types.Int(2)}, 1)
	db := MapDB{"N": r}
	q := SumOver(nil, Mul(R("N", "n", "v"), Eq(V("n"), CS("GERMANY")), V("v")))
	res := Eval(q, db, types.Env{})
	if res.ScalarValue() != 1 {
		t.Fatalf("string-filtered aggregate = %v", res.ScalarValue())
	}
}

func TestUnboundVariablePanicsAsError(t *testing.T) {
	_, err := EvalChecked(V("nope"), MapDB{}, types.Env{})
	if err == nil {
		t.Fatal("expected error for unbound variable")
	}
}

func TestCmpScalarContext(t *testing.T) {
	v := EvalScalar(Gt(C(3), C(2)), MapDB{}, types.Env{})
	if v.AsInt() != 1 {
		t.Fatal("comparison in scalar context should yield 1")
	}
}

func TestGroupByAggregateMultipleGroups(t *testing.T) {
	li := gmr.New(types.Schema{"OK", "QTY"})
	li.Add(it(1, 10), 1)
	li.Add(it(1, 5), 1)
	li.Add(it(2, 7), 1)
	db := MapDB{"LI": li}
	q := SumOver([]string{"ok"}, Mul(R("LI", "ok", "qty"), V("qty")))
	res := Eval(q, db, types.Env{})
	if res.Get(it(1)) != 15 || res.Get(it(2)) != 7 {
		t.Fatalf("group-by sum wrong: %v", res)
	}
}
