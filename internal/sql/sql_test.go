package sql

import (
	"math"
	"strings"
	"testing"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

// translate parses src and translates its single SELECT, failing the test on
// any error.
func translate(t *testing.T, src string) agca.Expr {
	t.Helper()
	script, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	cat, err := script.Catalog()
	if err != nil {
		t.Fatalf("catalog: %v", err)
	}
	if len(script.Selects) != 1 {
		t.Fatalf("want 1 select, got %d", len(script.Selects))
	}
	expr, err := Translate(script.Selects[0], cat)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	return expr
}

// key is the canonical key of the tuple of vals, as evalToMap writes it.
func key(vals ...types.Value) string { return types.Tuple(vals).EncodeKey() }

// evalToMap evaluates an expression over db and flattens the result to
// canonical key -> multiplicity.
func evalToMap(e agca.Expr, db agca.MapDB) map[string]float64 {
	g := agca.Eval(e, db, types.Env{})
	out := map[string]float64{}
	g.Foreach(func(tu types.Tuple, m float64) {
		out[tu.EncodeKey()] += m
	})
	return out
}

const ordersDDL = `
CREATE STREAM ORDERS (ID int, CUST int, AMOUNT int, TAG string);
CREATE STREAM PAYMENTS (ID int, OID int, PAID int);
`

// ordersDB builds a tiny database matching ordersDDL.
func ordersDB() agca.MapDB {
	orders := gmr.New(types.Schema{"ID", "CUST", "AMOUNT", "TAG"})
	add := func(id, cust, amount int64, tag string) {
		orders.Add(types.Tuple{types.Int(id), types.Int(cust), types.Int(amount), types.Str(tag)}, 1)
	}
	add(1, 10, 100, "a")
	add(2, 10, 50, "b")
	add(3, 20, 70, "a")
	add(4, 30, 5, "c")
	pays := gmr.New(types.Schema{"ID", "OID", "PAID"})
	pays.Add(types.Tuple{types.Int(1), types.Int(1), types.Int(100)}, 1)
	pays.Add(types.Tuple{types.Int(2), types.Int(3), types.Int(30)}, 1)
	pays.Add(types.Tuple{types.Int(3), types.Int(3), types.Int(40)}, 1)
	return agca.MapDB{"ORDERS": orders, "PAYMENTS": pays}
}

func scalarOf(t *testing.T, m map[string]float64) float64 {
	t.Helper()
	if len(m) == 0 {
		return 0
	}
	if len(m) != 1 {
		t.Fatalf("want scalar result, got %v", m)
	}
	for _, v := range m {
		return v
	}
	return 0
}

func TestTranslateScalarSum(t *testing.T) {
	e := translate(t, ordersDDL+`SELECT SUM(o.AMOUNT) FROM ORDERS o WHERE o.AMOUNT > 20;`)
	if got := scalarOf(t, evalToMap(e, ordersDB())); got != 220 {
		t.Fatalf("SUM = %v, want 220", got)
	}
}

func TestTranslateGroupBy(t *testing.T) {
	e := translate(t, ordersDDL+`SELECT o.CUST, SUM(o.AMOUNT) FROM ORDERS o GROUP BY o.CUST;`)
	got := evalToMap(e, ordersDB())
	want := map[string]int64{key(types.Int(10)): 150, key(types.Int(20)): 70, key(types.Int(30)): 5}
	if len(got) != len(want) {
		t.Fatalf("groups = %v", got)
	}
	for k, v := range want {
		if got[k] != float64(v) {
			t.Errorf("group %x = %v, want %d", k, got[k], v)
		}
	}
}

func TestTranslateJoinOn(t *testing.T) {
	// JOIN ... ON desugars into the same clause as a comma join + WHERE.
	a := translate(t, ordersDDL+`SELECT SUM(p.PAID) FROM ORDERS o JOIN PAYMENTS p ON p.OID = o.ID WHERE o.TAG = 'a';`)
	b := translate(t, ordersDDL+`SELECT SUM(p.PAID) FROM ORDERS o, PAYMENTS p WHERE p.OID = o.ID AND o.TAG = 'a';`)
	db := ordersDB()
	va, vb := scalarOf(t, evalToMap(a, db)), scalarOf(t, evalToMap(b, db))
	if va != vb || va != 170 {
		t.Fatalf("JOIN ON = %v, comma join = %v, want 170", va, vb)
	}
}

func TestTranslateCountStar(t *testing.T) {
	e := translate(t, ordersDDL+`SELECT o.CUST, COUNT(*) FROM ORDERS o GROUP BY o.CUST;`)
	got := evalToMap(e, ordersDB())
	if got[key(types.Int(10))] != 2 || got[key(types.Int(20))] != 1 || got[key(types.Int(30))] != 1 {
		t.Fatalf("COUNT(*) groups = %v", got)
	}
}

func TestTranslateAvgScalar(t *testing.T) {
	e := translate(t, ordersDDL+`SELECT AVG(o.AMOUNT) FROM ORDERS o WHERE o.CUST = 10;`)
	if _, ok := e.(agca.Div); !ok {
		t.Fatalf("AVG should translate to a Div node, got %T", e)
	}
	if got := scalarOf(t, evalToMap(e, ordersDB())); got != 75 {
		t.Fatalf("AVG = %v, want 75", got)
	}
}

func TestTranslateOrInclusionExclusion(t *testing.T) {
	// 'a'-tagged or amount<60: orders 1,2,3,4 qualify once each even though
	// order 3 satisfies neither twice and order 2,4 satisfy only one side.
	e := translate(t, ordersDDL+`SELECT COUNT(*) FROM ORDERS o WHERE o.TAG = 'a' OR o.AMOUNT < 60;`)
	if got := scalarOf(t, evalToMap(e, ordersDB())); got != 4 {
		t.Fatalf("OR count = %v, want 4", got)
	}
}

func TestTranslateOrWithSubqueryBranch(t *testing.T) {
	// Regression: a disjunct carrying a lifted scalar subquery must be
	// collapsed to a scalar before entering the inclusion-exclusion sum,
	// or the Sum's terms have asymmetric schemas and full re-evaluation
	// (ModeREP, agca.Eval) drops rows satisfied only by the other branch.
	e := translate(t, ordersDDL+
		`SELECT COUNT(*) FROM ORDERS o WHERE (SELECT COUNT(*) FROM PAYMENTS p WHERE p.OID = o.ID) > 1 OR o.AMOUNT >= 100;`)
	// Order 3 has two payments; order 1 has amount 100. Want exactly 2.
	if got := scalarOf(t, evalToMap(e, ordersDB())); got != 2 {
		t.Fatalf("OR with subquery branch = %v, want 2", got)
	}
	// NOT over a compound predicate with a lifted subquery: the complement
	// of the two rows above.
	e = translate(t, ordersDDL+
		`SELECT COUNT(*) FROM ORDERS o WHERE NOT ((SELECT COUNT(*) FROM PAYMENTS p WHERE p.OID = o.ID) > 1 OR o.AMOUNT >= 100);`)
	if got := scalarOf(t, evalToMap(e, ordersDB())); got != 2 {
		t.Fatalf("NOT(OR with subquery branch) = %v, want 2", got)
	}
}

func TestTranslateExists(t *testing.T) {
	e := translate(t, ordersDDL+`SELECT SUM(o.AMOUNT) FROM ORDERS o WHERE EXISTS (SELECT * FROM PAYMENTS p WHERE p.OID = o.ID);`)
	if got := scalarOf(t, evalToMap(e, ordersDB())); got != 170 {
		t.Fatalf("EXISTS sum = %v, want 170", got)
	}
	e = translate(t, ordersDDL+`SELECT SUM(o.AMOUNT) FROM ORDERS o WHERE NOT EXISTS (SELECT * FROM PAYMENTS p WHERE p.OID = o.ID);`)
	if got := scalarOf(t, evalToMap(e, ordersDB())); got != 55 {
		t.Fatalf("NOT EXISTS sum = %v, want 55", got)
	}
}

func TestTranslateScalarSubquery(t *testing.T) {
	// Orders fully paid: correlated scalar subquery compared to a column.
	e := translate(t, ordersDDL+
		`SELECT COUNT(*) FROM ORDERS o WHERE (SELECT SUM(p.PAID) FROM PAYMENTS p WHERE p.OID = o.ID) >= o.AMOUNT;`)
	if got := scalarOf(t, evalToMap(e, ordersDB())); got != 2 {
		t.Fatalf("paid count = %v, want 2", got)
	}
}

func TestTranslateInBetweenLikeNot(t *testing.T) {
	db := ordersDB()
	cases := []struct {
		where string
		want  float64
	}{
		{`o.TAG IN ('a', 'c')`, 3},
		{`o.TAG NOT IN ('a', 'c')`, 1},
		{`o.AMOUNT BETWEEN 50 AND 100`, 3},
		{`o.TAG LIKE 'a%'`, 2},
		{`o.TAG NOT LIKE 'a%'`, 2},
		{`NOT o.AMOUNT > 60`, 2},
		{`NOT (o.TAG = 'a' AND o.AMOUNT > 90)`, 3},
	}
	for _, c := range cases {
		e := translate(t, ordersDDL+`SELECT COUNT(*) FROM ORDERS o WHERE `+c.where+`;`)
		if got := scalarOf(t, evalToMap(e, db)); got != c.want {
			t.Errorf("WHERE %s: count = %v, want %v", c.where, got, c.want)
		}
	}
}

func TestTranslateBagQuery(t *testing.T) {
	// No aggregate: distinct rows keyed by the selected columns, with
	// multiplicities counting duplicates.
	e := translate(t, ordersDDL+`SELECT o.CUST, o.TAG FROM ORDERS o;`)
	got := evalToMap(e, ordersDB())
	if len(got) != 4 || got[key(types.Int(10), types.Str("a"))] != 1 {
		t.Fatalf("bag query = %v", got)
	}
}

func TestTranslateAliasRenamesKey(t *testing.T) {
	e := translate(t, ordersDDL+`SELECT o.CUST AS customer, SUM(o.AMOUNT) FROM ORDERS o GROUP BY o.CUST;`)
	agg, ok := e.(agca.AggSum)
	if !ok || len(agg.GroupBy) != 1 || agg.GroupBy[0] != "customer" {
		t.Fatalf("alias not applied to result keys: %s", agca.String(e))
	}
}

func TestTranslateUnknownNames(t *testing.T) {
	script, err := Parse(ordersDDL + `SELECT SUM(o.NOPE) FROM ORDERS o;`)
	if err != nil {
		t.Fatal(err)
	}
	cat, _ := script.Catalog()
	if _, err := Translate(script.Selects[0], cat); err == nil || !strings.Contains(err.Error(), "no column") {
		t.Fatalf("unknown column error = %v", err)
	}
	script, _ = Parse(ordersDDL + `SELECT SUM(x.AMOUNT) FROM NOPE x;`)
	if _, err := Translate(script.Selects[0], cat); err == nil || !strings.Contains(err.Error(), "unknown relation") {
		t.Fatalf("unknown relation error = %v", err)
	}
	script, _ = Parse(ordersDDL + `SELECT SUM(ID) FROM ORDERS o, PAYMENTS p;`)
	if _, err := Translate(script.Selects[0], cat); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguous column error = %v", err)
	}
}

func TestTranslateDateLiteral(t *testing.T) {
	e := translate(t, `CREATE STREAM R (D date);`+`SELECT COUNT(*) FROM R r WHERE r.D >= DATE('1997-09-01');`)
	found := false
	agca.Walk(e, func(x agca.Expr) {
		if c, ok := x.(agca.Const); ok && c.V.Equal(types.Date(1997, 9, 1)) {
			found = true
		}
	})
	if !found {
		t.Fatalf("date literal not folded: %s", agca.String(e))
	}
}

func TestQueriesNaming(t *testing.T) {
	script, err := Parse(ordersDDL + `SELECT SUM(o.AMOUNT) FROM ORDERS o; SELECT COUNT(*) FROM ORDERS o;`)
	if err != nil {
		t.Fatal(err)
	}
	qs, err := script.Queries("base")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 2 || qs[0].Name != "base_1" || qs[1].Name != "base_2" {
		t.Fatalf("query names = %+v", qs)
	}
}

func TestUnificationProducesNaturalJoins(t *testing.T) {
	// The equality predicate must disappear into a shared-variable join so
	// the delta transform sees the paper's normal form.
	e := translate(t, ordersDDL+`SELECT SUM(p.PAID) FROM ORDERS o, PAYMENTS p WHERE p.OID = o.ID;`)
	s := agca.String(e)
	if strings.Contains(s, "=") && strings.Contains(s, "{") {
		t.Fatalf("equality join not unified away: %s", s)
	}
}

func TestTranslateArithmetic(t *testing.T) {
	e := translate(t, ordersDDL+`SELECT SUM(2 * o.AMOUNT - o.AMOUNT / 2) FROM ORDERS o WHERE o.ID = 1;`)
	got := scalarOf(t, evalToMap(e, ordersDB()))
	if math.Abs(got-150) > 1e-9 {
		t.Fatalf("arithmetic = %v, want 150", got)
	}
}
