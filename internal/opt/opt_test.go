package opt

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

func TestSimplifyIdentities(t *testing.T) {
	cases := []struct {
		in   agca.Expr
		want string
	}{
		{agca.Mul(agca.R("R", "A"), agca.One), "R(A)"},
		{agca.Mul(agca.R("R", "A"), agca.Zero), "0"},
		{agca.Add(agca.R("R", "A"), agca.Zero), "R(A)"},
		{agca.Add(agca.Zero, agca.Zero), "0"},
		{agca.Mul(agca.C(2), agca.C(3), agca.V("x")), "(6 * x)"},
		{agca.Add(agca.C(2), agca.C(3)), "5"},
		{agca.Neg{E: agca.Neg{E: agca.V("x")}}, "x"},
		{agca.Neg{E: agca.C(4)}, "-4"},
		{agca.Lt(agca.C(1), agca.C(2)), "1"},
		{agca.Gt(agca.C(1), agca.C(2)), "0"},
		{agca.SumOver([]string{"A"}, agca.Zero), "0"},
		{agca.Mul(agca.Neg{E: agca.V("x")}, agca.V("y")), "(-1 * x * y)"},
	}
	for _, c := range cases {
		got := agca.String(Simplify(c.in))
		if got != c.want {
			t.Errorf("Simplify(%s) = %s, want %s", agca.String(c.in), got, c.want)
		}
	}
}

func TestSimplifyNestedAggSum(t *testing.T) {
	inner := agca.SumOver([]string{"A", "B"}, agca.R("R", "A", "B"))
	outer := agca.SumOver([]string{"A"}, inner)
	got := Simplify(outer)
	if agca.String(got) != "Sum[A](R(A,B))" {
		t.Errorf("nested AggSum collapse = %s", agca.String(got))
	}
}

func TestSimplifyIdempotent(t *testing.T) {
	e := agca.Add(
		agca.Mul(agca.C(2), agca.R("R", "A"), agca.One),
		agca.Neg{E: agca.Mul(agca.Zero, agca.R("S", "B"))},
	)
	once := Simplify(e)
	twice := Simplify(once)
	if agca.String(once) != agca.String(twice) {
		t.Errorf("Simplify not idempotent: %s vs %s", agca.String(once), agca.String(twice))
	}
}

func TestExpandPolynomial(t *testing.T) {
	// A value sum stays one factor: (a + b) * c is one monomial ...
	e := agca.Mul(agca.Add(agca.V("a"), agca.V("b")), agca.V("c"))
	if terms := ExpandPolynomial(e); len(terms) != 1 {
		t.Fatalf("expected 1 monomial, got %d: %v", len(terms), terms)
	}
	// ... unless it is expanded fully: a*c + b*c.
	if terms := ExpandFully(e); len(terms) != 2 {
		t.Fatalf("ExpandFully: expected 2 monomials, got %d: %v", len(terms), terms)
	}
	// A sum of relations is not a value sum: (R(x) + S(x)) * a expands.
	rs := agca.Mul(agca.Add(agca.R("R", "x"), agca.R("S", "x")), agca.V("a"))
	if terms := ExpandPolynomial(rs); len(terms) != 2 {
		t.Fatalf("expected 2 monomials for (R(x)+S(x))*a, got %d: %v", len(terms), terms)
	}
	// AggSum distributes over the expansion.
	e2 := agca.SumOver([]string{"x"}, agca.Mul(agca.R("R", "x"), agca.Add(agca.R("S", "x"), agca.Neg{E: agca.V("b")})))
	terms2 := ExpandPolynomial(e2)
	if len(terms2) != 2 {
		t.Fatalf("expected 2 monomials under AggSum, got %d", len(terms2))
	}
	for _, m := range terms2 {
		if _, ok := m.(agca.AggSum); !ok {
			t.Fatalf("each monomial should keep its AggSum wrapper: %s", agca.String(m))
		}
	}
	// Zero terms disappear.
	if got := ExpandPolynomial(agca.Mul(agca.Zero, agca.R("R", "x"))); len(got) != 0 {
		t.Fatalf("zero product should expand to nothing, got %v", got)
	}
}

func TestIsValueSum(t *testing.T) {
	for _, c := range []struct {
		e    agca.Expr
		want bool
	}{
		{agca.Add(agca.V("a"), agca.C(1)), true},
		{agca.Add(agca.Gt(agca.V("a"), agca.C(3)), agca.Neg{E: agca.Mul(agca.CF(0.01), agca.V("d"))}), true},
		{agca.Add(agca.V("a"), agca.R("R", "a")), false},
		{agca.Add(agca.V("a"), agca.Mul(agca.V("b"), agca.MapRef{Name: "M", Keys: []string{"b"}})), false},
		{agca.Add(agca.V("a"), agca.LiftE("b", agca.V("a"))), false},
		{agca.Mul(agca.V("a"), agca.V("b")), false}, // a value, but not a sum
	} {
		if got := IsValueSum(c.e); got != c.want {
			t.Errorf("IsValueSum(%s) = %v, want %v", agca.String(c.e), got, c.want)
		}
	}
}

func TestSimplifySelfComparison(t *testing.T) {
	x := agca.V("x")
	sub := agca.SumOver(nil, agca.R("R", "x"))
	for _, c := range []struct {
		op   agca.CmpOp
		l, r agca.Expr
		want agca.Expr
	}{
		{agca.OpLt, x, x, agca.Zero},
		{agca.OpGt, x, x, agca.Zero},
		{agca.OpNe, x, x, agca.Zero},
		{agca.OpEq, x, x, agca.One},
		{agca.OpLe, x, x, agca.One},
		{agca.OpGe, x, x, agca.One},
		{agca.OpGt, sub, agca.Clone(sub), agca.Zero},
		{agca.OpGe, agca.Add(x, agca.C(1)), agca.Add(x, agca.C(1)), agca.One},
	} {
		e := agca.Cmp{Op: c.op, L: c.l, R: c.r}
		if got := Simplify(e); agca.String(got) != agca.String(c.want) {
			t.Errorf("Simplify(%s) = %s, want %s", agca.String(e), agca.String(got), agca.String(c.want))
		}
	}
	// Different operands stay, and so does the product they filter.
	keep := agca.Mul(agca.Cmp{Op: agca.OpGt, L: x, R: agca.V("y")}, agca.V("y"))
	if got := Simplify(keep); agca.String(got) != agca.String(keep) {
		t.Errorf("Simplify(%s) = %s, want it unchanged", agca.String(keep), agca.String(got))
	}
	// A dead statement body folds to 0: {t > t} * v * p.
	dead := agca.SumOver([]string{}, agca.Mul(agca.Gt(agca.V("t"), agca.V("t")), agca.V("v"), agca.V("p")))
	if got := Simplify(dead); !agca.IsZero(got) {
		t.Errorf("Simplify(%s) = %s, want 0", agca.String(dead), agca.String(got))
	}
}

func TestCombineLikeTerms(t *testing.T) {
	p, q, c := agca.V("p"), agca.V("q"), agca.Gt(agca.V("t"), agca.C(3))
	for _, tc := range []struct {
		in   agca.Expr
		want string
	}{
		// price*{c} + -1*price*{c} cancels.
		{agca.Add(agca.Mul(p, c), agca.Mul(agca.C(-1), p, c)), "0"},
		// 0.5*v*p + 0.5*v*p is one term; factor order does not matter.
		{agca.Add(agca.Mul(agca.CF(0.5), q, p), agca.Mul(agca.CF(0.5), p, q)), "(q * p)"},
		// Negations count as coefficient -1.
		{agca.Add(q, agca.Neg{E: q}, p), "p"},
		// Unlike terms stay as they are, in order.
		{agca.Add(agca.Mul(agca.C(2), p), q), "((2 * p) + q)"},
		{agca.Add(agca.Mul(agca.C(2), p), p, q), "((3 * p) + q)"},
		// A sum over relations is not a value sum: left alone.
		{agca.Add(agca.R("R", "x"), agca.Neg{E: agca.R("R", "x")}), "(R(x) + -(R(x)))"},
	} {
		if got := agca.String(CombineLikeTerms(tc.in)); got != tc.want {
			t.Errorf("CombineLikeTerms(%s) = %s, want %s", agca.String(tc.in), got, tc.want)
		}
	}
}

func TestExpandPreservesSemantics(t *testing.T) {
	r := gmr.New(types.Schema{"A", "B"})
	r.Add(it(1, 2), 1)
	r.Add(it(3, 4), 2)
	s := gmr.New(types.Schema{"B"})
	s.Add(it(2), 1)
	s.Add(it(4), 3)
	u := gmr.New(types.Schema{"B"})
	u.Add(it(2), 5)
	db := agca.MapDB{"R": r, "S": s, "U": u}
	q := agca.SumOver(nil, agca.Mul(
		agca.R("R", "a", "b"),
		agca.Add(agca.R("S", "b"), agca.R("U", "b")),
		agca.V("a")))
	want := agca.Eval(q, db, types.Env{}).ScalarValue()
	terms := ExpandPolynomial(q)
	got := 0.0
	for _, m := range terms {
		got += agca.Eval(m, db, types.Env{}).ScalarValue()
	}
	if got != want {
		t.Fatalf("expansion changed semantics: %v vs %v", got, want)
	}
}

func TestFactorsAndRebuild(t *testing.T) {
	e := agca.SumOver([]string{"A"}, agca.Neg{E: agca.Mul(agca.R("R", "A"), agca.V("x"))})
	gb, neg, fs := Factors(e)
	if len(gb) != 1 || !neg || len(fs) != 2 {
		t.Fatalf("Factors = %v %v %v", gb, neg, fs)
	}
	rb := Rebuild(gb, neg, fs)
	if agca.String(rb) != agca.String(e) {
		t.Fatalf("Rebuild mismatch: %s vs %s", agca.String(rb), agca.String(e))
	}
}

func TestUnifyJoinEquality(t *testing.T) {
	// R(a,b) * S(c,d) * (b = c) should become a natural join on one variable.
	factors := []agca.Expr{
		agca.R("R", "a", "b"),
		agca.R("S", "c", "d"),
		agca.Eq(agca.V("b"), agca.V("c")),
	}
	res := UnifyMonomial(factors, agca.NewVarSet("a", "d"), agca.VarSet{})
	if len(res.Factors) != 2 {
		t.Fatalf("equality should be eliminated: %v", res.Factors)
	}
	joined := agca.Mul(res.Factors...)
	out := agca.OutputVars(joined, agca.VarSet{})
	if len(out) != 3 {
		t.Fatalf("natural join should have 3 columns, got %v", out)
	}
}

func TestUnifyLiftOfTriggerVar(t *testing.T) {
	// (A := x_t) * R(A,B) * A with A unprotected: A is replaced by x_t.
	factors := []agca.Expr{
		agca.LiftE("A", agca.V("x_t")),
		agca.R("R", "A", "B"),
		agca.V("A"),
	}
	res := UnifyMonomial(factors, agca.NewVarSet("B"), agca.NewVarSet("x_t"))
	if len(res.Factors) != 2 {
		t.Fatalf("lift should be propagated away: %v", res.Factors)
	}
	if res.ApplyTo("A") != "x_t" {
		t.Fatalf("substitution should map A to x_t, got %q", res.ApplyTo("A"))
	}
	for _, f := range res.Factors {
		if agca.AllVars(f)["A"] {
			t.Fatalf("A should no longer occur: %s", agca.String(f))
		}
	}
}

func TestUnifyProtectedVariableRecorded(t *testing.T) {
	// A protected variable may be renamed onto another produced variable, but
	// only if the substitution is recorded so callers can rewrite their keys.
	factors := []agca.Expr{
		agca.R("R", "a"),
		agca.R("S", "b"),
		agca.Eq(agca.V("a"), agca.V("b")),
	}
	res := UnifyMonomial(factors, agca.NewVarSet("a", "b"), agca.VarSet{})
	if len(res.Factors) != 2 {
		t.Fatalf("equality between produced variables should unify: %v", res.Factors)
	}
	renamed := res.ApplyTo("a") != "a" || res.ApplyTo("b") != "b"
	if !renamed {
		t.Fatalf("expected a recorded substitution, got %v", res.Subst)
	}
	// The surviving name must be produced by the joined factors.
	out := agca.OutputVars(agca.Mul(res.Factors...), agca.VarSet{})
	if !out.Contains(res.ApplyTo("a")) || !out.Contains(res.ApplyTo("b")) {
		t.Fatalf("substituted names must remain outputs: %v vs %v", res.Subst, out)
	}
}

func TestUnifyInputVariableEqualityKept(t *testing.T) {
	// Neither side has a runtime value (both are correlation parameters): the
	// comparison must stay.
	factors := []agca.Expr{
		agca.R("R", "x"),
		agca.Eq(agca.V("a"), agca.V("b")),
	}
	res := UnifyMonomial(factors, agca.VarSet{}, agca.VarSet{})
	if len(res.Factors) != 2 {
		t.Fatalf("equality over unbound parameters must remain: %v", res.Factors)
	}
}

func TestUnifyConstEqualityBecomesLift(t *testing.T) {
	factors := []agca.Expr{
		agca.R("N", "name", "key"),
		agca.Eq(agca.V("name"), agca.CS("GERMANY")),
	}
	res := UnifyMonomial(factors, agca.NewVarSet("key"), agca.VarSet{})
	foundLift := false
	for _, f := range res.Factors {
		if l, ok := f.(agca.Lift); ok && l.Var == "name" {
			foundLift = true
		}
	}
	if !foundLift {
		t.Fatalf("constant equality should become an assignment: %v", res.Factors)
	}
}

func TestUnifyPreservesSemantics(t *testing.T) {
	r := gmr.New(types.Schema{"A", "B"})
	r.Add(it(1, 2), 1)
	r.Add(it(3, 4), 2)
	s := gmr.New(types.Schema{"C", "D"})
	s.Add(it(2, 5), 1)
	s.Add(it(4, 6), 1)
	db := agca.MapDB{"R": r, "S": s}
	factors := []agca.Expr{
		agca.R("R", "a", "b"),
		agca.R("S", "c", "d"),
		agca.Eq(agca.V("b"), agca.V("c")),
		agca.V("a"), agca.V("d"),
	}
	orig := agca.SumOver(nil, agca.Mul(factors...))
	res := UnifyMonomial(factors, agca.VarSet{}, agca.VarSet{})
	rewritten := agca.SumOver(nil, agca.Mul(res.Factors...))
	a := agca.Eval(orig, db, types.Env{}).ScalarValue()
	b := agca.Eval(rewritten, db, types.Env{}).ScalarValue()
	if a != b {
		t.Fatalf("unification changed semantics: %v vs %v", a, b)
	}
}

func TestOrderFactorsBindsBeforeUse(t *testing.T) {
	// A comparison placed before the relations that bind its variables must
	// be moved after them.
	factors := []agca.Expr{
		agca.Lt(agca.V("b"), agca.V("c")),
		agca.R("S", "c"),
		agca.R("R", "a", "b"),
	}
	ordered := OrderFactors(factors, agca.VarSet{})
	q := agca.Mul(ordered...)
	if in := agca.InputVars(q, agca.VarSet{}); len(in) != 0 {
		t.Fatalf("ordered product still has input vars %v: %s", in.Sorted(), agca.String(q))
	}
}

func TestOrderFactorsPrefersBoundProbe(t *testing.T) {
	// With x_t bound, the lift and the probe on R should come before S.
	factors := []agca.Expr{
		agca.R("S", "c", "d"),
		agca.R("R", "a", "b"),
		agca.LiftE("a", agca.V("x_t")),
	}
	ordered := OrderFactors(factors, agca.NewVarSet("x_t"))
	if _, ok := ordered[0].(agca.Lift); !ok {
		t.Fatalf("lift should be scheduled first: %v", agca.String(agca.Mul(ordered...)))
	}
	if r, ok := ordered[1].(agca.Rel); !ok || r.Name != "R" {
		t.Fatalf("probe on R should precede scan of S: %s", agca.String(agca.Mul(ordered...)))
	}
}

func TestNormalizeOrderPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		r := gmr.New(types.Schema{"A", "B"})
		s := gmr.New(types.Schema{"B", "C"})
		for i := 0; i < 6; i++ {
			r.Add(it(int64(rng.Intn(3)), int64(rng.Intn(3))), 1)
			s.Add(it(int64(rng.Intn(3)), int64(rng.Intn(4))), 1)
		}
		db := agca.MapDB{"R": r, "S": s}
		q := agca.SumOver([]string{"b"}, agca.Mul(
			agca.Lt(agca.V("c"), agca.C(3)),
			agca.R("R", "a", "b"),
			agca.R("S", "b", "c"),
			agca.V("a")))
		normalized := NormalizeOrder(q, agca.VarSet{})
		got := agca.Eval(normalized, db, types.Env{})
		// Reference: evaluate with a manually correct order.
		ref := agca.SumOver([]string{"b"}, agca.Mul(
			agca.R("R", "a", "b"),
			agca.R("S", "b", "c"),
			agca.Lt(agca.V("c"), agca.C(3)),
			agca.V("a")))
		want := agca.Eval(ref, db, types.Env{})
		if !gmr.Equal(got, want, 1e-9) {
			t.Fatalf("NormalizeOrder changed semantics:\n got %v\nwant %v", got, want)
		}
	}
}

func TestOrderFactorsHoistsReadyLifts(t *testing.T) {
	// The MST tail's shape: sq1 depends on nothing and sq2 only on a_price, so
	// sq1 runs before any loop opens and sq2 as soon as M6 has bound a_price,
	// before the M5 loop opens — not in the innermost body.
	factors := []agca.Expr{
		agca.MapRef{Name: "M6", Keys: []string{"a_price"}},
		agca.MapRef{Name: "M5", Keys: []string{"b_broker", "b_price"}},
		agca.LiftE("sq1", agca.MapRef{Name: "M1"}),
		agca.LiftE("sq2", agca.SumOver(nil, agca.Mul(
			agca.MapRef{Name: "M2", Keys: []string{"a3_price"}},
			agca.Gt(agca.V("a3_price"), agca.V("a_price"))))),
		agca.Gt(agca.Mul(agca.CF(0.25), agca.V("sq1")), agca.V("sq2")),
	}
	got := agca.String(agca.Mul(OrderFactors(factors, agca.VarSet{})...))
	want := "((sq1 := M1[]) * M6[a_price] * (sq2 := Sum[]((M2[a3_price] * {a3_price > a_price}))) * {(0.25 * sq1) > sq2} * M5[b_broker,b_price])"
	if got != want {
		t.Fatalf("order = %s\n want   %s", got, want)
	}
}

// TestOrderFactorsLiftWaitsForCorrelatedSibling pins the guard of
// loop-invariant scheduling on the delta statements of Q4, Q17a and Q18a: the
// nested aggregate "sq1 := Sum[](M1[k]) + …" has no *input* variable — with k
// unbound it is evaluable, as the total over every k — yet it means the lookup
// correlated on the k of the pending atom, so it must not be hoisted over it.
func TestOrderFactorsLiftWaitsForCorrelatedSibling(t *testing.T) {
	m1 := gmr.New(types.Schema{"K"})
	m2 := gmr.New(types.Schema{"K", "G"})
	for k := int64(0); k < 6; k++ {
		m1.Add(it(k), float64(k*40))
		m2.Add(it(k, k%3), float64(k+1))
	}
	db := agca.MapDB{"M1": m1, "M2": m2}
	env := types.Env{"K_t": types.Int(4), "QTY_t": types.Int(70)}
	bound := agca.NewVarSet("K_t", "QTY_t")
	atom := agca.MapRef{Name: "M2", Keys: []string{"k", "g"}}
	old := agca.SumOver(nil, agca.MapRef{Name: "M1", Keys: []string{"k"}})
	cases := []struct {
		name         string
		groupBy      []string
		atom, filter agca.Expr
		lift         agca.Lift
	}{
		{"Q4", []string{"g"}, atom, agca.Gt(agca.V("sq1"), agca.C(0)), agca.Lift{Var: "sq1", E: old}},
		{"Q17a", nil, atom, agca.Lt(agca.Mul(agca.C(20), agca.V("g")), agca.V("sq1")),
			agca.Lift{Var: "sq1", E: agca.Add(old, agca.SumOver(nil, agca.Mul(agca.LiftE("k", agca.V("K_t")), agca.V("QTY_t"))))}},
		{"Q18a", []string{"g"}, atom, agca.Lt(agca.C(100), agca.V("sq1")), agca.Lift{Var: "sq1", E: old}},
	}
	for _, c := range cases {
		// Reference: the atom binds k before the lift reads it.
		want := agca.Eval(agca.SumOver(c.groupBy, agca.Mul(c.atom, c.lift, c.filter)), db, env)
		got := NormalizeOrder(agca.SumOver(c.groupBy, agca.Mul(c.lift, c.filter, c.atom)), bound)
		first := got.(agca.AggSum).E.(agca.Prod).Factors[0]
		if _, isLift := first.(agca.Lift); isLift {
			t.Errorf("%s: correlated lift hoisted over the atom that binds k: %s", c.name, agca.String(got))
		}
		if res := agca.Eval(got, db, env); !gmr.Equal(res, want, 1e-9) {
			t.Errorf("%s: %s\n got %v\nwant %v", c.name, agca.String(got), res, want)
		}
	}
}

func TestFactorize(t *testing.T) {
	a := agca.MapRef{Name: "A", Keys: []string{"k", "x"}}
	b := agca.MapRef{Name: "B", Keys: []string{"y"}}
	filter := agca.Gt(agca.V("y"), agca.V("t"))
	cases := []struct {
		name string
		in   agca.Expr
		keep []string
		want string
	}{
		{"independent loop is summed on its own",
			agca.SumOver([]string{"k"}, agca.Mul(a, b, filter)), nil,
			"Sum[k]((A[k,x] * (c1 := Sum[]((B[y] * {y > t}))) * c1))"},
		{"a closed lift is a cut point, not a link",
			agca.SumOver([]string{"k"}, agca.Mul(agca.LiftE("s", agca.MapRef{Name: "T"}), a, agca.Gt(agca.V("x"), agca.V("s")), b, agca.Gt(agca.V("y"), agca.V("s")))), nil,
			"Sum[k](((s := T[]) * A[k,x] * {x > s} * (c1 := Sum[]((B[y] * {y > s}))) * c1))"},
		{"every group without exports is summed",
			agca.SumOver([]string{}, agca.Mul(a, b)), nil,
			"Sum[](((c1 := Sum[](A[k,x])) * c1 * (c2 := Sum[](B[y])) * c2))"},
		{"an unbound target key is an export",
			agca.SumOver([]string{}, agca.Mul(a, b)), []string{"y"},
			"Sum[](((c1 := Sum[](A[k,x])) * c1 * B[y]))"},
		{"a bound group-by variable is still an export",
			agca.SumOver([]string{"t"}, agca.Mul(agca.MapRef{Name: "A", Keys: []string{"t", "x"}}, b)), nil,
			"Sum[t]((A[t,x] * (c1 := Sum[](B[y])) * c1))"},
		{"shared variable: one group, unchanged",
			agca.SumOver([]string{"k"}, agca.Mul(a, agca.MapRef{Name: "B", Keys: []string{"x"}})), nil,
			"Sum[k]((A[k,x] * B[x]))"},
		{"a probe is not a loop",
			agca.SumOver([]string{"k"}, agca.Mul(a, agca.MapRef{Name: "B", Keys: []string{"t"}})), nil,
			"Sum[k]((A[k,x] * B[t]))"},
		{"fresh names avoid the statement's variables",
			agca.SumOver([]string{"c1"}, agca.Mul(agca.MapRef{Name: "A", Keys: []string{"c1"}}, b)), nil,
			"Sum[c1]((A[c1] * (c2 := Sum[](B[y])) * c2))"},
	}
	for _, c := range cases {
		got := Factorize(c.in, agca.NewVarSet("t"), c.keep)
		if agca.String(got) != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, agca.String(got), c.want)
		}
		if again := Factorize(c.in, agca.NewVarSet("t"), c.keep); agca.String(again) != agca.String(got) {
			t.Errorf("%s: not deterministic: %s vs %s", c.name, agca.String(again), agca.String(got))
		}
	}
}

func TestFactorizePreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := agca.Add(
		agca.SumOver([]string{"k"}, agca.Mul(
			agca.MapRef{Name: "A", Keys: []string{"k", "x"}},
			agca.MapRef{Name: "B", Keys: []string{"y"}},
			agca.LiftE("s", agca.MapRef{Name: "T"}),
			agca.LiftE("above", agca.SumOver(nil, agca.Mul(agca.MapRef{Name: "B", Keys: []string{"y2"}}, agca.Gt(agca.V("y2"), agca.V("y"))))),
			agca.Gt(agca.V("s"), agca.V("above")),
			agca.V("x"))),
		agca.Neg{E: agca.SumOver([]string{"k"}, agca.Mul(
			agca.MapRef{Name: "A", Keys: []string{"k", "x"}},
			agca.MapRef{Name: "B", Keys: []string{"y"}},
			agca.V("y")))})
	for trial := 0; trial < 20; trial++ {
		a := gmr.New(types.Schema{"K", "X"})
		b := gmr.New(types.Schema{"Y"})
		for i := 0; i < rng.Intn(7); i++ {
			a.Add(it(int64(rng.Intn(3)), int64(rng.Intn(5))), float64(1+rng.Intn(3)))
			b.Add(it(int64(rng.Intn(5))), float64(1+rng.Intn(3)))
		}
		db := agca.MapDB{"A": a, "B": b, "T": gmr.NewScalar(float64(rng.Intn(8)))}
		want := agca.Eval(NormalizeOrder(q, agca.VarSet{}), db, types.Env{})
		planned := NormalizeOrder(Factorize(q, agca.VarSet{}, []string{"k"}), agca.VarSet{})
		if got := agca.Eval(planned, db, types.Env{}); !gmr.Equal(got, want, 1e-9) {
			t.Fatalf("trial %d: %s\n got %v\nwant %v", trial, agca.String(planned), got, want)
		}
	}
}
