package agca

import (
	"testing"

	"dbtoaster/internal/types"
)

func TestOutputAndInputVars(t *testing.T) {
	// Example 5: Qn = Sum[](S(C,D) * (A > C) * D) has input var A, no outputs.
	qn := SumOver(nil, Mul(R("S", "C", "D"), Gt(V("A"), V("C")), V("D")))
	out := OutputVars(qn, VarSet{})
	if len(out) != 0 {
		t.Fatalf("Qn output vars = %v, want none", out)
	}
	in := InputVars(qn, VarSet{})
	if !in["A"] || len(in) != 1 {
		t.Fatalf("Qn input vars = %v, want {A}", in.Sorted())
	}

	// The full query has outputs A, B and no inputs.
	q := SumOver([]string{"A", "B"}, Mul(R("R", "A", "B"), Lift{Var: "z", E: qn}, Lt(V("B"), V("z"))))
	out = OutputVars(q, VarSet{})
	if !out.Equal(types.Schema{"A", "B"}) {
		t.Fatalf("output vars = %v", out)
	}
	if len(InputVars(q, VarSet{})) != 0 {
		t.Fatalf("input vars = %v, want none", InputVars(q, VarSet{}).Sorted())
	}
}

func TestProdBindingOrder(t *testing.T) {
	// In R(A,B) * (B < C) * S(C), C is produced after its use -> C is an
	// input of the comparison at that point, making it an input of the whole
	// product (AGCA products bind left to right).
	q := Mul(R("R", "A", "B"), Lt(V("B"), V("C")), R("S", "C"))
	in := InputVars(q, VarSet{})
	if !in["C"] {
		t.Fatalf("expected C to be an input variable under left-to-right binding, got %v", in.Sorted())
	}
	// Reordered, the comparison sees C bound.
	q2 := Mul(R("R", "A", "B"), R("S", "C"), Lt(V("B"), V("C")))
	if len(InputVars(q2, VarSet{})) != 0 {
		t.Fatalf("reordered product should have no inputs, got %v", InputVars(q2, VarSet{}).Sorted())
	}
}

func TestDegree(t *testing.T) {
	q := SumOver(nil, Mul(R("R", "A", "B"), R("S", "B", "C"), V("A")))
	if Degree(q) != 2 {
		t.Fatalf("degree = %d, want 2", Degree(q))
	}
	if Degree(C(5)) != 0 {
		t.Fatal("constant degree should be 0")
	}
	if Degree(Add(Mul(R("R", "A"), R("R", "A")), R("S", "B"))) != 2 {
		t.Fatal("degree of union should be max of clause degrees")
	}
	// MapRefs do not count toward the degree.
	if Degree(Mul(MapRef{Name: "M", Keys: []string{"x"}}, R("R", "x"))) != 1 {
		t.Fatal("MapRef should not add to degree")
	}
}

func TestRelationsAndMapRefs(t *testing.T) {
	q := Mul(R("R", "A"), R("S", "B"), MapRef{Name: "M1", Keys: []string{"A"}})
	rels := Relations(q)
	if len(rels) != 2 || rels[0] != "R" || rels[1] != "S" {
		t.Fatalf("Relations = %v", rels)
	}
	maps := MapRefs(q)
	if len(maps) != 1 || maps[0] != "M1" {
		t.Fatalf("MapRefs = %v", maps)
	}
	if !UsesRelation(q, "R") || UsesRelation(q, "T") {
		t.Fatal("UsesRelation broken")
	}
	if !HasRelOrMap(q) || HasRelOrMap(C(1)) {
		t.Fatal("HasRelOrMap broken")
	}
}

func TestHasNestedAggregate(t *testing.T) {
	plain := Mul(R("R", "A"), Lift{Var: "x", E: C(5)})
	if HasNestedAggregate(plain) {
		t.Fatal("lift of a constant is not a nested aggregate")
	}
	nested := Mul(R("R", "A"), Lift{Var: "x", E: SumOver(nil, R("S", "B"))})
	if !HasNestedAggregate(nested) {
		t.Fatal("lift of a relation query is a nested aggregate")
	}
}

func TestRenameVarsAndSubstitute(t *testing.T) {
	q := Mul(R("R", "A", "B"), Lt(V("A"), C(5)))
	r := RenameVars(q, map[string]string{"A": "x"})
	if UsesRelation(r, "R") {
		vars := AllVars(r)
		if !vars["x"] || vars["A"] {
			t.Fatalf("rename failed: %v", vars.Sorted())
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	q := Mul(R("R", "A", "B"), V("A"))
	c := Clone(q)
	if String(q) != String(c) {
		t.Fatal("clone should be structurally identical")
	}
}

func TestStringDeterministic(t *testing.T) {
	q := SumOver([]string{"A"}, Mul(R("R", "A", "B"), Lt(V("B"), C(10))))
	if String(q) != String(Clone(q)) {
		t.Fatal("String must be deterministic")
	}
	want := "Sum[A]((R(A,B) * {B < 10}))"
	if String(q) != want {
		t.Fatalf("String = %q, want %q", String(q), want)
	}
}

func TestCmpOpHelpers(t *testing.T) {
	if OpLt.Negate() != OpGe || OpEq.Negate() != OpNe {
		t.Fatal("Negate broken")
	}
	if OpLt.Swap() != OpGt || OpEq.Swap() != OpEq {
		t.Fatal("Swap broken")
	}
	if OpLe.String() != "<=" {
		t.Fatal("String broken")
	}
}

func TestBuilderFlattening(t *testing.T) {
	p := Mul(Mul(V("a"), V("b")), V("c"))
	if prod, ok := p.(Prod); !ok || len(prod.Factors) != 3 {
		t.Fatalf("Mul should flatten: %s", String(p))
	}
	s := Add(Add(V("a"), V("b")), V("c"))
	if sum, ok := s.(Sum); !ok || len(sum.Terms) != 3 {
		t.Fatalf("Add should flatten: %s", String(s))
	}
	if Mul(V("a")) != (Var{Name: "a"}) {
		t.Fatal("singleton Mul should unwrap")
	}
	if !IsZero(Zero) || IsZero(One) {
		t.Fatal("IsZero broken")
	}
}
