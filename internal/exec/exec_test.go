package exec_test

import (
	"strings"
	"testing"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/exec"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

// interpDelta computes the statement delta the way the engine's interpreter
// path does: evaluate the RHS under the trigger environment, then key every
// result row by the target keys, reading bound keys from the environment and
// the rest from result columns.
func interpDelta(t *testing.T, rhs agca.Expr, targetKeys []string, args []string, argVals types.Tuple, db agca.Database) *gmr.GMR {
	t.Helper()
	env := types.Env{}
	for i, a := range args {
		env[a] = argVals[i]
	}
	res, err := agca.EvalChecked(rhs, db, env)
	if err != nil {
		t.Fatalf("interpreter: %v", err)
	}
	out := gmr.New(types.Schema(targetKeys))
	schema := res.Schema()
	res.Foreach(func(tu types.Tuple, m float64) {
		key := make(types.Tuple, len(targetKeys))
		for i, k := range targetKeys {
			if v, ok := env[k]; ok {
				key[i] = v
			} else {
				col := schema.Index(k)
				if col < 0 {
					t.Fatalf("result lacks key column %q (schema %v)", k, schema)
				}
				key[i] = tu[col]
			}
		}
		out.Add(key, m)
	})
	return out
}

// runCase compiles the statement, runs it against db, and asserts the emitted
// delta matches the interpreter's.
func runCase(t *testing.T, name string, rhs agca.Expr, targetKeys, args []string, argVals types.Tuple, db agca.Database) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		x, err := exec.CompileStatement(rhs, targetKeys, args)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		got := gmr.New(types.Schema(targetKeys))
		if err := x.Run(db, argVals, got); err != nil {
			t.Fatalf("run: %v", err)
		}
		want := interpDelta(t, rhs, targetKeys, args, argVals, db)
		if !gmr.Equal(want, got, 1e-9) {
			t.Fatalf("compiled delta diverged\ninterp:   %v\ncompiled: %v", want, got)
		}
		// A second run through the pooled machine must be state-free.
		again := gmr.New(types.Schema(targetKeys))
		if err := x.Run(db, argVals, again); err != nil {
			t.Fatalf("rerun: %v", err)
		}
		if !gmr.Equal(want, again, 1e-9) {
			t.Fatalf("second run diverged\ninterp:   %v\ncompiled: %v", want, again)
		}
	})
}

func testDB() agca.MapDB {
	r := gmr.New(types.Schema{"c1", "c2"})
	r.Add(types.Tuple{types.Int(1), types.Int(10)}, 1)
	r.Add(types.Tuple{types.Int(1), types.Int(20)}, 2)
	r.Add(types.Tuple{types.Int(2), types.Int(10)}, 1)
	r.Add(types.Tuple{types.Int(3), types.Int(30)}, -1)
	s := gmr.New(types.Schema{"c1", "c2"})
	s.Add(types.Tuple{types.Int(10), types.Int(100)}, 1)
	s.Add(types.Tuple{types.Int(10), types.Int(200)}, 1)
	s.Add(types.Tuple{types.Int(30), types.Int(300)}, 4)
	dup := gmr.New(types.Schema{"c1", "c2"})
	dup.Add(types.Tuple{types.Int(5), types.Int(5)}, 2)
	dup.Add(types.Tuple{types.Int(5), types.Int(6)}, 3)
	return agca.MapDB{"R": r, "S": s, "D": dup}
}

func TestCompiledMatchesInterpreter(t *testing.T) {
	db := testDB()
	one := types.Tuple{types.Int(1)}

	runCase(t, "scalar const times arg",
		agca.Mul(agca.V("a"), agca.C(3)),
		[]string{"a"}, []string{"a"}, types.Tuple{types.Int(7)}, db)

	runCase(t, "atom scan unbound",
		agca.R("R", "x", "y"),
		[]string{"x", "y"}, nil, nil, db)

	runCase(t, "atom filtered by arg",
		agca.R("R", "a", "y"),
		[]string{"a", "y"}, []string{"a"}, one, db)

	runCase(t, "repeated variable enforces equality",
		agca.R("D", "x", "x"),
		[]string{"x"}, nil, nil, db)

	runCase(t, "product with sideways binding",
		agca.Mul(agca.R("R", "x", "y"), agca.R("S", "y", "z")),
		[]string{"x", "z"}, nil, nil, db)

	runCase(t, "aggsum pipelines into keyed emission",
		agca.SumOver([]string{"x"}, agca.Mul(agca.R("R", "x", "y"), agca.V("y"))),
		[]string{"x"}, nil, nil, db)

	runCase(t, "sum of compatible terms",
		agca.Add(agca.R("R", "x", "y"), agca.R("S", "x", "y")),
		[]string{"x", "y"}, nil, nil, db)

	runCase(t, "negation",
		agca.Neg{E: agca.R("R", "x", "y")},
		[]string{"x", "y"}, nil, nil, db)

	runCase(t, "comparison filter",
		agca.Mul(agca.R("R", "x", "y"), agca.Gt(agca.V("y"), agca.C(15))),
		[]string{"x", "y"}, nil, nil, db)

	runCase(t, "lift binds fresh variable",
		agca.Mul(agca.R("R", "x", "y"), agca.LiftE("v", agca.Mul(agca.V("y"), agca.C(2)))),
		[]string{"x", "v"}, nil, nil, db)

	runCase(t, "lift on bound variable is equality test",
		agca.Mul(agca.R("R", "x", "y"), agca.LiftE("x", agca.C(1))),
		[]string{"x", "y"}, nil, nil, db)

	runCase(t, "exists maps multiplicities to one",
		agca.Exists{E: agca.R("R", "x", "y")},
		[]string{"x", "y"}, nil, nil, db)

	runCase(t, "scalar subquery in lift",
		agca.Mul(agca.R("R", "x", "y"),
			agca.LiftE("n", agca.SumOver(nil, agca.R("S", "y", "z")))),
		[]string{"x", "y", "n"}, nil, nil, db)

	runCase(t, "division",
		agca.Div{L: agca.C(10), R: agca.V("a")},
		[]string{"a"}, []string{"a"}, types.Tuple{types.Int(4)}, db)

	runCase(t, "interpreted function",
		agca.Mul(agca.R("R", "x", "y"),
			agca.Func{Name: "listmax", Args: []agca.Expr{agca.V("x"), agca.V("y")}}),
		[]string{"x", "y"}, nil, nil, db)

	runCase(t, "nullary aggregate of filtered join",
		agca.SumOver(nil,
			agca.Mul(agca.R("R", "a", "y"), agca.R("S", "y", "z"), agca.Gt(agca.V("z"), agca.C(150)))),
		[]string{"a"}, []string{"a"}, one, db)
}

// TestCompileErrors pins the shapes that fall back to the interpreter.
func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name       string
		rhs        agca.Expr
		targetKeys []string
		args       []string
		wantSubstr string
	}{
		{"unbound scalar variable", agca.V("nope"), nil, nil, "unbound variable"},
		{"target key unavailable", agca.C(1), []string{"k"}, nil, "target key"},
		{"union incompatible", agca.Sum{Terms: []agca.Expr{agca.R("R", "x", "y"), agca.C(1)}},
			[]string{"x", "y"}, nil, "different output variables"},
		{"group-by not produced", agca.AggSum{GroupBy: []string{"g"}, E: agca.C(1)},
			[]string{"g"}, nil, "group-by variable"},
		{"scalar subquery with unbound outputs",
			agca.LiftE("v", agca.R("R", "x", "y")), []string{"v"}, nil, "unbound output"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := exec.CompileStatement(tc.rhs, tc.targetKeys, tc.args)
			if err == nil {
				t.Fatal("expected a compile error")
			}
			var ce *exec.CompileError
			if !errorsAs(err, &ce) {
				t.Fatalf("error %v is not a *CompileError", err)
			}
			if !strings.Contains(err.Error(), tc.wantSubstr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSubstr)
			}
		})
	}
}

func errorsAs(err error, target **exec.CompileError) bool {
	ce, ok := err.(*exec.CompileError)
	if ok {
		*target = ce
	}
	return ok
}

// TestRunArityMismatch pins the runtime error surface: a wrong-arity event
// tuple errors out instead of panicking.
func TestRunArityMismatch(t *testing.T) {
	x, err := exec.CompileStatement(agca.V("a"), []string{"a"}, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Run(testDB(), types.Tuple{}, gmr.New(types.Schema{"a"})); err == nil {
		t.Fatal("expected an arity error")
	}
}

// TestTriggerRunsInterpretedSteps runs a trigger whose middle statement does
// not lower (its target key is neither an argument nor an output, which the
// interpreter tolerates only on an empty result): it runs as an interpreted
// step of the same program, between two compiled ones. With a non-empty
// result the same step fails, and Run names it while the statement before it
// stays applied and the one after it does not run.
func TestTriggerRunsInterpretedSteps(t *testing.T) {
	db := testDB()
	for _, tc := range []struct {
		name    string
		middle  agca.Expr
		wantErr bool
	}{
		{"empty result", agca.C(0), false},
		{"missing key column", agca.C(1), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first, last := gmr.New(types.Schema{"a", "y"}), gmr.New(types.Schema{"a"})
			x := exec.CompileTrigger([]exec.Stmt{
				{RHS: agca.R("R", "a", "y"), TargetKeys: []string{"a", "y"}, Target: mapTarget{first}},
				{RHS: tc.middle, TargetKeys: []string{"k"}, Target: mapTarget{gmr.New(types.Schema{"k"})}},
				{RHS: agca.V("a"), TargetKeys: []string{"a"}, Target: mapTarget{last}},
			}, []string{"a"})
			if !x.Compiled(0) || x.Compiled(1) || !x.Compiled(2) {
				t.Fatalf("compiled = %v %v %v, want true false true", x.Compiled(0), x.Compiled(1), x.Compiled(2))
			}
			at, err := x.Run(db, types.Tuple{types.Int(1)}, 0, 3)
			if tc.wantErr {
				if err == nil || at != 1 || !strings.Contains(err.Error(), "key column") {
					t.Fatalf("Run = %d, %v; want statement 1 to fail on its key column", at, err)
				}
				if first.Len() != 2 || last.Len() != 0 {
					t.Fatalf("statement 0 left %v, statement 2 left %v: want 0 applied and 2 not run", first, last)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := interpDelta(t, agca.R("R", "a", "y"), []string{"a", "y"}, []string{"a"}, types.Tuple{types.Int(1)}, db)
			if !gmr.Equal(want, first, 1e-9) || last.Get(types.Tuple{types.Int(1)}) != 1 {
				t.Fatalf("statement 0 left %v (want %v), statement 2 left %v", first, want, last)
			}
		})
	}
}
