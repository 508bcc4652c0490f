package exec_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/exec"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

// rangeTail is VWAP's re-evaluation shape: for every row of BOOK, the total
// of LEVELS on one side of the row's price. The nested aggregate lowers to
// the sorted range-sum; the interpreter scans.
func rangeTail(op agca.CmpOp, keyLeft bool) agca.Expr {
	l, r := agca.V("p2"), agca.V("p")
	if !keyLeft {
		op, l, r = op.Swap(), r, l
	}
	return agca.SumOver([]string{"p"}, agca.Mul(
		agca.MapRef{Name: "BOOK", Keys: []string{"p"}},
		agca.Lift{Var: "side", E: agca.SumOver(nil, agca.Mul(
			agca.MapRef{Name: "LEVELS", Keys: []string{"p2", "tag"}},
			agca.Cmp{Op: op, L: l, R: r}))},
		agca.V("side")))
}

// TestRangeSumMatchesScan holds the sorted range-sum equal to the
// interpreter's scan for every operator, written either way round, over books
// with duplicate prices, ties on the threshold, mixed Int/Float keys, an empty
// book, and keys that do not order like numbers (where the site must scan).
func TestRangeSumMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	price := func(mixed bool) types.Value {
		p := int64(rng.Intn(6))
		if mixed && rng.Intn(2) == 0 {
			return types.Float(float64(p) + 0.5*float64(rng.Intn(2)))
		}
		return types.Int(p)
	}
	books := map[string]func() types.Value{
		"int keys":   func() types.Value { return price(false) },
		"mixed keys": func() types.Value { return price(true) },
		"string key": func() types.Value {
			if rng.Intn(4) == 0 {
				return types.Str(fmt.Sprint(rng.Intn(6)))
			}
			return price(true)
		},
		"nan key": func() types.Value {
			if rng.Intn(4) == 0 {
				return types.Float(math.NaN())
			}
			return price(true)
		},
		"huge int key": func() types.Value {
			if rng.Intn(4) == 0 {
				return types.Int(1<<53 + int64(rng.Intn(3)))
			}
			return price(false)
		},
	}
	ops := []agca.CmpOp{agca.OpLt, agca.OpLe, agca.OpGt, agca.OpGe}
	for name, gen := range books {
		for _, size := range []int{0, 1, 12} {
			book := gmr.New(types.Schema{"P"})
			levels := gmr.New(types.Schema{"P", "TAG"})
			for i := 0; i < size; i++ {
				book.Add(types.Tuple{gen()}, 1)
				levels.Add(types.Tuple{gen(), types.Int(int64(rng.Intn(2)))}, float64(1+rng.Intn(4)))
			}
			db := agca.MapDB{"BOOK": book, "LEVELS": levels}
			for _, op := range ops {
				for _, keyLeft := range []bool{true, false} {
					runCase(t, fmt.Sprintf("%s/%d/%s/keyLeft=%v", name, size, op, keyLeft),
						rangeTail(op, keyLeft), []string{"p"}, nil, nil, db)
				}
			}
		}
	}
}

// mapTarget is an exec.Target over a bare store.
type mapTarget struct{ *gmr.GMR }

func (t mapTarget) Keys() []string { return t.Schema() }

func (t mapTarget) Merge(delta *gmr.GMR, replace bool) {
	if replace {
		t.Clear()
	}
	t.MergeInto(delta, 1)
}

// TestRangeSumSnapshotIsPerRun checks that the sorted snapshot does not
// outlive the statement that built it: a trigger whose first statement adds
// a level and whose second re-evaluates the range tail over the levels, run
// event after event on its one machine, sees every level added so far,
// including the one added earlier in the same run.
func TestRangeSumSnapshotIsPerRun(t *testing.T) {
	book := gmr.New(types.Schema{"P"})
	levels := gmr.New(types.Schema{"P", "TAG"})
	out := gmr.New(types.Schema{"p"})
	db := agca.MapDB{"BOOK": book, "LEVELS": levels}
	rhs := rangeTail(agca.OpGt, true)
	x := exec.CompileTrigger([]exec.Stmt{
		{RHS: agca.V("lm"), TargetKeys: []string{"lp", "ltag"}, Target: mapTarget{levels}},
		{RHS: rhs, TargetKeys: []string{"p"}, Target: mapTarget{out}, Replace: true},
	}, []string{"lp", "ltag", "lm"})
	if !x.Compiled(0) || !x.Compiled(1) {
		t.Fatal("the trigger's statements do not lower")
	}
	for step := int64(1); step <= 4; step++ {
		book.Add(types.Tuple{types.Int(step)}, 1)
		ev := types.Tuple{types.Int(step + 1), types.Int(0), types.Int(step)}
		if _, err := x.Run(db, ev, 0, 2); err != nil {
			t.Fatal(err)
		}
		if want := interpDelta(t, rhs, []string{"p"}, nil, nil, db); !gmr.Equal(want, out, 1e-9) {
			t.Fatalf("step %d: stale snapshot\ninterp:   %v\ncompiled: %v", step, want, out)
		}
	}
}
