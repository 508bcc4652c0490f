package engine_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/exec"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/sql"
	"dbtoaster/internal/trigger"
	"dbtoaster/internal/types"
	"dbtoaster/internal/wal"
)

// reevalProgram is a hand-built program whose every R event re-evaluates V
// from the base-table map RB, so V is cleared and refilled per event; the
// static table T sits beside it.
func reevalProgram() *trigger.Program {
	reeval := trigger.Statement{TargetMap: "V", TargetKeys: []string{"a", "b"}, Kind: trigger.StmtReplace,
		RHS: agca.MapRef{Name: "RB", Keys: []string{"a", "b"}}}
	trig := func(insert bool, mult int64) trigger.Trigger {
		return trigger.Trigger{Relation: "R", Insert: insert, Args: []string{"A_t", "B_t"}, Stmts: []trigger.Statement{
			{TargetMap: "RB", TargetKeys: []string{"A_t", "B_t"}, RHS: agca.C(mult), Depth: 1},
			reeval,
		}}
	}
	return &trigger.Program{
		Queries: []trigger.QueryDef{{Name: "V", ResultMap: "V", ResultKeys: []string{"a", "b"}}},
		Maps: []trigger.MapDef{
			{Name: "V", Keys: []string{"a", "b"}, Definition: agca.R("R", "a", "b")},
			{Name: "RB", Keys: []string{"a", "b"}, Definition: agca.R("R", "a", "b"), Depth: 1, IsBaseTable: true, BaseRel: "R"},
		},
		Triggers:  []trigger.Trigger{trig(true, 1), trig(false, -1)},
		Relations: map[string][]string{"R": {"A", "B"}},
	}
}

func staticT(cs ...int64) *gmr.GMR {
	g := gmr.New(types.Schema{"A", "C"})
	for a := int64(1); a <= 3; a++ {
		for _, c := range cs {
			g.Add(types.Tuple{types.Int(a), types.Int(c * a)}, 1)
		}
	}
	return g
}

func newReevalEngine(t *testing.T) *engine.Engine {
	t.Helper()
	eng := engine.New(reevalProgram())
	eng.LoadStatic("T", staticT(10, 20))
	if err := eng.Init(); err != nil {
		t.Fatal(err)
	}
	return eng
}

func rEvents(insert bool, from, to int) []engine.Event {
	var out []engine.Event
	for i := from; i < to; i++ {
		out = append(out, engine.Event{Relation: "R", Insert: insert, Tuple: types.Tuple{types.Int(int64(1 + i%3)), types.Int(int64(i))}})
	}
	return out
}

func applyAll(t *testing.T, eng *engine.Engine, events []engine.Event) {
	t.Helper()
	for _, ev := range events {
		if err := eng.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBoundHandlesFollowInvalidation runs one compiled statement whose two
// atoms probe partial keys — V[a,b] and the static T(a,c) on a — through the
// pooled Run, and holds every result to agca.Eval over the same database
// after each way a bound handle can go stale: V cleared and refilled by its
// re-evaluation, a checkpoint's stores installed by Recover, T replaced by
// LoadStatic, and the executor alternating between the engine and snapshots.
func TestBoundHandlesFollowInvalidation(t *testing.T) {
	rhs := agca.Mul(agca.MapRef{Name: "V", Keys: []string{"a", "b"}}, agca.R("T", "a", "c"))
	x, err := exec.CompileStatement(rhs, []string{"b", "c"}, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, db agca.Database) {
		t.Helper()
		for a := int64(1); a <= 3; a++ {
			got := gmr.New(types.Schema{"b", "c"})
			if err := x.Run(db, types.Tuple{types.Int(a)}, got); err != nil {
				t.Fatalf("%s, a=%d: %v", label, a, err)
			}
			want := agca.Eval(rhs, db, types.Env{"a": types.Int(a)})
			if !want.IsEmpty() {
				want = gmr.Project(want, got.Schema()) // drop the bound a
			}
			if !equalIgnoringSchema(want, got) {
				t.Fatalf("%s, a=%d: compiled probe left agca.Eval\nagca.Eval: %v\ncompiled:  %v", label, a, want, got)
			}
		}
	}

	eng := newReevalEngine(t)
	applyAll(t, eng, rEvents(true, 0, 9))
	check("bound", eng)
	applyAll(t, eng, rEvents(true, 9, 15))
	check("after re-evaluations refilled V", eng)
	applyAll(t, eng, rEvents(false, 2, 7))
	check("after re-evaluations drained V", eng)

	eng.LoadStatic("T", staticT(30))
	check("after LoadStatic replaced T", eng)

	ffs := wal.NewFaultFS()
	src := newReevalEngine(t)
	if err := src.SetDurability(engine.DurabilityOptions{Dir: recoveryWalDir, FS: ffs, SynchronousCheckpoints: true}); err != nil {
		t.Fatal(err)
	}
	applyAll(t, src, rEvents(true, 0, 12))
	if err := src.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := src.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	rec := newReevalEngine(t)
	check("fresh", rec)
	stats, err := rec.Recover(engine.DurabilityOptions{Dir: recoveryWalDir, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.HadCheckpoint || stats.ReplayedEvents != 0 {
		t.Fatalf("recovery replayed %d events (checkpoint: %v); want the checkpoint's stores alone", stats.ReplayedEvents, stats.HadCheckpoint)
	}
	check("after Recover installed the checkpoint", rec)

	for round := 0; round < 4; round++ {
		snap := eng.Acquire()
		applyAll(t, eng, rEvents(round%2 == 0, 20+round, 24+round))
		check(fmt.Sprintf("round %d, snapshot", round), snap)
		check(fmt.Sprintf("round %d, engine", round), eng)
		check(fmt.Sprintf("round %d, snapshot again", round), snap)
	}

	// Readers bind their own handles on a pinned snapshot while the writer
	// replaces the static table they probe and keeps re-evaluating V.
	snap := eng.Acquire()
	want := gmr.New(types.Schema{"b", "c"})
	if err := x.Run(snap, types.Tuple{types.Int(1)}, want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got := gmr.New(types.Schema{"b", "c"})
				if err := x.Run(snap, types.Tuple{types.Int(1)}, got); err != nil || !gmr.Equal(want, got, 0) {
					t.Errorf("concurrent snapshot reader: %v\nwant %v\ngot  %v", err, want, got)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		eng.LoadStatic("T", staticT(int64(40+i)))
		applyAll(t, eng, rEvents(true, 30+i, 31+i))
	}
	wg.Wait()
	check("after concurrent readers", eng)
}

// TestProbeBeyondColumn63 compiles a query whose map is probed on a column
// past position 63 (M1[C0..C65, S_K_t] probed on S_K_t) and replays it
// compiled and interpreted against agca.Eval: an index is identified by its
// column list, so no column position is out of range.
func TestProbeBeyondColumn63(t *testing.T) {
	cols := make([]string, 70)
	for i := range cols {
		cols[i] = fmt.Sprintf("C%d int", i)
	}
	group := make([]string, 66)
	for i := range group {
		group[i] = fmt.Sprintf("w.C%d", i)
	}
	src := fmt.Sprintf("CREATE STREAM W (%s);\nCREATE STREAM S (K int, V int);\n"+
		"SELECT %s, SUM(s.V) FROM W w, S s WHERE w.C66 = s.K GROUP BY %s;",
		strings.Join(cols, ", "), strings.Join(group, ", "), strings.Join(group, ", "))
	script, err := sql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := script.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	qs, err := script.Queries("WIDE")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(compiler.Query{Name: "WIDE", Expr: qs[0].Expr}, cat, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var events []engine.Event
	for i := 0; i < 12; i++ {
		w := make(types.Tuple, 70)
		for c := range w {
			w[c] = types.Int(int64(i*c) % 5)
		}
		w[66] = types.Int(int64(i % 3))
		events = append(events,
			engine.Event{Relation: "W", Insert: true, Tuple: w},
			engine.Event{Relation: "S", Insert: i%4 != 3, Tuple: types.Tuple{types.Int(int64(i % 3)), types.Int(int64(1 + i))}})
	}
	for _, mode := range []engine.ExecMode{engine.ExecCompiled, engine.ExecInterp} {
		eng := engine.New(prog)
		eng.SetExecMode(mode)
		if err := eng.Init(); err != nil {
			t.Fatal(err)
		}
		base := agca.MapDB{}
		for _, r := range cat.Relations() {
			base[r.Name] = gmr.New(types.Schema(r.Columns))
		}
		for i, ev := range events {
			if err := eng.Apply(ev); err != nil {
				t.Fatalf("mode %d, event %d: %v", mode, i, err)
			}
			mult := 1.0
			if !ev.Insert {
				mult = -1
			}
			base[ev.Relation].Add(ev.Tuple, mult)
			if want, got := agca.Eval(qs[0].Expr, base, types.Env{}), eng.Result(); !equalIgnoringSchema(want, got) {
				t.Fatalf("mode %d, after event %d: engine left agca.Eval\nagca.Eval: %v\nengine:    %v", mode, i, want, got)
			}
		}
		if st := eng.ExecStats(); mode == engine.ExecCompiled && st.InterpStmts != 0 {
			t.Errorf("%d statements fell back to the interpreter", st.InterpStmts)
		}
	}
}

// TestStaticOwnership loads one static GMR into two engines, each driven by
// its own goroutine that probes the static on a partial key (compiled and
// interpreted), while snapshot readers probe the same static on partial keys.
// Each engine owns a copy of the static, so the engines' index builds race
// with nothing, and the caller's GMR comes back byte-identical.
func TestStaticOwnership(t *testing.T) {
	rhs := agca.Mul(agca.MapRef{Name: "V", Keys: []string{"a", "b"}}, agca.R("T", "a", "c"))
	x, err := exec.CompileStatement(rhs, []string{"b", "c"}, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	static := staticT(10, 20)
	before := static.AppendFlat(nil)
	var engines []*engine.Engine
	var snaps []*engine.Snapshot
	for i := 0; i < 2; i++ {
		eng := engine.New(reevalProgram())
		eng.LoadStatic("T", static)
		if err := eng.Init(); err != nil {
			t.Fatal(err)
		}
		if eng.Relation("T") == static {
			t.Fatal("LoadStatic adopted the caller's GMR")
		}
		engines = append(engines, eng)
		snaps = append(snaps, eng.Acquire())
	}
	probeT := func(db agca.Prober, a int64) error {
		got := db.Probe("T", []int{0}, []types.Value{types.Int(a)})
		if len(got) != 2 {
			return fmt.Errorf("T probed on a=%d: %v, want 2 entries", a, got)
		}
		for _, e := range got {
			if e.Tuple[0].AsInt() != a || e.Mult != 1 {
				return fmt.Errorf("T probed on a=%d returned %v", a, e)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	for i, eng := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				ev := engine.Event{Relation: "R", Insert: true, Tuple: types.Tuple{types.Int(int64(1 + j%3)), types.Int(int64(i*100 + j))}}
				if err := eng.Apply(ev); err != nil {
					t.Error(err)
					return
				}
				a := int64(1 + j%3)
				if err := probeT(eng, a); err != nil {
					t.Errorf("engine %d: %v", i, err)
					return
				}
				got := gmr.New(types.Schema{"b", "c"})
				if err := x.Run(eng, types.Tuple{types.Int(a)}, got); err != nil || got.IsEmpty() {
					t.Errorf("engine %d, a=%d: compiled probe of T: %v, %v", i, a, err, got)
					return
				}
			}
		}()
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 60; j++ {
					if err := probeT(snaps[i], int64(1+j%3)); err != nil {
						t.Errorf("snapshot reader of engine %d: %v", i, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	if after := static.AppendFlat(nil); !bytes.Equal(after, before) {
		t.Fatal("loading and probing the static changed the caller's GMR")
	}
}

// TestInitRejectsMissingKeyColumn builds a static-only map whose definition
// does not produce one of its key columns: Init must name the map and the
// column instead of filling the key by position.
func TestInitRejectsMissingKeyColumn(t *testing.T) {
	prog := &trigger.Program{
		Queries: []trigger.QueryDef{{Name: "S", ResultMap: "S", ResultKeys: []string{"a", "c"}}},
		Maps:    []trigger.MapDef{{Name: "S", Keys: []string{"a", "c"}, Definition: agca.R("T", "a", "b")}},
	}
	eng := engine.New(prog)
	eng.LoadStatic("T", staticT(10))
	err := eng.Init()
	if err == nil || !strings.Contains(err.Error(), "init of S") || !strings.Contains(err.Error(), `"c"`) {
		t.Fatalf("Init = %v, want an error naming map S and column \"c\"", err)
	}
}

// TestSharedProgram drives two engines built from one trigger.Program on two
// goroutines. A program is read-only to the engines that run it (each
// compiles its statements into its own plans), so this passes -race; the
// engines, fed the same events, end with byte-identical views.
func TestSharedProgram(t *testing.T) {
	prog := reevalProgram()
	engines := []*engine.Engine{engine.New(prog), engine.New(prog)}
	var wg sync.WaitGroup
	for _, eng := range engines {
		eng.LoadStatic("T", staticT(10))
		if err := eng.Init(); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 40; j++ {
				ev := engine.Event{Relation: "R", Insert: j%4 != 3, Tuple: types.Tuple{types.Int(int64(j % 3)), types.Int(int64(j % 5))}}
				if err := eng.Apply(ev); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	a, b := engines[0].View("V").Data().AppendFlat(nil), engines[1].View("V").Data().AppendFlat(nil)
	if !bytes.Equal(a, b) {
		t.Errorf("engines on one program diverged: %v vs %v", engines[0].View("V").Data(), engines[1].View("V").Data())
	}
}

// TestFailingStatementInsideExists raises an agca.EvalError in the second
// statement of a trigger, inside an Exists: the static S it probes is loaded
// with the wrong arity, and the Exists' other term has already put T's row
// into the materialization scratch table when S's probe fails. The error
// names that statement, the first statement stays applied, and once S is
// replaced through LoadStatic the next events leave every view byte-equal to
// a fresh engine fed the same events — which a scratch table left dirty by
// the failure would break: its stale row makes the next event's Exists
// non-empty.
func TestFailingStatementInsideExists(t *testing.T) {
	exists := agca.Exists{E: agca.Sum{Terms: []agca.Expr{agca.R("T", "a", "b"), agca.R("S", "a", "b")}}}
	prog := &trigger.Program{
		Queries: []trigger.QueryDef{{Name: "M2", ResultMap: "M2"}},
		Maps: []trigger.MapDef{
			{Name: "M1", Definition: agca.SumOver(nil, agca.R("R", "a"))},
			{Name: "M2", Definition: agca.SumOver(nil, agca.Mul(agca.R("R", "a"), exists))},
		},
		Triggers: []trigger.Trigger{{Relation: "R", Insert: true, Args: []string{"a"}, Stmts: []trigger.Statement{
			{TargetMap: "M1", RHS: agca.C(1)},
			{TargetMap: "M2", RHS: agca.SumOver(nil, exists)},
		}}},
		Relations: map[string][]string{"R": {"A"}},
	}
	static := func(schema types.Schema, rows ...types.Tuple) *gmr.GMR {
		g := gmr.New(schema)
		for _, r := range rows {
			g.Add(r[:len(r)-1], r[len(r)-1].AsFloat())
		}
		return g
	}
	i := func(v int64) types.Value { return types.Int(v) }
	// T's (1,5) cancels the fixed S's, so an event on a=1 finds nothing;
	// a=2 and a=3 find one b each.
	tTable := static(types.Schema{"A", "B"}, types.Tuple{i(1), i(5), i(1)}, types.Tuple{i(2), i(7), i(1)}, types.Tuple{i(3), i(5), i(1)})
	goodS := static(types.Schema{"A", "B"}, types.Tuple{i(1), i(5), i(-1)})
	badS := static(types.Schema{"A", "B", "C"}, types.Tuple{i(1), i(5), i(0), i(1)})
	newEngine := func(s *gmr.GMR) *engine.Engine {
		eng := engine.New(prog)
		eng.LoadStatic("T", tTable)
		eng.LoadStatic("S", s)
		if err := eng.Init(); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	events := rEventsOf(1, 2, 1, 3, 2)

	eng := newEngine(badS)
	err := eng.Apply(events[0])
	if err == nil {
		t.Fatal("probing S with the wrong arity did not fail")
	}
	if !strings.Contains(err.Error(), prog.Triggers[0].Stmts[1].String()) || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("error %q does not name the failing statement and the arity mismatch", err)
	}
	if got := eng.View("M1").Data().ScalarValue(); got != 1 {
		t.Fatalf("M1 = %v after the failed event, want the first statement applied (1)", got)
	}
	if got := eng.View("M2").Data().Len(); got != 0 {
		t.Fatalf("M2 has %d entries after its statement failed", got)
	}

	eng.LoadStatic("S", goodS)
	applyAll(t, eng, events[1:])
	fresh := newEngine(goodS)
	applyAll(t, fresh, events)
	for _, name := range []string{"M1", "M2"} {
		if g, w := eng.View(name).Data().AppendFlat(nil), fresh.View(name).Data().AppendFlat(nil); !bytes.Equal(g, w) {
			t.Errorf("%s after the fix: %v, fresh engine %v", name, eng.View(name).Data(), fresh.View(name).Data())
		}
	}
	if got := fresh.View("M2").Data().ScalarValue(); got != 3 {
		t.Errorf("fresh M2 = %v, want 3 (events on a=2, a=3, a=2)", got)
	}
}

// rEventsOf returns one insert into R(a) per value.
func rEventsOf(as ...int64) []engine.Event {
	out := make([]engine.Event, len(as))
	for i, a := range as {
		out[i] = engine.Event{Relation: "R", Insert: true, Tuple: types.Tuple{types.Int(a)}}
	}
	return out
}

// TestStatementWithoutTargetMap pins the error of a hand-built program whose
// statement targets a map the program does not declare: Apply fails naming
// the statement, after the statements before it ran.
func TestStatementWithoutTargetMap(t *testing.T) {
	prog := &trigger.Program{
		Queries: []trigger.QueryDef{{Name: "M1", ResultMap: "M1"}},
		Maps:    []trigger.MapDef{{Name: "M1", Definition: agca.SumOver(nil, agca.R("R", "a"))}},
		Triggers: []trigger.Trigger{{Relation: "R", Insert: true, Args: []string{"a"}, Stmts: []trigger.Statement{
			{TargetMap: "M1", RHS: agca.C(1)},
			{TargetMap: "NOPE", RHS: agca.C(1)},
		}}},
		Relations: map[string][]string{"R": {"A"}},
	}
	eng := engine.New(prog)
	err := eng.Apply(rEventsOf(1)[0])
	if err == nil || !strings.Contains(err.Error(), prog.Triggers[0].Stmts[1].String()) || !strings.Contains(err.Error(), "no target map") {
		t.Fatalf("Apply = %v, want an error naming the statement without a target map", err)
	}
	if got := eng.View("M1").Data().ScalarValue(); got != 1 {
		t.Fatalf("M1 = %v, want the first statement applied", got)
	}
}
