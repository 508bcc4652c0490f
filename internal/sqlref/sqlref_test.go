package sqlref_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/sql"
	"dbtoaster/internal/sqlref"
	"dbtoaster/internal/types"
)

const ddl = "CREATE STREAM R (A int, B int, N string, D date);\nCREATE STREAM S (A int, C int);\n"

// r and s build insert events; del turns an event into its deletion.
func r(a, b int64, n string, d types.Value) engine.Event {
	return engine.Event{Relation: "R", Insert: true, Tuple: types.Tuple{types.Int(a), types.Int(b), types.Str(n), d}}
}

func s(a, c int64) engine.Event {
	return engine.Event{Relation: "S", Insert: true, Tuple: types.Tuple{types.Int(a), types.Int(c)}}
}

func del(ev engine.Event) engine.Event {
	ev.Insert = false
	return ev
}

// group is one expected result row: its key values, then its value.
type group []interface{}

func bagOf(groups []group) sqlref.Bag {
	out := sqlref.Bag{}
	for _, g := range groups {
		var key types.Tuple
		for _, v := range g[:len(g)-1] {
			switch v := v.(type) {
			case int:
				key = append(key, types.Int(int64(v)))
			case string:
				key = append(key, types.Str(v))
			}
		}
		out.Add(key, g[len(g)-1].(float64))
	}
	return out
}

// diff describes how got differs from want, or returns "".
func diff(want, got sqlref.Bag) string {
	var keys []string
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a, b := want[k], got[k]; math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(a)) {
			t, _ := types.DecodeKey([]byte(k))
			return fmt.Sprintf("key %v: want %v, got %v", t, a, b)
		}
	}
	return ""
}

// TestSemantics pins docs/sql.md's semantics, one tiny script per caveat:
// sqlref must compute the stated result, and so must the engine compiled from
// the same SQL in every mode.
func TestSemantics(t *testing.T) {
	date := types.Date
	day := date(1995, 3, 15)
	nan := types.Float(math.NaN())
	rNaN := engine.Event{Relation: "R", Insert: true, Tuple: types.Tuple{nan, types.Int(1), types.Str("x"), day}}
	sAt := func(a types.Value) engine.Event {
		return engine.Event{Relation: "S", Insert: true, Tuple: types.Tuple{a, types.Int(1)}}
	}
	for _, c := range []struct {
		name, query string
		events      []engine.Event
		want        []group
	}{
		{"a group that cancels to 0 is absent", "SELECT r.A, SUM(r.B) FROM R r GROUP BY r.A",
			[]engine.Event{r(1, 5, "x", day), r(1, -5, "y", day), r(2, 3, "x", day)}, []group{{2, 3.0}}},
		{"a row of multiplicity 2 counts twice", "SELECT SUM(r.B) FROM R r",
			[]engine.Event{r(1, 5, "x", day), r(1, 5, "x", day)}, []group{{10.0}}},
		{"a deleted row no longer counts", "SELECT SUM(r.B) FROM R r",
			[]engine.Event{r(1, 5, "x", day), r(1, 7, "x", day), del(r(1, 5, "x", day))}, []group{{7.0}}},
		{"OR over overlapping disjuncts counts a row once", "SELECT COUNT(*) FROM R r WHERE r.A = 1 OR r.B = 5",
			[]engine.Event{r(1, 5, "x", day), r(2, 7, "x", day), r(3, 5, "x", day)}, []group{{2.0}}},
		{"NOT over a compound predicate", "SELECT COUNT(*) FROM R r WHERE NOT (r.A = 1 AND r.B = 5)",
			[]engine.Event{r(1, 5, "x", day), r(1, 7, "x", day), r(2, 5, "x", day)}, []group{{2.0}}},
		{"x / 0 is 0", "SELECT SUM(r.B / r.A) FROM R r",
			[]engine.Event{r(0, 4, "x", day), r(2, 4, "x", day)}, []group{{2.0}}},
		{"an empty scalar subquery is 0",
			"SELECT r.A, SUM(r.B + (SELECT SUM(s.C) FROM S s WHERE s.A = r.A)) FROM R r GROUP BY r.A",
			[]engine.Event{r(1, 1, "x", day), r(2, 1, "x", day), s(1, 10)}, []group{{1, 11.0}, {2, 1.0}}},
		{"correlated EXISTS counts an outer row once", "SELECT COUNT(*) FROM R r WHERE EXISTS (SELECT * FROM S s WHERE s.A = r.A)",
			[]engine.Event{r(1, 1, "x", day), r(2, 1, "x", day), s(1, 10), s(1, 20)}, []group{{1.0}}},
		{"COUNT(x) counts rows like COUNT(*)", "SELECT r.A, COUNT(r.B) FROM R r GROUP BY r.A",
			[]engine.Event{r(1, 1, "x", day), r(1, 2, "x", day), r(2, 0, "x", day)}, []group{{1, 2.0}, {2, 1.0}}},
		{"BETWEEN is inclusive", "SELECT SUM(r.B) FROM R r WHERE r.B BETWEEN 2 AND 4",
			[]engine.Event{r(1, 1, "x", day), r(1, 2, "x", day), r(1, 3, "x", day), r(1, 4, "x", day), r(1, 5, "x", day)},
			[]group{{9.0}}},
		{"NOT IN", "SELECT r.A, COUNT(*) FROM R r WHERE r.A NOT IN (1, 3) GROUP BY r.A",
			[]engine.Event{r(1, 1, "x", day), r(2, 1, "x", day), r(3, 1, "x", day), r(4, 1, "x", day)},
			[]group{{2, 1.0}, {4, 1.0}}},
		{"LIKE with % and _ (one character, not one byte)", "SELECT r.N, COUNT(*) FROM R r WHERE r.N LIKE 'a_c%' OR r.N LIKE '_z' GROUP BY r.N",
			[]engine.Event{r(1, 1, "abc", day), r(1, 1, "axcd", day), r(1, 1, "ac", day), r(1, 1, "bbc", day),
				r(1, 1, "zz", day), r(1, 1, "zzz", day), r(1, 1, "éz", day)},
			[]group{{"abc", 1.0}, {"axcd", 1.0}, {"zz", 1.0}, {"éz", 1.0}}},
		{"DATE orders as yyyymmdd", "SELECT COUNT(*) FROM R r WHERE r.D < DATE('1995-03-15') AND r.D >= DATE('1994-12-31')",
			[]engine.Event{r(1, 1, "x", date(1995, 3, 14)), r(1, 1, "x", day), r(1, 1, "x", date(1994, 12, 31)), r(1, 1, "x", date(1994, 12, 30))},
			[]group{{2.0}}},
		// NaN's key is its own, so r.A = s.A must match only the NaN row,
		// whether it stays a filter or unifies into a join.
		{"NaN equals only NaN, as a filter and as a join", "SELECT COUNT(*) FROM R r, S s WHERE r.A = s.A",
			[]engine.Event{rNaN, sAt(types.Int(1)), sAt(types.Float(2.5)), sAt(nan)}, []group{{1.0}}},
		{"a SELECT without aggregate is a bag of rows", "SELECT r.A FROM R r",
			[]engine.Event{r(1, 1, "x", day), r(1, 2, "x", day), r(2, 0, "x", day)}, []group{{1, 2.0}, {2, 1.0}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			script, err := sql.Parse(ddl + c.query + ";")
			if err != nil {
				t.Fatal(err)
			}
			db := sqlref.DB{}
			for _, ev := range c.events {
				db.Add(ev.Relation, ev.Tuple, map[bool]float64{true: 1, false: -1}[ev.Insert])
			}
			got, err := sqlref.Eval(script, script.Selects[0], db)
			if err != nil {
				t.Fatal(err)
			}
			want := bagOf(c.want)
			if d := diff(want, got); d != "" {
				t.Fatalf("sqlref: %s", d)
			}
			for _, mode := range []compiler.Mode{compiler.ModeDBToaster, compiler.ModeIVM, compiler.ModeREP, compiler.ModeNaive} {
				if d := diff(want, runEngine(t, script, mode, c.events)); d != "" {
					t.Errorf("%s engine: %s", mode, d)
				}
			}
		})
	}
}

// runEngine translates and compiles the script's one query and replays events.
func runEngine(t *testing.T, script *sql.Script, mode compiler.Mode, events []engine.Event) sqlref.Bag {
	t.Helper()
	cat, err := script.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	qs, err := script.Queries("Q")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(compiler.Query{Name: "Q", Expr: qs[0].Expr}, cat, compiler.OptionsFor(mode))
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(prog)
	if err := eng.Init(); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := eng.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	out := sqlref.Bag{}
	eng.Result().Foreach(func(tu types.Tuple, m float64) { out.Add(tu, m) })
	return out
}

// TestUnsupportedIsPositioned holds the reference to failing loudly, with the
// construct's position, on what it does not evaluate — here a function the
// translator accepts.
func TestUnsupportedIsPositioned(t *testing.T) {
	script, err := sql.Parse(ddl + "SELECT r.A,\n       SUM(abs(r.B)) FROM R r GROUP BY r.A;")
	if err != nil {
		t.Fatal(err)
	}
	_, err = sqlref.Eval(script, script.Selects[0], sqlref.DB{})
	if err == nil || !strings.HasPrefix(err.Error(), "4:12: ") || !strings.Contains(err.Error(), "unsupported by the reference") {
		t.Fatalf("got %v, want a 4:12 unsupported-by-the-reference error", err)
	}
}

// TestReferenceStaysIndependent keeps sqlref a reference: its non-test files
// import only the standard library, internal/sql (the AST) and internal/types,
// and never call the translator's entry points.
func TestReferenceStaysIndependent(t *testing.T) {
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			std := !strings.Contains(strings.Split(p, "/")[0], ".") && !strings.HasPrefix(p, "dbtoaster/")
			if !std && p != "dbtoaster/internal/sql" && p != "dbtoaster/internal/types" {
				t.Errorf("%s imports %s", fset.Position(imp.Pos()), p)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Translate", "Catalog", "Queries":
					t.Errorf("%s uses %s", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
}
