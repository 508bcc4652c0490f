package sql_test

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/sql"
	"dbtoaster/internal/sqlref"
	"dbtoaster/internal/trigger"
	"dbtoaster/internal/types"
)

// Limits that keep one fuzz exec in milliseconds: sqlref's nested loops visit
// up to refRows^width bindings per evaluation, after every event, and OR's
// inclusion-exclusion can hand the compiler thousands of AGCA nodes.
const (
	maxFromWidth = 4   // FROM items of a query and its subqueries together
	maxNodes     = 200 // AGCA nodes of the translated query
	refRows      = 3   // tuples per relation
)

// twoSelects is a seed whose two queries compile together into one program
// that shares the join of R and S.
const twoSelects = `CREATE STREAM R (A int, B int);
CREATE STREAM S (B int, C int);
SELECT R.A, SUM(S.C) FROM R, S WHERE R.B = S.B GROUP BY R.A;
SELECT SUM(S.C * R.A) FROM R, S WHERE R.B = S.B;`

// FuzzParse holds the frontend to its contract on arbitrary text: Parse, and
// on success Catalog and Queries, return a result or an error and never
// panic. Every translated query that sqlref also accepts (within maxFromWidth
// and maxNodes) is compiled in DBToaster mode, replayed on a short stream
// derived from the script's DDL, and held to sqlref after every event. When
// two or more of a script's queries get that far, they are also compiled
// together through CompileSet and each one's result is held to sqlref the
// same way. The corpus starts from every workload query and example script
// and a two-query script; inputs that once failed live under
// testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	for _, glob := range []string{"../workload/queries/*.sql", "../../examples/sql/*.sql"} {
		paths, err := filepath.Glob(glob)
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	f.Add(twoSelects)
	opts := compiler.OptionsFor(compiler.ModeDBToaster)
	f.Fuzz(func(t *testing.T, src string) {
		script, err := sql.Parse(src)
		if err != nil {
			return
		}
		cat, err := script.Catalog()
		if err != nil {
			return
		}
		queries, err := script.Queries("q")
		if err != nil {
			return
		}
		var held []sql.Query
		var set []compiler.Query
		for i, q := range queries {
			sel, nodes := script.Selects[i], 0
			agca.Walk(q.Expr, func(agca.Expr) { nodes++ })
			if fromWidth(reflect.ValueOf(sel)) > maxFromWidth || nodes > maxNodes {
				continue
			}
			if _, err := sqlref.Eval(script, sel, sqlref.DB{}); err != nil {
				continue
			}
			cq := compiler.Query{Name: q.Name, Expr: q.Expr}
			prog, err := compiler.Compile(cq, cat, opts)
			if err != nil {
				continue
			}
			replayAgainstSQLRef(t, script, prog, []sql.Query{q})
			held = append(held, q)
			set = append(set, cq)
		}
		if len(set) < 2 {
			return
		}
		prog, _, err := compiler.CompileSet(set, cat, opts)
		if err != nil {
			t.Fatalf("CompileSet of %d queries that each compile alone: %v", len(set), err)
		}
		replayAgainstSQLRef(t, script, prog, held)
	})
}

// replayAgainstSQLRef runs prog on a short stream derived from the script's
// DDL (refRows tuples per relation, static ones loaded up front, then the
// first stream tuple deleted again) and holds the result of every query in
// qs to sqlref after each event.
func replayAgainstSQLRef(t *testing.T, script *sql.Script, prog *trigger.Program, qs []sql.Query) {
	t.Helper()
	eng := engine.New(prog)
	db := sqlref.DB{}
	var events []engine.Event
	for r, rd := range script.Relations {
		var cols types.Schema
		for _, cd := range rd.Columns {
			cols = append(cols, cd.Name)
		}
		static := gmr.New(cols)
		for k := 0; k < refRows; k++ {
			tu := make(types.Tuple, len(rd.Columns))
			for c, cd := range rd.Columns {
				tu[c] = refValue(cd.Type, r+k+2*c)
			}
			if rd.Static {
				static.Add(tu, 1)
				db.Add(rd.Name, tu, 1)
			} else {
				events = append(events, engine.Event{Relation: rd.Name, Insert: true, Tuple: tu})
			}
		}
		if rd.Static {
			eng.LoadStatic(rd.Name, static)
		}
	}
	if len(events) > 0 {
		events = append(events, engine.Event{Relation: events[0].Relation, Tuple: events[0].Tuple})
	}
	if err := eng.Init(); err != nil {
		t.Fatalf("%s: init: %v", qs[0].Name, err)
	}
	for n, ev := range events {
		if err := eng.Apply(ev); err != nil {
			t.Fatalf("%s: event %d: %v", qs[0].Name, n, err)
		}
		db.Add(ev.Relation, ev.Tuple, map[bool]float64{true: 1, false: -1}[ev.Insert])
		for _, q := range qs {
			want, err := sqlref.Eval(script, q.Select, db)
			if err != nil {
				t.Fatalf("%s: sqlref: %v", q.Name, err)
			}
			res, err := eng.ResultFor(q.Name)
			if err != nil {
				t.Fatalf("%s: %v", q.Name, err)
			}
			got := sqlref.Bag{}
			res.Foreach(func(tu types.Tuple, m float64) { got.Add(tu, m) })
			for k := range got {
				if _, ok := want[k]; !ok {
					want[k] = 0
				}
			}
			for k, w := range want {
				if g := got[k]; math.Abs(g-w) > 1e-6*math.Max(1, math.Max(math.Abs(g), math.Abs(w))) {
					key, _ := types.DecodeKey([]byte(k))
					t.Fatalf("%s (of %d compiled together): after event %d, key %v: engine %v, sqlref %v", q.Name, len(qs), n, key, g, w)
				}
			}
		}
	}
}

// refValue is the n-th value of a small domain of the declared column type,
// so that joins, groups and comparisons collide.
func refValue(typ string, n int) types.Value {
	switch strings.ToLower(typ) {
	case "float", "double", "decimal":
		return types.Float(0.5 * float64(n%3))
	case "string", "varchar", "char", "text":
		return types.Str([]string{"a", "b", "ab"}[n%3])
	case "date":
		return types.Date(1995, 1+n%3, 15)
	}
	return types.Int(int64(n % 3))
}

// fromWidth counts the FROM items in v, a parsed SELECT, subqueries included.
func fromWidth(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			n = fromWidth(v.Elem())
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			n += fromWidth(v.Index(i))
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(sql.FromItem{}) {
			return 1
		}
		for i := 0; i < v.NumField(); i++ {
			n += fromWidth(v.Field(i))
		}
	}
	return n
}
