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

// FuzzParse holds the frontend to its contract on arbitrary text: Parse, and
// on success Catalog and Queries, return a result or an error and never
// panic. Every translated query that sqlref also accepts (within maxFromWidth
// and maxNodes) is compiled in DBToaster mode, replayed on a short stream
// derived from the script's DDL, and held to sqlref after every event. The
// corpus starts from every workload query and example script; inputs that
// once failed live under testdata/fuzz/FuzzParse.
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
		for i, q := range queries {
			sel, nodes := script.Selects[i], 0
			agca.Walk(q.Expr, func(agca.Expr) { nodes++ })
			if fromWidth(reflect.ValueOf(sel)) > maxFromWidth || nodes > maxNodes {
				continue
			}
			if _, err := sqlref.Eval(script, sel, sqlref.DB{}); err != nil {
				continue
			}
			prog, err := compiler.Compile(compiler.Query{Name: q.Name, Expr: q.Expr}, cat, compiler.OptionsFor(compiler.ModeDBToaster))
			if err != nil {
				continue
			}
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
				t.Fatalf("%s: init: %v", q.Name, err)
			}
			for n, ev := range events {
				if err := eng.Apply(ev); err != nil {
					t.Fatalf("%s: event %d: %v", q.Name, n, err)
				}
				db.Add(ev.Relation, ev.Tuple, map[bool]float64{true: 1, false: -1}[ev.Insert])
				want, err := sqlref.Eval(script, sel, db)
				if err != nil {
					t.Fatalf("%s: sqlref: %v", q.Name, err)
				}
				got := sqlref.Bag{}
				eng.Result().Foreach(func(tu types.Tuple, m float64) { got.Add(tu, m) })
				for k := range got {
					if _, ok := want[k]; !ok {
						want[k] = 0
					}
				}
				for k, w := range want {
					if g := got[k]; math.Abs(g-w) > 1e-6*math.Max(1, math.Max(math.Abs(g), math.Abs(w))) {
						key, _ := types.DecodeKey([]byte(k))
						t.Fatalf("%s: after event %d, key %v: engine %v, sqlref %v", q.Name, n, key, g, w)
					}
				}
			}
		}
	})
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
