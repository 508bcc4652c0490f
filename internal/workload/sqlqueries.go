package workload

import (
	"embed"
	"fmt"

	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/sql"
)

// The workload queries are defined as SQL text under queries/ — each file is
// a self-contained script (the group's CREATE STREAM/TABLE declarations plus
// one SELECT) that also compiles stand-alone with `dbtoasterc -sql`. The
// registration path parses and translates them through the SQL frontend at
// init time, so the specs exercise exactly the pipeline an external query
// file goes through. Each query is written only here: the tests hold the
// compiled views to internal/sqlref, which evaluates the same SQL directly.

//go:embed queries/*.sql
var queryFS embed.FS

// SQLSource returns the embedded SQL text of the named workload query.
func SQLSource(name string) (string, bool) {
	b, err := queryFS.ReadFile("queries/" + name + ".sql")
	if err != nil {
		return "", false
	}
	return string(b), true
}

// specFromSQL builds the named query's spec from its embedded SQL source: the
// compiler query and the catalog declared by its DDL. Workload sources are
// fixed at build time, so failures are programming errors and panic (any test
// run surfaces them).
func specFromSQL(name, group string, statics func() map[string]*gmr.GMR, stream func(float64, int64) []engine.Event) Spec {
	src, ok := SQLSource(name)
	if !ok {
		panic(fmt.Sprintf("workload: no SQL source for query %q", name))
	}
	script, err := sql.Parse(src)
	if err != nil {
		panic(fmt.Sprintf("workload: parse %s.sql: %v", name, err))
	}
	cat, err := script.Catalog()
	if err != nil {
		panic(fmt.Sprintf("workload: catalog of %s.sql: %v", name, err))
	}
	queries, err := script.Queries(name)
	if err != nil {
		panic(fmt.Sprintf("workload: translate %s.sql: %v", name, err))
	}
	if len(queries) != 1 {
		panic(fmt.Sprintf("workload: %s.sql defines %d queries, want 1", name, len(queries)))
	}
	return Spec{Name: name, Group: group, Catalog: cat, Query: compiler.Query{Name: name, Expr: queries[0].Expr},
		SQL: src, Statics: statics, Stream: stream}
}
