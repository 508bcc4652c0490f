// Package sql is the SQL frontend of the query compiler: a lexer, a
// recursive-descent parser and a name-resolution/translation pass that turn
// the SQL subset of docs/sql.md — CREATE STREAM/TABLE declarations and
// SELECT queries with joins, WHERE predicates, GROUP BY, SUM/COUNT/AVG
// aggregates, EXISTS and nested scalar subqueries — into AGCA expressions
// (package agca) and relation catalogs (package catalog).
//
// The contract: for a script src,
//
//	script, err := sql.Parse(src)
//	cat, err := script.Catalog()
//	queries, err := script.Queries("myquery")
//
// yields, per SELECT statement, an AGCA expression ready for
// compiler.Compile under cat. Translation lifts scalar subqueries into
// assignments (agca.Lift), encodes predicates as 0/1 multiplicities, and
// runs unification (opt.UnifyMonomial) so equality joins become
// shared-variable relation atoms, the normal form the compiler expects. All
// errors carry 1-based line:column positions.
package sql

import (
	"fmt"

	"dbtoaster/internal/agca"
)

// Query is one translated SELECT statement.
type Query struct {
	Name   string
	Expr   agca.Expr
	Select *SelectStmt
}

// Queries translates every SELECT of the script against the script's own
// DDL. A single query is named baseName; multiple queries get a _N suffix in
// statement order.
func (s *Script) Queries(baseName string) ([]Query, error) {
	cat, err := s.Catalog()
	if err != nil {
		return nil, err
	}
	var out []Query
	for i, sel := range s.Selects {
		expr, err := Translate(sel, cat)
		if err != nil {
			return nil, err
		}
		name := baseName
		if len(s.Selects) > 1 {
			name = fmt.Sprintf("%s_%d", baseName, i+1)
		}
		out = append(out, Query{Name: name, Expr: expr, Select: sel})
	}
	return out, nil
}
