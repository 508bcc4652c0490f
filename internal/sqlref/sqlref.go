// Package sqlref evaluates docs/sql.md's dialect directly over bags of base
// tuples, as the reference the compiled views are held to: nested loops over
// FROM (each WHERE conjunct tested once the items it names are bound), GROUP
// BY with SUM/COUNT, and correlated scalar and EXISTS subqueries re-run per
// outer row. It reads only the sql AST and types and never translates to
// AGCA, so it shares no mistake with the translator. As docs/sql.md says, an
// empty SUM is 0, a zero group is absent, x / 0 = 0 and DATE is yyyymmdd.
// A construct it does not cover is a positioned error.
package sqlref

import (
	"fmt"
	"math"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"

	"dbtoaster/internal/sql"
	"dbtoaster/internal/types"
)

// Bag maps canonical tuple keys (types.Tuple.EncodeKey) to multiplicities;
// in a query result, to the group's value.
type Bag map[string]float64

// Add adds m to t's multiplicity, dropping the tuple at 0.
func (b Bag) Add(t types.Tuple, m float64) {
	if k := t.EncodeKey(); b[k]+m == 0 {
		delete(b, k)
	} else {
		b[k] += m
	}
}

// DB maps relation names to their contents.
type DB map[string]Bag

// Add adds m to the multiplicity of t in relation rel.
func (db DB) Add(rel string, t types.Tuple, m float64) {
	if db[rel] == nil {
		db[rel] = Bag{}
	}
	db[rel].Add(t, m)
}

// Eval evaluates sel, a SELECT of script, over db. The result maps each group
// (its GROUP BY columns in order, or the selected columns of a SELECT with
// neither GROUP BY nor aggregate) to its value.
func Eval(script *sql.Script, sel *sql.SelectStmt, db DB) (Bag, error) {
	q, err := (&compiler{script: script, db: db}).query(sel, nil, false)
	if err != nil {
		return nil, err
	}
	out := Bag{}
	q.loop(0, 1, func(v float64) {
		key := make(types.Tuple, len(q.keys))
		for i, k := range q.keys {
			key[i] = k()
		}
		out.Add(key, v)
	})
	return out, nil
}

// scalar is a compiled expression; a predicate yields a types.Bool.
type scalar func() types.Value

// query is a compiled SELECT: its FROM item i binds env[base+i]. While it is
// compiled it is also the scope its names resolve in, and used is the highest
// item referenced since it was last reset.
type query struct {
	up         *query
	env        *[]types.Tuple
	base, used int
	alias      []string
	cols       [][]sql.ColDef
	rels       [][]types.Tuple // per FROM item, with mults
	mults      [][]float64
	conds      [][]scalar // conds[i] is tested once items 0..i-1 are bound
	keys       []scalar
	sum        scalar // the SUM argument; 1 counts rows
}

// loop binds FROM items i.. and calls emit for each binding that passes every
// conjunct, with what it adds to its group: the product m of the bound rows'
// multiplicities, times the SUM argument.
func (q *query) loop(i int, m float64, emit func(float64)) {
	for _, p := range q.conds[i] {
		if !p().AsBool() {
			return
		}
	}
	if i < len(q.rels) {
		for j, t := range q.rels[i] {
			(*q.env)[q.base+i] = t
			q.loop(i+1, m*q.mults[i][j], emit)
		}
	} else {
		emit(m * q.sum().AsFloat())
	}
}

// scalar is the query's one aggregate under the current outer binding.
func (q *query) scalar() (v float64) {
	q.loop(0, 1, func(x float64) { v += x })
	return v
}

type compiler struct {
	script *sql.Script
	db     DB
	env    []types.Tuple // the bound row of every FROM item of the query
}

func errorf(p sql.Pos, format string, args ...interface{}) error {
	return fmt.Errorf("%d:%d: %s", p.Line, p.Col, fmt.Sprintf(format, args...))
}

const unsupported = "%s is unsupported by the reference"

// query compiles sel: a top-level query when outer is nil, else a scalar
// subquery, or an EXISTS body, which counts rows and ignores its select list.
func (c *compiler) query(sel *sql.SelectStmt, outer *query, exists bool) (*query, error) {
	q := &query{up: outer, env: &c.env, base: len(c.env), conds: make([][]scalar, len(sel.From)+1),
		sum: func() types.Value { return types.Int(1) }}
	for _, fi := range sel.From {
		rd := slices.IndexFunc(c.script.Relations, func(rd sql.RelDef) bool { return rd.Name == fi.Rel })
		if rd < 0 {
			return nil, errorf(fi.Pos, "unknown relation %q", fi.Rel)
		}
		var rows []types.Tuple
		var mults []float64
		for k, m := range c.db[fi.Rel] {
			t, _ := types.DecodeKey([]byte(k))
			rows, mults = append(rows, t), append(mults, m)
		}
		q.alias, q.cols = append(q.alias, fi.Alias), append(q.cols, c.script.Relations[rd].Columns)
		q.rels, q.mults = append(q.rels, rows), append(q.mults, mults)
		c.env = append(c.env, nil)
	}
	for _, e := range conjuncts(sel.Where, nil) {
		q.used = -1
		p, err := c.cond(e, q)
		if err != nil {
			return nil, err
		}
		q.conds[q.used+1] = append(q.conds[q.used+1], p)
	}
	if exists {
		return q, nil
	}
	aggs, keys, err := 0, sel.GroupBy, error(nil)
	var plain []sql.ColRef
	for _, it := range sel.Items {
		if cr, ok := it.Expr.(sql.ColRef); ok {
			plain = append(plain, cr)
			continue
		}
		fc, _ := it.Expr.(sql.FuncCall)
		agg := strings.ToUpper(fc.Name)
		if aggs++; aggs > 1 || agg != "COUNT" && (agg != "SUM" || fc.Star || len(fc.Args) != 1) {
			return nil, errorf(sel.Pos, unsupported, "this SELECT list")
		}
		if agg == "SUM" { // else COUNT: COUNT(x) counts rows, as there are no NULLs
			if q.sum, err = c.expr(fc.Args[0], q); err != nil {
				return nil, err
			}
		}
	}
	if sel.Star || outer != nil && (aggs != 1 || len(plain)+len(keys) > 0) {
		return nil, errorf(sel.Pos, unsupported, "this SELECT outside EXISTS")
	}
	if len(keys) == 0 && aggs == 0 {
		keys = plain
	}
	q.keys = make([]scalar, len(keys))
	for i, k := range keys {
		if q.keys[i], err = c.expr(k, q); err != nil {
			return nil, err
		}
	}
	return q, nil
}

// conjuncts appends the AND-separated conjuncts of e to out.
func conjuncts(e sql.Expr, out []sql.Expr) []sql.Expr {
	if and, ok := e.(sql.AndOp); ok {
		return conjuncts(and.R, conjuncts(and.L, out))
	} else if e == nil {
		return out
	}
	return append(out, e)
}

// column resolves a column reference, innermost scope first, and records the
// FROM item it names in that scope's used.
func (c *compiler) column(cr sql.ColRef, sc *query) (scalar, error) {
	for s := sc; s != nil; s = s.up {
		item, col, hits := 0, 0, 0
		for i, alias := range s.alias {
			for j, cd := range s.cols[i] {
				if (cr.Qual == "" || strings.EqualFold(cr.Qual, alias)) && strings.EqualFold(cd.Name, cr.Name) {
					item, col, hits = i, j, hits+1
				}
			}
		}
		if hits > 1 {
			return nil, errorf(cr.Pos, "ambiguous column %q", cr.Name)
		} else if hits == 1 {
			s.used, item = max(s.used, item), s.base+item
			return func() types.Value { return c.env[item][col] }, nil
		}
	}
	return nil, errorf(cr.Pos, "unknown column %q", cr.Name)
}

// cond compiles a predicate: a comparison, AND/OR/NOT, EXISTS, IN, LIKE or
// BETWEEN. (The translator weights a row by any other condition's value.)
func (c *compiler) cond(e sql.Expr, sc *query) (scalar, error) {
	switch e.(type) {
	case sql.CmpOp, sql.AndOp, sql.OrOp, sql.NotOp, sql.ExistsOp, sql.InList, sql.LikeOp, sql.Between:
		return c.expr(e, sc)
	}
	return nil, errorf(reflect.ValueOf(e).FieldByName("Pos").Interface().(sql.Pos), unsupported, "a non-predicate condition")
}

var arith = map[string]func(a, b types.Value) types.Value{"+": types.Add, "-": types.Sub, "*": types.Mul, "/": types.Div}

// expr compiles an expression: its operands (compiled by operand), then fn of
// their values.
func (c *compiler) expr(e sql.Expr, sc *query) (scalar, error) {
	var args []sql.Expr
	var fn func(v []types.Value) types.Value
	var sub *query
	var err error
	operand := c.expr
	switch n := e.(type) {
	case sql.ColRef:
		return c.column(n, sc)
	case sql.StrLit:
		fn = func([]types.Value) types.Value { return types.Str(n.Val) }
	case sql.NumLit:
		x, ferr := strconv.ParseFloat(n.Text, 64)
		i, ierr := strconv.ParseInt(n.Text, 10, 64)
		v := types.Float(x)
		if err = ferr; !n.IsFloat {
			v, err = types.Int(i), ierr
		}
		if fn = func([]types.Value) types.Value { return v }; err != nil {
			err = errorf(n.Pos, "bad number %q", n.Text)
		}
	case sql.ExistsOp:
		sub, err = c.query(n.Sel, sc, true)
		fn = func([]types.Value) types.Value { return types.Bool(sub.scalar() != 0) }
	case sql.Subquery:
		sub, err = c.query(n.Sel, sc, false)
		fn = func([]types.Value) types.Value { return types.Float(sub.scalar()) }
	case sql.FuncCall:
		switch name := strings.ToLower(n.Name); {
		case name == "date" && len(n.Args) == 1:
			s, _ := n.Args[0].(sql.StrLit)
			d, derr := time.Parse("2006-01-02", s.Val)
			v := types.Int(int64(d.Year()*10000 + int(d.Month())*100 + d.Day()))
			if fn = func([]types.Value) types.Value { return v }; derr != nil {
				return nil, errorf(n.Pos, "DATE takes one 'yyyy-mm-dd' string")
			}
		case name == "vec_length" && len(n.Args) == 3:
			args, fn = n.Args, func(v []types.Value) types.Value {
				return types.Float(math.Hypot(math.Hypot(v[0].AsFloat(), v[1].AsFloat()), v[2].AsFloat()))
			}
		default:
			return nil, errorf(n.Pos, unsupported, "function "+n.Name)
		}
	case sql.AndOp:
		args, operand, fn = []sql.Expr{n.L, n.R}, c.cond, func(v []types.Value) types.Value { return types.Bool(v[0].AsBool() && v[1].AsBool()) }
	case sql.OrOp:
		args, operand, fn = []sql.Expr{n.L, n.R}, c.cond, func(v []types.Value) types.Value { return types.Bool(v[0].AsBool() || v[1].AsBool()) }
	case sql.NotOp:
		args, operand, fn = []sql.Expr{n.E}, c.cond, func(v []types.Value) types.Value { return types.Bool(!v[0].AsBool()) }
	case sql.CmpOp: // the operator spells the outcomes it accepts: <> is < or >
		args, fn = []sql.Expr{n.L, n.R}, func(v []types.Value) types.Value {
			return types.Bool(strings.Contains(n.Op, "<=>"[types.Compare(v[0], v[1])+1:][:1]))
		}
	case sql.Between:
		args, fn = []sql.Expr{n.E, n.Lo, n.Hi}, func(v []types.Value) types.Value {
			return types.Bool(types.Compare(v[0], v[1]) >= 0 && types.Compare(v[0], v[2]) <= 0)
		}
	case sql.InList:
		args, fn = append([]sql.Expr{n.E}, n.Elems...), func(v []types.Value) types.Value {
			return types.Bool(slices.ContainsFunc(v[1:], func(x types.Value) bool { return types.Compare(v[0], x) == 0 }) != n.Not)
		}
	case sql.LikeOp:
		args, fn = []sql.Expr{n.E, n.Pattern}, func(v []types.Value) types.Value { return types.Bool(like(v[0].AsString(), v[1].AsString()) != n.Not) }
	case sql.NegOp:
		args, fn = []sql.Expr{n.E}, func(v []types.Value) types.Value { return types.Neg(v[0]) }
	case sql.BinOp:
		op := arith[n.Op]
		args, fn = []sql.Expr{n.L, n.R}, func(v []types.Value) types.Value { return op(v[0], v[1]) }
	default:
		return nil, errorf(sql.Pos{}, unsupported, fmt.Sprintf("expression %T", e))
	}
	if err != nil {
		return nil, err
	}
	operands := make([]scalar, len(args))
	for i, a := range args {
		if operands[i], err = operand(a, sc); err != nil {
			return nil, err
		}
	}
	return func() types.Value {
		v := make([]types.Value, len(operands))
		for i, o := range operands {
			v[i] = o()
		}
		return fn(v)
	}, nil
}

// like matches SQL LIKE: % matches any run of characters, _ any one.
func like(s, pattern string) bool {
	re := strings.NewReplacer("%", ".*", "_", ".").Replace(regexp.QuoteMeta(string([]rune(pattern))))
	return regexp.MustCompile("(?s)^" + re + "$").MatchString(s)
}
