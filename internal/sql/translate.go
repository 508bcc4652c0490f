package sql

import (
	"fmt"
	"strconv"
	"strings"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/catalog"
	"dbtoaster/internal/opt"
	"dbtoaster/internal/types"
)

// TranslateError is a positioned name-resolution or translation error.
type TranslateError struct {
	Pos Pos
	Msg string
}

func (e *TranslateError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Pos.Line, e.Pos.Col, e.Msg)
}

func terrf(pos Pos, format string, args ...interface{}) error {
	return &TranslateError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Catalog builds the relation catalog declared by the script's CREATE
// STREAM (dynamic) and CREATE TABLE (static) statements.
func (s *Script) Catalog() (*catalog.Catalog, error) {
	cat := catalog.New()
	for _, rd := range s.Relations {
		if cat.Has(rd.Name) {
			return nil, terrf(rd.Pos, "relation %q declared twice", rd.Name)
		}
		cols := make([]string, 0, len(rd.Columns))
		seen := map[string]bool{}
		for _, cd := range rd.Columns {
			key := strings.ToUpper(cd.Name)
			if seen[key] {
				return nil, terrf(rd.Pos, "relation %q declares column %q twice", rd.Name, cd.Name)
			}
			seen[key] = true
			cols = append(cols, cd.Name)
		}
		if rd.Static {
			cat.AddStatic(rd.Name, cols...)
		} else {
			cat.Add(rd.Name, cols...)
		}
	}
	return cat, nil
}

// Translate turns one parsed SELECT into an AGCA expression over the given
// catalog. The translation resolves column references against the FROM
// clause (and, for subqueries, the enclosing scopes), turns joins and WHERE
// conjuncts into a multiplicative clause, lifts scalar subqueries into
// assignments, and runs unification so that equality predicates become the
// shared-variable natural joins the delta transform and the compiler expect.
func Translate(sel *SelectStmt, cat *catalog.Catalog) (agca.Expr, error) {
	t := &translator{cat: cat, used: map[string]bool{}}
	return t.selectExpr(sel, nil, modeTop)
}

// translator carries the state of one Translate call: the catalog and the
// global fresh-variable allocation (variable names must be unique across all
// scopes of one query, because unification renames across scope boundaries).
type translator struct {
	cat  *catalog.Catalog
	used map[string]bool
	subN int
	// orDepth counts the ORs enclosing the predicate being translated, and
	// orCopies the predicates the OR expansion has written so far (see
	// charge).
	orDepth  int
	orCopies int
}

// maxOrCopies bounds the OR expansion of one query. OR translates by
// inclusion-exclusion (A OR B = A + B - A*B), which writes each operand
// twice, so a predicate under k ORs appears 2^k times: a chain of 25 ORs
// takes a minute to translate, and each further OR doubles that. Far above
// any real query.
const (
	maxOrLevels = 16
	maxOrCopies = 1 << maxOrLevels
)

// charge accounts for one predicate translated under t.orDepth ORs.
func (t *translator) charge(pos Pos) error {
	if t.orDepth == 0 {
		return nil
	}
	if t.orDepth > maxOrLevels || t.orCopies+1<<t.orDepth > maxOrCopies {
		return terrf(pos, "OR expansion exceeds %d predicates (OR translates by inclusion-exclusion, doubling its operands)", maxOrCopies)
	}
	t.orCopies += 1 << t.orDepth
	return nil
}

// scope is one level of FROM-clause name resolution; parent chains to the
// enclosing query for correlated subqueries.
type scope struct {
	parent *scope
	items  []scopeItem
}

type scopeItem struct {
	alias string
	rel   string
	cols  []string
	vars  []string
}

// visibleVars collects every variable bound by this scope and its ancestors.
func (sc *scope) visibleVars() agca.VarSet {
	vs := agca.VarSet{}
	for s := sc; s != nil; s = s.parent {
		for _, it := range s.items {
			vs.AddAll(it.vars)
		}
	}
	return vs
}

// fresh allocates a globally unique variable name derived from alias.col.
func (t *translator) fresh(alias, col string) string {
	base := strings.ToLower(alias) + "_" + strings.ToLower(col)
	name := base
	for n := 2; t.used[name]; n++ {
		name = fmt.Sprintf("%s_%d", base, n)
	}
	t.used[name] = true
	return name
}

// freshSub allocates a lift variable for a scalar subquery.
func (t *translator) freshSub() string {
	for {
		t.subN++
		name := fmt.Sprintf("sq%d", t.subN)
		if !t.used[name] {
			t.used[name] = true
			return name
		}
	}
}

// selectMode distinguishes the three contexts a SELECT appears in.
type selectMode int

const (
	modeTop    selectMode = iota // a full query: aggregates + GROUP BY
	modeScalar                   // a scalar subquery: exactly one aggregate
	modeExists                   // an EXISTS body: the select list is ignored
)

// selectExpr translates one SELECT in the given enclosing scope and mode.
func (t *translator) selectExpr(sel *SelectStmt, outer *scope, mode selectMode) (agca.Expr, error) {
	sc := &scope{parent: outer}
	var factors []agca.Expr
	for _, fi := range sel.From {
		cols, err := t.cat.Columns(fi.Rel)
		if err != nil {
			return nil, terrf(fi.Pos, "unknown relation %q", fi.Rel)
		}
		for _, it := range sc.items {
			if strings.EqualFold(it.alias, fi.Alias) {
				return nil, terrf(fi.Pos, "duplicate table alias %q", fi.Alias)
			}
		}
		item := scopeItem{alias: fi.Alias, rel: fi.Rel, cols: cols}
		for _, c := range cols {
			item.vars = append(item.vars, t.fresh(fi.Alias, c))
		}
		sc.items = append(sc.items, item)
		factors = append(factors, agca.Rel{Name: fi.Rel, Vars: item.vars})
	}

	if sel.Where != nil {
		fs, err := t.cond(sel.Where, sc)
		if err != nil {
			return nil, err
		}
		factors = append(factors, fs...)
	}

	if mode == modeExists {
		ures := opt.UnifyMonomial(factors, agca.VarSet{}, boundOf(outer))
		return agca.Exists{E: agca.AggSum{E: mulFactors(ures.Factors)}}, nil
	}

	// Resolve GROUP BY against this scope only.
	var gb []string
	for _, cr := range sel.GroupBy {
		v, err := t.resolveIn(cr, sc, false)
		if err != nil {
			return nil, err
		}
		gb = append(gb, v)
	}

	// Classify the select list: group columns and at most one aggregate.
	type aggItem struct {
		name string // SUM, COUNT, AVG
		arg  Expr   // nil for COUNT(*)
		pos  Pos
	}
	var agg *aggItem
	type plainCol struct {
		v   string
		ref ColRef
	}
	var plainCols []plainCol
	var aliasOf = map[string]string{}
	if sel.Star {
		return nil, terrf(sel.Pos, "SELECT * is only supported inside EXISTS")
	}
	for _, item := range sel.Items {
		if fc, ok := item.Expr.(FuncCall); ok && isAggregate(fc.Name) {
			if agg != nil {
				return nil, terrf(fc.Pos, "at most one aggregate per SELECT is supported")
			}
			a := &aggItem{name: strings.ToUpper(fc.Name), pos: fc.Pos}
			switch {
			case fc.Star:
				if a.name != "COUNT" {
					return nil, terrf(fc.Pos, "%s(*) is not a valid aggregate", a.name)
				}
			case len(fc.Args) == 1:
				a.arg = fc.Args[0]
				if a.name == "COUNT" {
					// COUNT(e) counts rows like COUNT(*): the stream model has
					// no NULLs to skip.
					a.arg = nil
				}
			default:
				return nil, terrf(fc.Pos, "%s takes exactly one argument", a.name)
			}
			agg = a
			continue
		}
		cr, ok := item.Expr.(ColRef)
		if !ok {
			return nil, terrf(item.Expr.pos(), "non-aggregate SELECT expressions must be plain columns")
		}
		v, err := t.resolveIn(cr, sc, false)
		if err != nil {
			return nil, err
		}
		plainCols = append(plainCols, plainCol{v: v, ref: cr})
		if item.Alias != "" {
			aliasOf[v] = item.Alias
		}
	}

	if mode == modeScalar {
		if agg == nil {
			return nil, terrf(sel.Pos, "a scalar subquery must compute a single aggregate")
		}
		if len(plainCols) > 0 || len(gb) > 0 {
			return nil, terrf(sel.Pos, "a scalar subquery cannot have GROUP BY or plain columns")
		}
	}

	// Every plain select column must be grouped on; with no explicit GROUP BY
	// and no aggregate, the selected columns become the grouping (a bag of
	// distinct rows with their multiplicities).
	gbSet := agca.NewVarSet(gb...)
	if agg == nil && len(gb) == 0 {
		if len(plainCols) == 0 {
			return nil, terrf(sel.Pos, "SELECT list is empty")
		}
		for _, pc := range plainCols {
			gb = append(gb, pc.v)
		}
		gbSet = agca.NewVarSet(gb...)
	}
	for _, pc := range plainCols {
		if !gbSet[pc.v] {
			return nil, terrf(pc.ref.Pos, "column %s must appear in GROUP BY", pc.ref.Name)
		}
	}

	// The aggregate argument multiplies into the clause so that the group's
	// value accumulates in the multiplicity.
	var avgCount agca.Expr // set for AVG: the COUNT clause of the quotient
	if agg != nil && agg.arg != nil {
		val, pre, err := t.scalarPre(agg.arg, sc)
		if err != nil {
			return nil, err
		}
		factors = append(factors, pre...)
		if agg.name == "AVG" {
			if len(gb) > 0 {
				return nil, terrf(agg.pos, "AVG with GROUP BY is not supported; maintain SUM and COUNT views and divide")
			}
			avgCount = agca.AggSum{E: mulFactors(append([]agca.Expr(nil), factors...))}
		}
		factors = append(factors, val)
	} else if agg != nil && agg.name == "AVG" {
		return nil, terrf(agg.pos, "AVG requires an argument")
	}

	// Unification: equalities between column variables become shared-variable
	// natural joins, and constants seed assignments. Group-by variables are
	// protected (then mapped through the substitution, like the compiler does
	// for map keys).
	ures := opt.UnifyMonomial(factors, agca.NewVarSet(gb...), boundOf(outer))
	gb = ures.ApplyToAll(gb)

	body := mulFactors(ures.Factors)
	var result agca.Expr = agca.AggSum{GroupBy: gb, E: body}
	if avgCount != nil {
		num := agca.AggSum{E: body}
		den := agca.RenameVars(avgCount, ures.Subst)
		result = agca.Div{L: num, R: den}
	}

	// Select-list aliases rename the result's key variables (cosmetic: the
	// result map's key schema uses the alias).
	for v, alias := range aliasOf {
		nv := ures.ApplyTo(v)
		if t.used[alias] || alias == nv {
			continue
		}
		t.used[alias] = true
		result = agca.RenameVars(result, map[string]string{nv: alias})
	}
	return result, nil
}

func boundOf(outer *scope) agca.VarSet {
	if outer == nil {
		return agca.VarSet{}
	}
	return outer.visibleVars()
}

func isAggregate(name string) bool {
	switch strings.ToUpper(name) {
	case "SUM", "COUNT", "AVG":
		return true
	}
	return false
}

// mulFactors builds the product of a factor list (1 for the empty list).
func mulFactors(fs []agca.Expr) agca.Expr {
	if len(fs) == 0 {
		return agca.One
	}
	return agca.Mul(fs...)
}

// resolveIn resolves a column reference to its variable. When searchOuter is
// true the enclosing scopes are consulted after the local one (correlated
// subqueries).
func (t *translator) resolveIn(cr ColRef, sc *scope, searchOuter bool) (string, error) {
	for s := sc; s != nil; s = s.parent {
		if cr.Qual != "" {
			for _, it := range s.items {
				if strings.EqualFold(it.alias, cr.Qual) {
					for i, c := range it.cols {
						if strings.EqualFold(c, cr.Name) {
							return it.vars[i], nil
						}
					}
					return "", terrf(cr.Pos, "relation %s (alias %s) has no column %q", it.rel, it.alias, cr.Name)
				}
			}
		} else {
			var found []string
			var where []string
			for _, it := range s.items {
				for i, c := range it.cols {
					if strings.EqualFold(c, cr.Name) {
						found = append(found, it.vars[i])
						where = append(where, it.alias)
					}
				}
			}
			if len(found) > 1 {
				return "", terrf(cr.Pos, "ambiguous column %q (in %s)", cr.Name, strings.Join(where, ", "))
			}
			if len(found) == 1 {
				return found[0], nil
			}
		}
		if !searchOuter {
			break
		}
	}
	if cr.Qual != "" {
		return "", terrf(cr.Pos, "unknown table alias %q", cr.Qual)
	}
	return "", terrf(cr.Pos, "unknown column %q", cr.Name)
}

// cond translates a predicate into a list of multiplicative factors (its
// conjunctive normal layer); scalar subqueries encountered on the way are
// lifted into assignments that precede the factor using them.
func (t *translator) cond(e Expr, sc *scope) ([]agca.Expr, error) {
	switch e.(type) {
	case AndOp, OrOp, NotOp:
	default:
		if err := t.charge(e.pos()); err != nil {
			return nil, err
		}
	}
	switch n := e.(type) {
	case AndOp:
		l, err := t.cond(n.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := t.cond(n.R, sc)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	case OrOp:
		// Conditions are 0/1-valued, so disjunction is inclusion-exclusion:
		// A OR B  =  A + B - A*B. Each term is collapsed to a scalar
		// (predValue) so a branch carrying a lifted subquery does not leak
		// its lift variable into a Sum with asymmetric schemas.
		t.orDepth++
		l, err := t.cond(n.L, sc)
		if err != nil {
			return nil, err
		}
		r, err := t.cond(n.R, sc)
		if err != nil {
			return nil, err
		}
		t.orDepth--
		both := append(append([]agca.Expr(nil), l...), r...)
		or := agca.Add(t.predValue(l, sc), t.predValue(r, sc), agca.Neg{E: t.predValue(both, sc)})
		return []agca.Expr{or}, nil
	case NotOp:
		return t.notCond(n, sc)
	case CmpOp:
		var pre []agca.Expr
		l, lp, err := t.scalarPre(n.L, sc)
		if err != nil {
			return nil, err
		}
		pre = append(pre, lp...)
		r, rp, err := t.scalarPre(n.R, sc)
		if err != nil {
			return nil, err
		}
		pre = append(pre, rp...)
		return append(pre, agca.Cmp{Op: cmpOpOf(n.Op), L: l, R: r}), nil
	case ExistsOp:
		ex, err := t.selectExpr(n.Sel, sc, modeExists)
		if err != nil {
			return nil, err
		}
		return []agca.Expr{ex}, nil
	case InList:
		return t.inCond(n, sc)
	case LikeOp:
		return t.likeCond(n, sc)
	case Between:
		v, pre, err := t.scalarPre(n.E, sc)
		if err != nil {
			return nil, err
		}
		lo, lp, err := t.scalarPre(n.Lo, sc)
		if err != nil {
			return nil, err
		}
		hi, hp, err := t.scalarPre(n.Hi, sc)
		if err != nil {
			return nil, err
		}
		out := append(pre, lp...)
		out = append(out, hp...)
		return append(out,
			agca.Cmp{Op: agca.OpGe, L: v, R: lo},
			agca.Cmp{Op: agca.OpLe, L: v, R: hi}), nil
	default:
		// A bare scalar (e.g. an interpreted function) used as a predicate:
		// its value multiplies the clause.
		v, pre, err := t.scalarPre(e, sc)
		if err != nil {
			return nil, err
		}
		return append(pre, v), nil
	}
}

// notCond translates NOT p. Comparisons negate their operator; the operators
// carrying their own negated form toggle it; any other 0/1-valued predicate
// P becomes (1 - P).
func (t *translator) notCond(n NotOp, sc *scope) ([]agca.Expr, error) {
	switch inner := n.E.(type) {
	case CmpOp:
		fs, err := t.cond(inner, sc)
		if err != nil {
			return nil, err
		}
		last := fs[len(fs)-1].(agca.Cmp)
		last.Op = last.Op.Negate()
		fs[len(fs)-1] = last
		return fs, nil
	case NotOp:
		return t.cond(inner.E, sc)
	case InList:
		inner.Not = !inner.Not
		return t.inCond(inner, sc)
	case LikeOp:
		inner.Not = !inner.Not
		return t.likeCond(inner, sc)
	case ExistsOp:
		fs, err := t.cond(inner, sc)
		if err != nil {
			return nil, err
		}
		return []agca.Expr{agca.Subtract(agca.One, fs[0])}, nil
	default:
		fs, err := t.cond(n.E, sc)
		if err != nil {
			return nil, err
		}
		return []agca.Expr{agca.Subtract(agca.One, t.predValue(fs, sc))}, nil
	}
}

// predValue turns a translated predicate (a factor list) into a 0/1 scalar.
// A factor list carrying lifted subqueries has output variables; collapsing
// with a nullary AggSum restores scalar-ness (every lift binds exactly one
// value, so the sum is the predicate's value).
func (t *translator) predValue(fs []agca.Expr, sc *scope) agca.Expr {
	p := mulFactors(fs)
	if len(agca.OutputVars(p, boundOf(sc))) > 0 {
		return agca.AggSum{E: p}
	}
	return p
}

func (t *translator) inCond(n InList, sc *scope) ([]agca.Expr, error) {
	v, pre, err := t.scalarPre(n.E, sc)
	if err != nil {
		return nil, err
	}
	args := []agca.Expr{v}
	for _, el := range n.Elems {
		ev, ep, err := t.scalarPre(el, sc)
		if err != nil {
			return nil, err
		}
		pre = append(pre, ep...)
		args = append(args, ev)
	}
	var f agca.Expr = agca.Func{Name: "in_list", Args: args}
	if n.Not {
		f = agca.Subtract(agca.One, f)
	}
	return append(pre, f), nil
}

func (t *translator) likeCond(n LikeOp, sc *scope) ([]agca.Expr, error) {
	v, pre, err := t.scalarPre(n.E, sc)
	if err != nil {
		return nil, err
	}
	pat, pp, err := t.scalarPre(n.Pattern, sc)
	if err != nil {
		return nil, err
	}
	pre = append(pre, pp...)
	name := "like"
	if n.Not {
		name = "notlike"
	}
	return append(pre, agca.Func{Name: name, Args: []agca.Expr{v, pat}}), nil
}

func cmpOpOf(op string) agca.CmpOp {
	switch op {
	case "=":
		return agca.OpEq
	case "<>":
		return agca.OpNe
	case "<":
		return agca.OpLt
	case "<=":
		return agca.OpLe
	case ">":
		return agca.OpGt
	default:
		return agca.OpGe
	}
}

// scalarPre translates a scalar expression, returning the value expression
// plus any lift factors (scalar subqueries) it depends on, in evaluation
// order.
func (t *translator) scalarPre(e Expr, sc *scope) (agca.Expr, []agca.Expr, error) {
	var pre []agca.Expr
	v, err := t.scalar(e, sc, &pre)
	return v, pre, err
}

func (t *translator) scalar(e Expr, sc *scope, pre *[]agca.Expr) (agca.Expr, error) {
	switch n := e.(type) {
	case ColRef:
		v, err := t.resolveIn(n, sc, true)
		if err != nil {
			return nil, err
		}
		return agca.Var{Name: v}, nil
	case NumLit:
		if n.IsFloat {
			f, err := strconv.ParseFloat(n.Text, 64)
			if err != nil {
				return nil, terrf(n.Pos, "bad number %q", n.Text)
			}
			return agca.CF(f), nil
		}
		i, err := strconv.ParseInt(n.Text, 10, 64)
		if err != nil {
			return nil, terrf(n.Pos, "bad number %q", n.Text)
		}
		return agca.C(i), nil
	case StrLit:
		return agca.CS(n.Val), nil
	case NegOp:
		v, err := t.scalar(n.E, sc, pre)
		if err != nil {
			return nil, err
		}
		return agca.Neg{E: v}, nil
	case BinOp:
		l, err := t.scalar(n.L, sc, pre)
		if err != nil {
			return nil, err
		}
		r, err := t.scalar(n.R, sc, pre)
		if err != nil {
			return nil, err
		}
		switch n.Op {
		case "+":
			return agca.Add(l, r), nil
		case "-":
			return agca.Subtract(l, r), nil
		case "*":
			return agca.Mul(l, r), nil
		default:
			return agca.Div{L: l, R: r}, nil
		}
	case FuncCall:
		return t.funcCall(n, sc, pre)
	case Subquery:
		sub, err := t.selectExpr(n.Sel, sc, modeScalar)
		if err != nil {
			return nil, err
		}
		v := t.freshSub()
		*pre = append(*pre, agca.Lift{Var: v, E: sub})
		return agca.Var{Name: v}, nil
	case CmpOp, AndOp, OrOp, NotOp, ExistsOp, InList, LikeOp, Between:
		// A predicate in scalar position contributes its 0/1 value.
		fs, err := t.cond(e, sc)
		if err != nil {
			return nil, err
		}
		return t.predValue(fs, sc), nil
	default:
		return nil, terrf(e.pos(), "unsupported expression")
	}
}

// funcCall translates DATE literals, rejects misplaced aggregates, and
// resolves interpreted scalar functions against the runtime's registry.
func (t *translator) funcCall(n FuncCall, sc *scope, pre *[]agca.Expr) (agca.Expr, error) {
	if strings.EqualFold(n.Name, "DATE") {
		if len(n.Args) != 1 {
			return nil, terrf(n.Pos, "DATE takes one 'yyyy-mm-dd' string")
		}
		s, ok := n.Args[0].(StrLit)
		if !ok {
			return nil, terrf(n.Pos, "DATE takes one 'yyyy-mm-dd' string")
		}
		v, err := parseDate(s.Val)
		if err != nil {
			return nil, terrf(s.Pos, "bad date %q: %v", s.Val, err)
		}
		return agca.Const{V: v}, nil
	}
	if isAggregate(n.Name) {
		return nil, terrf(n.Pos, "aggregate %s is only allowed at the top of the SELECT list", strings.ToUpper(n.Name))
	}
	if n.Star {
		return nil, terrf(n.Pos, "%s(*) is not a function call", n.Name)
	}
	name := strings.ToLower(n.Name)
	if _, ok := agca.ResolveFunc(name); !ok {
		return nil, terrf(n.Pos, "unknown function %q", n.Name)
	}
	f := agca.Func{Name: name}
	for _, a := range n.Args {
		v, err := t.scalar(a, sc, pre)
		if err != nil {
			return nil, err
		}
		f.Args = append(f.Args, v)
	}
	return f, nil
}

// parseDate converts 'yyyy-mm-dd' into the runtime's yyyymmdd integer date
// encoding (types.Date).
func parseDate(s string) (types.Value, error) {
	parts := strings.Split(s, "-")
	if len(parts) != 3 {
		return types.Null(), fmt.Errorf("want yyyy-mm-dd")
	}
	y, err1 := strconv.Atoi(parts[0])
	m, err2 := strconv.Atoi(parts[1])
	d, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil || m < 1 || m > 12 || d < 1 || d > 31 {
		return types.Null(), fmt.Errorf("want yyyy-mm-dd")
	}
	return types.Date(y, m, d), nil
}
