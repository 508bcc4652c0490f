package sql

import (
	"fmt"
	"strings"
)

// ParseError is a positioned syntax error.
type ParseError struct {
	Pos Pos
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Pos.Line, e.Pos.Col, e.Msg)
}

// maxExprHeight bounds the height of an expression tree: every operator,
// parenthesis, NOT, unary minus, function call and subquery is one level,
// and a left-deep chain such as a + b + c is one level per operator. The
// parser and the translator recurse once per level, so without a bound a
// deeply nested or very long expression exhausts the goroutine stack, which
// Go cannot recover from. The workload queries are at most 9 levels high.
const maxExprHeight = 1000

// Parse parses a SQL source — CREATE STREAM/TABLE declarations and SELECT
// queries separated by semicolons — into a Script.
func Parse(src string) (*Script, error) {
	p := &parser{lx: newLexer(src)}
	p.toks = append(p.toks, p.lx.scan())
	script := &Script{}
	for {
		for p.acceptSymbol(";") {
		}
		if p.peek().kind == tokEOF {
			break
		}
		switch {
		case p.peekKeyword("CREATE"):
			rd, err := p.parseCreate()
			if err != nil {
				return nil, err
			}
			script.Relations = append(script.Relations, rd)
		case p.peekKeyword("SELECT"):
			sel, _, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			script.Selects = append(script.Selects, sel)
		default:
			return nil, p.errorf("expected CREATE or SELECT, found %s", p.peek().describe())
		}
		if p.peek().kind != tokEOF && !p.peekSymbol(";") {
			return nil, p.errorf("expected ';' after statement, found %s", p.peek().describe())
		}
	}
	return script, nil
}

type parser struct {
	lx    lexer
	toks  []token // tokens scanned so far, always through toks[i], the next one
	i     int
	depth int // expression levels open above the one being parsed
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if p.i++; p.i == len(p.toks) {
		p.toks = append(p.toks, p.lx.scan())
	}
	return t
}

func (p *parser) at() Pos { t := p.peek(); return Pos{int(t.line), int(t.col)} }

// errorf reports a syntax error at the next token — or, when that token is
// the first one the lexer could not scan, the scan error.
func (p *parser) errorf(format string, args ...interface{}) error {
	if p.peek().kind == tokError {
		return p.lx.err
	}
	return &ParseError{Pos: p.at(), Msg: fmt.Sprintf(format, args...)}
}

// nest opens one expression level below the current one before the parser
// recurses into it; the caller closes it with p.depth--. A node parsed at
// depth d with height h keeps d+h <= maxExprHeight, so a statement's
// expressions are at most maxExprHeight high.
func (p *parser) nest() error {
	if p.depth++; p.depth >= maxExprHeight {
		return p.errorf("expression nested deeper than %d levels", maxExprHeight)
	}
	return nil
}

// grow returns the height of a node at pos over children at most h high, or
// a positioned error if that puts the node's leaves more than maxExprHeight
// levels below the statement.
func (p *parser) grow(pos Pos, h int) (int, error) {
	if h++; p.depth+h > maxExprHeight {
		return 0, &ParseError{Pos: pos, Msg: fmt.Sprintf("expression nested deeper than %d levels", maxExprHeight)}
	}
	return h, nil
}

func (p *parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokKeyword && t.text == kw
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, found %s", kw, p.peek().describe())
	}
	return nil
}

func (p *parser) peekSymbol(s string) bool {
	t := p.peek()
	return t.kind == tokSymbol && t.text == s
}

func (p *parser) acceptSymbol(s string) bool {
	if p.peekSymbol(s) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return p.errorf("expected %q, found %s", s, p.peek().describe())
	}
	return nil
}

func (p *parser) expectIdent() (token, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return t, p.errorf("expected identifier, found %s", t.describe())
	}
	p.next()
	return t, nil
}

// columnTypes lists the accepted column type names (lower-cased).
var columnTypes = map[string]bool{
	"int": true, "integer": true, "bigint": true,
	"float": true, "double": true, "decimal": true,
	"string": true, "varchar": true, "char": true, "text": true,
	"date": true, "bool": true, "boolean": true,
}

// parseCreate parses CREATE STREAM|TABLE name (col type, ...).
func (p *parser) parseCreate() (RelDef, error) {
	pos := p.at()
	if err := p.expectKeyword("CREATE"); err != nil {
		return RelDef{}, err
	}
	var static bool
	switch {
	case p.acceptKeyword("STREAM"):
		static = false
	case p.acceptKeyword("TABLE"):
		static = true
	default:
		return RelDef{}, p.errorf("expected STREAM or TABLE after CREATE, found %s", p.peek().describe())
	}
	name, err := p.expectIdent()
	if err != nil {
		return RelDef{}, err
	}
	if err := p.expectSymbol("("); err != nil {
		return RelDef{}, err
	}
	rd := RelDef{Name: name.text, Static: static, Pos: pos}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return RelDef{}, err
		}
		typ, err := p.expectIdent()
		if err != nil {
			return RelDef{}, err
		}
		if !columnTypes[strings.ToLower(typ.text)] {
			return RelDef{}, &ParseError{Pos: Pos{int(typ.line), int(typ.col)},
				Msg: fmt.Sprintf("unknown column type %q", typ.text)}
		}
		// Optional length, e.g. VARCHAR(20).
		if p.acceptSymbol("(") {
			if t := p.peek(); t.kind != tokNumber {
				return RelDef{}, p.errorf("expected length after %q(, found %s", typ.text, t.describe())
			}
			p.next()
			if err := p.expectSymbol(")"); err != nil {
				return RelDef{}, err
			}
		}
		rd.Columns = append(rd.Columns, ColDef{Name: col.text, Type: strings.ToLower(typ.text)})
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return RelDef{}, err
	}
	return rd, nil
}

// parseSelect parses SELECT items FROM from [WHERE cond] [GROUP BY cols] and
// returns it with the height of its tallest expression.
func (p *parser) parseSelect() (*SelectStmt, int, error) {
	pos := p.at()
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, 0, err
	}
	sel := &SelectStmt{Pos: pos}
	height := 0
	if p.acceptSymbol("*") {
		sel.Star = true
	} else {
		for {
			item, h, err := p.parseSelectItem()
			if err != nil {
				return nil, 0, err
			}
			sel.Items = append(sel.Items, item)
			height = max(height, h)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, 0, err
	}
	var onConds []Expr
	var onHeights []int
	item, err := p.parseFromItem()
	if err != nil {
		return nil, 0, err
	}
	sel.From = append(sel.From, item)
	for {
		if p.acceptSymbol(",") {
			item, err := p.parseFromItem()
			if err != nil {
				return nil, 0, err
			}
			sel.From = append(sel.From, item)
			continue
		}
		// [INNER] JOIN item ON cond desugars to a comma join plus a WHERE
		// conjunct.
		if p.acceptKeyword("INNER") {
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, 0, err
			}
		} else if !p.acceptKeyword("JOIN") {
			break
		}
		item, err := p.parseFromItem()
		if err != nil {
			return nil, 0, err
		}
		sel.From = append(sel.From, item)
		if err := p.expectKeyword("ON"); err != nil {
			return nil, 0, err
		}
		cond, h, err := p.parseOr()
		if err != nil {
			return nil, 0, err
		}
		onConds, onHeights = append(onConds, cond), append(onHeights, h)
	}
	if p.acceptKeyword("WHERE") {
		cond, h, err := p.parseOr()
		if err != nil {
			return nil, 0, err
		}
		onConds, onHeights = append(onConds, cond), append(onHeights, h)
	}
	// The conjuncts fold into a left-deep AND chain, one level per JOIN.
	whereHeight := 0
	for i, c := range onConds {
		if sel.Where == nil {
			sel.Where, whereHeight = c, onHeights[i]
			continue
		}
		sel.Where = AndOp{L: sel.Where, R: c, Pos: c.pos()}
		if whereHeight, err = p.grow(c.pos(), max(whereHeight, onHeights[i])); err != nil {
			return nil, 0, err
		}
	}
	height = max(height, whereHeight)
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, 0, err
		}
		for {
			cr, err := p.parseColRef()
			if err != nil {
				return nil, 0, err
			}
			sel.GroupBy = append(sel.GroupBy, cr)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	return sel, height, nil
}

func (p *parser) parseSelectItem() (SelectItem, int, error) {
	e, h, err := p.parseOr()
	if err != nil {
		return SelectItem{}, 0, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, 0, err
		}
		item.Alias = a.text
	}
	return item, h, nil
}

func (p *parser) parseFromItem() (FromItem, error) {
	pos := p.at()
	rel, err := p.expectIdent()
	if err != nil {
		return FromItem{}, err
	}
	item := FromItem{Rel: rel.text, Alias: rel.text, Pos: pos}
	if p.acceptKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return FromItem{}, err
		}
		item.Alias = a.text
	} else if p.peek().kind == tokIdent {
		item.Alias = p.next().text
	}
	return item, nil
}

func (p *parser) parseColRef() (ColRef, error) {
	pos := p.at()
	id, err := p.expectIdent()
	if err != nil {
		return ColRef{}, err
	}
	cr := ColRef{Name: id.text, Pos: pos}
	if p.acceptSymbol(".") {
		col, err := p.expectIdent()
		if err != nil {
			return ColRef{}, err
		}
		cr.Qual, cr.Name = id.text, col.text
	}
	return cr, nil
}

// Expression grammar, loosest to tightest:
//
//	or      := and (OR and)*
//	and     := not (AND not)*
//	not     := NOT not | pred
//	pred    := EXISTS (select)
//	         | add [cmpop add | [NOT] IN (...) | [NOT] LIKE add | BETWEEN add AND add]
//	add     := mul ((+|-) mul)*
//	mul     := unary ((*|/) unary)*
//	unary   := - unary | primary
//	primary := literal | colref | func(args) | (select) | (or)
//
// Each parse function also returns the height of the tree it built (a leaf is
// 1), so that every node can be held to maxExprHeight as it is built.
func (p *parser) parseOr() (Expr, int, error) {
	l, h, err := p.parseAnd()
	if err != nil {
		return nil, 0, err
	}
	for p.peekKeyword("OR") {
		pos := p.at()
		p.next()
		r, rh, err := p.parseAnd()
		if err != nil {
			return nil, 0, err
		}
		l = OrOp{L: l, R: r, Pos: pos}
		if h, err = p.grow(pos, max(h, rh)); err != nil {
			return nil, 0, err
		}
	}
	return l, h, nil
}

func (p *parser) parseAnd() (Expr, int, error) {
	l, h, err := p.parseNot()
	if err != nil {
		return nil, 0, err
	}
	for p.peekKeyword("AND") {
		pos := p.at()
		p.next()
		r, rh, err := p.parseNot()
		if err != nil {
			return nil, 0, err
		}
		l = AndOp{L: l, R: r, Pos: pos}
		if h, err = p.grow(pos, max(h, rh)); err != nil {
			return nil, 0, err
		}
	}
	return l, h, nil
}

func (p *parser) parseNot() (Expr, int, error) {
	if p.peekKeyword("NOT") {
		pos := p.at()
		p.next()
		if err := p.nest(); err != nil {
			return nil, 0, err
		}
		e, h, err := p.parseNot()
		p.depth--
		if err != nil {
			return nil, 0, err
		}
		return NotOp{E: e, Pos: pos}, h + 1, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (Expr, int, error) {
	if p.peekKeyword("EXISTS") {
		pos := p.at()
		p.next()
		if err := p.expectSymbol("("); err != nil {
			return nil, 0, err
		}
		if err := p.nest(); err != nil {
			return nil, 0, err
		}
		sel, h, err := p.parseSelect()
		p.depth--
		if err != nil {
			return nil, 0, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, 0, err
		}
		return ExistsOp{Sel: sel, Pos: pos}, h + 1, nil
	}
	l, h, err := p.parseAdd()
	if err != nil {
		return nil, 0, err
	}
	t := p.peek()
	if t.kind == tokSymbol {
		switch t.text {
		case "=", "<>", "<", "<=", ">", ">=":
			pos := p.at()
			p.next()
			r, rh, err := p.parseAdd()
			if err != nil {
				return nil, 0, err
			}
			if h, err = p.grow(pos, max(h, rh)); err != nil {
				return nil, 0, err
			}
			return CmpOp{Op: t.text, L: l, R: r, Pos: pos}, h, nil
		}
	}
	neg := false
	if p.peekKeyword("NOT") {
		// x NOT IN / x NOT LIKE: NOT here binds to the following operator.
		save := p.i
		p.next()
		if !p.peekKeyword("IN") && !p.peekKeyword("LIKE") {
			p.i = save
			return l, h, nil
		}
		neg = true
	}
	switch {
	case p.peekKeyword("IN"):
		pos := p.at()
		p.next()
		if err := p.expectSymbol("("); err != nil {
			return nil, 0, err
		}
		in := InList{E: l, Not: neg, Pos: pos}
		for {
			e, eh, err := p.parseAdd()
			if err != nil {
				return nil, 0, err
			}
			in.Elems = append(in.Elems, e)
			h = max(h, eh)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, 0, err
		}
		if h, err = p.grow(pos, h); err != nil {
			return nil, 0, err
		}
		return in, h, nil
	case p.peekKeyword("LIKE"):
		pos := p.at()
		p.next()
		pat, ph, err := p.parseAdd()
		if err != nil {
			return nil, 0, err
		}
		if h, err = p.grow(pos, max(h, ph)); err != nil {
			return nil, 0, err
		}
		return LikeOp{E: l, Pattern: pat, Not: neg, Pos: pos}, h, nil
	case p.peekKeyword("BETWEEN"):
		pos := p.at()
		p.next()
		lo, loh, err := p.parseAdd()
		if err != nil {
			return nil, 0, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, 0, err
		}
		hi, hih, err := p.parseAdd()
		if err != nil {
			return nil, 0, err
		}
		if h, err = p.grow(pos, max(h, loh, hih)); err != nil {
			return nil, 0, err
		}
		return Between{E: l, Lo: lo, Hi: hi, Pos: pos}, h, nil
	}
	return l, h, nil
}

func (p *parser) parseAdd() (Expr, int, error) {
	l, h, err := p.parseMul()
	if err != nil {
		return nil, 0, err
	}
	for p.peekSymbol("+") || p.peekSymbol("-") {
		pos := p.at()
		op := p.next().text
		r, rh, err := p.parseMul()
		if err != nil {
			return nil, 0, err
		}
		l = BinOp{Op: op, L: l, R: r, Pos: pos}
		if h, err = p.grow(pos, max(h, rh)); err != nil {
			return nil, 0, err
		}
	}
	return l, h, nil
}

func (p *parser) parseMul() (Expr, int, error) {
	l, h, err := p.parseUnary()
	if err != nil {
		return nil, 0, err
	}
	for p.peekSymbol("*") || p.peekSymbol("/") {
		pos := p.at()
		op := p.next().text
		r, rh, err := p.parseUnary()
		if err != nil {
			return nil, 0, err
		}
		l = BinOp{Op: op, L: l, R: r, Pos: pos}
		if h, err = p.grow(pos, max(h, rh)); err != nil {
			return nil, 0, err
		}
	}
	return l, h, nil
}

func (p *parser) parseUnary() (Expr, int, error) {
	if p.peekSymbol("-") {
		pos := p.at()
		p.next()
		if err := p.nest(); err != nil {
			return nil, 0, err
		}
		e, h, err := p.parseUnary()
		p.depth--
		if err != nil {
			return nil, 0, err
		}
		return NegOp{E: e, Pos: pos}, h + 1, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, int, error) {
	t := p.peek()
	pos := p.at()
	switch t.kind {
	case tokNumber:
		p.next()
		return NumLit{Text: t.text, IsFloat: strings.ContainsRune(t.text, '.'), Pos: pos}, 1, nil
	case tokString:
		p.next()
		return StrLit{Val: t.text, Pos: pos}, 1, nil
	case tokIdent:
		p.next()
		// Function call?
		if p.peekSymbol("(") {
			p.next()
			call := FuncCall{Name: t.text, Pos: pos}
			h := 0
			if p.acceptSymbol("*") {
				call.Star = true
			} else if !p.peekSymbol(")") {
				if err := p.nest(); err != nil {
					return nil, 0, err
				}
				for {
					a, ah, err := p.parseOr()
					if err != nil {
						return nil, 0, err
					}
					call.Args = append(call.Args, a)
					h = max(h, ah)
					if !p.acceptSymbol(",") {
						break
					}
				}
				p.depth--
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, 0, err
			}
			return call, h + 1, nil
		}
		cr := ColRef{Name: t.text, Pos: pos}
		if p.acceptSymbol(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, 0, err
			}
			cr.Qual, cr.Name = t.text, col.text
		}
		return cr, 1, nil
	case tokSymbol:
		if t.text == "(" {
			p.next()
			if err := p.nest(); err != nil {
				return nil, 0, err
			}
			if p.peekKeyword("SELECT") {
				sel, h, err := p.parseSelect()
				p.depth--
				if err != nil {
					return nil, 0, err
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, 0, err
				}
				return Subquery{Sel: sel, Pos: pos}, h + 1, nil
			}
			e, h, err := p.parseOr()
			p.depth--
			if err != nil {
				return nil, 0, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, 0, err
			}
			return e, h + 1, nil
		}
	}
	return nil, 0, p.errorf("expected expression, found %s", t.describe())
}
