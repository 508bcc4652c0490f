package sql

import (
	"fmt"
	"strings"
)

// tokKind enumerates the lexical token classes.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol
	tokError // an unscannable character; the lexer holds the error
)

// token is one lexical token with its source position (1-based line/column).
// 32-bit positions keep it at four words, small enough for the compiler to
// pass and return it in registers, as the parser does for every token.
type token struct {
	kind tokKind
	text string // keywords upper-cased, symbols canonical, others verbatim
	line int32
	col  int32
}

func (t token) describe() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	case tokNumber:
		return fmt.Sprintf("number %s", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// keywords are the reserved words of the grammar. Everything else —
// including aggregate and scalar function names — is an ordinary identifier
// resolved by the parser/translator, so new functions need no lexer change.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"AS": true, "AND": true, "OR": true, "NOT": true, "EXISTS": true,
	"IN": true, "BETWEEN": true, "LIKE": true, "CREATE": true,
	"STREAM": true, "TABLE": true, "JOIN": true, "INNER": true, "ON": true,
}

// lexError is a positioned scan error.
type lexError struct {
	line, col int32
	msg       string
}

func (e *lexError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.line, e.col, e.msg)
}

// lexer scans a source into tokens on demand, so the parser reads only as
// far as it gets: input it rejects early is never tokenized in full. SQL
// comments (-- to end of line) are skipped.
type lexer struct {
	src       string
	i         int
	line, col int32
	err       *lexError // the first scan error; every later token is tokError
}

func newLexer(src string) lexer { return lexer{src: src, line: 1, col: 1} }

// fail records a scan error at l0:c0 and returns the error token.
func (lx *lexer) fail(l0, c0 int32, msg string) token {
	lx.err = &lexError{l0, c0, msg}
	return token{kind: tokError, line: l0, col: c0}
}

func (lx *lexer) advance(k int) {
	for j := 0; j < k; j++ {
		if lx.src[lx.i+j] == '\n' {
			lx.line++
			lx.col = 1
		} else {
			lx.col++
		}
	}
	lx.i += k
}

// scan returns the next token: tokEOF at the end of the source, tokError
// (with lx.err set) from the first unscannable character on.
func (lx *lexer) scan() token {
	if lx.err != nil {
		return token{kind: tokError, line: lx.err.line, col: lx.err.col}
	}
	src, n := lx.src, len(lx.src)
	for lx.i < n {
		c := src[lx.i]
		l0, c0 := lx.line, lx.col
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance(1)
		case c == '-' && lx.i+1 < n && src[lx.i+1] == '-':
			for lx.i < n && src[lx.i] != '\n' {
				lx.advance(1)
			}
		case isIdentStart(c):
			start := lx.i
			for lx.i < n && isIdentPart(src[lx.i]) {
				lx.advance(1)
			}
			word := src[start:lx.i]
			if upper := strings.ToUpper(word); keywords[upper] {
				return token{kind: tokKeyword, text: upper, line: l0, col: c0}
			}
			return token{kind: tokIdent, text: word, line: l0, col: c0}
		case c >= '0' && c <= '9':
			start := lx.i
			seenDot := false
			for lx.i < n {
				d := src[lx.i]
				if d >= '0' && d <= '9' {
					lx.advance(1)
					continue
				}
				if d == '.' && !seenDot && lx.i+1 < n && src[lx.i+1] >= '0' && src[lx.i+1] <= '9' {
					seenDot = true
					lx.advance(1)
					continue
				}
				break
			}
			return token{kind: tokNumber, text: src[start:lx.i], line: l0, col: c0}
		case c == '\'':
			lx.advance(1)
			var b strings.Builder
			for lx.i < n {
				if src[lx.i] == '\'' {
					if lx.i+1 < n && src[lx.i+1] == '\'' { // '' escapes a quote
						b.WriteByte('\'')
						lx.advance(2)
						continue
					}
					lx.advance(1)
					return token{kind: tokString, text: b.String(), line: l0, col: c0}
				}
				b.WriteByte(src[lx.i])
				lx.advance(1)
			}
			return lx.fail(l0, c0, "unterminated string literal")
		default:
			// Two-character operators first.
			if lx.i+1 < n {
				switch two := src[lx.i : lx.i+2]; two {
				case "<=", ">=", "<>", "!=":
					if two == "!=" {
						two = "<>"
					}
					lx.advance(2)
					return token{kind: tokSymbol, text: two, line: l0, col: c0}
				}
			}
			switch c {
			case '(', ')', ',', ';', '.', '*', '+', '-', '/', '<', '>', '=':
				lx.advance(1)
				return token{kind: tokSymbol, text: string(c), line: l0, col: c0}
			}
			return lx.fail(l0, c0, fmt.Sprintf("unexpected character %q", string(c)))
		}
	}
	return token{kind: tokEOF, line: lx.line, col: lx.col}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}
