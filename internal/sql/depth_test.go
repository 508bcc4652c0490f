package sql

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

const depthDDL = "CREATE STREAM R (A int, B int);\nCREATE STREAM S (A int);\n"

// nested wraps inner in n copies of open and close.
func nested(open, inner, close string, n int) string {
	return strings.Repeat(open, n) + inner + strings.Repeat(close, n)
}

// chain joins n copies of term with op.
func chain(term, op string, n int) string {
	return strings.TrimSuffix(strings.Repeat(term+op, n), op)
}

// joinChain is a FROM list of n JOINs, each adding an ON conjunct to the
// WHERE clause's AND chain.
func joinChain(n int) string {
	var b strings.Builder
	b.WriteString("SELECT SUM(R.A) FROM R")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " JOIN S s%d ON R.A = s%d.A", i, i)
	}
	return b.String()
}

// subqueries nests n scalar subqueries in WHERE clauses.
func subqueries(n int) string {
	return "SELECT SUM(R.A) FROM R WHERE R.A < " +
		nested("(SELECT SUM(R.B) FROM R WHERE R.A < ", "1", ")", n)
}

// depthShapes builds one query per way the parser can grow an expression
// tree, each n levels deep (give or take the SELECT item around it).
var depthShapes = map[string]func(n int) string{
	"parentheses": func(n int) string { return "SELECT SUM(" + nested("(", "R.A", ")", n) + ") FROM R" },
	"unary minus": func(n int) string { return "SELECT SUM(" + strings.Repeat("- ", n) + "R.A) FROM R" },
	"NOT":         func(n int) string { return "SELECT COUNT(*) FROM R WHERE " + strings.Repeat("NOT ", n) + "R.A > 0" },
	"plus chain":  func(n int) string { return "SELECT SUM(" + chain("R.A", " + ", n) + ") FROM R" },
	"times chain": func(n int) string { return "SELECT SUM(" + chain("R.A", " * ", n) + ") FROM R" },
	"AND chain":   func(n int) string { return "SELECT COUNT(*) FROM R WHERE " + chain("R.A > 0", " AND ", n) },
	"OR chain":    func(n int) string { return "SELECT COUNT(*) FROM R WHERE " + chain("R.A > 0", " OR ", n) },
	"JOIN chain":  joinChain,
	"subqueries":  subqueries,
}

func wantDepthError(t *testing.T, name, src string) {
	t.Helper()
	_, err := Parse(src)
	var pe *ParseError
	if !errors.As(err, &pe) || !strings.Contains(pe.Msg, "nested deeper than") {
		t.Errorf("%s: Parse error = %v, want a positioned nesting error", name, err)
	}
}

// TestDeepExpressionRejected holds the parser to maxExprHeight: input that
// used to overflow the goroutine stack — five million parentheses in the
// parser, three million terms in the translator — and every other way of
// growing the tree now fails with a positioned parse error.
func TestDeepExpressionRejected(t *testing.T) {
	wantDepthError(t, "5M parentheses", depthDDL+"SELECT SUM("+nested("(", "R.A", ")", 5_000_000)+") FROM R")
	wantDepthError(t, "3M terms", depthDDL+"SELECT SUM("+chain("R.A", " + ", 3_000_000)+") FROM R")
	for name, shape := range depthShapes {
		wantDepthError(t, name, depthDDL+shape(maxExprHeight+1))
	}
}

// TestExpressionHeightBoundIsExact pins where the bound falls: SUM over a
// chain of n terms is n+1 levels high (SUM, n-1 operators, the leaf), and
// SUM over k unary minuses is k+2.
func TestExpressionHeightBoundIsExact(t *testing.T) {
	for _, c := range []struct {
		name   string
		ok, no string
	}{
		{"plus chain", depthShapes["plus chain"](maxExprHeight - 1), depthShapes["plus chain"](maxExprHeight)},
		{"unary minus", depthShapes["unary minus"](maxExprHeight - 2), depthShapes["unary minus"](maxExprHeight - 1)},
	} {
		if _, err := Parse(depthDDL + c.ok); err != nil {
			t.Errorf("%s at the bound: %v", c.name, err)
		}
		wantDepthError(t, c.name+" past the bound", depthDDL+c.no)
	}
}

// TestModerateNestingTranslates: 200 levels of every shape parse and
// translate — except OR, whose expansion 200 levels deep is rejected (see
// TestOrExpansionBounded).
func TestModerateNestingTranslates(t *testing.T) {
	for name, shape := range depthShapes {
		script, err := Parse(depthDDL + shape(200))
		if err != nil {
			t.Errorf("%s: parse: %v", name, err)
			continue
		}
		_, err = script.Queries("q")
		if name == "OR chain" {
			var te *TranslateError
			if !errors.As(err, &te) {
				t.Errorf("%s: translate error = %v, want a TranslateError", name, err)
			}
		} else if err != nil {
			t.Errorf("%s: translate: %v", name, err)
		}
	}
}

// balancedOr is a complete OR tree of depth k over 2^k comparisons.
func balancedOr(k int) string {
	if k == 0 {
		return "R.A > 0"
	}
	return "(" + balancedOr(k-1) + " OR " + balancedOr(k-1) + ")"
}

// TestOrExpansionBounded: OR translates by inclusion-exclusion, writing each
// operand twice, so translation is exponential in OR nesting. A chain of 12
// ORs still translates; a chain of 40, or a balanced tree whose 1 024
// comparisons each sit under 10 ORs, fails with a positioned error instead of
// running for hours.
func TestOrExpansionBounded(t *testing.T) {
	queries := func(where string) error {
		script, err := Parse(depthDDL + "SELECT COUNT(*) FROM R WHERE " + where)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		_, err = script.Queries("q")
		return err
	}
	if err := queries(chain("R.A > 0", " OR ", 12)); err != nil {
		t.Errorf("12 ORs: %v", err)
	}
	for name, where := range map[string]string{
		"40 ORs":        chain("R.A > 0", " OR ", 40),
		"balanced tree": balancedOr(10),
	} {
		var te *TranslateError
		if err := queries(where); !errors.As(err, &te) || !strings.Contains(te.Msg, "OR expansion") {
			t.Errorf("%s: translate error = %v, want the OR expansion bound", name, err)
		}
	}
}
