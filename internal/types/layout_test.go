package types

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestValueLayout pins Value to what the Go compiler keeps in registers. The
// SSA backend treats a struct as an SSA value — passed, returned and held in
// registers rather than in a stack slot — only if it has at most 4 fields
// and is at most 32 bytes (ssa.CanSSA in cmd/compile). Every compiled scalar
// closure returns a Value and every Compare/Add/Mul takes two, so the layout
// is on every row's path. On a 2-vCPU x86-64 host, at 40 bytes (a separate
// float64 word) the discount-factor closure of exec's
// BenchmarkCompiledScalar ran in ~210 ns against ~75 ns at 32, and the
// shared-18 benchmark workload refreshed 1.35x slower. MemSize reports
// valueBytes, so this also keeps the memory accounting honest.
func TestValueLayout(t *testing.T) {
	typ := reflect.TypeOf(Value{})
	if typ.Size() != valueBytes || valueBytes != 32 {
		t.Errorf("Value is %d bytes (valueBytes %d), want 32", typ.Size(), valueBytes)
	}
	if typ.NumField() > 4 {
		t.Errorf("Value has %d fields, want at most 4", typ.NumField())
	}
	if got := Int(1).MemSize(); got != int(typ.Size()) {
		t.Errorf("Int(1).MemSize() = %d, want the Value size %d", got, typ.Size())
	}
}

// TestNoUnsafe: the layout is plain Go. Package types must not reach for
// unsafe to shrink Value further (a 24-byte pointer layout measured no
// faster and breaks structural equality of values).
func TestNoUnsafe(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "unsafe" {
				t.Errorf("%s imports unsafe", name)
			}
		}
	}
}
