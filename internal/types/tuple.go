package types

import "strings"

// Tuple is an ordered sequence of values. Its meaning (which column each slot
// holds) is given by an accompanying schema, a []string of column/variable
// names kept alongside wherever tuples flow.
type Tuple []Value

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Equal reports whether two tuples have the same length and pairwise equal
// values.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i := range t {
		if !t[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// String renders the tuple as "(v1, v2, ...)".
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// MemSize estimates the in-memory footprint of the tuple in bytes.
func (t Tuple) MemSize() int {
	n := 24 // slice header
	for _, v := range t {
		n += v.MemSize()
	}
	return n
}

// Schema is an ordered list of column (variable) names.
type Schema []string

// Index returns the position of name in the schema, or -1.
func (s Schema) Index(name string) int {
	for i, n := range s {
		if n == name {
			return i
		}
	}
	return -1
}

// Contains reports whether name appears in the schema.
func (s Schema) Contains(name string) bool { return s.Index(name) >= 0 }

// Equal reports whether two schemas list the same names in the same order.
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// String renders the schema as "[a, b, c]".
func (s Schema) String() string { return "[" + strings.Join(s, ", ") + "]" }

// Env is a variable environment: an assignment of values to variable names.
// It is the "context of bound variables" of the AGCA semantics.
type Env map[string]Value

// Clone returns a copy of the environment.
func (e Env) Clone() Env {
	out := make(Env, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// Extend returns a new environment with the bindings of e plus vars[i]=vals[i].
// The receiver is not modified.
func (e Env) Extend(vars Schema, vals Tuple) Env {
	out := make(Env, len(e)+len(vars))
	for k, v := range e {
		out[k] = v
	}
	for i, name := range vars {
		out[name] = vals[i]
	}
	return out
}
