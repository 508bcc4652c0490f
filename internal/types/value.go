// Package types defines the scalar value model shared by every layer of the
// system: the data loaded into relations, the constants appearing in AGCA
// expressions, and the keys of materialized views.
//
// Values are dynamically typed scalars (int64, float64, string, bool). Numeric
// values compare and combine across int/float, matching SQL's implicit
// coercions; the multiplicities of generalized multiset relations are handled
// separately (see package gmr).
package types

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns a human-readable kind name.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed scalar. The zero Value is the SQL NULL-like
// "null" value, which compares equal only to itself and coerces to 0.
//
// Ints and bools keep their value in i, and floats keep their
// math.Float64bits there, so a Value is three fields and valueBytes (32)
// bytes: within the compiler's limit for keeping a struct in registers across
// calls and returns (see TestValueLayout). Do not add a field.
type Value struct {
	kind Kind
	i    int64
	s    string
}

// valueBytes is the size of a Value, pinned by TestValueLayout.
const valueBytes = 32

// Null returns the null value.
func Null() Value { return Value{} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, i: int64(math.Float64bits(v))} }

// Str returns a string value.
func Str(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	if v {
		return Value{kind: KindBool, i: 1}
	}
	return Value{kind: KindBool}
}

// Date encodes a calendar date as the integer yyyymmdd, which preserves the
// ordering used by the workload queries' date-range predicates.
func Date(year, month, day int) Value {
	return Int(int64(year)*10000 + int64(month)*100 + int64(day))
}

// float returns the payload of a KindFloat value.
func (v Value) float() float64 { return math.Float64frombits(uint64(v.i)) }

// Kind reports the dynamic type of the value.
func (v Value) Kind() Kind { return v.kind }

// AsInt returns the value coerced to an int64.
func (v Value) AsInt() int64 {
	switch v.kind {
	case KindInt, KindBool:
		return v.i
	case KindFloat:
		return int64(v.float())
	case KindString:
		n, _ := strconv.ParseInt(v.s, 10, 64)
		return n
	default:
		return 0
	}
}

// AsFloat returns the value coerced to a float64.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt, KindBool:
		return float64(v.i)
	case KindFloat:
		return v.float()
	case KindString:
		f, _ := strconv.ParseFloat(v.s, 64)
		return f
	default:
		return 0
	}
}

// AsString returns the value coerced to a string.
func (v Value) AsString() string {
	switch v.kind {
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindBool:
		if v.i != 0 {
			return "true"
		}
		return "false"
	default:
		return ""
	}
}

// AsBool reports the truthiness of the value (non-zero / non-empty).
func (v Value) AsBool() bool {
	switch v.kind {
	case KindBool, KindInt:
		return v.i != 0
	case KindFloat:
		return v.float() != 0
	case KindString:
		return v.s != ""
	default:
		return false
	}
}

// IsNumeric reports whether the value is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String implements fmt.Stringer.
func (v Value) String() string {
	if v.kind == KindString {
		return strconv.Quote(v.s)
	}
	if v.kind == KindNull {
		return "NULL"
	}
	return v.AsString()
}

// Equal reports whether two values are equal, with numeric coercion between
// int and float.
func (v Value) Equal(o Value) bool { return Compare(v, o) == 0 }

// Compare orders two values: -1 if v < o, 0 if equal, +1 if v > o. Numerics
// compare numerically across int/float/bool, in cmp.Compare's order for
// floats: a NaN equals only a NaN and sorts before every other number, as
// the key codec gives every NaN one key of its own. Strings compare
// lexicographically; null sorts before everything; a string and a non-string
// order by kind.
func Compare(a, b Value) int {
	// Same-kind fast paths: the executors' per-row predicate checks almost
	// always compare like kinds, and the general path below pays several
	// coercion branches before reaching them.
	if a.kind == b.kind {
		switch a.kind {
		case KindInt, KindBool:
			switch {
			case a.i < b.i:
				return -1
			case a.i > b.i:
				return 1
			default:
				return 0
			}
		case KindFloat:
			af, bf := a.float(), b.float()
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			default:
				return cmp.Compare(af, bf) // equal, or a NaN
			}
		case KindString:
			return strings.Compare(a.s, b.s)
		case KindNull:
			return 0
		}
	}
	if a.kind == KindNull || b.kind == KindNull || a.kind == KindString || b.kind == KindString {
		// Null sorts first, and a string and a non-string order by kind.
		// Coercing the string to a number would make values Compare equal
		// that the key codec keeps apart (Int(0) and Str("a")), so that an
		// equality filter and the join it unifies into would disagree.
		return compareKinds(a.kind, b.kind)
	}
	// Mixed int/float/bool: numerically.
	af, bf := a.AsFloat(), b.AsFloat()
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	default:
		return cmp.Compare(af, bf) // equal, or a NaN
	}
}

func compareKinds(a, b Kind) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Add returns the numeric sum of two values. Integer addition is exact;
// anything involving a float produces a float.
func Add(a, b Value) Value {
	if a.kind == KindInt && b.kind == KindInt {
		return Int(a.i + b.i)
	}
	return Float(a.AsFloat() + b.AsFloat())
}

// Sub returns a - b with the same coercion rules as Add.
func Sub(a, b Value) Value {
	if a.kind == KindInt && b.kind == KindInt {
		return Int(a.i - b.i)
	}
	return Float(a.AsFloat() - b.AsFloat())
}

// Mul returns the numeric product of two values.
func Mul(a, b Value) Value {
	if a.kind == KindInt && b.kind == KindInt {
		return Int(a.i * b.i)
	}
	return Float(a.AsFloat() * b.AsFloat())
}

// Div returns a / b as a float; division by zero yields 0, matching the
// "deletable aggregate" convention used by the runtime for AVG maintenance.
func Div(a, b Value) Value {
	d := b.AsFloat()
	if d == 0 {
		return Float(0)
	}
	return Float(a.AsFloat() / d)
}

// Neg returns the numeric negation of v.
func Neg(v Value) Value {
	if v.kind == KindInt {
		return Int(-v.i)
	}
	return Float(-v.AsFloat())
}

// MemSize estimates the in-memory footprint of the value in bytes: the Value
// itself plus a string's bytes. It is used for the coarse memory accounting
// that reproduces the paper's memory traces.
func (v Value) MemSize() int {
	if v.kind == KindString {
		return valueBytes + len(v.s)
	}
	return valueBytes
}
