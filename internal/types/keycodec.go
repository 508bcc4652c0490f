package types

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This file is the canonical key codec: the one place that knows how a value
// or tuple is written as a map key. Every GMR keys its arena, probe table and
// secondary indexes by these bytes, the executors build probe keys with them,
// and the checkpoint codec stores view contents as the raw key bytes and
// recovers the tuples with AppendDecodedKey (DecodeKey's appending form)
// instead of persisting them separately.
//
// Each value encodes as a one-byte tag followed by a self-delimiting payload,
// so a tuple key is just its values' encodings concatenated:
//
//	null                          tagNull
//	int, bool, integral float     tagInt   zigzag uvarint
//	  with |f| < 2^62
//	any other float               tagFloat 8 bytes, little-endian IEEE 754
//	                                       (every NaN as nanBits)
//	string                        tagStr   uvarint length, then the bytes
//
// The encoding is canonical, not injective: values that Compare as equal
// encode identically (booleans as 0/1 integers, integral floats as the equal
// integer, every NaN alike), so DecodeKey returns one representative per
// equivalence class — the integer form for numbers. The representative
// Compares equal to the original value, coerces to the same float, and
// re-encodes to the same bytes, which is exactly the contract view contents
// need. The kind-exact value codec of the log and the wire is a different
// format (frame.AppendValue).

// The key tags. They coincide with the Kind numbers they stand for.
const (
	tagNull  = byte(KindNull)
	tagInt   = byte(KindInt)
	tagFloat = byte(KindFloat)
	tagStr   = byte(KindString)
)

// nanBits is the single NaN bit pattern a key carries (math.NaN()'s).
const nanBits = 0x7ff8000000000001

// intKeyLimit bounds the floats that take the integer encoding: beyond 2^62
// the int/float coercion of Compare is lossy either way, so such floats stay
// float-encoded.
const intKeyLimit = 1 << 62

// EncodeKey appends the canonical key encoding of v to dst and returns the
// extended slice.
func (v Value) EncodeKey(dst []byte) []byte {
	switch v.kind {
	case KindInt, KindBool:
		// Compare coerces booleans numerically (Bool(true) == Int(1)), so
		// their keys coincide as well.
		return appendIntKey(dst, v.i)
	case KindFloat:
		f := v.float()
		if f == math.Trunc(f) && math.Abs(f) < intKeyLimit {
			return appendIntKey(dst, int64(f))
		}
		bits := uint64(v.i)
		if math.IsNaN(f) {
			bits = nanBits
		}
		return binary.LittleEndian.AppendUint64(append(dst, tagFloat), bits)
	case KindString:
		dst = binary.AppendUvarint(append(dst, tagStr), uint64(len(v.s)))
		return append(dst, v.s...)
	default:
		return append(dst, tagNull)
	}
}

func appendIntKey(dst []byte, n int64) []byte {
	return binary.AppendUvarint(append(dst, tagInt), uint64(n<<1)^uint64(n>>63))
}

// EncodeKey returns the canonical key of the tuple as a string, suitable for
// use as a Go map key. Tuples with equal values produce equal keys.
func (t Tuple) EncodeKey() string {
	if len(t) == 0 {
		return ""
	}
	return string(t.AppendKey(make([]byte, 0, 10*len(t))))
}

// AppendKey appends the canonical key of the tuple (the same bytes EncodeKey
// converts to a string) to dst and returns the extended slice. Hot paths use
// it with a reused buffer so that key construction allocates nothing; the
// bytes are only copied into a string when an entry is actually inserted into
// a map. A key over some of a tuple's columns is the concatenation of those
// columns' Value.EncodeKey.
func (t Tuple) AppendKey(dst []byte) []byte {
	for _, v := range t {
		dst = v.EncodeKey(dst)
	}
	return dst
}

var errTruncated = errors.New("truncated")

// DecodeKey decodes a canonical tuple key back into a Tuple. An empty key
// decodes to the empty (nullary) tuple. It accepts exactly the bytes
// AppendKey produces: truncated values, unknown tags, non-minimal varints, a
// float tag holding an integral value or a NaN other than nanBits all yield
// an error, never a panic, so every key it accepts re-encodes to itself.
func DecodeKey(key []byte) (Tuple, error) {
	t, err := AppendDecodedKey(Tuple{}, key)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// AppendDecodedKey is DecodeKey appending to dst: it decodes the key's
// values onto the end of dst and returns the extended slice, so a caller
// that owns a block of values (a store's slab) decodes into it without
// allocating, except for the bytes of string values. On error it returns
// dst unchanged in length; the capacity beyond it may have been written.
func AppendDecodedKey(dst Tuple, key []byte) (Tuple, error) {
	t := dst
	for pos := 0; pos < len(key); {
		v, n, err := decodeValue(key[pos:])
		if err != nil {
			return dst, fmt.Errorf("key offset %d: %w", pos, err)
		}
		t = append(t, v)
		pos += n
	}
	return t, nil
}

// decodeValue decodes the value at the start of b and returns it together
// with the number of bytes consumed.
func decodeValue(b []byte) (Value, int, error) {
	switch b[0] {
	case tagNull:
		return Null(), 1, nil
	case tagInt:
		u, n, err := uvarint(b[1:])
		if err != nil {
			return Value{}, 0, fmt.Errorf("int: %w", err)
		}
		return Int(int64(u>>1) ^ -int64(u&1)), 1 + n, nil
	case tagFloat:
		if len(b) < 9 {
			return Value{}, 0, fmt.Errorf("float: %w", errTruncated)
		}
		bits := binary.LittleEndian.Uint64(b[1:])
		f := math.Float64frombits(bits)
		switch {
		case f == math.Trunc(f) && math.Abs(f) < intKeyLimit:
			return Value{}, 0, fmt.Errorf("float tag holds the integral value %v", f)
		case math.IsNaN(f) && bits != nanBits:
			return Value{}, 0, fmt.Errorf("non-canonical NaN %#x", bits)
		}
		return Float(f), 9, nil
	case tagStr:
		n, w, err := uvarint(b[1:])
		if err != nil {
			return Value{}, 0, fmt.Errorf("string length: %w", err)
		}
		if n > uint64(len(b)-1-w) {
			return Value{}, 0, fmt.Errorf("string of %d bytes: %w", n, errTruncated)
		}
		start := 1 + w
		return Str(string(b[start : start+int(n)])), start + int(n), nil
	default:
		return Value{}, 0, fmt.Errorf("unknown tag %#x", b[0])
	}
}

// uvarint reads a minimally encoded uvarint from the start of b.
func uvarint(b []byte) (uint64, int, error) {
	u, n := binary.Uvarint(b)
	switch {
	case n == 0:
		return 0, 0, errTruncated
	case n < 0:
		return 0, 0, errors.New("varint overflows 64 bits")
	case n > 1 && b[n-1] == 0:
		return 0, 0, errors.New("non-minimal varint")
	}
	return u, n, nil
}
