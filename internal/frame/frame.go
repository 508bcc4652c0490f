// Package frame is the one byte codec under every persisted or transmitted
// structure of the system: write-ahead log records, checkpoint chain links,
// the serving tier's change-stream frames and the flat-store images inside
// checkpoints.
//
// Every log record and wire message is one frame,
//
//	[u32 payload length][u32 CRC-32C of payload][payload]
//
// (little-endian), written by reserving the header (Begin), appending the
// payload and backpatching the header (End), and validated by Decode or Read
// against a size cap the caller passes. Checksum is the CRC-32C (Castagnoli)
// every layer checksums with, the whole-file trailing CRC of a checkpoint
// link included.
//
// Reader is the bounds-checked payload cursor every decoder walks its bytes
// with: the first failure sticks, later reads return zero values, and the
// error names the field and the offset it stopped at.
//
// AppendValue and Reader.Value are the kind-exact value codec: a tag byte
// plus a kind-specific payload that round-trips a value's exact runtime kind,
// unlike the canonical key encoding, which collapses kinds that Compare
// equal. Replay must re-execute triggers with bit-identical inputs, and a
// remote subscriber must reassemble the tuples an in-process one sees, so
// both the log and the wire carry values this way.
//
// Decoding never panics and never allocates from a count it has not checked
// against the bytes that remain.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"dbtoaster/internal/types"
)

// HeaderBytes is the size of a frame header: payload length plus CRC.
const HeaderBytes = 8

var table = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of b.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, table) }

// Begin reserves a frame header at the end of dst. It returns the extended
// slice and the header's offset; append the payload, then call End.
func Begin(dst []byte) ([]byte, int) {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0), len(dst)
}

// End backpatches the header Begin reserved at start with the length and CRC
// of everything appended after it.
func End(dst []byte, start int) []byte {
	payload := dst[start+HeaderBytes:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], Checksum(payload))
	return dst
}

// Decode validates the frame at the front of b — header, a payload length in
// (0, max], and the CRC — and returns its payload and the total framed size.
func Decode(b []byte, max int) (payload []byte, n int, err error) {
	if len(b) < HeaderBytes {
		return nil, 0, fmt.Errorf("truncated frame header (%d bytes)", len(b))
	}
	length := int(binary.LittleEndian.Uint32(b))
	if length <= 0 || length > max {
		return nil, 0, fmt.Errorf("implausible frame length %d", length)
	}
	if len(b)-HeaderBytes < length {
		return nil, 0, fmt.Errorf("truncated frame payload (want %d bytes, have %d)", length, len(b)-HeaderBytes)
	}
	payload = b[HeaderBytes : HeaderBytes+length]
	if got, want := Checksum(payload), binary.LittleEndian.Uint32(b[4:]); got != want {
		return nil, 0, fmt.Errorf("frame CRC mismatch (stored %#x, computed %#x)", want, got)
	}
	return payload, HeaderBytes + length, nil
}

// Read reads one whole frame (header and payload) from r into buf, growing it
// as needed, and returns the framed bytes for Decode. The length is checked
// against max before the payload is read, so a corrupt header cannot force an
// oversized allocation. The CRC is Decode's to check.
func Read(r io.Reader, buf []byte, max int) ([]byte, error) {
	if cap(buf) < HeaderBytes {
		buf = make([]byte, HeaderBytes, 4096)
	}
	buf = buf[:HeaderBytes]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	length := int(binary.LittleEndian.Uint32(buf))
	if length <= 0 || length > max {
		return nil, fmt.Errorf("implausible frame length %d", length)
	}
	total := HeaderBytes + length
	if cap(buf) < total {
		buf = append(make([]byte, 0, total), buf...)
	}
	buf = buf[:total]
	if _, err := io.ReadFull(r, buf[HeaderBytes:]); err != nil {
		return nil, fmt.Errorf("short frame payload: %w", err)
	}
	return buf, nil
}

// AppendStr16 appends s as a u16 length and its bytes.
func AppendStr16(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// Value tags of the kind-exact codec.
const (
	valNull   = 0
	valInt    = 1
	valFloat  = 2
	valString = 3
	valBool   = 4
)

// AppendValue appends the kind-exact encoding of v: a tag byte, then 8
// little-endian bytes for an int or float (the float's IEEE bits), a u32
// length and the bytes for a string, one byte for a bool, nothing for null.
func AppendValue(dst []byte, v types.Value) []byte {
	switch v.Kind() {
	case types.KindInt:
		dst = append(dst, valInt)
		return binary.LittleEndian.AppendUint64(dst, uint64(v.AsInt()))
	case types.KindFloat:
		dst = append(dst, valFloat)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.AsFloat()))
	case types.KindString:
		s := v.AsString()
		dst = append(dst, valString)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
		return append(dst, s...)
	case types.KindBool:
		if v.AsBool() {
			return append(dst, valBool, 1)
		}
		return append(dst, valBool, 0)
	default:
		return append(dst, valNull)
	}
}

// Reader is a bounds-checked cursor over a payload. Every read names the
// field it reads; the first read that runs past the end (or decodes a value
// tag it does not know) records an error naming that field and its offset,
// and every later read returns a zero value — so a decoder can read a run of
// fields and check Err once, before it trusts any of them.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Done returns the first failure, or an error if any bytes of the payload
// (described by what) were left unread.
func (r *Reader) Done(what string) error {
	if r.err == nil && r.off != len(r.b) {
		r.err = fmt.Errorf("%d trailing bytes in %s", len(r.b)-r.off, what)
	}
	return r.err
}

// Bytes returns the next n bytes (sharing the payload's storage).
func (r *Reader) Bytes(n int, what string) []byte {
	if uint(n) > uint(len(r.b)-r.off) {
		r.short(n, what)
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off : r.off]
}

// short records a read of n bytes the payload cannot satisfy and exhausts
// the reader, so every later read fails too.
func (r *Reader) short(n int, what string) {
	r.failf("truncated %s at offset %d (need %d bytes, have %d)", what, r.off, n, len(r.b)-r.off)
}

// failf records the first failure and exhausts the reader.
func (r *Reader) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.off = len(r.b)
}

// U8 reads one byte.
func (r *Reader) U8(what string) byte {
	if r.off >= len(r.b) {
		r.short(1, what)
		return 0
	}
	r.off++
	return r.b[r.off-1]
}

// U16 reads a little-endian uint16.
func (r *Reader) U16(what string) uint16 {
	if len(r.b)-r.off < 2 {
		r.short(2, what)
		return 0
	}
	r.off += 2
	return binary.LittleEndian.Uint16(r.b[r.off-2:])
}

// U32 reads a little-endian uint32.
func (r *Reader) U32(what string) uint32 {
	if len(r.b)-r.off < 4 {
		r.short(4, what)
		return 0
	}
	r.off += 4
	return binary.LittleEndian.Uint32(r.b[r.off-4:])
}

// U64 reads a little-endian uint64.
func (r *Reader) U64(what string) uint64 {
	if len(r.b)-r.off < 8 {
		r.short(8, what)
		return 0
	}
	r.off += 8
	return binary.LittleEndian.Uint64(r.b[r.off-8:])
}

// Str16 reads a string written by AppendStr16.
func (r *Reader) Str16(what string) string {
	n := r.U16(what)
	return string(r.Bytes(int(n), what))
}

// Value reads one value written by AppendValue, keeping its exact kind.
func (r *Reader) Value(what string) types.Value {
	switch tag := r.U8(what); tag {
	case valNull:
		return types.Null()
	case valInt:
		return types.Int(int64(r.U64(what)))
	case valFloat:
		return types.Float(math.Float64frombits(r.U64(what)))
	case valString:
		n := r.U32(what)
		return types.Str(string(r.Bytes(int(n), what)))
	case valBool:
		return types.Bool(r.U8(what) != 0)
	default:
		r.failf("unknown tag %d of %s at offset %d", tag, what, r.off-1)
		return types.Value{}
	}
}
