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
// plus a compact kind-specific payload (an int as a zigzag varint, a string
// as a uvarint length and its bytes) that round-trips a value's exact runtime
// kind, unlike the canonical key encoding, which collapses kinds that Compare
// equal. Replay must re-execute triggers with bit-identical inputs, and a
// remote subscriber must reassemble the tuples an in-process one sees, so
// both the log and the wire carry values this way. The codec is canonical:
// Reader accepts only the bytes AppendValue writes (minimal varints, a bool
// byte of 0 or 1), so whatever it accepts re-encodes byte-equal.
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

// AppendUvarint appends x as a uvarint (encoding/binary's: seven bits a
// byte, low group first, the high bit set on every byte but the last), so a
// value below 128 takes one byte. Up to four bytes are written in one append.
func AppendUvarint(dst []byte, x uint64) []byte {
	switch {
	case x < 1<<7:
		return append(dst, byte(x))
	case x < 1<<14:
		return append(dst, byte(x)|0x80, byte(x>>7))
	case x < 1<<21:
		return append(dst, byte(x)|0x80, byte(x>>7)|0x80, byte(x>>14))
	case x < 1<<28:
		return append(dst, byte(x)|0x80, byte(x>>7)|0x80, byte(x>>14)|0x80, byte(x>>21))
	}
	return binary.AppendUvarint(dst, x)
}

// AppendStr appends s as a uvarint length and its bytes.
func AppendStr(dst []byte, s string) []byte {
	return append(AppendUvarint(dst, uint64(len(s))), s...)
}

// Value tags of the kind-exact codec.
const (
	valNull   = 0
	valInt    = 1
	valFloat  = 2
	valString = 3
	valBool   = 4
)

// AppendValue appends the kind-exact encoding of v: a tag byte, then
//
//	int     zigzag varint (small magnitudes of either sign take few bytes)
//	float   8 little-endian bytes of the IEEE bits
//	string  uvarint length and the bytes
//	bool    one byte, 0 or 1
//	null    nothing
func AppendValue(dst []byte, v types.Value) []byte {
	switch v.Kind() {
	case types.KindInt:
		x := v.AsInt()
		return AppendUvarint(append(dst, valInt), uint64(x<<1)^uint64(x>>63))
	case types.KindFloat:
		dst = append(dst, valFloat)
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.AsFloat()))
	case types.KindString:
		return AppendStr(append(dst, valString), v.AsString())
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

// Uvarint reads a uvarint written by AppendUvarint. Longer than one byte,
// it must be minimal (no redundant zero high group) and fit 64 bits.
func (r *Reader) Uvarint(what string) uint64 {
	if x, ok := r.uvarint1(); ok {
		return x
	}
	return r.uvarintSlow(what)
}

// uvarint1 reads the next byte if it is a whole uvarint (below 128), the
// common case, which callers on hot paths take without a call.
func (r *Reader) uvarint1() (uint64, bool) {
	if off := r.off; off < len(r.b) && r.b[off] < 0x80 {
		r.off = off + 1
		return uint64(r.b[off]), true
	}
	return 0, false
}

// uvarintSlow reads a uvarint that uvarint1 did not: one of two or more
// bytes, or a failure (truncated, past 64 bits, or non-minimal).
func (r *Reader) uvarintSlow(what string) uint64 {
	b := r.b[r.off:]
	if len(b) >= 4 {
		// Two to four bytes, unrolled. A zero last byte is non-minimal and
		// left to the loop below to report.
		x := uint64(b[0]&0x7f) | uint64(b[1]&0x7f)<<7
		switch {
		case b[1] < 0x80:
			if b[1] != 0 {
				r.off += 2
				return x
			}
		case b[2] < 0x80:
			if b[2] != 0 {
				r.off += 3
				return x | uint64(b[2])<<14
			}
		case b[3] < 0x80:
			if b[3] != 0 {
				r.off += 4
				return x | uint64(b[2]&0x7f)<<14 | uint64(b[3])<<21
			}
		}
	}
	var x uint64
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c < 0x80 {
			switch {
			case i == binary.MaxVarintLen64-1 && c > 1:
				r.failf("overlong %s at offset %d (varint exceeds 64 bits)", what, r.off)
			case c == 0 && i > 0:
				r.failf("non-minimal %s at offset %d (varint ends in a zero group)", what, r.off)
			default:
				r.off += i + 1
				return x | uint64(c)<<(7*i)
			}
			return 0
		}
		if i == binary.MaxVarintLen64-1 {
			r.failf("overlong %s at offset %d (varint exceeds 64 bits)", what, r.off)
			return 0
		}
		x |= uint64(c&0x7f) << (7 * i)
	}
	r.failf("truncated %s at offset %d (varint runs past the %d bytes left)", what, r.off, len(b))
	return 0
}

// StrBytes reads the bytes of a string written by AppendStr (sharing the
// payload's storage).
func (r *Reader) StrBytes(what string) []byte {
	n := r.Uvarint(what)
	if n > uint64(len(r.b)-r.off) {
		r.failf("truncated %s at offset %d (need %d bytes, have %d)", what, r.off, n, len(r.b)-r.off)
		return nil
	}
	return r.Bytes(int(n), what)
}

// Value reads one value written by AppendValue, keeping its exact kind.
func (r *Reader) Value(what string) types.Value {
	var one [1]types.Value
	return r.AppendValues(one[:0], 1, what, nil)[0]
}

// AppendValues reads n values written by AppendValue, keeping their exact
// kinds, and appends them to dst. A string's bytes go through str when it
// is non-nil, which returns the string to keep (an interned copy, say); the
// bytes are the payload's and must not be kept. After a failure the
// remaining values read as zero values, and Err names the first failure.
func (r *Reader) AppendValues(dst []types.Value, n int, what string, str func([]byte) string) []types.Value {
	for ; n > 0; n-- {
		if r.off >= len(r.b) {
			r.short(1, what)
			dst = append(dst, types.Value{})
			continue
		}
		tag := r.b[r.off]
		r.off++
		switch tag {
		case valNull:
			dst = append(dst, types.Null())
		case valInt:
			u, ok := r.uvarint1()
			if !ok {
				u = r.uvarintSlow(what)
			}
			dst = append(dst, types.Int(int64(u>>1)^-int64(u&1)))
		case valFloat:
			dst = append(dst, types.Float(math.Float64frombits(r.U64(what))))
		case valString:
			b := r.StrBytes(what)
			if str != nil {
				dst = append(dst, types.Str(str(b)))
			} else {
				dst = append(dst, types.Str(string(b)))
			}
		case valBool:
			b := r.U8(what)
			if b > 1 {
				r.failf("bad bool byte %d of %s at offset %d", b, what, r.off-1)
			}
			dst = append(dst, types.Bool(b == 1))
		default:
			r.failf("unknown tag %d of %s at offset %d", tag, what, r.off-1)
			dst = append(dst, types.Value{})
		}
	}
	return dst
}
