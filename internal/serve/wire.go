// Package serve is the networked serving tier: it exposes a maintained
// engine's query results to remote consumers across a process boundary.
// Snapshot reads are served over HTTP/JSON, each response pinned to one
// engine.Acquire() epoch; change streams are served over a binary TCP
// protocol framed by internal/frame, whose kind-exact value codec lets a
// remote subscriber reassemble the exact tuples an in-process
// engine.Subscribe() consumer would see. A per-view fan-out hub multiplexes
// one engine subscription onto any number of client streams, each an
// engine.Mailbox — the same bounded, losslessly coalescing queue behind an
// in-process subscription: a slow client coalesces, it never stalls the
// writer or its peers (see fanout.go). serve.Client is the matching consumer
// with catch-up state and a resume token; a consumer that lost its
// connection dials again with that token (client.go).
package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"

	"dbtoaster/internal/frame"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

// The wire protocol frames every message as one internal/frame frame,
//
//	[u32 payload length][u32 CRC-32C of payload][payload]
//
// (little-endian, the same framing as a log record) with the payload
//
//	u8 kind, then kind-specific fields.
//
// Kinds and their payloads:
//
//	hello  (client → server)  u8 version, u16 query length + query name,
//	                          u8 has-resume, [u64 resume events]
//	subAck (server → client)  u8 version, u8 resume mode, u64 events,
//	                          u16 view length + view name, u16 key count,
//	                          per key u16 length + name
//	batch  (server → client)  u64 events, u8 flags (reset|initial|resumed),
//	                          u32 coalesced, u32 entry count, per entry
//	                          u16 arity, arity kind-exact values
//	                          (frame.AppendValue: an int as a zigzag
//	                          varint, a string as a uvarint length and its
//	                          bytes), f64 multiplicity bits
//	error  (server → client)  u16 message length + message
//	bye    (server → client)  u8 reason
//
// Tuple values ride the kind-exact encoding (frame.AppendValue), not the
// canonical key encoding: a remote consumer must reassemble tuples
// bit-identical to the in-process change stream, and the key encoding
// deliberately collapses value kinds that Compare equal.
//
// Decoding is strict: short frames, CRC mismatches, counts that exceed the
// remaining payload, and trailing bytes are all errors with diagnostics —
// never panics, and never allocations sized by an unvalidated count.

// ProtocolVersion is the wire protocol version spoken by this package.
// Version 2 carries values in the compact codec (varint ints, uvarint string
// lengths); version 1 carried 8-byte ints and u32 string lengths. A hello of
// any other version is answered with an error frame and the connection
// closed.
const ProtocolVersion = 2

const (
	frameHello = 1
	frameAck   = 2
	frameBatch = 3
	frameError = 4
	frameBye   = 5

	maxFrameBytes = 1 << 26 // sanity cap on a single frame's payload (64 MiB)

	flagReset   = 1 << 0
	flagInitial = 1 << 1
	flagResumed = 1 << 2
)

// ResumeMode says how the server answered a subscription's resume token.
type ResumeMode uint8

const (
	// ResumeSnapshot: the token was absent or too stale for the hub's
	// retained deltas; the catch-up sequence replaces the client's state
	// (the first batch carries the reset flag).
	ResumeSnapshot ResumeMode = 0
	// ResumeDelta: the retained delta history covered the token; the client
	// receives one merged delta batch and keeps its state.
	ResumeDelta ResumeMode = 1
	// ResumeCurrent: the token matches the server's position; nothing was
	// missed and the client's state is already current.
	ResumeCurrent ResumeMode = 2
)

// String names the mode for diagnostics.
func (m ResumeMode) String() string {
	switch m {
	case ResumeSnapshot:
		return "snapshot"
	case ResumeDelta:
		return "delta"
	case ResumeCurrent:
		return "current"
	default:
		return fmt.Sprintf("ResumeMode(%d)", uint8(m))
	}
}

// Hello is the client's subscription request, the first frame on a stream
// connection.
type Hello struct {
	Version byte
	// Query names the registered query whose result stream to subscribe to
	// ("" means the program's primary query).
	Query string
	// Resume, when true, carries the events position the client's state
	// already reflects; the server answers with the cheapest sufficient
	// resume mode.
	Resume       bool
	ResumeEvents uint64
}

// SubAck is the server's answer to a Hello: the subscription's starting
// position and the result view's schema.
type SubAck struct {
	Version byte
	Mode    ResumeMode
	// Events is the server's stream position at subscription; batches follow
	// with strictly increasing Events.
	Events uint64
	View   string
	Keys   []string
}

// Batch is one change-stream frame: the net delta of one or more published
// epochs (or a chunk of catch-up state when Initial is set).
type Batch struct {
	// Events is the position this batch brings the subscriber up to.
	Events uint64
	// Reset instructs the consumer to clear its local copy before applying
	// Entries — the first frame of a catch-up sequence.
	Reset bool
	// Initial marks catch-up frames: Entries is state, not a delta. A large
	// catch-up is chunked over several Initial frames; the last one is
	// implicit (the next non-Initial frame, or none until a delta arrives).
	Initial bool
	// Resumed marks the merged-delta answer to a resume token.
	Resumed bool
	// Coalesced counts the publications merged into this batch that found
	// the client's buffer full (engine.ChangeBatch.Coalesced); a batch
	// delivered on the first try has 0. A Resumed batch instead counts the
	// retained publications merged into it beyond the first.
	Coalesced uint32
	// Entries are the tuples with their multiplicity change (or, for
	// Initial frames, absolute multiplicity).
	Entries []gmr.Entry
}

// ErrorFrame carries a server-side subscription failure (unknown query,
// protocol violation); the server closes the connection after sending it.
type ErrorFrame struct {
	Msg string
}

// Bye is the server's graceful close notice.
type Bye struct {
	// Reason 0 is a drain: the server is shutting down and the client may
	// reconnect (to a restarted instance) with its resume token.
	Reason byte
}

// AppendHello appends a framed Hello to dst.
func AppendHello(dst []byte, h Hello) []byte {
	dst, start := frame.Begin(dst)
	dst = append(dst, frameHello, h.Version)
	dst = frame.AppendStr16(dst, h.Query)
	if h.Resume {
		dst = append(dst, 1)
		dst = binary.LittleEndian.AppendUint64(dst, h.ResumeEvents)
	} else {
		dst = append(dst, 0)
	}
	return frame.End(dst, start)
}

// AppendSubAck appends a framed SubAck to dst.
func AppendSubAck(dst []byte, a SubAck) []byte {
	dst, start := frame.Begin(dst)
	dst = append(dst, frameAck, a.Version, byte(a.Mode))
	dst = binary.LittleEndian.AppendUint64(dst, a.Events)
	dst = frame.AppendStr16(dst, a.View)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(a.Keys)))
	for _, k := range a.Keys {
		dst = frame.AppendStr16(dst, k)
	}
	return frame.End(dst, start)
}

// AppendBatch appends a framed Batch to dst.
func AppendBatch(dst []byte, b Batch) []byte {
	dst, start := frame.Begin(dst)
	dst = append(dst, frameBatch)
	dst = binary.LittleEndian.AppendUint64(dst, b.Events)
	var flags byte
	if b.Reset {
		flags |= flagReset
	}
	if b.Initial {
		flags |= flagInitial
	}
	if b.Resumed {
		flags |= flagResumed
	}
	dst = append(dst, flags)
	dst = binary.LittleEndian.AppendUint32(dst, b.Coalesced)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Entries)))
	for _, e := range b.Entries {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(e.Tuple)))
		for _, v := range e.Tuple {
			dst = frame.AppendValue(dst, v)
		}
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Mult))
	}
	return frame.End(dst, start)
}

// AppendError appends a framed ErrorFrame to dst.
func AppendError(dst []byte, e ErrorFrame) []byte {
	dst, start := frame.Begin(dst)
	dst = append(dst, frameError)
	dst = frame.AppendStr16(dst, e.Msg)
	return frame.End(dst, start)
}

// AppendBye appends a framed Bye to dst.
func AppendBye(dst []byte, b Bye) []byte {
	dst, start := frame.Begin(dst)
	dst = append(dst, frameBye, b.Reason)
	return frame.End(dst, start)
}

// DecodeFrame parses the frame at the front of b: it validates the header
// and CRC, decodes the payload, and returns the decoded message (*Hello,
// *SubAck, *Batch, *ErrorFrame, or *Bye) plus the total framed size. Any
// malformation — short frame, implausible length, CRC mismatch, counts that
// exceed the payload, trailing bytes — is an error with a diagnostic; the
// decoder never panics and never allocates from an unvalidated count.
func DecodeFrame(b []byte) (msg any, n int, err error) {
	payload, n, err := frame.Decode(b, maxFrameBytes)
	if err == nil {
		msg, err = decodePayload(payload)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("serve: %w", err)
	}
	return msg, n, nil
}

func decodePayload(p []byte) (any, error) {
	d := frame.NewReader(p)
	switch kind := d.U8("frame kind"); kind {
	case frameHello:
		h := &Hello{Version: d.U8("hello version"), Query: d.Str16("hello query")}
		switch has := d.U8("hello resume flag"); {
		case d.Err() != nil:
		case has > 1:
			return nil, fmt.Errorf("bad hello resume flag %d", has)
		case has == 1:
			h.Resume = true
			h.ResumeEvents = d.U64("hello resume token")
		}
		return h, d.Done("hello frame")
	case frameAck:
		a := &SubAck{Version: d.U8("ack version")}
		mode := d.U8("ack resume mode")
		a.Mode = ResumeMode(mode)
		a.Events = d.U64("ack events")
		a.View = d.Str16("ack view")
		nKeys := d.U16("ack key count")
		switch {
		case d.Err() != nil:
			return nil, d.Err()
		case mode > uint8(ResumeCurrent):
			return nil, fmt.Errorf("unknown resume mode %d", mode)
		case int(nKeys)*2 > d.Remaining():
			// Every key needs at least its 2-byte length.
			return nil, fmt.Errorf("ack key count %d exceeds payload", nKeys)
		}
		if nKeys > 0 {
			a.Keys = make([]string, 0, nKeys)
		}
		for i := 0; i < int(nKeys); i++ {
			a.Keys = append(a.Keys, d.Str16("ack key"))
		}
		return a, d.Done("ack frame")
	case frameBatch:
		b := &Batch{Events: d.U64("batch events")}
		flags := d.U8("batch flags")
		b.Reset = flags&flagReset != 0
		b.Initial = flags&flagInitial != 0
		b.Resumed = flags&flagResumed != 0
		b.Coalesced = d.U32("batch coalesced")
		nEntries := d.U32("batch entry count")
		switch {
		case d.Err() != nil:
			return nil, d.Err()
		case flags&^(flagReset|flagInitial|flagResumed) != 0:
			return nil, fmt.Errorf("unknown batch flags %#x", flags)
		case int64(nEntries)*10 > int64(d.Remaining()):
			// An entry is at least arity (2) + multiplicity (8) bytes.
			return nil, fmt.Errorf("batch entry count %d exceeds payload", nEntries)
		}
		if nEntries > 0 {
			b.Entries = make([]gmr.Entry, 0, nEntries)
		}
		for i := 0; i < int(nEntries); i++ {
			arity := int(d.U16("entry arity"))
			var tup types.Tuple
			if arity > 0 {
				// A value is at least one tag byte.
				if arity > d.Remaining() {
					return nil, fmt.Errorf("entry %d arity %d exceeds payload", i, arity)
				}
				tup = make(types.Tuple, 0, arity)
				for j := 0; j < arity; j++ {
					tup = append(tup, d.Value("value"))
					if err := d.Err(); err != nil {
						return nil, fmt.Errorf("entry %d value %d: %w", i, j, err)
					}
				}
			}
			mult := d.U64("entry multiplicity")
			if err := d.Err(); err != nil {
				return nil, fmt.Errorf("entry %d: %w", i, err)
			}
			b.Entries = append(b.Entries, gmr.Entry{Tuple: tup, Mult: math.Float64frombits(mult)})
		}
		return b, d.Done("batch frame")
	case frameError:
		e := &ErrorFrame{Msg: d.Str16("error message")}
		return e, d.Done("error frame")
	case frameBye:
		b := &Bye{Reason: d.U8("bye reason")}
		return b, d.Done("bye frame")
	default:
		return nil, fmt.Errorf("unknown frame kind %d", kind)
	}
}

// ReadFrame reads one complete frame (header + payload) from r into buf,
// growing it as needed, and returns the framed bytes ready for DecodeFrame.
// The length is validated before the payload is read, so a corrupt header
// cannot force an oversized allocation.
func ReadFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	return frame.Read(r, buf, maxFrameBytes)
}
