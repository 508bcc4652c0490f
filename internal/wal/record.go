package wal

import (
	"encoding/binary"
	"fmt"

	"dbtoaster/internal/frame"
	"dbtoaster/internal/types"
)

// Log records frame one committed unit each — a single Apply event or a whole
// ApplyBatch window — as one internal/frame frame,
//
//	[u32 payload length][u32 CRC-32C of payload][payload]
//
// with the payload
//
//	u8  kind          (recEvent | recBatch)
//	u64 first LSN     (LSNs number logged events, so a batch record covers
//	                   [first, first+n))
//	u32 event count
//	per event: u16 relation length, relation bytes, u8 insert flag,
//	           u16 arity, values
//
// Values keep their exact runtime kind (frame.AppendValue), not the canonical
// key encoding: replay must re-execute triggers with bit-identical inputs for
// recovered state to be byte-equal to an uninterrupted run, and the canonical
// encoding deliberately collapses value kinds that Compare equal.
//
// The record kind matters for the same reason: events applied one at a time
// and events applied as a batch take different execution paths (and different
// float accumulation orders), so recovery must replay each record the way it
// was originally committed.

// Event is one single-tuple update of the input stream (engine.Event).
type Event struct {
	Relation string
	Insert   bool
	Tuple    types.Tuple
}

// Record is one decoded log record.
type Record struct {
	// Batch is true when the record was committed by ApplyBatch and must be
	// replayed as one batch window.
	Batch bool
	// First is the LSN of the record's first event.
	First uint64
	// Events are the record's events in commit order.
	Events []Event
}

const (
	recEvent = 1
	recBatch = 2

	maxRecordBytes = 1 << 30 // sanity cap on a single record's payload
)

// appendRecord frames events as one record and appends it to dst.
func appendRecord(dst []byte, batch bool, first uint64, events []Event) []byte {
	dst, start := frame.Begin(dst)
	kind := byte(recEvent)
	if batch {
		kind = recBatch
	}
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint64(dst, first)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(events)))
	for i := range events {
		ev := &events[i]
		dst = frame.AppendStr16(dst, ev.Relation)
		if ev.Insert {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(ev.Tuple)))
		for _, v := range ev.Tuple {
			dst = frame.AppendValue(dst, v)
		}
	}
	return frame.End(dst, start)
}

// decoder decodes record payloads into one reused Record: a reused []Event
// whose tuples are windows of one reused []types.Value arena, with relation
// names and string values interned, so decoding a record allocates nothing
// once the buffers have grown to the largest record. Scan validates through
// one decoder and Replay decodes through another; neither keeps a record
// past the next decode.
type decoder struct {
	rec    Record
	events []Event
	vals   []types.Value
	// rels interns relation names and strs string values, each up to
	// maxInterned entries; past that, a new string is allocated per value.
	// rel is the last relation name, which a run of one relation's events
	// reuses without a lookup.
	rels, strs interner
	rel        string
}

// maxInterned caps each of a decoder's intern tables, so a high-cardinality
// string column costs what it did before interning instead of growing a
// table with the log.
const maxInterned = 4096

// interner maps the bytes of a string to one shared copy of it.
type interner map[string]string

func (t *interner) intern(b []byte) string {
	if s, ok := (*t)[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(*t) < maxInterned {
		if *t == nil {
			*t = make(interner)
		}
		(*t)[s] = s
	}
	return s
}

// strTag is the value codec's tag byte for a string, taken from the codec
// itself: the decoder reads string values through its intern table and
// every other value through frame.Reader.Value.
var strTag = frame.AppendValue(nil, types.Str(""))[0]

// value reads one value of payload p from r, interning a string's bytes. It
// reads a string's fields as frame.Reader.Value does, under the same name,
// so a malformed value fails with the same error.
func (d *decoder) value(r *frame.Reader, p []byte) types.Value {
	if n := r.Remaining(); n == 0 || p[len(p)-n] != strTag {
		return r.Value("value")
	}
	r.U8("value")
	b := r.Bytes(int(r.U32("value")), "value")
	return types.Str(d.strs.intern(b))
}

// decodeRecord parses the record at the start of b into d's reused record
// and returns it with the total framed size. Any mismatch — short frame, CRC
// failure, malformed payload — is an error; the caller decides whether that
// error means corruption or a clean torn tail based on where in the log it
// sits.
func (d *decoder) decodeRecord(b []byte) (*Record, int, error) {
	payload, n, err := frame.Decode(b, maxRecordBytes)
	if err != nil {
		return nil, 0, err
	}
	rec, err := d.decodePayload(payload)
	if err != nil {
		return nil, 0, err
	}
	return rec, n, nil
}

// decodePayload parses a record payload into d's reused record. The record,
// its events and their tuples are d's storage: they hold until the next
// decode. A record of no events has nil Events and an event of arity 0 a nil
// Tuple, whatever d decoded before.
func (d *decoder) decodePayload(p []byte) (*Record, error) {
	r := frame.NewReader(p)
	kind := r.U8("record kind")
	rec := &d.rec
	*rec = Record{Batch: kind == recBatch, First: r.U64("first LSN")}
	nEvents := r.U32("event count")
	switch {
	case r.Err() != nil:
		return nil, r.Err()
	case kind != recEvent && kind != recBatch:
		return nil, fmt.Errorf("unknown record kind %d", kind)
	case !rec.Batch && nEvents != 1:
		return nil, fmt.Errorf("event record carries %d events", nEvents)
	case int64(nEvents) > int64(r.Remaining()):
		return nil, fmt.Errorf("implausible event count %d", nEvents)
	}
	d.events, d.vals = d.events[:0], d.vals[:0]
	for i := 0; i < int(nEvents); i++ {
		if rel := r.Bytes(int(r.U16("relation")), "relation"); string(rel) != d.rel {
			d.rel = d.rels.intern(rel)
		}
		ev := Event{Relation: d.rel, Insert: r.U8("insert flag") != 0}
		arity := int(r.U16("arity"))
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("event %d: %w", i, err)
		}
		if arity > r.Remaining() {
			return nil, fmt.Errorf("event %d: arity %d exceeds the record", i, arity)
		}
		if arity > 0 {
			start := len(d.vals)
			for j := 0; j < arity; j++ {
				d.vals = append(d.vals, d.value(&r, p))
				if err := r.Err(); err != nil {
					return nil, fmt.Errorf("event %d value %d: %w", i, j, err)
				}
			}
			// A window capped at its own length: appending to one tuple
			// cannot overwrite the next. A tuple taken before the arena grew
			// keeps the old array, which stays valid.
			ev.Tuple = d.vals[start:len(d.vals):len(d.vals)]
		}
		d.events = append(d.events, ev)
	}
	if len(d.events) > 0 {
		rec.Events = d.events
	}
	if err := r.Done("record payload"); err != nil {
		return nil, err
	}
	return rec, nil
}
