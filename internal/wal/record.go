package wal

import (
	"encoding/binary"
	"errors"
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
//	u8      kind       (recEvent | recBatch)
//	u64     first LSN  (LSNs number logged events, so a record of n events
//	                    covers [first, first+n))
//	uvarint run count
//	per run:   uvarint relation length, relation bytes, uvarint arity,
//	           uvarint event count
//	per event: u8 insert flag (0 or 1), arity values
//
// A run is a maximal stretch of consecutive events of one relation and
// arity. The engine logs a window in grouped order, so a window is one run
// per relation and the relation name is written once per run, not once per
// event. The decoder accepts exactly what appendRecord writes: no empty run,
// no run that continues the one before it, no insert flag but 0 or 1.
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
//
// Kinds 1 and 2 were the fixed-width layout of earlier versions (a u32 event
// count, and per event a u16-prefixed relation name, a u16 arity and values
// with 8-byte ints and u32 string lengths). They are refused by name
// (errOldFormat), wherever in the log they sit; there is no decoder for them.

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
	recEvent = 3
	recBatch = 4

	maxRecordBytes = 1 << 30 // sanity cap on a single record's payload
)

// errOldFormat marks a record in a layout this version does not read. Scan
// refuses the log whole on it, instead of truncating it as a torn tail.
var errOldFormat = errors.New("unsupported log format")

// sameRun reports whether b continues a run that a is in.
func sameRun(a, b *Event) bool {
	return len(a.Tuple) == len(b.Tuple) && a.Relation == b.Relation
}

// appendRecord frames events as one record and appends it to dst.
func appendRecord(dst []byte, batch bool, first uint64, events []Event) []byte {
	dst, start := frame.Begin(dst)
	kind := byte(recEvent)
	if batch {
		kind = recBatch
	}
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint64(dst, first)
	runs := 0
	for i := range events {
		if i == 0 || !sameRun(&events[i-1], &events[i]) {
			runs++
		}
	}
	dst = frame.AppendUvarint(dst, uint64(runs))
	for i := 0; i < len(events); {
		head := &events[i]
		end := i + 1
		for end < len(events) && sameRun(head, &events[end]) {
			end++
		}
		dst = frame.AppendStr(dst, head.Relation)
		dst = frame.AppendUvarint(dst, uint64(len(head.Tuple)))
		dst = frame.AppendUvarint(dst, uint64(end-i))
		for ; i < end; i++ {
			ev := &events[i]
			if ev.Insert {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
			for _, v := range ev.Tuple {
				dst = frame.AppendValue(dst, v)
			}
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
	// rel is the relation name of the last run decoded, which the next run,
	// in this record or the next, reuses without a lookup when it names the
	// same relation.
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
	if kind == 1 || kind == 2 {
		return nil, fmt.Errorf("%w: record kind %d is the fixed-width layout of an earlier version", errOldFormat, kind)
	}
	rec := &d.rec
	*rec = Record{Batch: kind == recBatch, First: r.U64("first LSN")}
	nRuns := r.Uvarint("run count")
	switch {
	case r.Err() != nil:
		return nil, r.Err()
	case kind != recEvent && kind != recBatch:
		return nil, fmt.Errorf("unknown record kind %d", kind)
	case nRuns > uint64(r.Remaining()):
		return nil, fmt.Errorf("implausible run count %d", nRuns)
	}
	d.events, d.vals = d.events[:0], d.vals[:0]
	prevArity := uint64(0)
	for i := uint64(0); i < nRuns; i++ {
		rel := r.StrBytes("relation")
		arity := r.Uvarint("arity")
		count := r.Uvarint("event count")
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("run %d: %w", i, err)
		}
		// An event is at least its flag byte and a value at least its tag.
		left := uint64(r.Remaining())
		switch {
		case count == 0:
			return nil, fmt.Errorf("run %d is empty", i)
		case arity > left || count > left || count*(arity+1) > left:
			return nil, fmt.Errorf("run %d: %d events of arity %d exceed the record", i, count, arity)
		case i > 0 && arity == prevArity && string(rel) == d.rel:
			return nil, fmt.Errorf("run %d continues the run before it", i)
		}
		if string(rel) != d.rel {
			d.rel = d.rels.intern(rel)
		}
		prevArity = arity
		for k := uint64(0); k < count; k++ {
			flag := r.U8("insert flag")
			if flag > 1 {
				return nil, fmt.Errorf("event %d: bad insert flag %d", len(d.events), flag)
			}
			ev := Event{Relation: d.rel, Insert: flag == 1}
			if arity > 0 {
				start := len(d.vals)
				d.vals = r.AppendValues(d.vals, int(arity), "value", d.strs.intern)
				// A window capped at its own length: appending to one tuple
				// cannot overwrite the next. A tuple taken before the arena
				// grew keeps the old array, which stays valid.
				ev.Tuple = d.vals[start:len(d.vals):len(d.vals)]
			}
			if err := r.Err(); err != nil {
				return nil, fmt.Errorf("event %d: %w", len(d.events), err)
			}
			d.events = append(d.events, ev)
		}
	}
	if !rec.Batch && len(d.events) != 1 {
		return nil, fmt.Errorf("event record carries %d events", len(d.events))
	}
	if len(d.events) > 0 {
		rec.Events = d.events
	}
	if err := r.Done("record payload"); err != nil {
		return nil, err
	}
	return rec, nil
}
