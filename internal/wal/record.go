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

// decodeRecord parses the record at the start of b. It returns the decoded
// record and the total framed size. Any mismatch — short frame, CRC failure,
// malformed payload — is an error; the caller decides whether that error
// means corruption or a clean torn tail based on where in the log it sits.
func decodeRecord(b []byte) (Record, int, error) {
	payload, n, err := frame.Decode(b, maxRecordBytes)
	if err != nil {
		return Record{}, 0, err
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, n, nil
}

func decodePayload(p []byte) (Record, error) {
	r := frame.NewReader(p)
	kind := r.U8("record kind")
	rec := Record{Batch: kind == recBatch, First: r.U64("first LSN")}
	nEvents := r.U32("event count")
	switch {
	case r.Err() != nil:
		return rec, r.Err()
	case kind != recEvent && kind != recBatch:
		return rec, fmt.Errorf("unknown record kind %d", kind)
	case !rec.Batch && nEvents != 1:
		return rec, fmt.Errorf("event record carries %d events", nEvents)
	case int64(nEvents) > int64(r.Remaining()):
		return rec, fmt.Errorf("implausible event count %d", nEvents)
	}
	rec.Events = make([]Event, 0, nEvents)
	for i := 0; i < int(nEvents); i++ {
		ev := Event{Relation: r.Str16("relation"), Insert: r.U8("insert flag") != 0}
		arity := int(r.U16("arity"))
		if err := r.Err(); err != nil {
			return rec, fmt.Errorf("event %d: %w", i, err)
		}
		if arity > r.Remaining() {
			return rec, fmt.Errorf("event %d: arity %d exceeds the record", i, arity)
		}
		if arity > 0 {
			ev.Tuple = make(types.Tuple, 0, arity)
			for j := 0; j < arity; j++ {
				ev.Tuple = append(ev.Tuple, r.Value("value"))
				if err := r.Err(); err != nil {
					return rec, fmt.Errorf("event %d value %d: %w", i, j, err)
				}
			}
		}
		rec.Events = append(rec.Events, ev)
	}
	return rec, r.Done("record payload")
}
