package engine_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/frame"
	"dbtoaster/internal/wal"
	"dbtoaster/internal/workload"
)

// TestLogBytesPerEvent pins the log's byte budget on the served Q1+Q3
// program: a durable CompileSet engine streams the scale-1, seed-1 stream in
// 64-event windows, and the log must spend at most 40 bytes an event. The
// run-grouped records with compact values write ~32; the fixed-width layout,
// a relation name and arity per event and 9 bytes per int, wrote ~78.
func TestLogBytesPerEvent(t *testing.T) {
	ms, err := workload.Combine([]string{"Q1", "Q3"})
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := compiler.CompileSet(ms.Queries, ms.Catalog, compiler.OptionsFor(compiler.ModeDBToaster))
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(prog)
	for name, data := range ms.Statics() {
		eng.LoadStatic(name, data)
	}
	if err := eng.Init(); err != nil {
		t.Fatal(err)
	}
	if err := eng.SetDurability(engine.DurabilityOptions{Dir: recoveryWalDir, FS: wal.NewFaultFS(), Sync: wal.SyncNone}); err != nil {
		t.Fatal(err)
	}
	events := ms.Stream(1, 1)
	for _, w := range workload.Batches(events, 64) {
		if err := eng.ApplyBatch(engine.NewBatch(w)); err != nil {
			t.Fatal(err)
		}
	}
	stats, _ := eng.LogStats()
	if err := eng.CloseDurability(); err != nil {
		t.Fatal(err)
	}
	if stats.NextLSN != uint64(len(events)) {
		t.Fatalf("logged %d of %d events", stats.NextLSN, len(events))
	}
	perEvent := float64(stats.AppendedBytes) / float64(len(events))
	t.Logf("%d events, %d log bytes, %.2f B/event", len(events), stats.AppendedBytes, perEvent)
	if perEvent > 40 {
		t.Errorf("the log spends %.2f B/event, want at most 40", perEvent)
	}
}

// TestRecoverRefusesFixedWidthLog: a log segment holding a record of the
// fixed-width layout (kind 1, one event; kind 2, a batch) makes Recover fail
// with an error naming the kind, installing no view and leaving the segment
// as it was: the record is whole and checksummed, so it is refused, never
// truncated away as a torn tail.
func TestRecoverRefusesFixedWidthLog(t *testing.T) {
	spec := mustSpec(t, "Q3")
	for _, kind := range []byte{1, 2} {
		ffs := wal.NewFaultFS()
		if err := ffs.MkdirAll(recoveryWalDir); err != nil {
			t.Fatal(err)
		}
		// u8 kind, u64 first LSN, u32 event count; the event: u16-prefixed
		// relation, u8 insert flag, u16 arity, one 8-byte int value.
		seg, start := frame.Begin(nil)
		seg = append(seg, kind)
		seg = binary.LittleEndian.AppendUint64(seg, 0)
		seg = binary.LittleEndian.AppendUint32(seg, 1)
		seg = binary.LittleEndian.AppendUint16(seg, uint16(len("ORDERS")))
		seg = append(seg, "ORDERS"...)
		seg = append(seg, 1)
		seg = binary.LittleEndian.AppendUint16(seg, 1)
		seg = append(seg, 1)
		seg = binary.LittleEndian.AppendUint64(seg, 7)
		seg = frame.End(seg, start)
		path := recoveryWalDir + "/wal-0000000000000000.log"
		f, err := ffs.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(seg); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		fresh := viewBytes(newEngineFor(t, spec, compiler.ModeDBToaster))
		rec := newEngineFor(t, spec, compiler.ModeDBToaster)
		want := fmt.Sprintf("record kind %d", kind)
		if _, err := rec.Recover(engine.DurabilityOptions{Dir: recoveryWalDir, FS: ffs}); err == nil {
			t.Fatalf("Recover accepted a log of %s", want)
		} else if !strings.Contains(err.Error(), want) {
			t.Errorf("Recover error %q does not name %s", err, want)
		}
		if got := viewBytes(rec); !reflect.DeepEqual(got, fresh) {
			t.Errorf("kind %d: failed Recover installed views", kind)
		}
		if rec.Events() != 0 {
			t.Errorf("kind %d: failed Recover moved Events to %d", kind, rec.Events())
		}
		if data, err := ffs.ReadFile(path); err != nil || !bytes.Equal(data, seg) {
			t.Errorf("kind %d: failed Recover changed the segment (%d bytes, err %v)", kind, len(data), err)
		}
	}
}
