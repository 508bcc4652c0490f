package gmr

import (
	"encoding/binary"
	"fmt"

	"dbtoaster/internal/frame"
	"dbtoaster/internal/types"
)

// This file is the incremental counterpart of codec.go: AppendFlatDelta
// serializes only what changed in a store since a previous checkpoint
// snapshot, and ApplyFlatDelta replays that change set on top of a store
// reconstructed from the earlier image. Change detection is the per-slot
// epoch stamp maintained by the mutation paths (flat.go) and advanced at
// Freeze() boundaries (snapshot.go): a slot is dirty iff its stamp is
// strictly newer than the epoch the base snapshot captured.
//
// A delta is expressed against a FlatBase — the structural fingerprint of the
// snapshot the previous checkpoint serialized. It is only valid while the
// store evolved append-only relative to that base: same flat generation (no
// arena compaction, Reset, Clear or epoch wrap-around — all of which rewrite
// state without stamping it) and monotonically grown arena and slot slices.
// A probe-table grow does not matter: the table is not serialized. When any
// of that fails, AppendFlatDelta reports ineligibility and the caller falls
// back to a full AppendFlat image; correctness never depends on deltas being
// available.
//
// Like codec.go, the composed store serializes byte-identically to the
// source: dirty slots carry their records verbatim (including tombstones)
// and the free list is replaced wholesale (its order determines future slot
// reuse). The probe table is rebuilt from the slots after the patch, exactly
// as LoadFlat builds it. Composing base + deltas therefore reproduces exactly
// the store AppendFlat would have serialized at the head checkpoint, which is
// what recovery byte-equality tests pin.
//
// ApplyFlatDelta trusts nothing, mirroring the LoadFlat contract: every
// count, id and offset is validated, arbitrary input produces an error and
// never a panic. On error the receiver is left in an unspecified partially
// patched state and must be discarded — recovery composes chains into
// throwaway stores and installs only fully validated results.

const (
	deltaVersion = 2
	deltaMagic   = "GMRDLTA1"
)

// FlatBase is the structural fingerprint of a frozen snapshot that a
// checkpoint serialized, captured via (*GMR).FlatBase and presented back to
// AppendFlatDelta at the next checkpoint to delimit the change set.
type FlatBase struct {
	Gen      uint32 // flat generation (bumped by unstamped whole-store rewrites)
	Epoch    uint32 // epoch the snapshot captured; stamps > Epoch are dirty
	ArenaLen int    // arena length at the snapshot; the delta carries the suffix
	Slots    int    // slot count at the snapshot; ids >= Slots are new
	Live     int    // live entries at the snapshot (informational)
}

// FlatBase returns the receiver's structural fingerprint for use as a delta
// base. Call it on the frozen snapshot a checkpoint just serialized (the same
// GMR handed to AppendFlat), not on the live store — the snapshot's captured
// epoch is the dirty-tracking boundary.
func (g *GMR) FlatBase() FlatBase {
	return FlatBase{
		Gen:      g.flatGen,
		Epoch:    g.epoch,
		ArenaLen: len(g.arena),
		Slots:    len(g.slots),
		Live:     g.live,
	}
}

// deltaEligible reports whether the receiver still evolved append-only
// relative to base, i.e. whether a delta against base can describe it.
func (g *GMR) deltaEligible(base FlatBase) bool {
	return g.flatGen == base.Gen &&
		len(g.slots) >= base.Slots &&
		len(g.arena) >= base.ArenaLen
}

// FlatDirty reports how many slot records changed since base (inserted,
// updated or tombstoned), alongside the current slot count, so a caller can
// compute the dirty fraction that drives the full-vs-delta checkpoint choice.
// ok is false when the store is no longer delta-eligible against base.
func (g *GMR) FlatDirty(base FlatBase) (dirtySlots, totalSlots int, ok bool) {
	if !g.deltaEligible(base) {
		return 0, len(g.slots), false
	}
	for i := range g.slots {
		if i >= base.Slots || g.slots[i].epoch > base.Epoch {
			dirtySlots++
		}
	}
	return dirtySlots, len(g.slots), true
}

// AppendFlatDelta appends a delta serialization of g relative to base to dst
// and returns the extended slice. ok is false (and dst is returned unchanged)
// when g is no longer delta-eligible against base; the caller then writes a
// full AppendFlat image instead. Like AppendFlat it only reads the store, so
// it is meant to be called on a frozen snapshot concurrently with further
// mutation of the snapshot's source.
func (g *GMR) AppendFlatDelta(dst []byte, base FlatBase) ([]byte, bool) {
	if !g.deltaEligible(base) {
		return dst, false
	}
	dst = append(dst, deltaMagic...)
	dst = append(dst, deltaVersion)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(g.schema)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(g.live))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(g.slots)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(base.Slots))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(g.free)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(g.arena)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(base.ArenaLen))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(g.deadKey))
	dst = append(dst, g.arena[base.ArenaLen:]...)
	nDirty := 0
	for i := range g.slots {
		if i >= base.Slots || g.slots[i].epoch > base.Epoch {
			nDirty++
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(nDirty))
	for i := range g.slots {
		s := &g.slots[i]
		if i < base.Slots && s.epoch <= base.Epoch {
			continue
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
		dst = appendSlot(dst, s)
	}
	for _, id := range g.free {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	}
	return dst, true
}

// ApplyFlatDelta patches the receiver — a store reconstructed from the
// serialization the delta's base snapshot produced — with an AppendFlatDelta
// change set, leaving it byte-identical (per AppendFlat) to the store the
// delta was serialized from. The entire input must be consumed; structural
// damage of any kind is reported as an error, never a panic. On error the
// receiver may be partially patched and must be discarded.
func (g *GMR) ApplyFlatDelta(data []byte) error {
	if g.flags&flagSealed != 0 {
		return fmt.Errorf("gmr: ApplyFlatDelta on a frozen snapshot")
	}
	r := frame.NewReader(data)
	magic := r.Bytes(len(deltaMagic), "delta magic")
	ver := r.U8("delta version")
	ncols := r.U16("column count")
	live := r.U32("live count")
	nSlots := r.U32("slot count")
	baseSlots := r.U32("base slot count")
	nFree := r.U32("free-list length")
	arenaLen := r.U64("arena length")
	baseArenaLen := r.U64("base arena length")
	deadKey := r.U64("dead-key byte count")
	switch {
	case r.Err() != nil:
		return r.Err()
	case string(magic) != deltaMagic:
		return fmt.Errorf("bad delta magic %q", magic)
	case ver != deltaVersion:
		return fmt.Errorf("unsupported delta version %d (this build reads version %d)", ver, deltaVersion)
	case int(ncols) != len(g.schema):
		return fmt.Errorf("delta schema has %d columns, store has %d", ncols, len(g.schema))
	case int(baseSlots) != len(g.slots):
		return fmt.Errorf("delta base has %d slots, store has %d", baseSlots, len(g.slots))
	case baseArenaLen != uint64(len(g.arena)):
		return fmt.Errorf("delta base arena is %d bytes, store arena is %d", baseArenaLen, len(g.arena))
	case arenaLen < baseArenaLen:
		return fmt.Errorf("delta arena length %d below base arena length %d", arenaLen, baseArenaLen)
	case nSlots < baseSlots:
		return fmt.Errorf("delta slot count %d below base slot count %d", nSlots, baseSlots)
	case live > nSlots:
		return fmt.Errorf("live count %d exceeds slot count %d", live, nSlots)
	case deadKey > arenaLen:
		return fmt.Errorf("dead-key byte count %d exceeds arena size %d", deadKey, arenaLen)
	case arenaLen-baseArenaLen > uint64(len(data)):
		return fmt.Errorf("arena suffix length %d exceeds input size %d", arenaLen-baseArenaLen, len(data))
	}
	suffix := r.Bytes(int(arenaLen-baseArenaLen), "arena suffix")
	nDirty := r.U32("dirty slot count")
	if r.Err() == nil && nDirty > nSlots {
		return fmt.Errorf("dirty slot count %d exceeds slot count %d", nDirty, nSlots)
	}
	dirtyBuf := r.Bytes(int(nDirty)*(4+flatSlotBytes), "dirty slot records")
	freeBuf := r.Bytes(int(nFree)*4, "free list")
	if err := r.Done("delta"); err != nil {
		return err
	}
	// Every slot appended since the base must be covered by a dirty record
	// (new slots are dirty by definition), so the growth is bounded by the
	// record count — which the take above bounded by the input size. Checking
	// here keeps a corrupted nSlots from driving a huge allocation below.
	if uint64(nSlots)-uint64(baseSlots) > uint64(nDirty) {
		return fmt.Errorf("%d new slots but only %d dirty records", nSlots-baseSlots, nDirty)
	}

	// Input is structurally complete; start patching. The receiver must not
	// share storage with outstanding snapshots of itself.
	g.ensureMutable()
	g.arena = append(g.arena, suffix...)
	for len(g.slots) < int(nSlots) {
		g.slots = append(g.slots, slot{})
	}
	if n := int(nSlots) * len(g.schema); n > len(g.vals) {
		g.vals = append(g.vals, make([]types.Value, n-len(g.vals))...)
	}
	prevID := int32(-1)
	newCovered := 0
	for i := 0; i < int(nDirty); i++ {
		rec := dirtyBuf[i*(4+flatSlotBytes):]
		id := int32(binary.LittleEndian.Uint32(rec))
		if id <= prevID {
			return fmt.Errorf("dirty slot entry %d: id %d not strictly increasing", i, id)
		}
		prevID = id
		if id >= int32(nSlots) {
			return fmt.Errorf("dirty slot entry %d: id %d out of range", i, id)
		}
		if id >= int32(baseSlots) {
			newCovered++
		}
		if err := g.loadSlot(id, rec[4:]); err != nil {
			return fmt.Errorf("dirty slot %d: %w", id, err)
		}
	}
	// Strict increase plus in-range ids means newCovered counts distinct new
	// slot ids; equality with the slot growth forces every slot appended
	// since the base to be covered by a record (new slots are dirty by
	// definition — an uncovered one would stay zero-valued garbage).
	if newCovered != int(nSlots)-int(baseSlots) {
		return fmt.Errorf("delta covers %d of %d new slots", newCovered, int(nSlots)-int(baseSlots))
	}
	g.free = make([]int32, nFree)
	for i := range g.free {
		g.free[i] = int32(binary.LittleEndian.Uint32(freeBuf[i*4:]))
	}
	g.live = int(live)
	g.deadKey = int(deadKey)
	// The patch rewrote state without stamping it relative to the receiver's
	// own epoch history, so any delta base captured from the receiver before
	// the apply is now meaningless — bump the generation to invalidate it.
	g.flatGen++
	if err := g.finishLoad(); err != nil {
		return err
	}
	g.reindex()
	return nil
}
