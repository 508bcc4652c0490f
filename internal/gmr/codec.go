package gmr

import (
	"encoding/binary"
	"fmt"
	"math"

	"dbtoaster/internal/frame"
	"dbtoaster/internal/types"
)

// This file is the checkpoint codec of the flat store: AppendFlat serializes
// a GMR's storage structures near-verbatim — the arena bytes, the slot
// records and the free list — and LoadFlat rebuilds an equivalent store from
// them. "Equivalent" is load-bearing: the restored store reproduces not just
// the entry set but the exact slot ids, free-list order and arena layout
// (including dead key bytes) of the original, so execution resumed on a
// recovered store makes byte-for-byte the same decisions (iteration order,
// slot reuse, compaction points) as the store it was checkpointed from. The
// probe table is not serialized: it is derived from the slots, and nothing
// observes where a key sits in it, so LoadFlat sizes it from the live count
// and places every live slot in id order (rebuildIndex). A recovered table
// may be smaller than the original's, because tables never shrink; that
// moves only grow points, which no serialized byte records. Neither are key
// hashes or values serialized: each live slot's hash is recomputed from its
// key, and its window of the value slab is re-derived by decoding its
// canonical key bytes into it (types.AppendDecodedKey), which yields values
// that compare, coerce and re-encode identically to the originals. The
// arena therefore carries the key codec's bytes (types/keycodec.go), and
// flatVersion names that encoding too: a change to the key bytes is a
// version bump.
//
// The format is flat and offset-addressed (fixed-width slot records after a
// fixed-width header), in the spirit of disk-based index layouts: a future
// larger-than-memory path can map the arena and slot sections in place
// instead of copying them.
//
// LoadFlat trusts nothing: every count is bounds-checked against the
// remaining input before allocation, key references are checked against the
// arena, every live key must decode to the schema's arity, the free list
// must hold exactly the dead slots, and no two live slots may hold one key.
// A truncated or bit-flipped image produces an error (and no partially
// initialized GMR), never a panic; the header and sections are read through
// internal/frame's bounds-checked Reader. Integrity against silent
// corruption of the byte stream itself (CRCs) is the caller's layer — see
// package wal.

const (
	flatVersion   = 3
	flatSlotBytes = 17 // mult(8) + keyOff(4) + keyLen(4) + dead(1)
	flatMagic     = "GMRFLAT1"
	// maxSlabPerByte bounds the value slab LoadFlat allocates (arity values
	// per slot, dead slots included) by the image size, so a forged header
	// cannot demand memory quadratic in the input. A real image spends 17
	// bytes per slot record, so every store of up to 408 columns passes.
	maxSlabPerByte = 24
)

// AppendFlat appends the flat-store serialization of g to dst and returns the
// extended slice. It only reads the store, so it may be called on a frozen
// snapshot (gmr.Freeze) concurrently with further mutation of the snapshot's
// source — that is exactly how the engine checkpoints without stalling its
// writer.
func (g *GMR) AppendFlat(dst []byte) []byte {
	dst = append(dst, flatMagic...)
	dst = append(dst, flatVersion)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(g.schema)))
	for _, col := range g.schema {
		dst = frame.AppendStr16(dst, col)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(g.live))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(g.slots)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(g.free)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(g.arena)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(g.deadKey))
	dst = append(dst, g.arena...)
	for i := range g.slots {
		dst = appendSlot(dst, &g.slots[i])
	}
	for _, id := range g.free {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	}
	return dst
}

// appendSlot appends one flatSlotBytes slot record; the hash and the epoch
// stamp are not part of it.
func appendSlot(dst []byte, s *slot) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.mult))
	dst = binary.LittleEndian.AppendUint32(dst, s.keyOff)
	dst = binary.LittleEndian.AppendUint32(dst, s.keyLen)
	if s.dead {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// loadSlot decodes the slot record rec into slot id: a live slot's key
// reference is checked against the arena, its hash recomputed and its key
// decoded into its window of the slab. As in the original store, a dead
// slot keeps its stored fields verbatim — the key reference may be stale
// after arena compaction and the multiplicity is never read again (insertAt
// overwrites it on slot reuse), so neither is validated nor normalized;
// preserving them keeps load/serialize byte-faithful.
func (g *GMR) loadSlot(id int32, rec []byte) error {
	s := &g.slots[id]
	*s = slot{
		mult:   math.Float64frombits(binary.LittleEndian.Uint64(rec)),
		keyOff: binary.LittleEndian.Uint32(rec[8:]),
		keyLen: binary.LittleEndian.Uint32(rec[12:]),
	}
	switch rec[16] {
	case 0:
	case 1:
		s.dead = true
		clear(g.tupleAt(id))
		return nil
	default:
		return fmt.Errorf("bad dead marker %d", rec[16])
	}
	if uint64(s.keyOff)+uint64(s.keyLen) > uint64(len(g.arena)) {
		return fmt.Errorf("key [%d:%d) outside arena of %d bytes", s.keyOff, s.keyOff+s.keyLen, len(g.arena))
	}
	key := g.keyAt(s)
	s.hash = hashKey(key)
	t, err := types.AppendDecodedKey(g.tupleAt(id)[:0], key)
	if err != nil {
		return fmt.Errorf("undecodable key: %w", err)
	}
	if len(t) != len(g.schema) {
		return fmt.Errorf("key arity %d does not match schema %v", len(t), g.schema)
	}
	return nil
}

// LoadFlat reconstructs a GMR from an AppendFlat serialization. The entire
// input must be consumed; structural damage of any kind is reported as an
// error with the failing offset or slot, and no partially loaded store is
// ever returned.
func LoadFlat(data []byte) (*GMR, error) {
	r := frame.NewReader(data)
	magic := r.Bytes(len(flatMagic), "magic")
	ver := r.U8("version")
	ncols := r.U16("column count")
	if err := r.Err(); err != nil {
		return nil, err
	}
	if string(magic) != flatMagic {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	if ver != flatVersion {
		return nil, fmt.Errorf("unsupported flat-store version %d (this build reads version %d)", ver, flatVersion)
	}
	if int(ncols)*2 > r.Remaining() {
		return nil, fmt.Errorf("column count %d exceeds input size", ncols)
	}
	schema := make(types.Schema, ncols)
	for i := range schema {
		schema[i] = r.Str16("column name")
	}
	live := r.U32("live count")
	nSlots := r.U32("slot count")
	nFree := r.U32("free-list length")
	arenaLen := r.U64("arena length")
	deadKey := r.U64("dead-key byte count")
	if err := r.Err(); err != nil {
		return nil, err
	}
	if arenaLen > uint64(len(data)) {
		return nil, fmt.Errorf("arena length %d exceeds input size %d", arenaLen, len(data))
	}
	if nSlots > uint32(len(data)/flatSlotBytes+1) {
		return nil, fmt.Errorf("slot count %d exceeds input size", nSlots)
	}
	if uint64(nSlots)*uint64(ncols) > uint64(len(data))*maxSlabPerByte {
		return nil, fmt.Errorf("%d slots of %d columns exceed input size", nSlots, ncols)
	}
	arena := r.Bytes(int(arenaLen), "arena")
	slotBuf := r.Bytes(int(nSlots)*flatSlotBytes, "slot records")
	freeBuf := r.Bytes(int(nFree)*4, "free list")
	if err := r.Done("flat store"); err != nil {
		return nil, err
	}
	if live > nSlots {
		return nil, fmt.Errorf("live count %d exceeds slot count %d", live, nSlots)
	}
	if deadKey > arenaLen {
		return nil, fmt.Errorf("dead-key byte count %d exceeds arena size %d", deadKey, arenaLen)
	}

	g := &GMR{
		schema:  schema,
		arena:   append([]byte(nil), arena...),
		slots:   make([]slot, nSlots),
		vals:    make([]types.Value, int(nSlots)*len(schema)),
		free:    make([]int32, nFree),
		live:    int(live),
		deadKey: int(deadKey),
	}
	for i := range g.slots {
		if err := g.loadSlot(int32(i), slotBuf[i*flatSlotBytes:]); err != nil {
			return nil, fmt.Errorf("slot %d: %w", i, err)
		}
	}
	for i := range g.free {
		g.free[i] = int32(binary.LittleEndian.Uint32(freeBuf[i*4:]))
	}
	if err := g.finishLoad(); err != nil {
		return nil, err
	}
	return g, nil
}

// finishLoad checks the cross-structure invariants of a deserialized store
// — the header live count matches the live slots, and the free list holds
// exactly the dead slot ids (in range, dead, no duplicates) — and then
// rebuilds the probe table. Shared by LoadFlat and ApplyFlatDelta, the two
// paths that install externally supplied bytes as a store.
func (g *GMR) finishLoad() error {
	liveSeen := 0
	for i := range g.slots {
		if !g.slots[i].dead {
			liveSeen++
		}
	}
	if liveSeen != g.live {
		return fmt.Errorf("header live count %d but %d live slots", g.live, liveSeen)
	}
	if len(g.free) != len(g.slots)-liveSeen {
		return fmt.Errorf("free list holds %d ids but %d slots are dead", len(g.free), len(g.slots)-liveSeen)
	}
	freeSeen := make([]bool, len(g.slots))
	for i, id := range g.free {
		if id < 0 || id >= int32(len(g.slots)) {
			return fmt.Errorf("free list entry %d: slot id %d out of range", i, id)
		}
		if !g.slots[id].dead {
			return fmt.Errorf("free list entry %d: slot %d is live", i, id)
		}
		if freeSeen[id] {
			return fmt.Errorf("free list entry %d: slot %d listed twice", i, id)
		}
		freeSeen[id] = true
	}
	return g.rebuildIndex()
}

// rebuildIndex replaces the probe table with one sized from the live count
// — the smallest power of two >= minIndexSize that holds it at the load
// factor insertAt keeps, or none for an empty store, so a header cannot
// demand a large table and the table is never full — and places every live
// slot in id order, as grow does. Two live slots holding one key are
// refused.
func (g *GMR) rebuildIndex() error {
	n := 0
	if g.live > 0 {
		n = minIndexSize
		for g.live*4 > n*3 {
			n *= 2
		}
	}
	if len(g.index) == n {
		clear(g.index) // a delta's receiver owns its table (ensureMutable)
	} else {
		g.index = make([]uint64, n)
	}
	for i := range g.slots {
		s := &g.slots[i]
		if s.dead {
			continue
		}
		pos, id, ok := g.find(s.hash, g.keyAt(s))
		if ok {
			return fmt.Errorf("slots %d and %d hold the same key", id, i)
		}
		g.index[pos] = s.hash&^0xFFFFFFFF | uint64(i+1)
	}
	return nil
}
