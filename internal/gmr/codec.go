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
// records, the free list and the packed probe table — and LoadFlat rebuilds
// an identical store from them. "Identical" is load-bearing: the restored
// store reproduces not just the entry set but the exact slot ids, free-list
// order, arena layout (including dead key bytes) and probe-cell placement of
// the original, so execution resumed on a recovered store makes byte-for-byte
// the same decisions (iteration order, slot reuse, grow and compaction
// points) as the store it was checkpointed from. Values are not serialized:
// each live slot's window of the value slab is re-derived by decoding its
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
// arena, the probe table is verified cell-by-cell against the slots, and
// every live slot must be findable through the loaded table. A truncated or
// bit-flipped image produces an error (and no partially initialized GMR),
// never a panic; the header and sections are read through internal/frame's
// bounds-checked Reader. Integrity against silent corruption of the byte
// stream itself (CRCs) is the caller's layer — see package wal.

const (
	flatVersion   = 2
	flatSlotBytes = 25 // hash(8) + mult(8) + keyOff(4) + keyLen(4) + dead(1)
	flatMagic     = "GMRFLAT1"
	// maxSlabPerByte bounds the value slab LoadFlat allocates (arity values
	// per slot, dead slots included) by the image size, so a forged header
	// cannot demand memory quadratic in the input. A real image spends 25
	// bytes per slot record, so every store of up to 400 columns passes.
	maxSlabPerByte = 16
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
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(g.index)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(g.arena)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(g.deadKey))
	dst = append(dst, g.arena...)
	for i := range g.slots {
		s := &g.slots[i]
		dst = binary.LittleEndian.AppendUint64(dst, s.hash)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.mult))
		dst = binary.LittleEndian.AppendUint32(dst, s.keyOff)
		dst = binary.LittleEndian.AppendUint32(dst, s.keyLen)
		if s.dead {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	for _, id := range g.free {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	}
	for _, cell := range g.index {
		dst = binary.LittleEndian.AppendUint64(dst, cell)
	}
	return dst
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
	nIndex := r.U32("probe table size")
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
	if nIndex > uint32(len(data)/8+1) {
		return nil, fmt.Errorf("probe table size %d exceeds input size", nIndex)
	}
	if uint64(nSlots)*uint64(ncols) > uint64(len(data))*maxSlabPerByte {
		return nil, fmt.Errorf("%d slots of %d columns exceed input size", nSlots, ncols)
	}
	arena := r.Bytes(int(arenaLen), "arena")
	slotBuf := r.Bytes(int(nSlots)*flatSlotBytes, "slot records")
	freeBuf := r.Bytes(int(nFree)*4, "free list")
	indexBuf := r.Bytes(int(nIndex)*8, "probe table")
	if err := r.Done("flat store"); err != nil {
		return nil, err
	}
	if nIndex != 0 && (nIndex < minIndexSize || nIndex&(nIndex-1) != 0) {
		return nil, fmt.Errorf("probe table size %d is not a power of two >= %d", nIndex, minIndexSize)
	}
	if live > nSlots {
		return nil, fmt.Errorf("live count %d exceeds slot count %d", live, nSlots)
	}
	if deadKey > arenaLen {
		return nil, fmt.Errorf("dead-key byte count %d exceeds arena size %d", deadKey, arenaLen)
	}

	g := &GMR{
		schema:     schema,
		arena:      append([]byte(nil), arena...),
		slots:      make([]slot, nSlots),
		vals:       make([]types.Value, int(nSlots)*len(schema)),
		index:      make([]uint64, nIndex),
		indexEpoch: make([]uint32, nIndex),
		free:       make([]int32, nFree),
		live:       int(live),
		deadKey:    int(deadKey),
	}
	liveSeen := 0
	for i := range g.slots {
		rec := slotBuf[i*flatSlotBytes:]
		s := &g.slots[i]
		s.hash = binary.LittleEndian.Uint64(rec)
		s.mult = math.Float64frombits(binary.LittleEndian.Uint64(rec[8:]))
		s.keyOff = binary.LittleEndian.Uint32(rec[16:])
		s.keyLen = binary.LittleEndian.Uint32(rec[20:])
		switch rec[24] {
		case 0:
			s.dead = false
		case 1:
			s.dead = true
		default:
			return nil, fmt.Errorf("slot %d: bad dead marker %d", i, rec[24])
		}
		if s.dead {
			// Dead slots keep their stored fields verbatim — the key
			// reference may be stale after arena compaction and the
			// multiplicity is never read again (insertAt overwrites it on
			// slot reuse), so neither is validated nor normalized here;
			// preserving them keeps load/serialize byte-faithful.
			continue
		}
		liveSeen++
		if uint64(s.keyOff)+uint64(s.keyLen) > arenaLen {
			return nil, fmt.Errorf("slot %d: key [%d:%d) outside arena of %d bytes", i, s.keyOff, s.keyOff+s.keyLen, arenaLen)
		}
		key := g.keyAt(s)
		if h := hashKey(key); h != s.hash {
			return nil, fmt.Errorf("slot %d: stored hash %#x does not match key hash %#x", i, s.hash, h)
		}
		if err := g.decodeSlot(int32(i), key); err != nil {
			return nil, fmt.Errorf("slot %d: %w", i, err)
		}
	}
	if liveSeen != int(live) {
		return nil, fmt.Errorf("header live count %d but %d live slots", live, liveSeen)
	}
	for i := range g.free {
		g.free[i] = int32(binary.LittleEndian.Uint32(freeBuf[i*4:]))
	}
	for i := range g.index {
		g.index[i] = binary.LittleEndian.Uint64(indexBuf[i*8:])
	}
	if err := g.checkStoreInvariants(); err != nil {
		return nil, err
	}
	return g, nil
}

// decodeSlot decodes key into slot id's window of the slab.
func (g *GMR) decodeSlot(id int32, key []byte) error {
	w := g.tupleAt(id)
	t, err := types.AppendDecodedKey(w[:0], key)
	if err != nil {
		return fmt.Errorf("undecodable key: %w", err)
	}
	if len(t) != len(w) {
		return fmt.Errorf("key arity %d does not match schema %v", len(t), g.schema)
	}
	return nil
}

// checkStoreInvariants verifies the cross-structure invariants of a
// deserialized store: the header live count matches the live slots, the free
// list holds exactly the dead slot ids (in-range, dead, no duplicates),
// every probe cell references a live slot whose hash tag matches, the table
// occupancy equals the live count, and every live slot is reachable through
// the probe table under linear probing — the last check pins cluster
// integrity (a shuffled but individually valid table would corrupt lookups
// silently). Shared by LoadFlat and ApplyFlatDelta, the two paths that
// install externally supplied bytes as a store.
func (g *GMR) checkStoreInvariants() error {
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
	occupied := 0
	for i, cell := range g.index {
		if cell == 0 {
			continue
		}
		occupied++
		id := int32(cell&0xFFFFFFFF) - 1
		if id < 0 || id >= int32(len(g.slots)) {
			return fmt.Errorf("probe cell %d: slot id %d out of range", i, id)
		}
		s := &g.slots[id]
		if s.dead {
			return fmt.Errorf("probe cell %d: references dead slot %d", i, id)
		}
		if cell&^0xFFFFFFFF != s.hash&^0xFFFFFFFF {
			return fmt.Errorf("probe cell %d: hash tag does not match slot %d", i, id)
		}
	}
	if occupied != liveSeen {
		return fmt.Errorf("probe table holds %d entries but %d slots are live", occupied, liveSeen)
	}
	for i := range g.slots {
		s := &g.slots[i]
		if s.dead {
			continue
		}
		if _, id, ok := g.find(s.hash, g.keyAt(s)); !ok || id != int32(i) {
			return fmt.Errorf("slot %d: not reachable through the probe table", i)
		}
	}
	return nil
}
