package gmr

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"

	"dbtoaster/internal/types"
)

// This file implements the storage layer of a GMR: a flat open-addressing
// hash table over raw []byte tuple keys, replacing the former
// map[string]Entry. The layout is four parallel structures:
//
//   - arena: the canonical key encodings of all entries, bump-allocated
//     back-to-back; a slot references its key as (keyOff, keyLen), so an
//     insert appends the key bytes once and never materializes a string.
//     Keys of deleted entries leak until enough of the arena is dead, at
//     which point it is compacted (slot ids are unaffected).
//   - slots: one 32-byte record per entry — the cached 64-bit key hash, the
//     multiplicity, the key reference, the epoch stamp and the tombstone
//     flag. The record holds no pointer. Deletion tombstones the record and
//     links it into a free list for reuse, so a slot id is stable for the
//     lifetime of its entry; the secondary indexes (index.go) are postings
//     of these ids. Iteration is a linear walk of the slot slice skipping
//     tombstones.
//   - vals: the value slab, arity values per slot id (slot i's columns are
//     vals[i*arity : (i+1)*arity]). An insert copies the tuple into the
//     range of its id — the reused id's range or one appended with a new
//     slot — and a delete clears it, so no dead string stays reachable. The
//     store's values are one heap object, so an insert allocates none.
//   - index: the probe table, a power-of-two []uint64 with linear probing.
//     Each cell packs the upper 32 bits of the hash (checked before the
//     slot is touched) with slotID+1; 0 means empty. Deletion compacts the
//     probe cluster by backward shifting (no probe-table tombstones), so
//     the load factor counts live entries only. The table is derived state:
//     nothing observes where a key sits (iteration, slot reuse and the
//     postings all work on slot ids), so checkpoints do not carry it and
//     loading rebuilds it from the slots (rebuildIndex).
type slot struct {
	hash   uint64
	mult   float64
	keyOff uint32
	keyLen uint32
	// epoch is the store's epoch counter value at the slot's last mutation
	// (insert, multiplicity update, tombstone). Freeze advances the counter,
	// so a checkpoint can find every slot touched since a previous snapshot
	// with one comparison per slot — the dirty tracking behind incremental
	// delta checkpoints (delta.go).
	epoch uint32
	dead  bool
}

const (
	slotBytes    = 32  // unsafe.Sizeof(slot{}), spelled out to keep the package unsafe-free
	valueBytes   = 32  // unsafe.Sizeof(types.Value{}), likewise
	headerBytes  = 232 // unsafe.Sizeof(GMR{}), likewise
	minIndexSize = 8
)

// hashKey hashes a canonical key encoding eight bytes at a time (a
// wyhash-style multiply-fold per word) with a murmur finalizer, so that the
// low bits (used as the power-of-two probe mask) are well mixed. The
// function is seedless, so the cached hash of a slot is valid across GMRs —
// MergeInto, Equal and the algebra operators reuse it instead of rehashing.
func hashKey(key []byte) uint64 {
	const (
		m1 = 0xa0761d6478bd642f
		m2 = 0xe7037ed1a0b428db
	)
	h := uint64(len(key)) * m1
	for len(key) >= 8 {
		hi, lo := bits.Mul64(h^binary.LittleEndian.Uint64(key), m2)
		h = hi ^ lo
		key = key[8:]
	}
	var tail uint64
	for i := len(key) - 1; i >= 0; i-- {
		tail = tail<<8 | uint64(key[i])
	}
	hi, lo := bits.Mul64(h^tail, m1)
	h = hi ^ lo
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func (g *GMR) keyAt(s *slot) []byte { return g.arena[s.keyOff : s.keyOff+s.keyLen] }

// tupleAt returns slot id's window of the value slab, capped so that an
// append through it cannot reach the next slot's values.
func (g *GMR) tupleAt(id int32) types.Tuple {
	a := len(g.schema)
	o := int(id) * a
	return g.vals[o : o+a : o+a]
}

// find probes for the key with hash h. It returns the probe-table position
// where the search ended — the entry's cell when found, the first empty cell
// (a valid insertion point) when not — and the slot id when found.
func (g *GMR) find(h uint64, key []byte) (pos uint64, id int32, ok bool) {
	if len(g.index) == 0 {
		return 0, -1, false
	}
	mask := uint64(len(g.index) - 1)
	tag := h &^ 0xFFFFFFFF
	i := h & mask
	for {
		e := g.index[i]
		if e == 0 {
			return i, -1, false
		}
		if e&^0xFFFFFFFF == tag {
			id := int32(e&0xFFFFFFFF) - 1
			s := &g.slots[id]
			if s.hash == h && bytes.Equal(g.keyAt(s), key) {
				return i, id, true
			}
		}
		i = (i + 1) & mask
	}
}

// probeEmpty returns the first empty cell of a probe table for hash h. Only
// valid when the key is known to be absent (grow/rehash, insert after a
// miss). The primary table and the secondary indexes (index.go) share it.
func probeEmpty(cells []uint64, h uint64) uint64 {
	mask := uint64(len(cells) - 1)
	i := h & mask
	for cells[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// mayFill is the backward-shift step (Knuth 6.4 Algorithm R) shared by both
// probe tables: the cell at j, whose home position is home, may fill the
// hole at i unless home lies cyclically within (i, j] — moving it then would
// break its probe chain.
func mayFill(i, j, home uint64) bool {
	return (j > i && (home <= i || home > j)) || (j < i && home <= i && home > j)
}

// insertAt creates a new entry at the given empty probe cell, copying t's
// values into the slab.
func (g *GMR) insertAt(pos uint64, h uint64, key []byte, t types.Tuple, m float64) {
	if (g.live+1)*4 > len(g.index)*3 {
		g.grow()
		pos = probeEmpty(g.index, h)
	}
	off := uint32(len(g.arena))
	g.arena = append(g.arena, key...)
	ns := slot{hash: h, mult: m, keyOff: off, keyLen: uint32(len(key)), epoch: g.epoch}
	var id int32
	if n := len(g.free); n > 0 {
		id = g.free[n-1]
		g.free = g.free[:n-1]
		g.slots[id] = ns
		copy(g.tupleAt(id), t)
	} else {
		id = int32(len(g.slots))
		g.slots = append(g.slots, ns)
		g.vals = append(g.vals, t...)
	}
	g.index[pos] = h&^0xFFFFFFFF | uint64(id+1)
	g.live++
	if len(g.indexes) != 0 {
		g.updateIndexes(id, g.tupleAt(id), true)
	}
}

// grow doubles the probe table and reinserts every live slot by its cached
// hash, in slot-id order. Slot ids (and therefore secondary-index postings)
// are unaffected, and so is every serialized byte: a checkpoint carries no
// probe table, so a grow between two checkpoints does not stop the second
// from being a delta.
func (g *GMR) grow() {
	n := len(g.index) * 2
	if n == 0 {
		n = minIndexSize
	}
	g.index = make([]uint64, n)
	for i := range g.slots {
		s := &g.slots[i]
		if s.dead {
			continue
		}
		g.index[probeEmpty(g.index, s.hash)] = s.hash&^0xFFFFFFFF | uint64(i+1)
	}
}

// deleteAt removes the entry at probe cell pos / slot id: the slot is
// tombstoned onto the free list and the probe cluster after pos is
// backward-shifted (Knuth 6.4 Algorithm R) so no probe tombstone is left.
func (g *GMR) deleteAt(pos uint64, id int32) {
	s := &g.slots[id]
	if len(g.indexes) != 0 {
		g.updateIndexes(id, g.tupleAt(id), false)
	}
	clear(g.tupleAt(id))
	s.dead = true
	s.mult = 0
	s.epoch = g.epoch
	g.deadKey += int(s.keyLen)
	g.free = append(g.free, id)
	g.live--

	mask := uint64(len(g.index) - 1)
	i := pos
	j := pos
	for {
		j = (j + 1) & mask
		e := g.index[j]
		if e == 0 {
			break
		}
		if mayFill(i, j, g.slots[int32(e&0xFFFFFFFF)-1].hash&mask) {
			g.index[i] = e
			i = j
		}
	}
	g.index[i] = 0

	if g.deadKey > 4096 && g.deadKey*2 > len(g.arena) {
		g.compactArena()
	}
}

// compactArena rewrites the arena with only the live keys. Slot ids are
// stable across compaction; only the key offsets move. Compaction rewrites
// the key offset of every live slot without stamping them, so it bumps the
// flat generation instead: outstanding delta bases are invalidated and the
// view's next checkpoint is a full base rewrite. The fresh arena is the
// writer's own, so no snapshot shares it any more.
func (g *GMR) compactArena() {
	na := make([]byte, 0, len(g.arena)-g.deadKey)
	for i := range g.slots {
		s := &g.slots[i]
		if s.dead {
			continue
		}
		off := uint32(len(na))
		na = append(na, g.keyAt(s)...)
		s.keyOff = off
	}
	g.arena = na
	g.deadKey = 0
	g.flatGen++
	g.flags &^= flagSharedArena
}

// upsertHashed is the shared mutation core: add m to the entry under key
// (whose hash is h), creating it when absent and deleting it when the
// accumulated multiplicity lands within Epsilon of zero. It returns the new
// multiplicity (0 after removal). m must be non-zero.
func (g *GMR) upsertHashed(h uint64, key []byte, t types.Tuple, m float64) float64 {
	g.ensureMutable()
	pos, id, ok := g.find(h, key)
	if !ok {
		g.insertAt(pos, h, key, t, m)
		return m
	}
	s := &g.slots[id]
	s.mult += m
	s.epoch = g.epoch
	if math.Abs(s.mult) <= Epsilon {
		g.deleteAt(pos, id)
		return 0
	}
	return s.mult
}
