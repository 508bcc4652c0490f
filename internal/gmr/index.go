package gmr

import (
	"bytes"
	"cmp"
	"math/bits"
	"slices"

	"dbtoaster/internal/types"
)

// This file implements a GMR's secondary indexes — the hashed non-unique
// indexes that DBToaster's generated C++ keeps beside the primary one in each
// map's Boost Multi-Index container. An index maps the encoded values of a
// column list to a posting: the ids of the live slots holding those values.
// Postings reference slots, not values, so in-place multiplicity updates,
// probe-table growth and arena compaction never touch them; only creating and
// removing an entry does.
//
// Each index is flat, like the primary table of flat.go, and owns no heap
// object per key:
//
//   - cells: the probe table, a power-of-two []uint64 with linear probing
//     and backward-shift deletion; a cell packs the upper 32 bits of the
//     key's hashKey with bucketID+1, 0 meaning empty.
//   - buckets: one record per distinct key — its hash, its key's place in
//     the key arena and its posting run's place in the id pool. Removed
//     buckets go on a free list for reuse.
//   - keys: the byte arena of the bucket keys, appended back-to-back.
//   - ids: the id pool. A posting is the run ids[off:off+n] of a reserved
//     run of cap ids (a power of two); a run that fills moves to the end of
//     the pool with double the capacity (or grows in place when it is last).
//
// A bucket whose posting empties is removed at once. The key bytes and pool
// run it leaves behind (and the run a moved posting leaves) are dead space,
// compacted in place once it exceeds half of its array. An index therefore
// holds a bucket only for a key some live entry has, and its arrays stay
// within a constant factor of what its live buckets need at their peak; like
// the primary table's, they keep their capacity for reuse.
//
// Postings are kept in ascending slot-id order. The order is load-bearing for
// durability, not just tidiness: it makes a posting a pure function of the
// store's current contents, independent of the insert/remove history that
// produced them. An index rebuilt after recovery (a slot walk, naturally
// ascending) is therefore identical to one maintained through the original
// run — and since probe iteration order feeds float accumulation order, that
// is what keeps replayed results byte-equal to an uninterrupted run.
//
// Indexes are writer-only state: Freeze, Clone, LoadFlat and AppendFlat carry
// none, and building one on a frozen snapshot panics.

// secondaryIndex is one index: its column list and the flat arrays above.
type secondaryIndex struct {
	cols    []int
	cells   []uint64
	buckets []bucket
	free    []int32 // removed bucket ids, reused first
	live    int     // buckets in use
	keys    []byte
	ids     []int32
	// deadKey and deadIds count the bytes of keys and the ids of the pool
	// that no live bucket owns; they drive compaction.
	deadKey int
	deadIds int
	// buf is the scratch buffer for bucket keys.
	buf []byte
}

// bucket is one distinct key of an index: keys[keyOff:keyOff+keyLen] is the
// key, ids[off:off+n] its posting inside a run of cap reserved ids. n is 0
// only for a removed bucket (and for a new one until its first id lands).
type bucket struct {
	hash           uint64
	keyOff, keyLen uint32
	off, n, cap    uint32
}

const (
	bucketBytes      = 32  // reflect.TypeFor[bucket]().Size()
	indexHeaderBytes = 192 // reflect.TypeFor[secondaryIndex]().Size()
	// minDead keeps a tiny index from compacting on every few removals;
	// below it dead space is at most 16 bytes of keys and 64 bytes of ids.
	// Above it, compaction is driven by the half-of-the-array rule alone,
	// so the bound scales with the index.
	minDead = 16
)

// Index returns the id of the secondary index on the given column list
// (schema positions, in the order a probe binds them), building it over the
// current contents on first request. The id stays valid for the life of the
// store: Clear and Reset empty the index but keep it.
func (g *GMR) Index(cols []int) int {
	for i, ix := range g.indexes {
		if slices.Equal(ix.cols, cols) {
			return i
		}
	}
	if g.flags&flagSealed != 0 {
		panic("gmr: index on a frozen snapshot")
	}
	ix := &secondaryIndex{cols: slices.Clone(cols)}
	g.fillIndex(ix)
	g.indexes = append(g.indexes, ix)
	return len(g.indexes) - 1
}

// Posting returns the ids (see SlotEntry) of the entries whose index columns,
// encoded with types.Tuple.AppendKey, equal key, in ascending order. The
// slice aliases the index and is valid until the next mutation.
func (g *GMR) Posting(ix int, key []byte) []int32 {
	x := g.indexes[ix]
	if x.live == 0 {
		return nil
	}
	if _, b, ok := x.find(hashKey(key), key); ok {
		bk := &x.buckets[b]
		return x.ids[bk.off : bk.off+bk.n : bk.off+bk.n]
	}
	return nil
}

// key encodes t's index columns into the scratch buffer.
func (ix *secondaryIndex) key(t types.Tuple) []byte {
	ix.buf = ix.buf[:0]
	for _, c := range ix.cols {
		ix.buf = t[c].EncodeKey(ix.buf)
	}
	return ix.buf
}

// fillIndex adds every live slot to the index in slot order.
func (g *GMR) fillIndex(ix *secondaryIndex) {
	for i := range g.slots {
		if !g.slots[i].dead {
			ix.insert(ix.key(g.tupleAt(int32(i))), int32(i))
		}
	}
}

// reindex rebuilds every index from the current contents (after Clear,
// Reset and ApplyFlatDelta, which rewrite slots wholesale). The index
// arrays keep their capacity.
func (g *GMR) reindex() {
	for _, ix := range g.indexes {
		if ix.live != 0 {
			clear(ix.cells)
		}
		ix.truncate()
		g.fillIndex(ix)
	}
}

// updateIndexes reflects the creation (insert) or removal of the entry t in
// slot id in every index.
func (g *GMR) updateIndexes(id int32, t types.Tuple, insert bool) {
	for _, ix := range g.indexes {
		if insert {
			ix.insert(ix.key(t), id)
		} else {
			ix.remove(ix.key(t), id)
		}
	}
}

// find probes for the bucket of key (whose hash is h). It returns the cell
// where the search ended — the bucket's cell when found, the first empty
// cell otherwise — and the bucket id when found.
func (ix *secondaryIndex) find(h uint64, key []byte) (pos uint64, b int32, ok bool) {
	if len(ix.cells) == 0 {
		return 0, -1, false
	}
	mask := uint64(len(ix.cells) - 1)
	tag := h &^ 0xFFFFFFFF
	i := h & mask
	for {
		e := ix.cells[i]
		if e == 0 {
			return i, -1, false
		}
		if e&^0xFFFFFFFF == tag {
			b := int32(e&0xFFFFFFFF) - 1
			bk := &ix.buckets[b]
			if bk.hash == h && bytes.Equal(ix.keys[bk.keyOff:bk.keyOff+bk.keyLen], key) {
				return i, b, true
			}
		}
		i = (i + 1) & mask
	}
}

// insert adds slot id to the posting of key, creating its bucket when
// absent.
func (ix *secondaryIndex) insert(key []byte, id int32) {
	h := hashKey(key)
	pos, b, ok := ix.find(h, key)
	if !ok {
		b = ix.newBucket(pos, h, key)
	}
	bk := &ix.buckets[b]
	if bk.n == bk.cap {
		ix.growRun(bk)
	}
	run := ix.ids[bk.off : bk.off+bk.n+1]
	i, _ := slices.BinarySearch(run[:bk.n], id)
	copy(run[i+1:], run[i:bk.n])
	run[i] = id
	bk.n++
}

// newBucket creates the (empty) bucket of key at the empty cell pos.
func (ix *secondaryIndex) newBucket(pos, h uint64, key []byte) int32 {
	if (ix.live+1)*4 > len(ix.cells)*3 {
		ix.grow()
		pos = probeEmpty(ix.cells, h)
	}
	nb := bucket{hash: h, keyOff: uint32(len(ix.keys)), keyLen: uint32(len(key)), off: uint32(len(ix.ids))}
	ix.keys = append(ix.keys, key...)
	var b int32
	if n := len(ix.free); n > 0 {
		b = ix.free[n-1]
		ix.free = ix.free[:n-1]
		ix.buckets[b] = nb
	} else {
		b = int32(len(ix.buckets))
		ix.buckets = append(ix.buckets, nb)
	}
	ix.cells[pos] = h&^0xFFFFFFFF | uint64(b+1)
	ix.live++
	return b
}

// grow doubles the probe table and reinserts every bucket by its hash.
// Only called from newBucket, before the new bucket exists, so every bucket
// with a non-empty posting is live.
func (ix *secondaryIndex) grow() {
	ix.cells = make([]uint64, max(2*len(ix.cells), minIndexSize))
	for i := range ix.buckets {
		if bk := &ix.buckets[i]; bk.n != 0 {
			ix.cells[probeEmpty(ix.cells, bk.hash)] = bk.hash&^0xFFFFFFFF | uint64(i+1)
		}
	}
}

// growRun doubles the reserved run of a full posting: in place when the run
// ends the pool, otherwise by moving it to the end and leaving its old run
// dead. Moves alone cannot push the dead space past half of the pool (the
// runs a posting left behind total less than its current reserve), so only
// removals check for compaction.
func (ix *secondaryIndex) growRun(bk *bucket) {
	if bk.off+bk.cap != uint32(len(ix.ids)) {
		off := uint32(len(ix.ids))
		ix.ids = append(ix.ids, ix.ids[bk.off:bk.off+bk.n]...)
		ix.deadIds += int(bk.cap)
		bk.off = off
	}
	c := max(2*bk.cap, 1)
	ix.ids = append(ix.ids, make([]int32, c-bk.cap)...)
	bk.cap = c
}

// remove takes slot id out of the posting of key, removing the bucket when
// its posting empties.
func (ix *secondaryIndex) remove(key []byte, id int32) {
	pos, b, ok := ix.find(hashKey(key), key)
	if !ok {
		return
	}
	bk := &ix.buckets[b]
	run := ix.ids[bk.off : bk.off+bk.n]
	i, found := slices.BinarySearch(run, id)
	if !found {
		return
	}
	copy(run[i:], run[i+1:])
	if bk.n--; bk.n == 0 {
		ix.removeBucket(pos, b)
	}
}

// removeBucket releases bucket b, whose cell is pos: its key bytes and pool
// run become dead (or are cut off when they end their array), its id goes
// on the free list and its probe cluster is backward-shifted, as in the
// primary table's deleteAt.
func (ix *secondaryIndex) removeBucket(pos uint64, b int32) {
	bk := &ix.buckets[b]
	if bk.keyOff+bk.keyLen == uint32(len(ix.keys)) {
		ix.keys = ix.keys[:bk.keyOff]
	} else {
		ix.deadKey += int(bk.keyLen)
	}
	if bk.off+bk.cap == uint32(len(ix.ids)) {
		ix.ids = ix.ids[:bk.off]
	} else {
		ix.deadIds += int(bk.cap)
	}
	*bk = bucket{}
	ix.free = append(ix.free, b)
	ix.live--

	mask := uint64(len(ix.cells) - 1)
	i, j := pos, pos
	for {
		j = (j + 1) & mask
		e := ix.cells[j]
		if e == 0 {
			break
		}
		if mayFill(i, j, ix.buckets[int32(e&0xFFFFFFFF)-1].hash&mask) {
			ix.cells[i] = e
			i = j
		}
	}
	ix.cells[i] = 0

	if ix.live == 0 {
		ix.truncate() // every cell is already empty
		return
	}
	ix.maybeCompact()
}

// truncate empties every array but the probe table, keeping capacity.
func (ix *secondaryIndex) truncate() {
	ix.buckets, ix.free = ix.buckets[:0], ix.free[:0]
	ix.keys, ix.ids = ix.keys[:0], ix.ids[:0]
	ix.live, ix.deadKey, ix.deadIds = 0, 0, 0
}

// maybeCompact compacts the key arena or the id pool once its dead space
// exceeds half of it. Compaction slides the live keys or runs down in
// offset order, in place: the arrays keep their capacity, so a store that
// fills and drains repeatedly stops growing them, as Reset lets it. Each run's
// reserve shrinks to the smallest power of two holding its posting, so the
// pool stays within twice the live ids. Bucket ids and probe cells are
// unaffected; only offsets move.
func (ix *secondaryIndex) maybeCompact() {
	compactKeys := ix.deadKey > minDead && ix.deadKey*2 > len(ix.keys)
	compactIDs := ix.deadIds > minDead && ix.deadIds*2 > len(ix.ids)
	if !compactKeys && !compactIDs {
		return
	}
	order := make([]int32, 0, ix.live)
	for i := range ix.buckets {
		if ix.buckets[i].n != 0 {
			order = append(order, int32(i))
		}
	}
	if compactKeys {
		slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(ix.buckets[a].keyOff, ix.buckets[b].keyOff) })
		w := uint32(0)
		for _, b := range order {
			bk := &ix.buckets[b]
			copy(ix.keys[w:], ix.keys[bk.keyOff:bk.keyOff+bk.keyLen])
			bk.keyOff = w
			w += bk.keyLen
		}
		ix.keys, ix.deadKey = ix.keys[:w], 0
	}
	if compactIDs {
		slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(ix.buckets[a].off, ix.buckets[b].off) })
		w := uint32(0)
		for _, b := range order {
			bk := &ix.buckets[b]
			copy(ix.ids[w:], ix.ids[bk.off:bk.off+bk.n])
			bk.off, bk.cap = w, runCap(bk.n)
			w += bk.cap
		}
		ix.ids, ix.deadIds = ix.ids[:w], 0
	}
}

// runCap is the reserve of a run holding n ids: the smallest power of two
// not below n (never above the reserve the run had).
func runCap(n uint32) uint32 { return 1 << bits.Len32(n-1) }

// indexBytes returns the memory held by the secondary indexes, exactly: the
// index headers and the capacity of every array they own.
func (g *GMR) indexBytes() int {
	n := cap(g.indexes) * 8
	for _, ix := range g.indexes {
		n += indexHeaderBytes + cap(ix.cols)*8 + cap(ix.cells)*8 + cap(ix.buckets)*bucketBytes +
			cap(ix.free)*4 + cap(ix.keys) + cap(ix.ids)*4 + cap(ix.buf)
	}
	return n
}
