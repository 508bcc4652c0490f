package gmr

import (
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

// secondaryIndex is one index: its column list and its postings. Postings
// are mutated through a pointer, so updating an existing bucket performs no
// map write (and no string-key allocation).
type secondaryIndex struct {
	cols    []int
	buckets map[string]*posting
	// buf is the scratch buffer for bucket keys.
	buf []byte
}

type posting struct {
	ids []int32
}

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
	ix := &secondaryIndex{cols: slices.Clone(cols), buckets: map[string]*posting{}}
	g.fillIndex(ix)
	g.indexes = append(g.indexes, ix)
	return len(g.indexes) - 1
}

// Posting returns the ids (see SlotEntry) of the entries whose index columns,
// encoded with types.Tuple.AppendKey, equal key, in ascending order. The
// slice aliases the index and is valid until the next mutation.
func (g *GMR) Posting(ix int, key []byte) []int32 {
	if p := g.indexes[ix].buckets[string(key)]; p != nil {
		return p.ids
	}
	return nil
}

// posting returns the posting of t's index columns, creating it when absent
// and create is set (nil when absent otherwise).
func (ix *secondaryIndex) posting(t types.Tuple, create bool) *posting {
	ix.buf = ix.buf[:0]
	for _, c := range ix.cols {
		ix.buf = t[c].EncodeKey(ix.buf)
	}
	p := ix.buckets[string(ix.buf)]
	if p == nil && create {
		p = &posting{}
		ix.buckets[string(ix.buf)] = p
	}
	return p
}

// fillIndex adds every live slot to the index in slot order.
func (g *GMR) fillIndex(ix *secondaryIndex) {
	for i := range g.slots {
		if s := &g.slots[i]; !s.dead {
			p := ix.posting(s.tuple, true)
			p.ids = append(p.ids, int32(i))
		}
	}
}

// reindex rebuilds every index from the current contents (after Clear,
// Reset and ApplyFlatDelta, which rewrite slots wholesale).
func (g *GMR) reindex() {
	for _, ix := range g.indexes {
		clear(ix.buckets)
		g.fillIndex(ix)
	}
}

// updateIndexes reflects the creation (insert) or removal of the entry t in
// slot id in every index. An emptied posting is kept, so hot buckets do not
// churn allocations.
func (g *GMR) updateIndexes(id int32, t types.Tuple, insert bool) {
	for _, ix := range g.indexes {
		p := ix.posting(t, insert)
		if p == nil {
			continue
		}
		i, found := slices.BinarySearch(p.ids, id)
		switch {
		case insert:
			p.ids = append(p.ids, 0)
			copy(p.ids[i+1:], p.ids[i:])
			p.ids[i] = id
		case found:
			p.ids = append(p.ids[:i], p.ids[i+1:]...)
		}
	}
}

// indexBytes estimates the memory held by the postings.
func (g *GMR) indexBytes() int {
	n := 0
	for _, ix := range g.indexes {
		for bk, p := range ix.buckets {
			n += len(bk) + 48 + 4*cap(p.ids)
		}
	}
	return n
}
