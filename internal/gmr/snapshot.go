package gmr

import (
	"math"

	"dbtoaster/internal/types"
)

// This file implements the freeze mechanism behind the engine's snapshot-
// isolated read path: Freeze returns a sealed, read-only GMR that shares the
// receiver's current arena, slot slice, value slab and probe table, and arms
// the receiver for copy-on-write — the first mutation after a freeze copies
// the slots, the slab and the probe table before writing, so every
// outstanding snapshot stays immutable for as long as a reader holds it.
//
// Why the arena is never copied: writers only ever (a) append key bytes past
// the length every snapshot captured, which touches addresses no snapshot
// reads, or (b) swap in a freshly allocated arena (compaction), which leaves
// the snapshots' slice headers pointing at the old bytes. Appends within one
// backing array are monotonic across freezes, so the shared prefix is
// write-once. The one operation that would rewind it, Reset's in-place
// truncation, is therefore refused for an arena a snapshot may share
// (flagSharedArena): Reset drops such an arena instead. Slot records, slab
// values and probe cells, by contrast, are updated in place (multiplicity
// adds, slot reuse, deletion clearing its values, backward-shift deletion),
// which is why those three slices are the copy-on-write unit.
//
// Cost model: Freeze is O(1) in the store size — four slice headers, a few
// scalars, and a copy of the pending-reuse free list (dead slots awaiting
// reuse, normally a tiny fraction of the store; see the note in Freeze for why
// it cannot be shared). The deferred copy is O(entries × arity) and is paid
// at most once per freeze, by the writer, on its first subsequent mutation;
// a reader never pays anything and never blocks.

const (
	// flagCOW: frozen since the last mutation — copy slots, slab and index
	// before the next write.
	flagCOW uint8 = 1 << iota
	// flagSealed: this GMR is a snapshot — writes panic.
	flagSealed
	// flagSharedArena: a snapshot may share the arena's backing array — set
	// by Freeze, cleared when the writer installs an arena of its own
	// (compaction, Reset, Clear). The copy-on-write gate ignores it.
	flagSharedArena
)

// Freeze returns a read-only snapshot of the GMR's current contents and
// marks the receiver copy-on-write. The snapshot's reads (Get, Lookup*,
// Foreach*, Entries, SlotEntry, MemSize, ...) are safe for concurrent use
// with further mutations of the receiver; mutating the snapshot itself
// panics. The snapshot carries no secondary indexes. Freezing a snapshot
// returns the snapshot unchanged, and freezing again with no intervening
// mutation returns the same snapshot.
func (g *GMR) Freeze() *GMR {
	if g.flags&flagSealed != 0 {
		return g
	}
	if g.frozen != nil {
		return g.frozen
	}
	snap := &GMR{
		schema: g.schema,
		arena:  g.arena,
		slots:  g.slots,
		vals:   g.vals,
		index:  g.index,
		// The free list is copied, not shared: the writer may pop an id and
		// then push another into the vacated backing element, which would
		// mutate the snapshot's view of it. It must be captured — a checkpoint
		// serialized from this snapshot (AppendFlat) has to restore the exact
		// pending-reuse order, or replayed inserts pick different slot ids
		// than the original run did. It is the list of dead slots awaiting
		// reuse, normally a tiny fraction of the store, so Freeze stays
		// effectively O(1).
		free:    append([]int32(nil), g.free...),
		live:    g.live,
		deadKey: g.deadKey,
		epoch:   g.epoch,
		flatGen: g.flatGen,
		flags:   flagSealed,
	}
	// Advance the epoch so every mutation after this freeze stamps strictly
	// newer than the snapshot's captured value — that strict inequality is
	// what FlatDirty and AppendFlatDelta (delta.go) test per slot. On the
	// (effectively unreachable) wrap-around, force the writer's private copy
	// first — the stamps live in the slot records the snapshot shares — then
	// restart them under a fresh generation, which invalidates every
	// outstanding delta base.
	if g.epoch == math.MaxUint32 {
		g.cowCopy()
		for i := range g.slots {
			g.slots[i].epoch = 0
		}
		g.epoch = 1
		g.flatGen++
	} else {
		g.epoch++
	}
	g.flags |= flagCOW | flagSharedArena
	g.frozen = snap
	return snap
}

// ensureMutable is the copy-on-write gate every mutating entry point passes
// through: a sealed snapshot refuses the mutation, and a GMR frozen since its
// last mutation first copies the slot records, the slab and the probe table
// (the structures snapshot readers scan in place). The hot path is a single
// load-and-test (the function inlines); the copy is outlined.
func (g *GMR) ensureMutable() {
	if g.flags&(flagCOW|flagSealed) != 0 {
		g.cowCopy()
	}
}

// cowCopy performs the deferred copy-on-write (or rejects a snapshot
// mutation). Slot ids are preserved by the copy, so the secondary-index
// postings stay valid.
func (g *GMR) cowCopy() {
	if g.flags&flagSealed != 0 {
		panic("gmr: mutation of a frozen snapshot")
	}
	g.flags &^= flagCOW
	g.frozen = nil
	g.slots = append([]slot(nil), g.slots...)
	g.vals = append([]types.Value(nil), g.vals...)
	g.index = append([]uint64(nil), g.index...)
}
