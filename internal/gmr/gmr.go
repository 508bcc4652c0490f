// Package gmr implements generalized multiset relations (GMRs), the data
// model of DBToaster's AGCA calculus (paper §3.1).
//
// A GMR maps tuples to numeric multiplicities. Databases, query results,
// updates and deltas are all GMRs; a deletion is simply a GMR with negative
// multiplicities and "applying" an update means adding it. With addition
// (bag union, MergeInto here) and multiplication (natural join,
// which agca.Eval computes by sideways binding), GMRs form the ring that makes
// delta processing compositional.
//
// Storage is a flat open-addressing hash table (see flat.go): keys live as
// raw bytes in a bump-allocated arena, entries in a slot slice with stable
// ids, and each entry's column values in one value slab per store, arity
// values per slot id, so lookups and in-place updates never convert bytes to
// strings and an insert allocates nothing beyond the amortized growth of the
// arena, the slots and the slab. Secondary indexes over column subsets
// (index.go) are postings of those slot ids, maintained by the store itself
// and just as flat: per index, one probe table hashed with the same hashKey,
// one bucket array, one key arena and one pool of sorted id runs, with no
// Go map and no heap object per key; a bucket whose posting empties is
// released.
//
// # Lifetime contract
//
// A tuple handed out by Foreach, SlotEntry or LookupEncoded is the entry's
// own window of the slab: it must not be written through, and it is valid
// until that entry is removed or the store is Reset or Cleared (the slot id,
// and so the window, is then reused). A caller that keeps a tuple longer
// copies it. Entries is the exception: its tuples are copied into one block
// per call and survive any later mutation of the store. The tuples of a
// frozen snapshot (Freeze) never change. Every entry point that creates an
// entry (Add, AddEncoded, Set, MergeInto, Clone, Negate) copies the values
// into the destination's slab, so callers may reuse the tuples they pass in
// and no two stores share values.
//
// Reads (Get, Lookup*, Foreach, Probe-style slot accessors) are safe for
// concurrent use with each other; mutations are not, and must not overlap
// with reads.
package gmr

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"

	"dbtoaster/internal/types"
)

// Epsilon is the multiplicity magnitude below which an entry is considered
// zero and removed. Integer-weighted workloads never need it; it guards
// against float drift when aggregates are maintained incrementally.
const Epsilon = 1e-9

// Entry is a single tuple together with its multiplicity.
type Entry struct {
	Tuple types.Tuple
	Mult  float64
}

// GMR is a generalized multiset relation: a finite map from tuples (over a
// fixed schema of variable names) to rational multiplicities, represented
// with float64 and stored in the flat table of flat.go.
type GMR struct {
	schema types.Schema
	arena  []byte
	slots  []slot
	// vals is the value slab: slot id i's columns are
	// vals[i*arity : (i+1)*arity], zeroed while the slot is dead.
	vals  []types.Value
	index []uint64
	free  []int32
	live  int
	// deadKey counts arena bytes owned by tombstoned slots, driving
	// compaction.
	deadKey int
	// keyBuf is the scratch encoding buffer of the tuple-taking mutating
	// entry points (Add, Set); mutations are single-goroutine by contract.
	keyBuf []byte
	// flags holds the freeze state (see snapshot.go): flagCOW marks the GMR
	// frozen since its last mutation (Freeze was called), so the next
	// mutation copies slots, slab and probe table first and outstanding
	// snapshots stay immutable; flagSealed marks a snapshot itself —
	// mutations panic; flagSharedArena marks an arena a snapshot may still
	// read, which Reset must not truncate. One byte keeps the never-frozen
	// mutation gate a single load-and-test.
	flags uint8
	// epoch and flatGen drive incremental delta checkpoints (delta.go).
	// Every mutation stamps the touched slot record with epoch; Freeze
	// captures the counter into the snapshot and advances it, so "dirty since
	// snapshot S" is one comparison per slot. The probe table is not stamped:
	// it is derived from the slots and rebuilt on load. flatGen is bumped by
	// whole-store rewrites that move state without stamping it (arena
	// compaction, Reset, Clear, epoch wrap-around): a delta base from another
	// generation is rejected and the view falls back to a full serialization.
	epoch   uint32
	flatGen uint32
	// frozen caches the header Freeze returned until the next mutation, so
	// freezing a quiescent store twice hands out the same snapshot.
	frozen *GMR
	// indexes are the secondary indexes (index.go), in Index id order.
	indexes []*secondaryIndex
}

// New returns an empty GMR with the given schema.
func New(schema types.Schema) *GMR {
	return &GMR{schema: schema.Clone()}
}

// NewScalar returns a nullary GMR (empty schema) whose single tuple 〈〉 has
// multiplicity m. Scalars are how AGCA represents aggregate values.
func NewScalar(m float64) *GMR {
	g := New(nil)
	if m != 0 {
		g.AddEncoded(nil, types.Tuple{}, m)
	}
	return g
}

// Schema returns the schema (variable names) of the GMR.
func (g *GMR) Schema() types.Schema { return g.schema }

// Len returns the number of tuples with non-zero multiplicity.
func (g *GMR) Len() int { return g.live }

// IsEmpty reports whether the GMR has no non-zero entries.
func (g *GMR) IsEmpty() bool { return g.live == 0 }

// Get returns the multiplicity of the given tuple (0 if absent). Get is
// read-only and safe for concurrent use with other reads.
func (g *GMR) Get(t types.Tuple) float64 {
	if g.live == 0 {
		return 0
	}
	var kb [96]byte
	return g.GetEncoded(t.AppendKey(kb[:0]))
}

// ScalarValue returns the multiplicity of the empty tuple; for nullary GMRs
// this is the aggregate value the GMR denotes.
func (g *GMR) ScalarValue() float64 {
	return g.GetEncoded(nil)
}

func (g *GMR) checkArity(t types.Tuple) {
	if len(t) != len(g.schema) {
		panic(fmt.Sprintf("gmr: tuple arity %d does not match schema %v", len(t), g.schema))
	}
}

// Add increments the multiplicity of tuple t by m, removing the entry if the
// result is (numerically) zero. It returns the tuple's new multiplicity
// (0 when the entry was removed; when m is 0 the GMR is unchanged and Add
// returns 0 without looking the tuple up).
func (g *GMR) Add(t types.Tuple, m float64) float64 {
	if m == 0 {
		return 0
	}
	g.checkArity(t)
	g.keyBuf = t.AppendKey(g.keyBuf[:0])
	return g.upsertHashed(hashKey(g.keyBuf), g.keyBuf, t, m)
}

// Set assigns the multiplicity of tuple t to m (removing it when m is zero).
func (g *GMR) Set(t types.Tuple, m float64) {
	g.ensureMutable()
	g.checkArity(t)
	g.keyBuf = t.AppendKey(g.keyBuf[:0])
	h := hashKey(g.keyBuf)
	pos, id, ok := g.find(h, g.keyBuf)
	if math.Abs(m) <= Epsilon {
		if ok {
			g.deleteAt(pos, id)
		}
		return
	}
	if ok {
		g.slots[id].mult = m
		g.slots[id].epoch = g.epoch
		return
	}
	g.insertAt(pos, h, g.keyBuf, t, m)
}

// Foreach calls fn for every entry of the GMR in slot order. fn must not
// mutate the GMR.
func (g *GMR) Foreach(fn func(t types.Tuple, m float64)) {
	for i := range g.slots {
		s := &g.slots[i]
		if s.dead {
			continue
		}
		fn(g.tupleAt(int32(i)), s.mult)
	}
}

// SlotEntry returns the entry stored in the given live slot; the tuple is
// the slot's window of the slab (see the lifetime contract). Slot ids come
// from LookupSlot and Posting and stay valid until the entry is removed (or
// the GMR is Reset/Cleared).
func (g *GMR) SlotEntry(id int32) Entry {
	return Entry{Tuple: g.tupleAt(id), Mult: g.slots[id].mult}
}

// AddEncoded is Add for callers that already hold the tuple's canonical key
// encoding (built with Tuple.AppendKey into a reused buffer); it skips
// re-encoding, and neither the key bytes nor the tuple are retained — the
// key is appended to the arena and the values copied into the slab only
// when a new entry is created, so callers may reuse both buffers. Like Add,
// a zero m leaves the GMR unchanged and returns 0 without probing.
func (g *GMR) AddEncoded(key []byte, t types.Tuple, m float64) float64 {
	if m == 0 {
		return 0
	}
	g.checkArity(t)
	return g.upsertHashed(hashKey(key), key, t, m)
}

// GetEncoded returns the multiplicity stored under the encoded key (0 if
// absent) without allocating.
func (g *GMR) GetEncoded(key []byte) float64 {
	if g.live == 0 {
		return 0
	}
	if _, id, ok := g.find(hashKey(key), key); ok {
		return g.slots[id].mult
	}
	return 0
}

// HashKey returns the 64-bit hash of a canonical key encoding (the bytes
// produced by types.Tuple.AppendKey). It is the function every GMR uses
// internally, exposed so bulk callers can hash a block of keys in one tight
// pass and probe with the hashes (GetEncodedHashed).
func HashKey(key []byte) uint64 { return hashKey(key) }

// GetEncodedHashed is GetEncoded with the key's hash supplied by the caller.
func (g *GMR) GetEncodedHashed(h uint64, key []byte) float64 {
	if g.live == 0 {
		return 0
	}
	if _, id, ok := g.find(h, key); ok {
		return g.slots[id].mult
	}
	return 0
}

// LookupEncoded returns the entry stored under the encoded key, if any,
// without allocating. The tuple is the entry's window of the slab (see the
// lifetime contract).
func (g *GMR) LookupEncoded(key []byte) (Entry, bool) {
	if id, ok := g.LookupSlot(key); ok {
		return g.SlotEntry(id), true
	}
	return Entry{}, false
}

// LookupSlot returns the slot id of the entry stored under the encoded key,
// if any, without allocating.
func (g *GMR) LookupSlot(key []byte) (int32, bool) {
	if g.live == 0 {
		return 0, false
	}
	_, id, ok := g.find(hashKey(key), key)
	return id, ok
}

// Entries returns the entries of the GMR sorted by their canonical key bytes;
// the order is deterministic, which tests and pretty-printers rely on, but it
// is not the Compare order of the tuples. The tuples are copies, made into
// one block per call, so they survive any later mutation, Reset or Clear of
// the store; a call makes the same three allocations whatever the entry
// count.
func (g *GMR) Entries() []Entry {
	ids := make([]int32, 0, g.live)
	for i := range g.slots {
		if !g.slots[i].dead {
			ids = append(ids, int32(i))
		}
	}
	slices.SortFunc(ids, func(a, b int32) int {
		return bytes.Compare(g.keyAt(&g.slots[a]), g.keyAt(&g.slots[b]))
	})
	a := len(g.schema)
	block := make([]types.Value, len(ids)*a)
	out := make([]Entry, len(ids))
	for i, id := range ids {
		t := block[i*a : i*a+a : i*a+a]
		copy(t, g.tupleAt(id))
		out[i] = Entry{Tuple: t, Mult: g.slots[id].mult}
	}
	return out
}

// Clone returns a copy of the GMR: arena, slots, slab and probe table are
// copied, so the two evolve independently. The clone is a distinct store
// lineage: its flat generation is advanced past the receiver's, so a delta
// base captured from one never validates against the other once they
// diverge. The clone carries no secondary indexes.
func (g *GMR) Clone() *GMR {
	out := &GMR{schema: g.schema.Clone(), live: g.live, deadKey: g.deadKey,
		epoch: g.epoch, flatGen: g.flatGen + 1}
	out.arena = append([]byte(nil), g.arena...)
	out.slots = append([]slot(nil), g.slots...)
	out.vals = append([]types.Value(nil), g.vals...)
	out.index = append([]uint64(nil), g.index...)
	out.free = append([]int32(nil), g.free...)
	return out
}

// Clear removes all entries and releases the table's memory; secondary
// indexes are emptied but kept. Outstanding snapshots keep the old contents
// (Clear installs fresh empty structures). The epoch counter survives and
// the flat generation advances: stamps in any shared snapshot stay
// comparable, while delta bases from before the Clear are invalidated. (A
// fresh New would restart both at zero, letting a stale delta base pass the
// eligibility check while every new mutation stamps an epoch the dirty scan
// ignores.)
func (g *GMR) Clear() {
	if g.flags&flagSealed != 0 {
		panic("gmr: mutation of a frozen snapshot")
	}
	*g = GMR{schema: g.schema, epoch: g.epoch, flatGen: g.flatGen + 1, indexes: g.indexes}
	g.reindex()
}

// Reset removes all entries but keeps the allocated arena, slot slice, slab
// and probe table, so a scratch GMR reused across events stops allocating
// once it has grown to working-set size. Slot ids from before the Reset are
// invalidated; secondary indexes are emptied but kept. Structures a snapshot
// may still read are dropped instead of truncated in place, like Clear: the
// slots, slab and probe table while the GMR is frozen, and the arena once it
// has been frozen at all — the copy-on-write of the first write after a
// Freeze copies the rest but leaves the arena shared (see snapshot.go).
func (g *GMR) Reset() {
	if g.flags&flagSealed != 0 {
		panic("gmr: mutation of a frozen snapshot")
	}
	g.flatGen++
	g.live, g.deadKey = 0, 0
	if g.flags&flagCOW != 0 {
		g.frozen = nil
		g.slots, g.vals, g.index, g.free = nil, nil, nil, nil
	} else {
		g.slots = g.slots[:0]
		clear(g.vals)
		g.vals = g.vals[:0]
		g.free = g.free[:0]
		clear(g.index)
	}
	if g.flags&flagSharedArena != 0 {
		g.arena = nil
	} else {
		g.arena = g.arena[:0]
	}
	g.flags &^= flagCOW | flagSharedArena
	g.reindex()
}

// MergeInto adds every entry of o (scaled by factor) into g. The schemas
// must be identical; it is the GMR ring's "+" applied in place. Source keys
// and cached hashes are reused (no re-encoding), and inserted entries copy
// o's values into g's slab.
func (g *GMR) MergeInto(o *GMR, factor float64) {
	if o == nil || factor == 0 {
		return
	}
	if !g.schema.Equal(o.schema) {
		panic(fmt.Sprintf("gmr: MergeInto schema mismatch %v vs %v", g.schema, o.schema))
	}
	for i := range o.slots {
		s := &o.slots[i]
		if s.dead {
			continue
		}
		m := s.mult * factor
		if m == 0 {
			continue
		}
		g.upsertHashed(s.hash, o.keyAt(s), o.tupleAt(int32(i)), m)
	}
}

// Negate returns -g, a structural copy (see Clone); keys and hashes are not
// recomputed.
func Negate(g *GMR) *GMR {
	out := g.Clone()
	for i := range out.slots {
		if !out.slots[i].dead {
			out.slots[i].mult = -out.slots[i].mult
		}
	}
	return out
}

// Equal reports whether two GMRs have the same schema and the same
// multiplicity for every tuple, within tol.
func Equal(a, b *GMR, tol float64) bool {
	if !a.schema.Equal(b.schema) {
		return false
	}
	for i := range a.slots {
		s := &a.slots[i]
		if s.dead {
			continue
		}
		m := 0.0
		if _, id, ok := b.find(s.hash, a.keyAt(s)); ok {
			m = b.slots[id].mult
		}
		if math.Abs(s.mult-m) > tol {
			return false
		}
	}
	for i := range b.slots {
		s := &b.slots[i]
		if s.dead {
			continue
		}
		if _, _, ok := a.find(s.hash, b.keyAt(s)); !ok && math.Abs(s.mult) > tol {
			return false
		}
	}
	return true
}

// Project returns the multiplicity-preserving projection of g onto the given
// columns (the Sum_A group-by aggregation of AGCA): tuples are projected and
// their multiplicities summed. Projected rows are emitted through one reused
// tuple and key buffer, so rows that collapse onto an existing group
// allocate nothing.
func Project(g *GMR, cols types.Schema) *GMR {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j := g.schema.Index(c)
		if j < 0 {
			panic(fmt.Sprintf("gmr: Project column %q not in schema %v", c, g.schema))
		}
		idx[i] = j
	}
	out := New(cols)
	outT := make(types.Tuple, len(cols))
	var outKey []byte
	g.Foreach(func(t types.Tuple, m float64) {
		for i, j := range idx {
			outT[i] = t[j]
		}
		outKey = outT.AppendKey(outKey[:0])
		out.AddEncoded(outKey, outT, m)
	})
	return out
}

// FromRows builds a GMR from a schema and rows, each row inserted with
// multiplicity 1 (duplicates accumulate).
func FromRows(schema types.Schema, rows []types.Tuple) *GMR {
	g := New(schema)
	for _, r := range rows {
		g.Add(r, 1)
	}
	return g
}

// String renders the GMR as a small table, in deterministic order.
func (g *GMR) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "GMR%v{", g.schema)
	for i, e := range g.Entries() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%v->%g", e.Tuple, e.Mult)
	}
	b.WriteString("}")
	return b.String()
}

// MemSize reports the in-memory footprint of the GMR in bytes: exact for the
// table itself (the GMR header, and the arena, slot records, value slab,
// probe table and free list by capacity) and for the secondary indexes (their headers and every array
// they own), plus the bytes of the strings the live values hold.
func (g *GMR) MemSize() int {
	n := headerBytes + cap(g.arena) + cap(g.slots)*slotBytes + cap(g.vals)*valueBytes + cap(g.index)*8 + cap(g.free)*4 + g.indexBytes()
	for i := range g.slots {
		if g.slots[i].dead {
			continue
		}
		for _, v := range g.tupleAt(int32(i)) {
			n += v.MemSize() - valueBytes
		}
	}
	return n
}
