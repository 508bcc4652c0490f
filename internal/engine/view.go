package engine

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

// View is one materialized map: the primary GMR (a flat open-addressing
// table, see package gmr) keyed by the view's key variables plus lazily
// created secondary indexes for the binding patterns that trigger statements
// probe with (the role Boost Multi-Index plays in the paper's C++ backend).
// A secondary index stores postings of stable slot ids into the flat store,
// so probing dereferences the dense slot slice instead of a nested map and
// index maintenance never copies tuples. An index is identified by its
// column list, in the order the probe binds the columns.
//
// Probe and binding a handle are safe for concurrent use (snapshot readers
// probe the static tables they share with the writer); Add, AddProjected,
// MergeDelta and Clear are not, and must not run concurrently with them.
type View struct {
	name string
	keys []string
	data *gmr.GMR
	// mu guards indexes so that concurrent probes can share lazily built
	// indexes (lookups take the read lock; the one-time build takes the write
	// lock). Index contents are only mutated by Add/MergeDelta, which never
	// overlap with probes.
	mu      sync.RWMutex
	indexes []*secondaryIndex
	// gen moves whenever the indexes are dropped or the store is replaced
	// (Clear, recovery's install) and when LoadStatic replaces this view as
	// a static table; an engine handle bound at another generation
	// re-resolves instead of reading a dropped index. It is atomic because a
	// replaced static table may still be bound by snapshot readers.
	gen atomic.Uint64
	// keyBuf is the scratch key-encoding buffer of the mutating entry points
	// (mutations are single-goroutine by contract).
	keyBuf []byte
	// frozen caches the primary store's frozen header between mutations, so
	// acquiring the same epoch twice hands out the same snapshot and freezes
	// a quiescent view for free. Mutations invalidate it; only Freeze (called
	// under the engine's writer lock) sets it.
	frozen *gmr.GMR
}

// secondaryIndex maps the encoded values of a column subset to a posting of
// slot ids into the view's flat store. Postings are mutated through a
// pointer so that updating an existing bucket performs no map write (and no
// string-key allocation).
type secondaryIndex struct {
	cols    []int
	buckets map[string]*posting
	// sub and keyBuf are maintenance/build scratch; probes encode their
	// bucket keys into caller-local buffers instead.
	sub    types.Tuple
	keyBuf []byte
}

type posting struct {
	ids []int32
}

// NewView creates an empty view with the given key variable names.
func NewView(name string, keys []string) *View {
	return &View{
		name: name,
		keys: append([]string(nil), keys...),
		data: gmr.New(types.Schema(keys)),
	}
}

// newStaticView wraps an already loaded GMR (a static relation, or a frozen
// store a snapshot handle probes) in a View so that probes against it get the
// same lazily built secondary indexes as the maintained views. The GMR is
// adopted, not copied.
func newStaticView(name string, data *gmr.GMR) *View {
	return &View{
		name: name,
		keys: append([]string(nil), data.Schema()...),
		data: data,
	}
}

// Name returns the view's name.
func (v *View) Name() string { return v.name }

// Keys returns the view's key variable names.
func (v *View) Keys() []string { return v.keys }

// Data returns the underlying GMR (live, not a copy).
func (v *View) Data() *gmr.GMR { return v.data }

// Freeze returns the view's primary store frozen at its current contents
// (see gmr.Freeze): an O(1) sealed header whose reads are safe concurrently
// with further writes to the view. Consecutive freezes with no intervening
// mutation return the same header. Callers must hold the engine's writer
// lock (Engine.Acquire does).
func (v *View) Freeze() *gmr.GMR {
	if v.frozen == nil {
		v.frozen = v.data.Freeze()
	}
	return v.frozen
}

// Add increments the multiplicity of the given key tuple, keeping secondary
// indexes in sync.
func (v *View) Add(key types.Tuple, mult float64) {
	if mult == 0 {
		return
	}
	if v.frozen != nil {
		v.frozen = nil
	}
	v.keyBuf = key.AppendKey(v.keyBuf[:0])
	id, newMult, inserted := v.data.UpsertEncoded(v.keyBuf, key, mult)
	if len(v.indexes) != 0 {
		v.updateIndexes(id, key, newMult, inserted)
	}
}

// AddEncoded is Add for callers that already hold the key tuple's canonical
// encoding in a byte buffer (the compiled executors' emission path); the
// underlying flat store appends the bytes to its arena only when a new entry
// is created. It implements exec.Accum, so a compiled statement whose RHS
// does not read its own target can emit straight into the view.
func (v *View) AddEncoded(key []byte, t types.Tuple, mult float64) float64 {
	if mult == 0 {
		return 0
	}
	if v.frozen != nil {
		v.frozen = nil
	}
	id, newMult, inserted := v.data.UpsertEncoded(key, t, mult)
	if len(v.indexes) != 0 {
		v.updateIndexes(id, t, newMult, inserted)
	}
	return newMult
}

// MergeDelta adds every entry of delta (a GMR over the view's key schema)
// into the view. It reuses the delta's canonical encoded keys (no tuple is
// re-encoded), shares the delta's immutable tuples on insert, and touches
// the secondary indexes only when an entry is created or removed, which is
// what makes applying a batch-accumulated delta cheaper than the equivalent
// sequence of Adds.
func (v *View) MergeDelta(delta *gmr.GMR) {
	if delta.IsEmpty() {
		return
	}
	if v.frozen != nil {
		v.frozen = nil
	}
	delta.ForeachKeyed(func(key []byte, t types.Tuple, m float64) {
		id, newMult, inserted := v.data.UpsertEncodedShared(key, t, m)
		if len(v.indexes) != 0 {
			v.updateIndexes(id, t, newMult, inserted)
		}
	})
}

// updateIndexes reflects one primary-store mutation in every secondary
// index. In-place multiplicity updates need no index work at all — the
// postings reference the slot, not the value; only entry creation and removal
// touch a posting.
//
// Postings are kept in ascending slot-id order. The order is load-bearing for
// durability, not just tidiness: it makes a posting a pure function of the
// store's current contents, with no dependence on the insertion/removal
// history that produced them. An index lazily rebuilt after recovery (a
// ForeachSlot walk, naturally ascending) is therefore bit-identical to one
// maintained incrementally through the original run — and since probe
// iteration order feeds float accumulation order, that is what keeps replayed
// results byte-equal to an uninterrupted run. Buckets are probe-selective, so
// the ordered insert's shift stays as short as the removal scan always was.
func (v *View) updateIndexes(id int32, key types.Tuple, newMult float64, inserted bool) {
	if !inserted && newMult != 0 {
		return
	}
	for _, idx := range v.indexes {
		bk := idx.bucketKey(key)
		p := idx.buckets[string(bk)]
		if inserted {
			if p == nil {
				p = &posting{}
				idx.buckets[string(bk)] = p
			}
			i := sort.Search(len(p.ids), func(j int) bool { return p.ids[j] >= id })
			p.ids = append(p.ids, 0)
			copy(p.ids[i+1:], p.ids[i:])
			p.ids[i] = id
			continue
		}
		// newMult == 0: the slot was freed; drop it (freed slot ids are
		// reused by the store, so stale ids must never linger). The emptied
		// posting is kept so hot buckets do not churn allocations.
		if p == nil {
			continue
		}
		i := sort.Search(len(p.ids), func(j int) bool { return p.ids[j] >= id })
		if i < len(p.ids) && p.ids[i] == id {
			p.ids = append(p.ids[:i], p.ids[i+1:]...)
		}
	}
}

// AddProjected adds a tuple given in an arbitrary column order (schema) by
// projecting it onto the view's key order.
func (v *View) AddProjected(schema types.Schema, t types.Tuple, mult float64, keys []string) {
	key := make(types.Tuple, len(v.keys))
	for i, k := range v.keys {
		j := schema.Index(k)
		if j < 0 {
			// Fall back to positional assignment for callers that already
			// projected the tuple.
			if i < len(t) {
				key[i] = t[i]
				continue
			}
			key[i] = types.Null()
			continue
		}
		key[i] = t[j]
	}
	v.Add(key, mult)
}

// Clear removes all contents and indexes. Outstanding snapshots keep the old
// backing arrays (the store abandons rather than scrubs them). Clearing goes
// through GMR.Clear — not a fresh gmr.New — because the store's epoch counter
// and generation must stay monotone: a brand-new store would restart both at
// zero, letting a stale delta-checkpoint base pass the eligibility check
// while every new mutation stamps an epoch the dirty scan ignores.
func (v *View) Clear() {
	v.frozen = nil
	v.data.Clear()
	v.dropIndexes()
}

// install replaces the view's store with a recovered one.
func (v *View) install(data *gmr.GMR) {
	v.data = data
	v.frozen = nil
	v.dropIndexes()
}

// dropIndexes forgets every secondary index (they are rebuilt lazily) and
// moves the generation, so bound handles stop reading the dropped ones.
func (v *View) dropIndexes() {
	clear(v.indexes)
	v.indexes = v.indexes[:0]
	v.gen.Add(1)
}

// Probe returns the entries whose columns at the given positions equal the
// given values: the interpreter's agca.Prober path. A fully-bound probe is a
// direct primary lookup; partial probes use (and lazily build) a secondary
// index.
func (v *View) Probe(cols []int, vals []types.Value) []gmr.Entry {
	var kb [96]byte
	if fullInOrder(cols, len(v.keys)) {
		m := v.data.GetEncoded(types.Tuple(vals).AppendKey(kb[:0]))
		if m == 0 {
			return nil
		}
		return []gmr.Entry{{Tuple: append(types.Tuple(nil), vals...), Mult: m}}
	}
	idx := v.index(cols)
	p := idx.buckets[string(types.Tuple(vals).AppendKey(kb[:0]))]
	if p == nil || len(p.ids) == 0 {
		return nil
	}
	out := make([]gmr.Entry, 0, len(p.ids))
	for _, id := range p.ids {
		out = append(out, v.data.SlotEntry(id))
	}
	return out
}

// fullInOrder reports whether cols is exactly 0..arity-1, i.e. the probe
// binds the full primary key in key order.
func fullInOrder(cols []int, arity int) bool {
	if len(cols) != arity {
		return false
	}
	for i, c := range cols {
		if c != i {
			return false
		}
	}
	return true
}

// index returns (building if necessary) the secondary index on the given
// column list. Concurrent callers serialize only on the read lock and the
// one-time build.
func (v *View) index(cols []int) *secondaryIndex {
	v.mu.RLock()
	idx := v.findIndex(cols)
	v.mu.RUnlock()
	if idx != nil {
		return idx
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if idx := v.findIndex(cols); idx != nil {
		return idx
	}
	idx = &secondaryIndex{
		cols:    slices.Clone(cols),
		buckets: map[string]*posting{},
		sub:     make(types.Tuple, len(cols)),
	}
	v.data.ForeachSlot(func(id int32, t types.Tuple, m float64) {
		bk := idx.bucketKey(t)
		p := idx.buckets[string(bk)]
		if p == nil {
			p = &posting{}
			idx.buckets[string(bk)] = p
		}
		p.ids = append(p.ids, id)
	})
	v.indexes = append(v.indexes, idx)
	return idx
}

func (v *View) findIndex(cols []int) *secondaryIndex {
	for _, idx := range v.indexes {
		if slices.Equal(idx.cols, cols) {
			return idx
		}
	}
	return nil
}

// bucketKey encodes the index's column subset of t into the index's scratch
// buffer. Only called while building or maintaining the index (never from
// concurrent probes, which use caller-local buffers).
func (idx *secondaryIndex) bucketKey(t types.Tuple) []byte {
	for i, c := range idx.cols {
		idx.sub[i] = t[c]
	}
	idx.keyBuf = idx.sub.AppendKey(idx.keyBuf[:0])
	return idx.keyBuf
}

// viewHandle is a bound probe path (agca.Handle): the view a name resolves to
// and, unless the probe binds the full key in order, the view's secondary
// index on the probe columns. An engine handle (e non-nil) is shared by every
// statement that probes the same name on the same columns; it re-resolves
// when its view's generation moves on, and on every probe while the name
// resolves to nothing. A snapshot handle is bound once to immutable state.
type viewHandle struct {
	e    *Engine
	name string
	cols []int
	v    *View
	idx  *secondaryIndex
	gen  uint64
	// one holds a primary-key probe's single hit.
	one [1]int32
}

func (h *viewHandle) resolve(v *View) {
	h.v, h.idx = v, nil
	if v == nil {
		return
	}
	h.gen = v.gen.Load()
	if !fullInOrder(h.cols, len(v.keys)) {
		h.idx = v.index(h.cols)
	}
}

// Probe implements agca.Handle.
func (h *viewHandle) Probe(key []byte) (*gmr.GMR, []int32) {
	if h.e != nil && (h.v == nil || h.gen != h.v.gen.Load()) {
		h.resolve(h.e.lookup(h.name))
	}
	v := h.v
	if v == nil {
		return nil, nil
	}
	if h.idx == nil {
		id, ok := v.data.LookupSlot(key)
		if !ok {
			return nil, nil
		}
		h.one[0] = id
		return v.data, h.one[:]
	}
	if p := h.idx.buckets[string(key)]; p != nil {
		return v.data, p.ids
	}
	return nil, nil
}

// MemSize estimates the bytes held by the view including secondary indexes.
func (v *View) MemSize() int {
	n := v.data.MemSize()
	for _, idx := range v.indexes {
		for bk, p := range idx.buckets {
			n += len(bk) + 48 + 4*cap(p.ids)
		}
	}
	return n
}
