package engine

import (
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

// View is one materialized map: its name, its key variables and its store.
// The store is the paper's multi-index container — a gmr.GMR holds the
// primary hashed index and the secondary indexes the trigger statements
// probe with (gmr.GMR.Index), and keeps them in sync itself — so mutations
// go straight to it. Recovery replaces the store (Recover installs the
// checkpoint's), which is why statements address the view, not the store:
// the View is their exec.Target.
type View struct {
	name string
	keys []string
	data *gmr.GMR
	// capture accumulates the view's changes since the last publication
	// while it has subscribers (nil otherwise); set under the writer lock.
	capture *gmr.GMR
}

// newView creates an empty view with the given key variable names.
func newView(name string, keys []string) *View {
	return &View{
		name: name,
		keys: append([]string(nil), keys...),
		data: gmr.New(types.Schema(keys)),
	}
}

// Name returns the view's name.
func (v *View) Name() string { return v.name }

// Keys returns the view's key variable names.
func (v *View) Keys() []string { return v.keys }

// Data returns the underlying GMR (live, not a copy).
func (v *View) Data() *gmr.GMR { return v.data }

// AddEncoded adds a statement's row to the store and, while the view is
// subscribed, tees it into the capture delta.
func (v *View) AddEncoded(key []byte, t types.Tuple, m float64) float64 {
	if v.capture != nil {
		v.capture.AddEncoded(key, t, m)
	}
	return v.data.AddEncoded(key, t, m)
}

// Merge adds a statement's materialized delta to the store, clearing it
// first when replace is set; a replacement captures the retraction of the
// old contents plus the new ones.
func (v *View) Merge(delta *gmr.GMR, replace bool) {
	if replace {
		if v.capture != nil {
			v.capture.MergeInto(v.data, -1)
		}
		v.data.Clear()
	}
	v.data.MergeInto(delta, 1)
	if v.capture != nil {
		v.capture.MergeInto(delta, 1)
	}
}

// probe returns the entries of g whose columns at the given positions equal
// the given values: a primary lookup when the probe binds the full key in
// order, a secondary-index posting otherwise.
func probe(g *gmr.GMR, cols []int, vals []types.Value) []gmr.Entry {
	var kb [96]byte
	key := types.Tuple(vals).AppendKey(kb[:0])
	if fullInOrder(cols, len(g.Schema())) {
		if e, ok := g.LookupEncoded(key); ok {
			return []gmr.Entry{e}
		}
		return nil
	}
	ids := g.Posting(g.Index(cols), key)
	if len(ids) == 0 {
		return nil
	}
	out := make([]gmr.Entry, len(ids))
	for i, id := range ids {
		out[i] = g.SlotEntry(id)
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

// viewHandle is a bound probe path (agca.Handle): the store a name resolves
// to and, unless the probe binds the full key in order, the store's
// secondary index on the probe columns. The engine shares one handle among
// every statement that probes the same name on the same columns; it
// re-resolves when the engine's adminGen moves (Init, LoadStatic, Recover),
// the only times a name can come to denote another store.
type viewHandle struct {
	e    *Engine
	name string
	cols []int
	g    *gmr.GMR
	// ix is the secondary index id, -1 for a primary-key probe.
	ix  int
	gen uint64
	// one holds a primary-key probe's single hit.
	one [1]int32
}

func (h *viewHandle) resolve() {
	h.gen = h.e.adminGen.Load()
	h.g, h.ix = h.e.lookup(h.name), -1
	if h.g != nil && !fullInOrder(h.cols, len(h.g.Schema())) {
		h.ix = h.g.Index(h.cols)
	}
}

// Probe implements agca.Handle.
func (h *viewHandle) Probe(key []byte) (*gmr.GMR, []int32) {
	if h.gen != h.e.adminGen.Load() {
		h.resolve()
	}
	g := h.g
	if g == nil {
		return nil, nil
	}
	if h.ix >= 0 {
		return g, g.Posting(h.ix, key)
	}
	id, ok := g.LookupSlot(key)
	if !ok {
		return nil, nil
	}
	h.one[0] = id
	return g, h.one[:]
}
