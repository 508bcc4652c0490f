package main

import (
	"fmt"
	"time"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/catalog"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
	"dbtoaster/internal/workload"
)

// segment is one generated update stream plus its mirror image. Replaying
// fwd, rev, fwd, ... (a sawtooth) gives an arbitrarily long input from one
// moderate-size generator call: workload.Spec.Stream is superlinear in its
// length and an event costs ~280 B resident, so multi-million-event streams
// cannot be materialised. Unlike plain cycling, every pass both fills and
// drains the views (inserts, deletes, tombstones and arena compaction all
// stay exercised) and every intermediate state is a state some prefix of fwd
// produces, so no multiplicity ever goes negative and the state after any
// number of events has a cheap reference (see position).
type segment struct {
	fwd, rev []engine.Event
	buildS   float64 // generator time, reported as gen.build_s
}

// mirror returns the stream that undoes fwd: order reversed, Insert flipped,
// tuples shared with fwd (not copied).
func mirror(fwd []engine.Event) []engine.Event {
	rev := make([]engine.Event, len(fwd))
	for i, ev := range fwd {
		ev.Insert = !ev.Insert
		rev[len(fwd)-1-i] = ev
	}
	return rev
}

func buildSegment(ms *workload.MultiSpec, scale float64, seed int64) *segment {
	start := time.Now()
	fwd := ms.Stream(scale, seed)
	return &segment{fwd: fwd, rev: mirror(fwd), buildS: time.Since(start).Seconds()}
}

// windows cuts the forward pass into windows of n events (the last one may
// be shorter).
func (s *segment) windows(n int) [][]engine.Event { return workload.Batches(s.fwd, n) }

// cursor walks a sawtooth in windows of a fixed size: forward over the first
// segment, mirrored over it, forward over the second, and so on, cycling. With
// one segment that is the plain sawtooth; with several, every forward pass
// meets new data, so that what one seed's data happens to cost (shared-18's
// rate moves by 30 % from seed to seed on one 3 250-event segment, the
// order-book queries being quadratic in the book) averages out inside the
// run. Windows never span a pass boundary, so each segment's window lists are
// cut once and reused.
type cursor struct {
	segs   []*segment
	win    [][2][][]engine.Event // per segment: [0] forward windows, [1] mirrored windows
	pass   int                   // passes completed
	idx    int                   // next window of the current pass
	inPass int                   // events applied in the current pass
}

func newCursor(segs []*segment, window int) *cursor {
	c := &cursor{segs: segs}
	for _, s := range segs {
		c.win = append(c.win, [2][][]engine.Event{workload.Batches(s.fwd, window), workload.Batches(s.rev, window)})
	}
	return c
}

// next returns the next window of the sawtooth.
func (c *cursor) next() []engine.Event {
	ws := c.win[c.pass/2%len(c.segs)][c.pass%2]
	w := ws[c.idx]
	c.idx++
	c.inPass += len(w)
	if c.idx == len(ws) {
		c.idx, c.inPass = 0, 0
		c.pass++
	}
	return w
}

// position returns the segment and the length of its forward prefix whose
// state the views hold after the windows handed out so far: every state a
// sawtooth passes through is a state some prefix produces, which is what
// gives any stopping point a cheap reference.
func (c *cursor) position() (*segment, int) {
	seg := c.segs[c.pass/2%len(c.segs)]
	if c.pass%2 == 0 {
		return seg, c.inPass
	}
	return seg, len(seg.fwd) - c.inPass
}

// refDB is the database the non-incremental reference evaluates over: plain
// GMRs the harness accumulated itself, plus hash indexes built on first use
// so that agca.Eval joins by probing instead of by nested scans (18 s against
// 0.1 s for Q3 on the TPC-H segment). It shares nothing with the engine under
// test.
type refDB struct {
	rels    agca.MapDB
	indexes map[string]map[string][]gmr.Entry // "REL|cols" -> encoded values -> entries
}

func (db *refDB) Relation(name string) *gmr.GMR { return db.rels.Relation(name) }

// Probe implements agca.Prober.
func (db *refDB) Probe(name string, cols []int, vals []types.Value) []gmr.Entry {
	id := fmt.Sprint(name, "|", cols)
	idx, ok := db.indexes[id]
	if !ok {
		idx = map[string][]gmr.Entry{}
		key := make(types.Tuple, len(cols))
		db.rels.Relation(name).Foreach(func(t types.Tuple, m float64) {
			for i, c := range cols {
				key[i] = t[c]
			}
			k := key.EncodeKey()
			idx[k] = append(idx[k], gmr.Entry{Tuple: t, Mult: m})
		})
		db.indexes[id] = idx
	}
	return idx[types.Tuple(vals).EncodeKey()]
}

// baseRelations accumulates the first n events of fwd into plain GMRs, one
// per catalog relation, next to the static tables.
func baseRelations(cat *catalog.Catalog, statics map[string]*gmr.GMR, fwd []engine.Event, n int) (*refDB, error) {
	rels := agca.MapDB{}
	for _, r := range cat.Relations() {
		rels[r.Name] = gmr.New(types.Schema(r.Columns))
	}
	for name, data := range statics {
		rels[name] = data
	}
	for i, ev := range fwd[:n] {
		rel, ok := rels[ev.Relation]
		if !ok {
			return nil, fmt.Errorf("event %d: relation %q not in the catalog", i, ev.Relation)
		}
		m := 1.0
		if !ev.Insert {
			m = -1
		}
		if got := rel.Add(ev.Tuple, m); got < 0 {
			return nil, fmt.Errorf("event %d: multiplicity of %v in %s went negative", i, ev.Tuple, ev.Relation)
		}
	}
	return &refDB{rels: rels, indexes: map[string]map[string][]gmr.Entry{}}, nil
}
