package main

import (
	"fmt"
	"math"
	"time"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/serve"
	"dbtoaster/internal/types"
)

// relTol is the epsilon of the correctness gate, relative to the larger
// magnitude (absolute below 1). The views reach their state through millions
// of float additions and subtractions in sawtooth order, the reference
// through one pass, so the two differ by rounding; a lost or doubled event
// differs by at least one tuple's contribution, orders of magnitude more.
const relTol = 1e-6

// naiveCostLimit is the |BIDS| x |ASKS| product above which MST and PSP are
// not handed to agca.Eval: both compare every bid with every ask and evaluate
// nested aggregates for each pair, which the tree-walking evaluator takes
// 87 s to do at the 162 x 182 rows of shared-18's segment (and a per-event
// engine 19 s). Above the limit they are computed by bookReference, which a
// unit test holds equal to agca.Eval below it.
const naiveCostLimit = 2500

// reference computes what every query of the set must hold where the cursor
// stands, without the code under test: a non-incremental evaluation over base
// relations the harness accumulated itself (plain GMRs; no engine, no
// compiler, no trigger program).
func reference(in *input, at *cursor) (map[string]*gmr.GMR, error) {
	seg, n := at.position()
	db, err := baseRelations(in.ms.Catalog, in.ms.Statics(), seg.fwd, n)
	if err != nil {
		return nil, err
	}
	pairs := db.Relation("BIDS").Len() * db.Relation("ASKS").Len()
	out := make(map[string]*gmr.GMR, len(in.ms.Queries))
	for _, q := range in.ms.Queries {
		if g := bookReference(q.Name, db); g != nil && pairs > naiveCostLimit {
			out[q.Name] = g
			continue
		}
		g, err := agca.EvalChecked(q.Expr, db, types.Env{})
		if err != nil {
			return nil, fmt.Errorf("reference evaluation of %s: %w", q.Name, err)
		}
		out[q.Name] = g
	}
	return out, nil
}

// order is one order-book row: BIDS and ASKS are (T, ID, BROKER, PRICE,
// VOLUME).
type order struct {
	broker              types.Value
	price, volume, mult float64
}

func orders(g *gmr.GMR) []order {
	out := make([]order, 0, g.Len())
	g.Foreach(func(t types.Tuple, m float64) {
		out = append(out, order{broker: t[2], price: t[3].AsFloat(), volume: t[4].AsFloat(), mult: m})
	})
	return out
}

// bookReference evaluates MST or PSP directly from the order books, with the
// nested aggregates of queries/MST.sql and queries/PSP.sql hoisted out of the
// bid x ask loop by hand. It returns nil for any other query.
func bookReference(query string, db agca.Database) *gmr.GMR {
	bids, asks := orders(db.Relation("BIDS")), orders(db.Relation("ASKS"))
	switch query {
	case "PSP":
		// SUM(a.PRICE - b.PRICE) over bids and asks whose volume exceeds
		// 0.0001 of their book's total volume.
		heavy := func(book []order) (count, priceSum float64) {
			total := 0.0
			for _, o := range book {
				total += o.mult * o.volume
			}
			for _, o := range book {
				if o.volume > 0.0001*total {
					count += o.mult
					priceSum += o.mult * o.price
				}
			}
			return count, priceSum
		}
		nb, pb := heavy(bids)
		na, pa := heavy(asks)
		return gmr.NewScalar(nb*pa - na*pb)
	case "MST":
		// Per broker, SUM(a.PRICE*a.VOLUME - b.PRICE*b.VOLUME) over the bids
		// and asks inside the top quarter of their book's volume by price.
		top := func(book []order) []order {
			total := 0.0
			for _, o := range book {
				total += o.mult * o.volume
			}
			var out []order
			for _, o := range book {
				above := 0.0
				for _, p := range book {
					if p.price > o.price {
						above += p.mult * p.volume
					}
				}
				if 0.25*total > above {
					out = append(out, o)
				}
			}
			return out
		}
		var askCount, askValue float64
		for _, a := range top(asks) {
			askCount += a.mult
			askValue += a.mult * a.price * a.volume
		}
		out := gmr.New(types.Schema{"BROKER"})
		for _, b := range top(bids) {
			out.Add(types.Tuple{b.broker}, b.mult*(askValue-askCount*b.price*b.volume))
		}
		return out
	}
	return nil
}

// sameWithin reports whether two GMRs hold the same tuples with the same
// multiplicities within relTol, and describes the first difference if not.
func sameWithin(got, want *gmr.GMR) (bool, string) {
	if len(got.Schema()) != len(want.Schema()) {
		if got.Len() == 0 && want.Len() == 0 {
			return true, "" // an empty copy has no schema yet
		}
		return false, fmt.Sprintf("schemas differ: %v against %v", got.Schema(), want.Schema())
	}
	if !got.Schema().Equal(want.Schema()) {
		// Same column names in another order (the compiler may reorder
		// group-by keys): align the reference to the view. Other names (a
		// hand-built reference) compare by position.
		named := true
		for _, c := range got.Schema() {
			named = named && want.Schema().Contains(c)
		}
		if named {
			want = gmr.Project(want, got.Schema())
		}
	}
	diff := ""
	check := func(a, b *gmr.GMR, an, bn string) {
		a.Foreach(func(t types.Tuple, m float64) {
			if diff != "" {
				return
			}
			o := b.Get(t)
			if math.Abs(m-o) > relTol*math.Max(1, math.Max(math.Abs(m), math.Abs(o))) {
				diff = fmt.Sprintf("%v: %s has %v, %s has %v", t, an, m, bn, o)
			}
		})
	}
	check(got, want, "view", "reference")
	check(want, got, "reference", "view")
	return diff == "", diff
}

// checkEngine holds the named queries' live results against the reference.
// It returns the number of comparisons made; mismatches are recorded on r.
func (r *runner) checkEngine(eng *engine.Engine, queries []string, ref map[string]*gmr.GMR, what string) {
	for _, q := range queries {
		r.attempted++
		got, err := eng.ResultFor(q)
		if err != nil {
			r.fail(1, "%s: %s: %v", what, q, err)
			continue
		}
		if ok, diff := sameWithin(got, ref[q]); !ok {
			r.fail(1, "%s: %s differs from the non-incremental reference: %s", what, q, diff)
		}
	}
}

// checkCopies holds the copies of the served results against each other once
// the writer is quiet: the subscriber's local copy of the watched query and
// the HTTP snapshot of every served query must equal the in-process views (up
// to float summation order — the subscriber adds per-window deltas, the
// engine per-event contributions).
func (r *runner) checkCopies(s *served) {
	r.attempted++
	live, err := s.eng.ResultFor(servedCfg.watch)
	if err != nil {
		r.fail(1, "result of %s: %v", servedCfg.watch, err)
	} else if ok, diff := sameWithin(s.client.Result(), live); !ok {
		r.fail(1, "subscriber's copy of %s differs from the in-process view: %s", servedCfg.watch, diff)
	}
	for _, q := range servedCfg.queries {
		r.attempted++
		live, err := s.eng.ResultFor(q)
		if err != nil {
			r.fail(1, "result of %s: %v", q, err)
			continue
		}
		snap, err := serve.FetchSnapshot(s.srv.SnapshotAddr(), q)
		if err != nil {
			r.fail(1, "snapshot of %s: %v", q, err)
			continue
		}
		var sum, want float64
		for _, row := range snap.Rows {
			sum += row.Mult
		}
		live.Foreach(func(_ types.Tuple, m float64) { want += m })
		if snap.Events != s.eng.Events() || len(snap.Rows) != live.Len() ||
			math.Abs(sum-want) > relTol*math.Max(1, math.Abs(want)) {
			r.fail(1, "snapshot of %s: %d rows summing to %v at position %d, the in-process view has %d rows summing to %v at %d",
				q, len(snap.Rows), sum, snap.Events, live.Len(), want, s.eng.Events())
		}
	}
}

// dialAndCatchUp attaches a second subscriber to a quiet server and waits
// until its catch-up state equals the in-process view.
func dialAndCatchUp(s *served, query string) (*serve.Client, error) {
	want, err := s.eng.ResultFor(query)
	if err != nil {
		return nil, err
	}
	c, err := serve.Dial(s.srv.StreamAddr(), query, serve.ClientOptions{})
	if err != nil {
		return nil, err
	}
	deadline := time.After(5 * time.Second)
	for {
		if ok, _ := sameWithin(c.Result(), want); ok {
			return c, nil
		}
		select {
		case _, open := <-c.C:
			if !open {
				c.Close()
				return nil, fmt.Errorf("stream of %s ended during catch-up: %v", query, c.Err())
			}
		case <-deadline:
			c.Close()
			return nil, fmt.Errorf("catch-up of %s did not converge within 5 s", query)
		}
	}
}
