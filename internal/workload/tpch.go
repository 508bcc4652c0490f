package workload

import (
	"math/rand"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

// The TPC-H-style workload (paper §8, Appendix A.1/B): a condensed TPC-H
// schema, a deterministic DBGEN-like generator, and an "Agenda" update stream
// that interleaves insertions into every relation with deletions that keep
// the Orders and Lineitem working sets at a bounded size, preserving the
// foreign keys — exactly the discipline of the paper's stream synthesis.

func init() {
	for _, name := range []string{"Q1", "Q3", "Q4", "Q6", "Q10", "Q11a", "Q12", "Q17a", "Q18a", "Q22a", "SSB4"} {
		Register(specFromSQL(name, "tpch", tpchStatics, tpchStream))
	}
}

// --- data generation -------------------------------------------------------

// tpchSizes holds the base cardinalities at scale 1; the stream length and
// the insert-only dimension tables grow with the scale factor while the
// Orders/Lineitem working set stays bounded, as in the paper.
const (
	tpchCustomers  = 40
	tpchParts      = 50
	tpchSuppliers  = 10
	tpchPartsupp   = 100
	tpchOrdersLive = 120
	tpchLineLive   = 360
	tpchBaseEvents = 6000
)

var (
	tpchSegments  = []string{"BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"}
	tpchPrios     = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	tpchModes     = []string{"MAIL", "SHIP", "AIR", "TRUCK", "RAIL", "FOB", "REG AIR"}
	tpchFlags     = []string{"R", "A", "N"}
	tpchBrands    = []string{"Brand#12", "Brand#23", "Brand#34", "Brand#45"}
	tpchTypes     = []string{"ECONOMY ANODIZED STEEL", "MEDIUM POLISHED BRASS", "PROMO BRUSHED COPPER", "STANDARD PLATED TIN"}
	tpchNationCnt = 10
	tpchRegionCnt = 3
)

// tpchStatics builds the static Nation and Region tables.
func tpchStatics() map[string]*gmr.GMR {
	nation := gmr.New(types.Schema{"NK", "RK", "NNAME"})
	for nk := 0; nk < tpchNationCnt; nk++ {
		nation.Add(types.Tuple{types.Int(int64(nk)), types.Int(int64(nk % tpchRegionCnt)),
			types.Str([]string{"GERMANY", "FRANCE", "CANADA", "BRAZIL", "JAPAN", "CHINA", "INDIA", "KENYA", "PERU", "SPAIN"}[nk])}, 1)
	}
	region := gmr.New(types.Schema{"RK", "RNAME"})
	for rk := 0; rk < tpchRegionCnt; rk++ {
		region.Add(types.Tuple{types.Int(int64(rk)), types.Str([]string{"EUROPE", "AMERICA", "ASIA"}[rk])}, 1)
	}
	return map[string]*gmr.GMR{"NATION": nation, "REGION": region}
}

func randDate(rng *rand.Rand, fromYear, toYear int) types.Value {
	y := fromYear + rng.Intn(toYear-fromYear+1)
	m := 1 + rng.Intn(12)
	d := 1 + rng.Intn(28)
	return types.Date(y, m, d)
}

// tpchStream synthesizes the Agenda stream: dimension inserts first (spread
// through the prefix), then a steady mix of order/lineitem inserts with
// deletions that keep the fact working set roughly constant.
func tpchStream(scale float64, seed int64) []engine.Event {
	rng := rand.New(rand.NewSource(seed))
	n := int(float64(tpchBaseEvents) * scale)
	events := make([]engine.Event, 0, n)

	nCust := atLeast(int(float64(tpchCustomers)*scaleDim(scale)), 5)
	nPart := atLeast(int(float64(tpchParts)*scaleDim(scale)), 5)
	nSupp := atLeast(int(float64(tpchSuppliers)*scaleDim(scale)), 2)
	nPS := atLeast(int(float64(tpchPartsupp)*scaleDim(scale)), 10)

	add := func(rel string, vals ...types.Value) {
		events = append(events, engine.Event{Relation: rel, Insert: true, Tuple: types.Tuple(vals)})
	}

	// Dimension tables (insert-only, like the paper's workload).
	for ck := 0; ck < nCust; ck++ {
		add("CUSTOMER", types.Int(int64(ck)), types.Int(int64(rng.Intn(tpchNationCnt))),
			types.Str(tpchSegments[rng.Intn(len(tpchSegments))]), types.Int(int64(rng.Intn(10000)-1000)))
	}
	for pk := 0; pk < nPart; pk++ {
		add("PART", types.Int(int64(pk)), types.Str(tpchBrands[rng.Intn(len(tpchBrands))]),
			types.Str(tpchTypes[rng.Intn(len(tpchTypes))]), types.Int(int64(1+rng.Intn(50))))
	}
	for sk := 0; sk < nSupp; sk++ {
		add("SUPPLIER", types.Int(int64(sk)), types.Int(int64(rng.Intn(tpchNationCnt))))
	}
	for i := 0; i < nPS; i++ {
		add("PARTSUPP", types.Int(int64(rng.Intn(nPart))), types.Int(int64(rng.Intn(nSupp))),
			types.Int(int64(rng.Intn(1000))), types.Int(int64(1+rng.Intn(1000))))
	}

	// Fact stream with working-set control.
	var liveOrders, liveLines liveSet[types.Tuple]
	nextOK := 0
	for len(events) < n {
		r := rng.Float64()
		switch {
		case r < 0.28:
			// New order.
			ok := nextOK
			nextOK++
			t := types.Tuple{types.Int(int64(ok)), types.Int(int64(rng.Intn(nCust))),
				randDate(rng, 1992, 1998), types.Str(tpchPrios[rng.Intn(len(tpchPrios))])}
			liveOrders.Add(t)
			events = append(events, engine.Event{Relation: "ORDERS", Insert: true, Tuple: t})
		case r < 0.72:
			// New line item for a live order.
			if liveOrders.Len() == 0 {
				continue
			}
			ok := liveOrders.At(rng.Intn(liveOrders.Len()))[0]
			ship := randDate(rng, 1992, 1998)
			commit := randDate(rng, 1992, 1998)
			receipt := randDate(rng, 1992, 1998)
			t := types.Tuple{ok, types.Int(int64(rng.Intn(nPart))), types.Int(int64(rng.Intn(nSupp))),
				types.Int(int64(1 + rng.Intn(50))), types.Int(int64(100 + rng.Intn(9900))),
				types.Int(int64(rng.Intn(11))), types.Str(tpchFlags[rng.Intn(len(tpchFlags))]),
				ship, commit, receipt, types.Str(tpchModes[rng.Intn(len(tpchModes))])}
			liveLines.Add(t)
			events = append(events, engine.Event{Relation: "LINEITEM", Insert: true, Tuple: t})
		case r < 0.86 && liveLines.Len() > int(float64(tpchLineLive)*scaleDim(scale)):
			t := liveLines.Remove(rng.Intn(liveLines.Len()))
			events = append(events, engine.Event{Relation: "LINEITEM", Insert: false, Tuple: t})
		case liveOrders.Len() > int(float64(tpchOrdersLive)*scaleDim(scale)):
			t := liveOrders.Remove(rng.Intn(liveOrders.Len()))
			events = append(events, engine.Event{Relation: "ORDERS", Insert: false, Tuple: t})
		}
	}
	return events
}

// atLeast clamps n from below so that tiny test-scale streams still have a
// non-empty key domain for every dimension table.
func atLeast(n, min int) int {
	if n < min {
		return min
	}
	return n
}

// scaleDim dampens how fast the dimension tables grow with the scale factor
// (matching the paper's observation that the working set is dominated by the
// bounded Orders/Lineitem tables).
func scaleDim(scale float64) float64 {
	if scale < 1 {
		return scale
	}
	return 1 + (scale-1)/4
}
