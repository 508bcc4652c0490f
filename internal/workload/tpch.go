package workload

import (
	"math/rand"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/catalog"
	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

// The TPC-H-style workload (paper §8, Appendix A.1/B): a condensed TPC-H
// schema, a deterministic DBGEN-like generator, and an "Agenda" update stream
// that interleaves insertions into every relation with deletions that keep
// the Orders and Lineitem working sets at a bounded size, preserving the
// foreign keys — exactly the discipline of the paper's stream synthesis.

func tpchCatalog() *catalog.Catalog {
	return catalog.New().
		Add("LINEITEM", "OK", "PK", "SK", "QTY", "PRICE", "DISC", "RFLAG", "SHIPDATE", "COMMITDATE", "RECEIPTDATE", "SHIPMODE").
		Add("ORDERS", "OK", "CK", "ODATE", "OPRIO").
		Add("CUSTOMER", "CK", "NK", "MKTSEG", "ACCTBAL").
		Add("PART", "PK", "BRAND", "PTYPE", "PSIZE").
		Add("SUPPLIER", "SK", "NK").
		Add("PARTSUPP", "PK", "SK", "AVAILQTY", "SUPPLYCOST").
		AddStatic("NATION", "NK", "RK", "NNAME").
		AddStatic("REGION", "RK", "RNAME")
}

// Atom builders; the suffix distinguishes multiple uses of a relation and
// controls which columns participate in natural joins.
func li(i string) agca.Expr {
	return agca.R("LINEITEM", "ok"+i, "pk"+i, "sk"+i, "qty"+i, "price"+i, "disc"+i,
		"rflag"+i, "sdate"+i, "cdate"+i, "rdate"+i, "smode"+i)
}

func ord(i string) agca.Expr {
	return agca.R("ORDERS", "ok"+i, "ck"+i, "odate"+i, "oprio"+i)
}

func cust(i string) agca.Expr {
	return agca.R("CUSTOMER", "ck"+i, "nk"+i, "mkt"+i, "bal"+i)
}

func part(i string) agca.Expr {
	return agca.R("PART", "pk"+i, "brand"+i, "ptype"+i, "psize"+i)
}

func supp(i string) agca.Expr {
	return agca.R("SUPPLIER", "sk"+i, "snk"+i)
}

func partsupp(i string) agca.Expr {
	return agca.R("PARTSUPP", "pk"+i, "sk"+i, "aq"+i, "scost"+i)
}

// oneMinus returns (1 - v/100) for integer percentage discounts.
func oneMinusDisc(v string) agca.Expr {
	return agca.Add(agca.One, agca.Neg{E: agca.Mul(agca.CF(0.01), agca.V(v))})
}

func init() {
	// Each query registers its SQL-compiled form as the executable Query and
	// the hand-built AST below as the Oracle the tests replay against.
	register := func(name string, oracle agca.Expr) {
		q, cat, src := mustFromSQL(name)
		Register(Spec{
			Name:    name,
			Group:   "tpch",
			Catalog: cat,
			Query:   q,
			SQL:     src,
			Oracle:  compiler.Query{Name: name, Expr: oracle},
			Statics: tpchStatics,
			Stream:  tpchStream,
		})
	}

	d19970901 := agca.Const{V: types.Date(1997, 9, 1)}
	d19950315 := agca.Const{V: types.Date(1995, 3, 15)}
	d19930701 := agca.Const{V: types.Date(1993, 7, 1)}
	d19931001 := agca.Const{V: types.Date(1993, 10, 1)}
	d19940101 := agca.Const{V: types.Date(1994, 1, 1)}
	d19950101 := agca.Const{V: types.Date(1995, 1, 1)}

	// Q1 (join-free): revenue per return flag from shipped line items.
	register("Q1", agca.SumOver([]string{"rflag1"}, agca.Mul(
		li("1"),
		agca.CmpE(agca.OpLe, agca.V("sdate1"), d19970901),
		agca.V("price1"), oneMinusDisc("disc1"))))

	// Q3: revenue of building-segment orders shipped after the cutoff.
	register("Q3", agca.SumOver([]string{"ok1", "odate1"}, agca.Mul(
		cust("1"), agca.Eq(agca.V("mkt1"), agca.CS("BUILDING")),
		ord("1"), agca.Lt(agca.V("odate1"), d19950315),
		li("1"), agca.Gt(agca.V("sdate1"), d19950315),
		agca.V("price1"), oneMinusDisc("disc1"))))

	// Q4: order-priority count of orders with at least one late line item
	// (EXISTS rewritten as a correlated count compared with zero).
	q4nested := agca.SumOver(nil, agca.Mul(
		agca.R("LINEITEM", "ok1", "pk2", "sk2", "qty2", "price2", "disc2", "rflag2", "sdate2", "cdate2", "rdate2", "smode2"),
		agca.Lt(agca.V("cdate2"), agca.V("rdate2"))))
	register("Q4", agca.SumOver([]string{"oprio1"}, agca.Mul(
		ord("1"),
		agca.CmpE(agca.OpGe, agca.V("odate1"), d19930701),
		agca.Lt(agca.V("odate1"), d19931001),
		agca.LiftE("q4cnt", q4nested),
		agca.Gt(agca.V("q4cnt"), agca.C(0)))))

	// Q6 (join-free): forecast revenue change.
	register("Q6", agca.SumOver(nil, agca.Mul(
		li("1"),
		agca.CmpE(agca.OpGe, agca.V("sdate1"), d19940101),
		agca.Lt(agca.V("sdate1"), d19950101),
		agca.CmpE(agca.OpGe, agca.V("disc1"), agca.C(5)),
		agca.CmpE(agca.OpLe, agca.V("disc1"), agca.C(7)),
		agca.Lt(agca.V("qty1"), agca.C(24)),
		agca.V("price1"), agca.Mul(agca.CF(0.01), agca.V("disc1")))))

	// Q10: revenue of returned items per customer, joined with the static
	// Nation dimension.
	register("Q10", agca.SumOver([]string{"ck1", "nname1"}, agca.Mul(
		cust("1"),
		ord("1"),
		agca.CmpE(agca.OpGe, agca.V("odate1"), agca.Const{V: types.Date(1993, 10, 1)}),
		agca.Lt(agca.V("odate1"), agca.Const{V: types.Date(1994, 1, 1)}),
		li("1"), agca.Eq(agca.V("rflag1"), agca.CS("R")),
		agca.R("NATION", "nk1", "rk1", "nname1"),
		agca.V("price1"), oneMinusDisc("disc1"))))

	// Q11a: supplier stock value per part.
	register("Q11a", agca.SumOver([]string{"pk1"}, agca.Mul(
		partsupp("1"),
		agca.R("SUPPLIER", "sk1", "snk1"),
		agca.V("scost1"), agca.V("aq1"))))

	// Q12: count of high-priority orders shipped by mail or ship within the
	// receipt window and consistent commit/receipt/ship ordering.
	register("Q12", agca.SumOver([]string{"smode1"}, agca.Mul(
		ord("1"),
		li("1"),
		agca.Func{Name: "in_list", Args: []agca.Expr{agca.V("smode1"), agca.CS("MAIL"), agca.CS("SHIP")}},
		agca.Lt(agca.V("cdate1"), agca.V("rdate1")),
		agca.Lt(agca.V("sdate1"), agca.V("cdate1")),
		agca.CmpE(agca.OpGe, agca.V("rdate1"), d19940101),
		agca.Lt(agca.V("rdate1"), d19950101),
		agca.Func{Name: "in_list", Args: []agca.Expr{agca.V("oprio1"), agca.CS("1-URGENT"), agca.CS("2-HIGH")}})))

	// Q17a: revenue of small orders relative to the per-part average demand
	// (equality-correlated nested aggregate).
	q17nested := agca.SumOver(nil, agca.Mul(
		agca.R("LINEITEM", "ok2", "pk1", "sk2", "qty2", "price2", "disc2", "rflag2", "sdate2", "cdate2", "rdate2", "smode2"),
		agca.V("qty2")))
	register("Q17a", agca.SumOver(nil, agca.Mul(
		part("1"),
		li("1"),
		agca.LiftE("q17z", q17nested),
		agca.Lt(agca.Mul(agca.V("qty1"), agca.C(200)), agca.V("q17z")),
		agca.V("price1"))))

	// Q18a (§6.1): quantity delivered to customers whose orders exceed the
	// per-order quantity threshold.
	q18nested := agca.SumOver(nil, agca.Mul(
		agca.R("LINEITEM", "ok1", "pk3", "sk3", "qty3", "price3", "disc3", "rflag3", "sdate3", "cdate3", "rdate3", "smode3"),
		agca.V("qty3")))
	register("Q18a", agca.SumOver([]string{"ck1"}, agca.Mul(
		cust("1"),
		ord("1"),
		li("1"),
		agca.LiftE("q18x", q18nested),
		agca.Lt(agca.C(100), agca.V("q18x")),
		agca.V("qty1"))))

	// Q22a: account balance of order-less customers above the positive-balance
	// average (uncorrelated and equality-correlated nested aggregates).
	q22avg := agca.SumOver(nil, agca.Mul(
		agca.R("CUSTOMER", "ck2", "nk2", "mkt2", "bal2"),
		agca.Gt(agca.V("bal2"), agca.C(0)),
		agca.V("bal2")))
	q22orders := agca.SumOver(nil, agca.R("ORDERS", "ok2", "ck1", "odate2", "oprio2"))
	register("Q22a", agca.SumOver([]string{"nk1"}, agca.Mul(
		cust("1"),
		agca.LiftE("q22avg", q22avg),
		agca.Lt(agca.V("bal1"), agca.Mul(agca.CF(0.01), agca.V("q22avg"))),
		agca.LiftE("q22cnt", q22orders),
		agca.Eq(agca.V("q22cnt"), agca.C(0)),
		agca.V("bal1"))))

	// SSB4: the star-schema benchmark query — a 6-way join with two uses of
	// the static Nation dimension, grouped by customer and supplier region.
	register("SSB4", agca.SumOver([]string{"crk", "srk"}, agca.Mul(
		cust("1"),
		ord("1"),
		agca.CmpE(agca.OpGe, agca.V("odate1"), agca.Const{V: types.Date(1997, 1, 1)}),
		agca.Lt(agca.V("odate1"), agca.Const{V: types.Date(1998, 1, 1)}),
		li("1"),
		part("1"),
		supp("1"),
		agca.Eq(agca.V("sk1"), agca.V("sk1")),
		agca.R("NATION", "nk1", "crk", "cnname"),
		agca.R("NATION", "snk1", "srk", "snname"),
		agca.V("qty1"))))
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
