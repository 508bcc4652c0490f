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

// The financial workload (paper §8, Appendix A.2): queries over an order book
// of Bids and Asks with schema (T, ID, BROKER, PRICE, VOLUME). The paper used
// one trading day of MSFT order-book updates; we generate a synthetic
// random-walk order book with the same schema and a comparable mix of order
// insertions and cancellations.

func financeCatalog() *catalog.Catalog {
	return catalog.New().
		Add("BIDS", "T", "ID", "BROKER", "PRICE", "VOLUME").
		Add("ASKS", "T", "ID", "BROKER", "PRICE", "VOLUME")
}

// FinanceBaseEvents is the default number of order book events at scale 1.
const FinanceBaseEvents = 4000

// financeStream synthesizes an order book trace: prices follow a bounded
// random walk, volumes are small integers, brokers come from a small domain,
// and roughly a third of the events cancel (delete) a live order.
func financeStream(scale float64, seed int64) []engine.Event {
	n := int(float64(FinanceBaseEvents) * scale)
	rng := rand.New(rand.NewSource(seed))
	type live struct {
		rel string
		t   types.Tuple
	}
	var lives liveSet[live]
	events := make([]engine.Event, 0, n)
	bidPrice, askPrice := 10000.0, 10010.0
	for i := 0; i < n; i++ {
		if lives.Len() > 50 && rng.Intn(3) == 0 {
			l := lives.Remove(rng.Intn(lives.Len()))
			events = append(events, engine.Event{Relation: l.rel, Insert: false, Tuple: l.t})
			continue
		}
		bidPrice += float64(rng.Intn(21) - 10)
		askPrice = bidPrice + 5 + float64(rng.Intn(21))
		rel := "BIDS"
		price := bidPrice
		if rng.Intn(2) == 0 {
			rel = "ASKS"
			price = askPrice
		}
		t := types.Tuple{
			types.Int(int64(i)),                  // timestamp
			types.Int(int64(i)),                  // order id
			types.Int(int64(rng.Intn(10))),       // broker
			types.Int(int64(price)),              // price
			types.Int(int64(1 + rng.Intn(1000))), // volume
		}
		lives.Add(live{rel: rel, t: t})
		events = append(events, engine.Event{Relation: rel, Insert: true, Tuple: t})
	}
	return events
}

// Column variable conventions used below: bids row i uses (bt_i, bid_i, bbr_i,
// bp_i, bv_i); asks analogously with a prefix.

func bids(i string) agca.Expr {
	return agca.R("BIDS", "bt"+i, "bid"+i, "bbr"+i, "bp"+i, "bv"+i)
}

func asks(i string) agca.Expr {
	return agca.R("ASKS", "at"+i, "aid"+i, "abr"+i, "ap"+i, "av"+i)
}

func init() {
	// VWAP: SUM(price * volume) over bids whose price is high enough that the
	// cumulative volume above it is below a quarter of the total volume.
	vwapTotal := agca.SumOver(nil, agca.Mul(bids("3"), agca.V("bv3")))
	vwapAbove := agca.SumOver(nil, agca.Mul(bids("2"), agca.Gt(agca.V("bp2"), agca.V("bp1")), agca.V("bv2")))
	vwap := agca.SumOver(nil, agca.Mul(
		bids("1"),
		agca.LiftE("vt", vwapTotal),
		agca.LiftE("va", vwapAbove),
		agca.Gt(agca.Mul(agca.CF(0.25), agca.V("vt")), agca.V("va")),
		agca.V("bp1"), agca.V("bv1")))

	// AXF: per broker, SUM(ask.volume - bid.volume) over pairs whose prices
	// differ by more than 1000 in either direction.
	axf := agca.SumOver([]string{"bbr1"}, agca.Mul(
		bids("1"),
		asks("1"),
		agca.Eq(agca.V("bbr1"), agca.V("abr1")),
		agca.Add(
			agca.Gt(agca.Add(agca.V("ap1"), agca.Neg{E: agca.V("bp1")}), agca.C(1000)),
			agca.Gt(agca.Add(agca.V("bp1"), agca.Neg{E: agca.V("ap1")}), agca.C(1000)),
		),
		agca.Add(agca.V("av1"), agca.Neg{E: agca.V("bv1")})))

	// BSP: per broker, SUM(x.volume*x.price - y.volume*y.price) over ordered
	// pairs of that broker's bids (x later than y).
	bsp := agca.SumOver([]string{"bbr1"}, agca.Mul(
		bids("1"),
		bids("2"),
		agca.Eq(agca.V("bbr1"), agca.V("bbr2")),
		agca.Gt(agca.V("bt1"), agca.V("bt2")),
		agca.Add(agca.Mul(agca.V("bv1"), agca.V("bp1")), agca.Neg{E: agca.Mul(agca.V("bv2"), agca.V("bp2"))})))

	// BSV: per broker, SUM(x.volume*x.price*y.volume*y.price*0.5) over pairs
	// of the broker's bids (an unconditioned self-join).
	bsv := agca.SumOver([]string{"bbr1"}, agca.Mul(
		bids("1"),
		bids("2"),
		agca.Eq(agca.V("bbr1"), agca.V("bbr2")),
		agca.V("bv1"), agca.V("bp1"), agca.V("bv2"), agca.V("bp2"), agca.CF(0.5)))

	// MST: per broker, SUM(a.price*a.volume - b.price*b.volume) over pairs
	// whose prices lie below the 25% cumulative-volume point of their book.
	mstATotal := agca.SumOver(nil, agca.Mul(asks("2"), agca.V("av2")))
	mstAAbove := agca.SumOver(nil, agca.Mul(asks("3"), agca.Gt(agca.V("ap3"), agca.V("ap1")), agca.V("av3")))
	mstBTotal := agca.SumOver(nil, agca.Mul(bids("2"), agca.V("bv2")))
	mstBAbove := agca.SumOver(nil, agca.Mul(bids("3"), agca.Gt(agca.V("bp3"), agca.V("bp1")), agca.V("bv3")))
	mst := agca.SumOver([]string{"bbr1"}, agca.Mul(
		bids("1"),
		asks("1"),
		agca.LiftE("mat", mstATotal),
		agca.LiftE("maa", mstAAbove),
		agca.Gt(agca.Mul(agca.CF(0.25), agca.V("mat")), agca.V("maa")),
		agca.LiftE("mbt", mstBTotal),
		agca.LiftE("mba", mstBAbove),
		agca.Gt(agca.Mul(agca.CF(0.25), agca.V("mbt")), agca.V("mba")),
		agca.Add(agca.Mul(agca.V("ap1"), agca.V("av1")), agca.Neg{E: agca.Mul(agca.V("bp1"), agca.V("bv1"))})))

	// PSP: SUM(a.price - b.price) over pairs of bids and asks whose volumes
	// exceed a fraction of the respective book's total volume.
	pspBTotal := agca.SumOver(nil, agca.Mul(bids("2"), agca.V("bv2")))
	pspATotal := agca.SumOver(nil, agca.Mul(asks("2"), agca.V("av2")))
	psp := agca.SumOver(nil, agca.Mul(
		bids("1"),
		asks("1"),
		agca.LiftE("pbt", pspBTotal),
		agca.LiftE("pat", pspATotal),
		agca.Gt(agca.V("bv1"), agca.Mul(agca.CF(0.0001), agca.V("pbt"))),
		agca.Gt(agca.V("av1"), agca.Mul(agca.CF(0.0001), agca.V("pat"))),
		agca.Add(agca.V("ap1"), agca.Neg{E: agca.V("bp1")})))

	for name, oracle := range map[string]agca.Expr{
		"VWAP": vwap, "AXF": axf, "BSP": bsp, "BSV": bsv, "MST": mst, "PSP": psp,
	} {
		q, cat, src := mustFromSQL(name)
		Register(Spec{
			Name:    name,
			Group:   "finance",
			Catalog: cat,
			Query:   q,
			SQL:     src,
			Oracle:  compiler.Query{Name: name, Expr: oracle},
			Statics: func() map[string]*gmr.GMR { return nil },
			Stream:  financeStream,
		})
	}
}
