package workload

import (
	"math/rand"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

// The financial workload (paper §8, Appendix A.2): queries over an order book
// of Bids and Asks with schema (T, ID, BROKER, PRICE, VOLUME). The paper used
// one trading day of MSFT order-book updates; we generate a synthetic
// random-walk order book with the same schema and a comparable mix of order
// insertions and cancellations.

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

func init() {
	for _, name := range []string{"VWAP", "AXF", "BSP", "BSV", "MST", "PSP"} {
		Register(specFromSQL(name, "finance", func() map[string]*gmr.GMR { return nil }, financeStream))
	}
}
