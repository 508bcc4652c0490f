package workload

import (
	"math/rand"

	"dbtoaster/internal/engine"
	"dbtoaster/internal/gmr"
	"dbtoaster/internal/types"
)

// The scientific (MDDB) workload: a stream of atom positions from a molecular
// dynamics simulation joined against static atom metadata. The paper used a
// 3.6M-tuple trace; we synthesize frames of jittered atom positions with the
// same schema and selectivities (a handful of LYS/NZ and TIP3/OH2 atoms per
// frame), which exercises the identical query plan.

const (
	mddbAtoms      = 60
	mddbBaseEvents = 3000
)

func mddbStatics() map[string]*gmr.GMR {
	meta := gmr.New(types.Schema{"AID", "RESIDUE", "ATOMNAME"})
	for aid := 0; aid < mddbAtoms; aid++ {
		res, name := "ALA", "CA"
		switch aid % 10 {
		case 0:
			res, name = "LYS", "NZ"
		case 1:
			res, name = "TIP3", "OH2"
		}
		meta.Add(types.Tuple{types.Int(int64(aid)), types.Str(res), types.Str(name)}, 1)
	}
	return map[string]*gmr.GMR{"ATOMMETA": meta}
}

func mddbStream(scale float64, seed int64) []engine.Event {
	rng := rand.New(rand.NewSource(seed))
	n := int(float64(mddbBaseEvents) * scale)
	events := make([]engine.Event, 0, n)
	frame := 0
	for len(events) < n {
		for aid := 0; aid < mddbAtoms && len(events) < n; aid++ {
			events = append(events, engine.Event{Relation: "ATOMPOSITIONS", Insert: true, Tuple: types.Tuple{
				types.Int(1),            // trajectory id
				types.Int(int64(frame)), // time step
				types.Int(int64(aid)),
				types.Float(float64(aid%7) + rng.Float64()),
				types.Float(float64(aid%5) + rng.Float64()),
				types.Float(float64(aid%3) + rng.Float64()),
			}})
		}
		frame++
	}
	return events
}

func init() {
	Register(specFromSQL("MDDB1", "mddb", mddbStatics, mddbStream))
}
