// Package workload defines the benchmark workloads of the paper's evaluation
// (§8): the queries (as SQL sources under queries/, compiled through the
// internal/sql frontend at registration time and written nowhere else), the
// base-relation catalogs (from the sources' DDL), any static tables, and
// deterministic synthetic update streams that stand in for the order-book
// trace, the DBGEN-derived TPC-H agenda, and the molecular dynamics trace.
package workload

import (
	"sort"

	"dbtoaster/internal/catalog"
	"dbtoaster/internal/compiler"
	"dbtoaster/internal/engine"
	"dbtoaster/internal/gmr"
)

// Spec bundles everything needed to run one benchmark query: the catalog of
// its base relations, the query itself, preloaded static tables, and a stream
// generator. Scale 1.0 corresponds to the small default used by the test
// suite; the scaling experiment multiplies it.
//
// Query and Catalog are produced by compiling the query's SQL source (SQL,
// also embedded under queries/) through the internal/sql frontend at
// registration time. The source is the query's only definition: the
// equivalence tests hold the compiled views to internal/sqlref's direct
// evaluation of the same SQL.
type Spec struct {
	Name    string
	Group   string // "tpch", "finance", "mddb"
	Catalog *catalog.Catalog
	Query   compiler.Query
	SQL     string
	Statics func() map[string]*gmr.GMR
	Stream  func(scale float64, seed int64) []engine.Event
}

// Batches splits a stream into consecutive windows of size n (the last
// window may be shorter). n < 1 yields one window holding the whole stream.
func Batches(events []engine.Event, n int) [][]engine.Event {
	if len(events) == 0 {
		return nil
	}
	if n < 1 {
		n = len(events)
	}
	out := make([][]engine.Event, 0, (len(events)+n-1)/n)
	for start := 0; start < len(events); start += n {
		end := start + n
		if end > len(events) {
			end = len(events)
		}
		out = append(out, events[start:end])
	}
	return out
}

var registry = map[string]Spec{}

// Register adds a workload spec; it is called from the init functions of the
// concrete workload files.
func Register(s Spec) {
	registry[s.Name] = s
}

// Get returns the named workload spec.
func Get(name string) (Spec, bool) {
	s, ok := registry[name]
	return s, ok
}

// Names returns all registered workload names, sorted, optionally filtered by
// group ("" = all).
func Names(group string) []string {
	var out []string
	for n, s := range registry {
		if group == "" || s.Group == group {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// All returns every registered spec sorted by name.
func All() []Spec {
	names := Names("")
	out := make([]Spec, 0, len(names))
	for _, n := range names {
		out = append(out, registry[n])
	}
	return out
}
