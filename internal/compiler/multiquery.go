package compiler

import (
	"fmt"
	"sort"
	"strings"

	"dbtoaster/internal/agca"
	"dbtoaster/internal/catalog"
	"dbtoaster/internal/trigger"
)

// CompileSet compiles a whole query set into one trigger program with
// hash-consed maps: every materialized view whose canonical definition (see
// CanonicalKey) matches one already registered — by any earlier query in the
// set — is reused instead of re-materialized, and its maintenance statements
// are generated exactly once. Queries share a catalog; per-relation triggers
// are merged, so one event updates every dependent query's maps in a single
// pass. The returned ShareReport records the per-query map attribution and
// which maps ended up shared.
func CompileSet(queries []Query, cat *catalog.Catalog, opts Options) (*trigger.Program, *ShareReport, error) {
	if len(queries) == 0 {
		return nil, nil, fmt.Errorf("compiler: empty query set")
	}
	c := newCompileState(cat, opts)
	for _, q := range queries {
		if err := c.compileQuery(q); err != nil {
			return nil, nil, err
		}
	}
	prog, err := c.assemble()
	if err != nil {
		return nil, nil, fmt.Errorf("compiler: query set: %w", err)
	}
	// Interning can record a map at the depth of whichever query registered it
	// first, which may disagree with where another query's statements read it.
	// Recompute depths globally so that within every merged trigger each
	// statement still reads the pre-update values of the deeper maps it
	// depends on, then re-sort under the new depths and merge the increments
	// that now share an access path across queries.
	recomputeDepths(prog)
	prog.SortStatements()
	mergeIncrements(prog)
	return prog, newShareReport(prog), nil
}

// depthOrdered reports whether, within every trigger, each statement reads
// only maps that the trigger updates at a strictly greater depth. A single
// query's compilation can break this when a map registered at one depth is
// reused from a deeper one (a self-join's maps read each other); assemble
// then recomputes the depths.
func depthOrdered(p *trigger.Program) bool {
	for _, t := range p.Triggers {
		shallowest := map[string]int{}
		for _, s := range t.Stmts {
			if d, ok := shallowest[s.TargetMap]; !ok || s.Depth < d {
				shallowest[s.TargetMap] = s.Depth
			}
		}
		for _, s := range t.Stmts {
			for _, r := range agca.MapRefs(s.RHS) {
				if d, ok := shallowest[r]; ok && r != s.TargetMap && d <= s.Depth {
					return false
				}
			}
		}
	}
	return true
}

// recomputeDepths reassigns map depths as the longest read-dependency path:
// whenever a statement targeting map T reads map R, R must be strictly
// deeper than T (T's update reads R's pre-update value; R's replacement —
// which runs deepest-first after all increments — must conversely run before
// T's). Depths are the longest such path from any unread map, computed by a
// topological pass. Merged programs are acyclic under this relation (each
// map's maintenance is a function of its own definition); if a cycle is ever
// detected the compiler-assigned depths are kept as a safe fallback.
func recomputeDepths(p *trigger.Program) {
	names := map[string]bool{}
	indeg := map[string]int{}
	for _, m := range p.Maps {
		names[m.Name] = true
		indeg[m.Name] = 0
	}
	edges := map[string]map[string]bool{} // target map -> maps it reads
	for _, t := range p.Triggers {
		for _, s := range t.Stmts {
			for _, r := range agca.MapRefs(s.RHS) {
				if r == s.TargetMap || !names[r] {
					continue
				}
				if edges[s.TargetMap] == nil {
					edges[s.TargetMap] = map[string]bool{}
				}
				if !edges[s.TargetMap][r] {
					edges[s.TargetMap][r] = true
					indeg[r]++
				}
			}
		}
	}
	depth := map[string]int{}
	var queue []string
	for n := range names {
		if indeg[n] == 0 {
			queue = append(queue, n)
		}
	}
	visited := 0
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		visited++
		for r := range edges[n] {
			if d := depth[n] + 1; d > depth[r] {
				depth[r] = d
			}
			if indeg[r]--; indeg[r] == 0 {
				queue = append(queue, r)
			}
		}
	}
	if visited != len(names) {
		return // cycle: keep the per-query compiler depths
	}
	for i := range p.Maps {
		p.Maps[i].Depth = depth[p.Maps[i].Name]
	}
	for ti := range p.Triggers {
		for si := range p.Triggers[ti].Stmts {
			s := &p.Triggers[ti].Stmts[si]
			s.Depth = depth[s.TargetMap]
		}
	}
}

// QueryShare summarizes one query's slice of a shared program.
type QueryShare struct {
	Name      string
	ResultMap string
	// Maps is the number of maps the query depends on; Shared counts how many
	// of those are also depended on by at least one other query in the set.
	Maps   int
	Shared int
}

// SharedMap names one map used by more than one query.
type SharedMap struct {
	Name    string
	Queries []string
}

// ShareReport records the effect of hash-consing across a compiled query
// set: how many maps each query needs, how many the merged program actually
// maintains, and which maps are shared by whom.
type ShareReport struct {
	Queries []QueryShare
	// TotalMaps is the number of maps the merged program maintains.
	// DisjointMaps is what per-query compilation would maintain in total (the
	// sum of per-query dependency counts); the difference is the consing win.
	TotalMaps    int
	DisjointMaps int
	Shared       []SharedMap
}

// newShareReport derives the sharing report from a compiled program's
// per-query map attribution.
func newShareReport(p *trigger.Program) *ShareReport {
	counts := p.MapQueryCounts()
	rep := &ShareReport{TotalMaps: len(p.Maps)}
	for _, q := range p.Queries {
		shared := 0
		for _, m := range q.Maps {
			if counts[m] > 1 {
				shared++
			}
		}
		rep.DisjointMaps += len(q.Maps)
		rep.Queries = append(rep.Queries, QueryShare{
			Name: q.Name, ResultMap: q.ResultMap,
			Maps: len(q.Maps), Shared: shared,
		})
	}
	for _, m := range p.Maps {
		if counts[m.Name] < 2 {
			continue
		}
		sm := SharedMap{Name: m.Name}
		for _, q := range p.Queries {
			for _, n := range q.Maps {
				if n == m.Name {
					sm.Queries = append(sm.Queries, q.Name)
					break
				}
			}
		}
		rep.Shared = append(rep.Shared, sm)
	}
	sort.Slice(rep.Shared, func(i, j int) bool { return rep.Shared[i].Name < rep.Shared[j].Name })
	return rep
}

// String renders the report: per-query attribution first, then the shared
// maps with the queries that use them, then the consing total.
func (r *ShareReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "-- shared-map report: %d maps maintained (disjoint compilation would maintain %d)\n",
		r.TotalMaps, r.DisjointMaps)
	for _, q := range r.Queries {
		fmt.Fprintf(&b, "--   query %s: result %s, %d maps (%d shared)\n", q.Name, q.ResultMap, q.Maps, q.Shared)
	}
	if len(r.Shared) == 0 {
		b.WriteString("--   no maps shared across queries\n")
		return b.String()
	}
	for _, m := range r.Shared {
		fmt.Fprintf(&b, "--   shared %s: used by %s\n", m.Name, strings.Join(m.Queries, ", "))
	}
	return b.String()
}
