package engine

import (
	"sort"

	"dbtoaster/internal/gmr"
)

// Multi-query surface. A hash-consed program (compiler.CompileSet) registers
// several queries in one engine; each query's result lives in its own view,
// while auxiliary views with equal canonical definitions are stored and
// maintained once and back every dependent query. The methods here expose the
// per-query slice of that shared state: result lookup by query name and a
// memory report that counts every shared map exactly once engine-wide while
// attributing it (with a shared marker) to each query that reads it.

// ResultFor returns the live result view of the named query. Like Result, the
// returned store aliases mutable write-side state: read it only from the
// goroutine driving Apply/ApplyBatch, between calls. Concurrent readers use
// Acquire().ResultFor(name). An empty name resolves to the program's primary
// query, so single-query callers can stay name-agnostic.
func (e *Engine) ResultFor(query string) (*gmr.GMR, error) {
	name, err := e.prog.ResultMapFor(query)
	if err != nil {
		return nil, err
	}
	return e.Relation(name), nil
}

// ResultFor returns the frozen result view of the named query at this epoch.
// An empty name resolves to the program's primary query.
func (s *Snapshot) ResultFor(query string) (*gmr.GMR, error) {
	name, err := s.prog.ResultMapFor(query)
	if err != nil {
		return nil, err
	}
	return s.Relation(name), nil
}

// QueryMemory is one query's slice of a memory report.
type QueryMemory struct {
	Query string
	// Maps counts the views the query depends on; SharedMaps how many of
	// those also back at least one other query.
	Maps       int
	SharedMaps int
	// Bytes is the memory of every view the query depends on, shared views
	// counted in full; SharedBytes is the portion belonging to shared views.
	// Summing Bytes across queries double-counts shared views by design —
	// TotalBytes is the engine-wide figure with each view counted once.
	Bytes       int
	SharedBytes int
}

// MemoryReport breaks the engine's view memory down by query. TotalBytes
// counts every view exactly once (it equals MemoryBytes); the per-query rows
// attribute shared views to each dependent with the shared split made
// explicit, so the double counting is visible rather than silent.
type MemoryReport struct {
	Queries    []QueryMemory
	TotalBytes int
}

// MemoryReport computes the per-query memory attribution. Like MemoryBytes it
// takes the writer lock, observing the views at an event/batch boundary.
func (e *Engine) MemoryReport() MemoryReport {
	e.mu.Lock()
	defer e.mu.Unlock()
	var rep MemoryReport
	sizes := make(map[string]int, len(e.views))
	for name, v := range e.views {
		sizes[name] = v.data.MemSize()
		rep.TotalBytes += sizes[name]
	}
	counts := e.prog.MapQueryCounts()
	for _, q := range e.prog.Queries {
		qm := QueryMemory{Query: q.Name, Maps: len(q.Maps)}
		for _, m := range q.Maps {
			qm.Bytes += sizes[m]
			if counts[m] > 1 {
				qm.SharedMaps++
				qm.SharedBytes += sizes[m]
			}
		}
		rep.Queries = append(rep.Queries, qm)
	}
	sort.Slice(rep.Queries, func(i, j int) bool { return rep.Queries[i].Query < rep.Queries[j].Query })
	return rep
}
