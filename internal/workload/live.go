package workload

import "math/bits"

// liveSet is a generator's working set of live rows in insertion order. It
// answers the two operations the generators make on the i-th live row — read
// it, remove it — in O(log n), with exactly the results of indexing into and
// deleting from the middle of a plain slice (which made generation quadratic
// in the scale). Rows stay in insertion slots; a Fenwick tree over the slots
// counts the live ones, and slots are compacted when they fill up.
type liveSet[T any] struct {
	slots []T
	alive []bool
	tree  []int32 // Fenwick tree over slots (1-based): live rows per range
	live  int
}

// Len returns the number of live rows.
func (s *liveSet[T]) Len() int { return s.live }

// Add appends a live row.
func (s *liveSet[T]) Add(v T) {
	if len(s.slots) >= len(s.tree)-1 {
		s.compact()
	}
	s.slots = append(s.slots, v)
	s.alive = append(s.alive, true)
	s.update(len(s.slots), 1)
	s.live++
}

// At returns the i-th live row (0-based, insertion order).
func (s *liveSet[T]) At(i int) T { return s.slots[s.find(i)] }

// Remove deletes and returns the i-th live row.
func (s *liveSet[T]) Remove(i int) T {
	j := s.find(i)
	s.alive[j] = false
	s.update(j+1, -1)
	s.live--
	return s.slots[j]
}

// find returns the slot of the i-th live row: the Fenwick descent to the
// smallest prefix holding i+1 live rows.
func (s *liveSet[T]) find(i int) int {
	pos, k := 0, int32(i+1)
	for step := 1 << (bits.Len(uint(len(s.tree)-1)) - 1); step > 0; step >>= 1 {
		if next := pos + step; next < len(s.tree) && s.tree[next] < k {
			pos = next
			k -= s.tree[next]
		}
	}
	return pos
}

func (s *liveSet[T]) update(i int, d int32) {
	for ; i < len(s.tree); i += i & -i {
		s.tree[i] += d
	}
}

// compact drops the removed slots and rebuilds the tree with room for as many
// appends as there are live rows, so compaction is amortised O(1) per Add.
func (s *liveSet[T]) compact() {
	n := 0
	for j := range s.slots {
		if s.alive[j] {
			s.slots[n] = s.slots[j]
			s.alive[n] = true
			n++
		}
	}
	clear(s.slots[n:])
	s.slots, s.alive = s.slots[:n], s.alive[:n]
	s.tree = make([]int32, max(2*n, 64)+1)
	for i := 1; i < len(s.tree); i++ {
		if i <= n {
			s.tree[i]++
		}
		if p := i + i&-i; p < len(s.tree) {
			s.tree[p] += s.tree[i]
		}
	}
}
