package stream

import (
	"sync"

	"repro/internal/graph"
)

// Filtered is a predicate-restricted view of a parent Source: the same
// vertex set, only the edges satisfying keep, with the parent's edge
// indices preserved (so the idx sequence is a strictly increasing
// subsequence of [0, parent.Len())). It is how per-level streams are
// derived without materializing per-level subgraphs — the device behind
// Lemma 20's per-level initial solutions running out-of-core.
//
// A Filtered view meters its own passes and does not advance the
// parent's counter: in the paper's accounting each level's stream runs
// on its own machine, and the driver charges the parent once per
// conceptual round, not once per level.
type Filtered struct {
	sweeps
	parent Source

	lenOnce sync.Once
	length  int
}

var _ Source = (*Filtered)(nil)

// NewFilter returns the view of parent restricted to edges with
// keep(idx, e) == true. keep must be pure and safe for concurrent calls.
// Each parent block is split into the maximal runs of kept edges and
// every run is delivered as a zero-copy sub-slice, so the sparse-index
// subsequence still arrives as dense blocks.
func NewFilter(parent Source, keep func(idx int, e graph.Edge) bool) *Filtered {
	return &Filtered{parent: parent, sweeps: sweeps{
		blocks: func(f func(base int, edges []graph.Edge) bool) {
			SweepBlocks(parent, func(base int, edges []graph.Edge) bool {
				return filterBlocks(base, edges, keep, f)
			})
		},
		shards: func(workers int, f func(base int, edges []graph.Edge)) {
			SweepBlocksParallel(parent, workers, func(base int, edges []graph.Edge) {
				filterBlocks(base, edges, keep, func(b int, blk []graph.Edge) bool {
					f(b, blk)
					return true
				})
			})
		},
	}}
}

// N returns the number of vertices.
func (s *Filtered) N() int { return s.parent.N() }

// B returns the capacity of vertex v.
func (s *Filtered) B(v int) int { return s.parent.B(v) }

// TotalB returns Σ b_i.
func (s *Filtered) TotalB() int { return s.parent.TotalB() }

// Len returns the number of edges passing the filter. The first call
// counts them with one raw sweep of the parent and caches the result.
func (s *Filtered) Len() int {
	s.lenOnce.Do(func() {
		s.blocks(func(_ int, edges []graph.Edge) bool {
			s.length += len(edges)
			return true
		})
	})
	return s.length
}
