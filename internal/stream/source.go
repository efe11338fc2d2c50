package stream

import (
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/parallel"
)

// Source is the "access to data" abstraction of the paper, separated from
// the iteration machinery that consumes it: a replayable, read-only edge
// sequence over a fixed vertex set with known capacities, plus explicit
// pass accounting. The solver, the semi-streaming baselines, the
// filtering algorithms and the sketch builders all consume this interface
// rather than a materialized *graph.Graph, so the same algorithm runs
// against an in-memory edge list (EdgeStream), an on-disk binary file
// (FileSource), a replayed synthetic generator (GenSource) or a
// composition of shards (ConcatSource) without change.
//
// Edge indices are stable across passes: every sweep enumerates the same
// (idx, edge) pairs in the same order, and idx ranges over [0, Len()) for
// the primary backends (a Filtered view reuses its parent's indices, so
// there the idx sequence is a strictly increasing subsequence). That
// stability is what lets downstream samples refer back to edges by index.
//
// ForEach and ForEachParallel are the metered sweeps algorithm code must
// use: each call counts one pass, aborted or not. Sweep and SweepParallel
// are the same sweeps without the pass charge; they exist so derived
// views and decorators can enumerate their parent without charging the
// parent a pass — the view meters its own passes, matching the paper's
// accounting where each per-level stream runs on its own machine.
// Algorithm code should never call Sweep directly.
//
// Inside this package a backend is only its block primitive: an
// un-metered, in-order block sweep that can abort, plus a sharded form
// that visits each index exactly once with no abort. The embedded
// sweeps type derives the per-edge, block and parallel sweeps of Source
// and BlockSweeper from those two and charges the pass, so the pass
// meter — the resource the paper's bounds are stated in — lives in one
// place. The storage backends (EdgeStream, FileSource, GenSource) get
// both forms from one ranged block decoder; the views (Filtered,
// ConcatSource) build them from their parts' block helpers. The full
// method set stays in the interface for implementations outside this
// package, such as source decorators, which write it by hand.
type Source interface {
	// N returns the number of vertices (known a priori, as is standard in
	// semi-streaming).
	N() int
	// B returns the capacity of vertex v (also known a priori).
	B(v int) int
	// TotalB returns Σ b_i.
	TotalB() int
	// Len returns the stream length m. Knowing m (or an upper bound) is
	// standard for choosing subsampling depths.
	Len() int
	// Passes returns how many metered passes have been consumed.
	Passes() int
	// ForEach performs one pass over the edges in arrival order. The
	// callback receives the edge index and the edge. Returning false
	// aborts the pass (it still counts as a pass).
	ForEach(f func(idx int, e graph.Edge) bool)
	// ForEachParallel performs one pass with the work sharded by edge
	// range across workers (0 = GOMAXPROCS, 1 = sequential). The callback
	// may run concurrently from multiple goroutines and there is no early
	// abort; each edge index is visited exactly once, so callbacks that
	// only write index-keyed slots need no synchronization. The whole
	// sweep counts as a single pass regardless of worker count — the
	// shards together read the input once, exactly as the distributed
	// mappers of Section 4.2 share one round.
	ForEachParallel(workers int, f func(idx int, e graph.Edge))
	// Sweep is ForEach without the pass charge (see the interface doc).
	Sweep(f func(idx int, e graph.Edge) bool)
	// SweepParallel is ForEachParallel without the pass charge.
	SweepParallel(workers int, f func(idx int, e graph.Edge))
}

// RandomAccess is the optional point-lookup extension of a Source. All
// backends in this package implement it (an index into an in-memory
// slice, a 16-byte pread on a FileSource, a block replay on a GenSource),
// but the solver does not require it — it is used by tooling that needs a
// handful of edges by index, e.g. validating a matching against a file
// too large to materialize.
type RandomAccess interface {
	// Edge returns the i-th edge of the stream.
	Edge(i int) graph.Edge
}

// sweeps implements the eight sweep methods of Source and BlockSweeper,
// and the pass meter behind them, once for every backend in this
// package. A backend supplies only the two un-metered block primitives;
// the pass charge, the per-edge adapters and the parallel forms are all
// derived here. It is safe for concurrent use.
type sweeps struct {
	passes atomic.Int64
	// blocks delivers every edge once, in index order, in dense blocks;
	// the callback returning false aborts the sweep.
	blocks func(f func(base int, edges []graph.Edge) bool)
	// shards delivers every edge index exactly once, in dense blocks
	// that may arrive concurrently from up to workers goroutines
	// (0 = GOMAXPROCS); there is no abort.
	shards func(workers int, f func(base int, edges []graph.Edge))
}

// ranged derives both primitives of a storage backend holding m edges
// from one ranged block decoder: decode(lo, hi, f) delivers edges
// [lo, hi) in dense blocks, in order, and stops when f returns false.
// A parallel sweep is one decode call per edge-range shard, so a
// decoder that allocates its scratch per call gives every worker its
// own.
func ranged(m int, decode func(lo, hi int, f func(base int, edges []graph.Edge) bool)) sweeps {
	return sweeps{
		blocks: func(f func(base int, edges []graph.Edge) bool) { decode(0, m, f) },
		shards: func(workers int, f func(base int, edges []graph.Edge)) {
			parallel.ForEachShard(workers, m, func(_ int, r parallel.Range) {
				decode(r.Lo, r.Hi, func(base int, edges []graph.Edge) bool {
					f(base, edges)
					return true
				})
			})
		},
	}
}

// Passes returns how many metered passes have been consumed.
func (s *sweeps) Passes() int { return int(s.passes.Load()) }

// pass records one consumed pass.
func (s *sweeps) pass() { s.passes.Add(1) }

// ForEach performs one metered pass in index order; see Source.
func (s *sweeps) ForEach(f func(idx int, e graph.Edge) bool) {
	s.pass()
	s.Sweep(f)
}

// Sweep is ForEach without the pass charge.
func (s *sweeps) Sweep(f func(idx int, e graph.Edge) bool) {
	s.blocks(func(base int, edges []graph.Edge) bool {
		for i := range edges {
			if !f(base+i, edges[i]) {
				return false
			}
		}
		return true
	})
}

// ForEachParallel performs one metered pass sharded across workers;
// see Source.
func (s *sweeps) ForEachParallel(workers int, f func(idx int, e graph.Edge)) {
	s.pass()
	s.SweepParallel(workers, f)
}

// SweepParallel is ForEachParallel without the pass charge.
func (s *sweeps) SweepParallel(workers int, f func(idx int, e graph.Edge)) {
	s.shards(workers, func(base int, edges []graph.Edge) {
		for i := range edges {
			f(base+i, edges[i])
		}
	})
}

// ForEachBlocks performs one metered pass in dense blocks; see
// BlockSweeper.
func (s *sweeps) ForEachBlocks(f func(base int, edges []graph.Edge) bool) {
	s.pass()
	s.blocks(f)
}

// SweepBlocks is ForEachBlocks without the pass charge.
func (s *sweeps) SweepBlocks(f func(base int, edges []graph.Edge) bool) { s.blocks(f) }

// ForEachBlocksParallel performs one metered pass with blocks sharded
// across workers; see BlockSweeper.
func (s *sweeps) ForEachBlocksParallel(workers int, f func(base int, edges []graph.Edge)) {
	s.pass()
	s.shards(workers, f)
}

// SweepBlocksParallel is ForEachBlocksParallel without the pass charge.
func (s *sweeps) SweepBlocksParallel(workers int, f func(base int, edges []graph.Edge)) {
	s.shards(workers, f)
}

// Materialize reads the whole source into an in-memory graph (one metered
// pass). It is the bridge back from the streaming world for consumers
// that genuinely need random access to everything — exact reference
// solvers, importers — and is obviously only usable when the instance
// fits in memory.
func Materialize(src Source) *graph.Graph {
	g := graph.New(src.N())
	for v := 0; v < src.N(); v++ {
		if b := src.B(v); b != 1 {
			g.SetB(v, b)
		}
	}
	ForEachBlocks(src, func(_ int, edges []graph.Edge) bool {
		for i := range edges {
			g.MustAddEdge(int(edges[i].U), int(edges[i].V), edges[i].W)
		}
		return true
	})
	return g
}

// MaxWeight scans for W* = max edge weight (one metered pass; 0 for an
// edgeless source). The weight-discretization scheme needs W* before any
// other pass can classify edges by level.
func MaxWeight(src Source) float64 {
	w := 0.0
	ForEachBlocks(src, func(_ int, edges []graph.Edge) bool {
		for i := range edges {
			if edges[i].W > w {
				w = edges[i].W
			}
		}
		return true
	})
	return w
}
