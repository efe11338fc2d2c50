package sparsify

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// Deferred implements Definition 4 (The Deferred Cut-Sparsifier Problem):
// sampling decisions are made from promise values ς with the guarantee
// ς_e/χ ≤ u_e ≤ ς_e·χ for the true (hidden) weights u, oversampling every
// retention probability by Θ(χ²). After construction, the exact u values
// of the *stored* edges are revealed via Refine, which produces the final
// (1±ξ) cut sparsifier of the u-weighted graph.
//
// In the paper the promise values are the edge multipliers at sampling
// time and the true values are the multipliers at use time, which drift
// by at most e^(±ε) per inner iteration — χ = γ = n^(1/(2p)) covers a full
// batch of −ε⁻¹·log γ iterations (Theorem 3).
type Deferred struct {
	n     int
	chi   float64
	items []Item // probabilities fixed at sampling time; Weight holds ς until refined

	// scr is the pool the structure's containers return to on Release
	// (set when built through a Scratch-configured DeferredBuilder; nil
	// means plain heap ownership). refined retains the backing of the
	// last RefineWith output so Release can reclaim it — the solver
	// consumes each refinement before releasing the structure.
	scr     *Scratch
	refined []Item
}

// Release hands the structure's pooled containers (items and the last
// refinement's backing) back to the Scratch it was built with. No-op
// without one. The Deferred — and any Sparsifier its RefineWith
// produced — must not be used afterwards.
func (d *Deferred) Release() {
	if d.scr == nil {
		return
	}
	if d.items != nil {
		d.scr.items.put(d.items)
		d.items = nil
	}
	if d.refined != nil {
		d.scr.items.put(d.refined)
		d.refined = nil
	}
}

// NewDeferred samples the structure D from promise values sigma (indexed
// like edges). chi ≥ 1 is the promised distortion bound. The edges slice
// is only read for endpoints; weights used are sigma. With cfg.Workers
// != 1 (including the zero value, which resolves to GOMAXPROCS)
// edgeEndpoints may be called concurrently from multiple goroutines and
// must be safe for that — a pure index lookup, as in every caller here.
// The output is bit-identical for every worker count.
func NewDeferred(n int, edgeEndpoints func(i int) (u, v int32), m int, sigma []float64, chi float64, cfg Config) (*Deferred, error) {
	if chi < 1 {
		return nil, fmt.Errorf("sparsify: chi %v < 1", chi)
	}
	if len(sigma) != m {
		return nil, fmt.Errorf("sparsify: %d promise values for %d edges", len(sigma), m)
	}
	cfg = deferredConfig(n, chi, cfg)

	// Per weight class of sigma, run the leveled construction. Endpoint
	// materialization shards by edge range; the per-class constructions
	// run concurrently on cfg.Workers goroutines and merge in class
	// order, so the structure is identical for every worker count.
	type fakeEdge struct{ u, v int32 }
	endpoints := make([]fakeEdge, m)
	parallel.ForEachShard(cfg.Workers, m, func(_ int, sh parallel.Range) {
		for i := sh.Lo; i < sh.Hi; i++ {
			u, v := edgeEndpoints(i)
			endpoints[i] = fakeEdge{u, v}
		}
	})
	classes := bucketByClass(m, func(i int) float64 { return sigma[i] }, cfg.Workers)
	perClass := parallel.Map(cfg.Workers, len(classes), func(ci int) []Item {
		grp := classes[ci]
		sub := newConstruction(n, m, withClassSeed(cfg, grp.class))
		for _, idx := range grp.idxs {
			sub.process(idx, idx, endpoints[idx].u, endpoints[idx].v)
		}
		// finish needs a graph.Edge slice; synthesize on the fly.
		seen := make(map[int]bool)
		var items []Item
		for i := 0; i < sub.numLv; i++ {
			for _, idx := range sub.stored[i] {
				if seen[idx] {
					continue
				}
				seen[idx] = true
				ep := endpoints[idx]
				ipLv, ok := sub.criticalLevel(ep.u, ep.v)
				if !ok {
					continue
				}
				if sub.levelOf(idx) < ipLv {
					continue
				}
				prob := retentionProb(ipLv)
				items = append(items, Item{
					EdgeIdx: idx,
					Orig:    idx,
					U:       ep.u,
					V:       ep.v,
					Weight:  sigma[idx], // provisional; replaced on Refine
					Prob:    prob,
				})
			}
		}
		return items
	})
	d := &Deferred{n: n, chi: chi}
	for _, its := range perClass {
		d.items = append(d.items, its...)
	}
	return d, nil
}

// deferredConfig resolves a deferred construction's configuration: fill
// in defaults, then oversample by chi² (Lemma 17: "multiply p′_e by
// O(χ²)") by raising the connectivity threshold K by chi², which
// multiplies every edge's retention probability by ~chi² *and* keeps the
// construction consistent — an edge whose subsampling level reaches its
// (new, lower) critical level necessarily enters a forest there, so the
// inverse-probability estimator stays unbiased. This is exactly where
// the χ² factor of the O(nχ²ξ⁻²·polylog) space bound comes from.
func deferredConfig(n int, chi float64, cfg Config) Config {
	cfg = cfg.withDefaults(n)
	boost := int(math.Ceil(chi * chi))
	if boost < 1 {
		boost = 1
	}
	const maxK = 1 << 13 // memory guard; beyond this the structure would
	// store everything anyway at the sizes this repository runs
	if cfg.K > maxK/boost {
		cfg.K = maxK
	} else {
		cfg.K *= boost
	}
	return cfg
}

// Size returns the number of stored edges (the structure's space).
func (d *Deferred) Size() int { return len(d.items) }

// Items returns the stored items (read-only; the slice is the
// structure's backing store). Each Item carries the edge's endpoints,
// original index and weight, and its sampling-time promise value in
// Weight — everything the union and reveal steps need without touching
// the input stream again.
func (d *Deferred) Items() []Item { return d.items }

// StoredEdges returns the indices of the stored edges — the only edges
// whose exact weights the refiner is allowed to request (Definition 4).
func (d *Deferred) StoredEdges() []int {
	out := make([]int, len(d.items))
	for i, it := range d.items {
		out[i] = it.EdgeIdx
	}
	return out
}

// Refine reveals the exact weights of the stored edges and returns the
// final sparsifier. reveal is called only for stored edge indices; it
// must return the true weight u_e. Edges whose revealed weight is zero
// are dropped.
func (d *Deferred) Refine(reveal func(edgeIdx int) float64) *Sparsifier {
	return d.RefineParallel(1, reveal)
}

// RefineParallel is Refine with the reveal calls sharded by item range
// across workers (0 = GOMAXPROCS, 1 = sequential Refine). reveal must be
// safe for concurrent calls when workers != 1 — in the solver it is a
// read-only evaluation of the frozen dual state. Output order matches
// Refine exactly for any worker count.
func (d *Deferred) RefineParallel(workers int, reveal func(edgeIdx int) float64) *Sparsifier {
	return d.RefineWith(workers, func(it Item) float64 { return reveal(it.EdgeIdx) })
}

// RefineWith is RefineParallel with the reveal callback handed the whole
// stored Item rather than just its local index: the reveal can use the
// endpoints (and the provisional promise value in Weight) directly, so
// refinement needs no random access back into the input stream — the
// out-of-core reveal path of the solver.
func (d *Deferred) RefineWith(workers int, reveal func(it Item) float64) *Sparsifier {
	var revealed []float64
	if d.scr != nil {
		revealed = d.scr.getF64s(len(d.items))
	} else {
		revealed = make([]float64, len(d.items))
	}
	parallel.ForEachShard(workers, len(d.items), func(_ int, sh parallel.Range) {
		for i := sh.Lo; i < sh.Hi; i++ {
			revealed[i] = reveal(d.items[i])
		}
	})
	var items []Item
	if d.scr != nil {
		items = d.scr.items.get(nil)[:0]
	}
	if items == nil {
		items = make([]Item, 0, len(d.items))
	}
	for i, it := range d.items {
		if revealed[i] <= 0 {
			continue
		}
		it.Weight = revealed[i] / it.Prob
		items = append(items, it)
	}
	if d.scr != nil {
		d.scr.f64s.put(revealed)
		d.refined = items // reclaimed by Release
	}
	return &Sparsifier{N: d.n, Items: items}
}
