package sparsify

import (
	"cmp"
	"fmt"
	"slices"
)

// DeferredBuilder is the streaming construction of the deferred
// cut-sparsifier: edges arrive one at a time with their promise value ς
// and are pushed straight through the per-class leveled forest
// constructions, so the builder's memory is the stored sample plus the
// forest state — never the edge sequence itself. Feeding the builder the
// same (localIdx, u, v, ς) sequence that NewDeferred receives via its
// arrays produces a bit-identical Deferred (same per-class seeds, same
// within-class processing order, same item emission order); the solver
// relies on this to run its sampling round as one chunked pass over a
// Source without materializing promise or endpoint arrays.
//
// Unlike NewDeferred, the builder also records each stored edge's
// original stream index and weight, so the resulting Items carry enough
// to drive refinement and the offline union step with no random access
// back into the input.
type DeferredBuilder struct {
	n, m    int
	chi     float64
	cfg     Config         // defaults and chi² oversampling already applied
	classes []builderClass // ascending class
	last    int            // index of the most recently used class
	info    []builderEdge  // side data per stored edge, in arrival order
}

// builderClass is one powers-of-two promise class and its construction.
type builderClass struct {
	cl int
	c  *construction
}

// builderEdge is the per-stored-edge side data the construction core does
// not keep. An edge's position in DeferredBuilder.info is its slot: the
// constructions' stored rows record slots, so Finish reaches the side
// data by index.
type builderEdge struct {
	u, v  int32
	local int
	w     float64
	orig  int
	sigma float64
}

// NewDeferredBuilder prepares a streaming deferred construction over a
// local edge sequence of length m (the count must be known up front: it
// fixes the subsampling depth, exactly as NewDeferred derives it from its
// array length). chi >= 1 is the promised distortion bound.
func NewDeferredBuilder(n, m int, chi float64, cfg Config) (*DeferredBuilder, error) {
	if chi < 1 {
		return nil, fmt.Errorf("sparsify: chi %v < 1", chi)
	}
	if m < 0 {
		return nil, fmt.Errorf("sparsify: negative edge count %d", m)
	}
	b := &DeferredBuilder{
		n:   n,
		m:   m,
		chi: chi,
		cfg: deferredConfig(n, chi, cfg),
	}
	// A builder that keeps all edges stores every one with a positive
	// promise, so its side data is sized for m up front.
	stored := 0
	if b.cfg.keepsAll() {
		stored = m
	}
	if s := b.scratch(); s != nil {
		b.classes = s.classes.get(nil)[:0]
		b.info = s.infos.get(func(info []builderEdge) bool { return cap(info) >= stored })[:0]
	}
	b.info = slices.Grow(b.info, stored)
	return b, nil
}

// scratch returns the configured pool when it is sized for this
// builder's vertex count, nil otherwise.
func (b *DeferredBuilder) scratch() *Scratch {
	if s := b.cfg.Scratch; s != nil && s.n == b.n {
		return s
	}
	return nil
}

// Add streams one edge into the construction. localIdx must be the edge's
// position in the builder's own sequence (0..m-1, strictly increasing
// across calls — it drives the subsampling hash); orig is its index in
// the original stream and w its original weight, both retained only for
// stored edges. cl must be Class(sigma): callers feeding one edge to
// several builders compute it once. Edges with non-positive sigma are
// dropped (cl is then ignored), matching bucketByClass.
func (b *DeferredBuilder) Add(localIdx int, u, v int32, w float64, orig int, sigma float64, cl int) {
	if !(sigma > 0) {
		return
	}
	c := b.class(cl)
	if c.process(localIdx, len(b.info), u, v) {
		b.info = append(b.info, builderEdge{u: u, v: v, local: localIdx, w: w, orig: orig, sigma: sigma})
	}
}

// class returns the construction of promise class cl, creating it (in
// class order) on first use.
func (b *DeferredBuilder) class(cl int) *construction {
	if b.last < len(b.classes) && b.classes[b.last].cl == cl {
		return b.classes[b.last].c
	}
	i, found := slices.BinarySearchFunc(b.classes, cl, func(e builderClass, cl int) int { return cmp.Compare(e.cl, cl) })
	if !found {
		c := newConstruction(b.n, b.m, withClassSeed(b.cfg, cl))
		b.classes = slices.Insert(b.classes, i, builderClass{cl: cl, c: c})
	}
	b.last = i
	return b.classes[i].c
}

// Finish emits the Deferred. The per-class item streams concatenate in
// increasing class order — the order NewDeferred's sorted bucketByClass
// produces — so the structure is identical to the array-fed construction
// on the same input. When the builder was configured with a Scratch,
// Finish draws the emitted structure's containers from the pool and
// retires every construction (forests and shells) back to it on the way
// out: the Deferred carries only its Items and needs no forest state,
// and the caller hands the containers back through Deferred.Release.
// The builder must not be used after Finish.
func (b *DeferredBuilder) Finish() *Deferred {
	scr := b.scratch()
	d := &Deferred{n: b.n, chi: b.chi, scr: scr}
	// seen is parallel to info: an edge's slot belongs to exactly one
	// class, so one flag per slot dedups the levels of every class.
	var seen []bool
	if scr != nil {
		d.items = scr.getItems(len(b.info))
		seen = scr.flags.get(nil)
	}
	seen = resizeZeroed(seen, len(b.info))
	for _, bc := range b.classes {
		sub := bc.c
		for i := 0; i < sub.numLv; i++ {
			for _, slot := range sub.stored[i] {
				if seen[slot] {
					continue
				}
				seen[slot] = true
				info := &b.info[slot]
				ipLv, ok := sub.criticalLevel(info.u, info.v)
				if !ok {
					continue
				}
				if sub.levelOf(info.local) < ipLv {
					continue
				}
				d.items = append(d.items, Item{
					EdgeIdx: info.local,
					Orig:    info.orig,
					U:       info.u,
					V:       info.v,
					W:       info.w,
					Weight:  info.sigma, // provisional; replaced on Refine
					Prob:    retentionProb(ipLv),
				})
			}
		}
		sub.retire()
	}
	if scr != nil {
		clear(b.classes) // drop the retired shells' pointers
		scr.flags.put(seen)
		scr.classes.put(b.classes)
		scr.infos.put(b.info)
		b.classes, b.info = nil, nil
	}
	return d
}
