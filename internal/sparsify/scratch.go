package sparsify

import (
	"sync"

	"repro/internal/unionfind"
)

// Scratch is a reusable pool of working structures for the leveled
// sparsifier constructions. The lazy forest allocation of construction
// (one unionfind.New(n) per forest, per level, per weight class, per
// (use, level) job, per sampling round) is the dominant per-round
// garbage of the dual-primal solver's sampling pass; a Scratch lets
// every construction of a solve — and, through a session, every solve
// of a lifetime — draw Reset forests from one free list instead. A
// Reset forest is indistinguishable from a fresh one (n singleton sets,
// zero ranks), so wiring a Scratch through Config never changes any
// construction's output.
//
// Beyond forests, the pool recycles the rest of the builder lifecycle's
// containers: construction shells (level spines and stored-index rows),
// the builder's class list, side-data slice and dedup flags, the
// emitted Deferred's item slices, and the refinement's reveal buffers.
// Every getter hands back a logically empty structure (length-0 or
// fully-overwritten slice), so pooled and cold constructions are
// bit-identical.
//
// All getters and putters are safe for concurrent use: the per-class
// and per-job constructions of one sampling round run on the worker
// pool and share the solve's Scratch.
type Scratch struct {
	n int

	forests freeList[*unionfind.UF]
	shells  freeList[*construction]
	infos   freeList[[]builderEdge]
	classes freeList[[]builderClass]
	flags   freeList[[]bool]
	items   freeList[[]Item]
	f64s    freeList[[]float64]
}

// NewScratch returns an empty pool of forests over n elements.
func NewScratch(n int) *Scratch { return &Scratch{n: n} }

// N returns the element count the pooled forests are sized for.
func (s *Scratch) N() int { return s.n }

// Retained returns how many forests the pool currently holds.
func (s *Scratch) Retained() int {
	s.forests.mu.Lock()
	defer s.forests.mu.Unlock()
	return len(s.forests.free)
}

// Word sizes of the pooled element types on a 64-bit platform.
const (
	pointerWords      = 1
	sliceHeaderWords  = 3
	itemWords         = 6 // EdgeIdx, Orig, U|V, W, Weight, Prob
	builderEdgeWords  = 5 // u|v, local, w, orig, sigma
	builderClassWords = 2 // cl, *construction
)

// RetainedWords reports everything the pool keeps warm in 64-bit words:
// every free list's spine and every pooled backing array at capacity —
// forests (unionfind.UF.Words), construction-shell spines and rows,
// builder side data, class lists and dedup flags, item and reveal
// buffers. Fixed-size struct headers are not counted. Like every
// arena-side count, retained capacity is never part of any run's
// metered live space.
func (s *Scratch) RetainedWords() int {
	return s.forests.words(pointerWords, (*unionfind.UF).Words) +
		s.shells.words(pointerWords, (*construction).words) +
		s.infos.words(sliceHeaderWords, func(b []builderEdge) int { return builderEdgeWords * cap(b) }) +
		s.classes.words(sliceHeaderWords, func(b []builderClass) int { return builderClassWords * cap(b) }) +
		s.flags.words(sliceHeaderWords, func(b []bool) int { return (cap(b) + 7) / 8 }) +
		s.items.words(sliceHeaderWords, func(b []Item) int { return itemWords * cap(b) }) +
		s.f64s.words(sliceHeaderWords, func(b []float64) int { return cap(b) })
}

// Get returns a forest of n singleton sets: a pooled one Reset in
// place, or a fresh one when the pool is empty.
func (s *Scratch) Get() *unionfind.UF {
	uf := s.forests.get(nil)
	if uf == nil {
		return unionfind.New(s.n)
	}
	uf.Reset()
	return uf
}

// Put returns forests to the pool. Only forests obtained from this
// Scratch (or sized exactly n) may come back; the caller must not use
// them afterwards.
func (s *Scratch) Put(ufs ...*unionfind.UF) { s.forests.put(ufs...) }

// getF64s returns a length-n float64 buffer whose every element the
// caller must overwrite before reading (reveal buffers are filled by a
// full-range shard sweep, so no clear happens here).
func (s *Scratch) getF64s(n int) []float64 {
	if b := s.f64s.get(func(b []float64) bool { return cap(b) >= n }); b != nil {
		return b[:n]
	}
	return make([]float64, n)
}

// getItems returns an empty Item buffer with room for n items: the most
// recently retired one that fits, or a fresh one.
func (s *Scratch) getItems(n int) []Item {
	if b := s.items.get(func(b []Item) bool { return cap(b) >= n }); b != nil {
		return b[:0]
	}
	return make([]Item, 0, n)
}

// freeList is one typed pool of the Scratch: retired values (shells,
// forests, slice backings) wait here until a getter hands them out
// again. Slice getters truncate what they receive; a nil result means
// the list had nothing suitable and the caller allocates.
type freeList[T any] struct {
	mu   sync.Mutex
	free []T
}

// get pops the most recently retired value that fits (nil fits means
// any), or returns T's zero value.
func (l *freeList[T]) get(fits func(T) bool) T {
	l.mu.Lock()
	defer l.mu.Unlock()
	var zero T
	for i := len(l.free) - 1; i >= 0; i-- {
		if v := l.free[i]; fits == nil || fits(v) {
			last := len(l.free) - 1
			l.free[i] = l.free[last]
			l.free[last] = zero
			l.free = l.free[:last]
			return v
		}
	}
	return zero
}

func (l *freeList[T]) put(vs ...T) {
	l.mu.Lock()
	l.free = append(l.free, vs...)
	l.mu.Unlock()
}

// words sums the list's spine (entryWords per slot of capacity) and
// each pooled value's own footprint.
func (l *freeList[T]) words(entryWords int, of func(T) int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	w := entryWords * cap(l.free)
	for _, v := range l.free {
		w += of(v)
	}
	return w
}

// resizeZeroed returns b resliced (or regrown) to length n with every
// element zeroed.
func resizeZeroed[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}
