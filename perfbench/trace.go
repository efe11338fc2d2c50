package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/match"
)

// recorder keeps the spans and round marks of one traced solve in
// memory. Times are offsets on the recorder's monotonic clock.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []*span
	marks []time.Duration // start of each round, in round order
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// reset forgets the previous solve's spans and marks.
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.marks = r.marks[:0]
	r.mu.Unlock()
}

// span is one sweep over the source: its wall interval, the part of it
// spent inside consumer callbacks, and the edges delivered.
type span struct {
	metered    bool
	start, end time.Duration
	consumer   time.Duration
	edges      int64

	// Parallel sweeps deliver callbacks from several goroutines; consumer
	// time is then the union of the callback intervals, kept with an
	// active-callback count.
	mu        sync.Mutex
	active    int
	busySince time.Duration
}

func (r *recorder) begin(metered bool) *span {
	sp := &span{metered: metered}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
	sp.start = r.now()
	return sp
}

func (r *recorder) finish(sp *span) { sp.end = r.now() }

func (r *recorder) enter(sp *span) {
	sp.mu.Lock()
	if sp.active == 0 {
		sp.busySince = r.now()
	}
	sp.active++
	sp.mu.Unlock()
}

func (r *recorder) exit(sp *span, edges int) {
	sp.mu.Lock()
	sp.active--
	sp.edges += int64(edges)
	if sp.active == 0 {
		sp.consumer += r.now() - sp.busySince
	}
	sp.mu.Unlock()
}

// OnRound implements match.Observer: it timestamps the start of each
// round.
func (r *recorder) OnRound(match.RoundEvent) {
	t := r.now()
	r.mu.Lock()
	r.marks = append(r.marks, t)
	r.mu.Unlock()
}

// tracedSource forwards every sweep family of a Source — per-edge,
// block, parallel and un-metered — and RandomAccess, recording one span
// per sweep. It must intercept the block methods too: stream's block
// helpers type-assert the whole value, so a wrapper without them would
// be bypassed by the backend's native block sweeps.
type tracedSource struct {
	inner stream.Source
	ra    stream.RandomAccess
	rec   *recorder
}

var (
	_ stream.Source       = (*tracedSource)(nil)
	_ stream.BlockSweeper = (*tracedSource)(nil)
	_ stream.RandomAccess = (*tracedSource)(nil)
)

func newTracedSource(inner stream.Source, rec *recorder) (*tracedSource, error) {
	ra, ok := inner.(stream.RandomAccess)
	if !ok {
		return nil, fmt.Errorf("trace: %T does not implement stream.RandomAccess", inner)
	}
	return &tracedSource{inner: inner, ra: ra, rec: rec}, nil
}

func (t *tracedSource) N() int                { return t.inner.N() }
func (t *tracedSource) B(v int) int           { return t.inner.B(v) }
func (t *tracedSource) TotalB() int           { return t.inner.TotalB() }
func (t *tracedSource) Len() int              { return t.inner.Len() }
func (t *tracedSource) Passes() int           { return t.inner.Passes() }
func (t *tracedSource) Edge(i int) graph.Edge { return t.ra.Edge(i) }

func (t *tracedSource) edgeFn(sp *span, f func(int, graph.Edge) bool) func(int, graph.Edge) bool {
	return func(idx int, e graph.Edge) bool {
		t0 := t.rec.now()
		ok := f(idx, e)
		sp.consumer += t.rec.now() - t0
		sp.edges++
		return ok
	}
}

func (t *tracedSource) blockFn(sp *span, f func(int, []graph.Edge) bool) func(int, []graph.Edge) bool {
	return func(base int, edges []graph.Edge) bool {
		t0 := t.rec.now()
		ok := f(base, edges)
		sp.consumer += t.rec.now() - t0
		sp.edges += int64(len(edges))
		return ok
	}
}

func (t *tracedSource) parEdgeFn(sp *span, f func(int, graph.Edge)) func(int, graph.Edge) {
	return func(idx int, e graph.Edge) {
		t.rec.enter(sp)
		f(idx, e)
		t.rec.exit(sp, 1)
	}
}

func (t *tracedSource) parBlockFn(sp *span, f func(int, []graph.Edge)) func(int, []graph.Edge) {
	return func(base int, edges []graph.Edge) {
		t.rec.enter(sp)
		f(base, edges)
		t.rec.exit(sp, len(edges))
	}
}

func (t *tracedSource) ForEach(f func(int, graph.Edge) bool) {
	sp := t.rec.begin(true)
	t.inner.ForEach(t.edgeFn(sp, f))
	t.rec.finish(sp)
}

func (t *tracedSource) Sweep(f func(int, graph.Edge) bool) {
	sp := t.rec.begin(false)
	t.inner.Sweep(t.edgeFn(sp, f))
	t.rec.finish(sp)
}

func (t *tracedSource) ForEachParallel(workers int, f func(int, graph.Edge)) {
	sp := t.rec.begin(true)
	t.inner.ForEachParallel(workers, t.parEdgeFn(sp, f))
	t.rec.finish(sp)
}

func (t *tracedSource) SweepParallel(workers int, f func(int, graph.Edge)) {
	sp := t.rec.begin(false)
	t.inner.SweepParallel(workers, t.parEdgeFn(sp, f))
	t.rec.finish(sp)
}

func (t *tracedSource) ForEachBlocks(f func(int, []graph.Edge) bool) {
	sp := t.rec.begin(true)
	stream.ForEachBlocks(t.inner, t.blockFn(sp, f))
	t.rec.finish(sp)
}

func (t *tracedSource) SweepBlocks(f func(int, []graph.Edge) bool) {
	sp := t.rec.begin(false)
	stream.SweepBlocks(t.inner, t.blockFn(sp, f))
	t.rec.finish(sp)
}

func (t *tracedSource) ForEachBlocksParallel(workers int, f func(int, []graph.Edge)) {
	sp := t.rec.begin(true)
	stream.ForEachBlocksParallel(t.inner, workers, t.parBlockFn(sp, f))
	t.rec.finish(sp)
}

func (t *tracedSource) SweepBlocksParallel(workers int, f func(int, []graph.Edge)) {
	sp := t.rec.begin(false)
	stream.SweepBlocksParallel(t.inner, workers, t.parBlockFn(sp, f))
	t.rec.finish(sp)
}

// layerSample is one traced solve split by layer.
type layerSample struct {
	streamSelf, streamConsumer time.Duration
	sweeps                     int
	edges                      int64

	engineInit, engineFinish time.Duration
	rounds                   []time.Duration

	// core phases, summed over rounds (dual-primal solves only).
	coreSample, coreCentral, coreLambda time.Duration
	unattributedRounds                  int
}

// summarize splits the solve that ran from callStart to callEnd. A
// dual-primal round makes exactly two metered sweeps: the sampling pass
// first and the λ pass last, with the central phase (seal, union,
// offline solve, refinement, MiniOracle×t) between them and no input
// access; a round with any other count is reported unattributed.
func (r *recorder) summarize(callStart, callEnd time.Duration, dualPrimal bool) layerSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s layerSample
	var metered []*span
	for _, sp := range r.spans {
		s.sweeps++
		s.edges += sp.edges
		s.streamConsumer += sp.consumer
		s.streamSelf += sp.end - sp.start - sp.consumer
		if sp.metered {
			metered = append(metered, sp)
		}
	}
	if len(r.marks) == 0 {
		s.engineInit = callEnd - callStart
		return s
	}
	s.engineInit = r.marks[0] - callStart
	roundEnd := callEnd
	for i, m := range r.marks {
		next := callEnd
		if i+1 < len(r.marks) {
			next = r.marks[i+1]
		}
		var in []*span
		for _, sp := range metered {
			if sp.start >= m && sp.start < next {
				in = append(in, sp)
			}
		}
		end := next
		if i+1 == len(r.marks) && len(in) > 0 {
			end = in[len(in)-1].end
			roundEnd = end
		}
		s.rounds = append(s.rounds, end-m)
		if !dualPrimal {
			continue
		}
		if len(in) != 2 {
			s.unattributedRounds++
			continue
		}
		sample, lambda := in[0], in[1]
		s.coreSample += sample.end - sample.start
		s.coreLambda += lambda.end - lambda.start
		s.coreCentral += lambda.start - sample.end
	}
	s.engineFinish = callEnd - roundEnd
	return s
}
