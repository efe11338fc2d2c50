package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/stream"
)

// The sparsifier constructions skip their forests when Init's census
// finds every kept degree below K (sparsify.Config.MaxDegree). These
// tests pin that the skip is exact: a solver forced to build every
// forest returns a bit-identical Outcome, both where the skip fires
// and where K is reached and it must not.

// buildForests forgets the kept-degree bound before each round, so
// every construction of the run builds its forests.
type buildForests struct{ *DualPrimal }

func (a buildForests) Round(ctx context.Context, run *engine.Run) (bool, error) {
	a.maxDegree = 0
	return a.DualPrimal.Round(ctx, run)
}

// driveWrapped solves src with a fresh solver, wrapped by wrap, and
// returns the Outcome and the solver.
func driveWrapped(t *testing.T, label string, src stream.Source, opt Options, wrap func(*DualPrimal) engine.Algorithm) (*engine.Outcome, *DualPrimal) {
	t.Helper()
	a, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	out, err := engine.Drive(context.Background(), wrap(a), src, engine.Extensions{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return out, a
}

// requireSameOutcome fails unless two Outcomes agree bit for bit: the
// float fields' bits, the matching and every Stats field. want is the
// reference path's Outcome.
func requireSameOutcome(t *testing.T, label string, got, want *engine.Outcome) {
	t.Helper()
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"Weight", got.Weight, want.Weight},
		{"Lambda", got.Lambda, want.Lambda},
		{"DualObjective", got.DualObjective, want.DualObjective},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Errorf("%s: %s = %v, reference %v", label, f.name, f.got, f.want)
		}
	}
	if !reflect.DeepEqual(got.Matching.EdgeIdx, want.Matching.EdgeIdx) || !reflect.DeepEqual(got.Matching.Mult, want.Matching.Mult) {
		t.Errorf("%s: matching differs\ngot:       %v %v\nreference: %v %v", label,
			got.Matching.EdgeIdx, got.Matching.Mult, want.Matching.EdgeIdx, want.Matching.Mult)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("%s: stats differ\ngot:       %+v\nreference: %+v", label, got.Stats, want.Stats)
	}
}

// driveForests solves g with the plain solver and with buildForests,
// requires bit-identical Outcomes, and reports whether the plain
// solver skipped the forests: a run that never drew a forest from its
// pool built none.
func driveForests(t *testing.T, label string, g *graph.Graph, opt Options) (skipped bool) {
	t.Helper()
	got, a := driveWrapped(t, label, stream.NewEdgeStream(g), opt, func(a *DualPrimal) engine.Algorithm { return a })
	want, forced := driveWrapped(t, label, stream.NewEdgeStream(g), opt, func(a *DualPrimal) engine.Algorithm { return buildForests{a} })
	requireSameOutcome(t, label, got, want)
	if forced.ufScratch.Retained() == 0 {
		t.Errorf("%s: the forced run built no forest", label)
	}
	return a.ufScratch.Retained() == 0
}

func TestForestSkipBitIdenticalOnCorpus(t *testing.T) {
	for name, g := range solverCorpus() {
		for _, workers := range []int{1, 4} {
			if !driveForests(t, name, g, Options{Eps: 0.25, P: 2, Seed: 7, Workers: workers}) {
				t.Errorf("%s workers=%d: the forests were built, but no kept degree reaches K", name, workers)
			}
		}
	}
}

func TestForestSkipBitIdenticalAroundK(t *testing.T) {
	// One forest per sparsifier and χ = 1.5 give K = 3, below every
	// instance's largest degree: the skip must stay off.
	lowK := Practical(0.25)
	lowK.SparsifierK, lowK.ChiOverride = 1, 1.5
	uniform := graph.WeightConfig{Mode: graph.UniformWeights, WMax: 100}
	unit := graph.WeightConfig{Mode: graph.UnitWeights}
	for _, c := range []struct {
		label string
		g     *graph.Graph
		opt   Options
		skip  bool
	}{
		{"gnm-128-1500 K=3", graph.GNM(128, 1500, uniform, 1), Options{Eps: 0.25, P: 2, Seed: 7, Profile: &lowK}, false},
		{"gnm-64-600 unit K=3", graph.GNM(64, 600, unit, 2), Options{Eps: 0.25, P: 2, Seed: 7, Profile: &lowK}, false},
		// Unit weights put the whole graph in one weight level. At p = 8,
		// χ = 2 and K = 24·4 = 96: the near-complete graph's degrees reach
		// it, the sparser one's (about 19) do not.
		{"gnm-100-4900 unit p=8", graph.GNM(100, 4900, unit, 3), Options{Eps: 0.25, P: 8, Seed: 7}, false},
		{"gnm-64-600 unit p=8", graph.GNM(64, 600, unit, 2), Options{Eps: 0.25, P: 8, Seed: 7}, true},
	} {
		for _, workers := range []int{1, 4} {
			opt := c.opt
			opt.Workers, opt.MaxRounds = workers, 8 // p = 8 would run 97 rounds
			if skipped := driveForests(t, c.label, c.g, opt); skipped != c.skip {
				t.Errorf("%s workers=%d: forests skipped = %v, want %v", c.label, workers, skipped, c.skip)
			}
		}
	}
}

// loopSource serves a graph's edges with the edge at index loop turned
// into a self-loop on its first endpoint. It has no block methods, so
// every block sweep goes through ForEach or Sweep.
type loopSource struct {
	stream.Source
	loop int
}

func (s loopSource) rewrite(f func(int, graph.Edge) bool) func(int, graph.Edge) bool {
	return func(i int, e graph.Edge) bool {
		if i == s.loop {
			e.V = e.U
		}
		return f(i, e)
	}
}

func (s loopSource) ForEach(f func(int, graph.Edge) bool) { s.Source.ForEach(s.rewrite(f)) }
func (s loopSource) Sweep(f func(int, graph.Edge) bool)   { s.Source.Sweep(s.rewrite(f)) }

func (s loopSource) ForEachParallel(workers int, f func(int, graph.Edge)) {
	s.Source.ForEachParallel(workers, func(i int, e graph.Edge) { s.rewrite(func(i int, e graph.Edge) bool { f(i, e); return true })(i, e) })
}

func (s loopSource) SweepParallel(workers int, f func(int, graph.Edge)) {
	s.Source.SweepParallel(workers, func(i int, e graph.Edge) { s.rewrite(func(i int, e graph.Edge) bool { f(i, e); return true })(i, e) })
}

// censusOnly stops every run before its first round, after Init's
// census has fixed the kept-degree bound.
type censusOnly struct{ *DualPrimal }

func (censusOnly) Round(context.Context, *engine.Run) (bool, error) { return true, nil }

func TestForestSkipRefusedOnSelfLoop(t *testing.T) {
	// A self-loop is joined in every forest, so no degree bounds the
	// forests it opens: one kept self-loop must keep the forest path.
	// (The solve itself cannot finish: the offline solve rejects the
	// loop, so the run stops after Init.)
	g := graph.GNM(64, 512, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 40}, 101)
	for _, c := range []struct {
		label string
		src   stream.Source
		skip  bool
	}{
		{"plain", stream.NewEdgeStream(g), true},
		{"self-loop", loopSource{stream.NewEdgeStream(g), 17}, false},
	} {
		a, err := New(Options{Eps: 0.25, P: 2, Seed: 7, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engine.Drive(context.Background(), censusOnly{a}, c.src, engine.Extensions{}); err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if skip := a.maxDegree > 0; skip != c.skip {
			t.Errorf("%s: kept-degree bound %d, want forests skipped = %v", c.label, a.maxDegree, c.skip)
		}
	}
}
