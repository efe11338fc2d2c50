package core

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/stream"
)

// The offline solve (Algorithm 2 step 5) is skipped on a round whose
// sampled union is the full kept edge set once an earlier round of the
// run has solved that set. These tests pin that the skip is exact: a
// solver forced to solve every round returns a bit-identical Outcome.

// solveEveryRound forgets before each round that the full set was
// solved, so Round runs the offline solve every time.
type solveEveryRound struct{ *DualPrimal }

func (a solveEveryRound) Round(ctx context.Context, run *engine.Run) (bool, error) {
	a.fullSolved = false
	return a.DualPrimal.Round(ctx, run)
}

// countSkips runs the solver unchanged and counts the rounds that left
// the offline-solve subgraph empty: the offline solve rebuilds it from
// a non-empty union, so an empty one after a round means it was skipped.
type countSkips struct {
	*DualPrimal
	skipped *int
}

func (a countSkips) Round(ctx context.Context, run *engine.Run) (bool, error) {
	a.sub.Clear()
	done, err := a.DualPrimal.Round(ctx, run)
	if !done && err == nil && a.sub.M() == 0 {
		*a.skipped++
	}
	return done, err
}

// driveBoth solves g with the skipping solver and with the
// solve-every-round wrapper and requires bit-identical Outcomes. It
// also requires that the skip fired on exactly the full-union rounds
// after the first one, and returns how many rounds it skipped.
func driveBoth(t *testing.T, label string, g *graph.Graph, opt Options) int {
	t.Helper()
	skipped := 0
	got, a := driveWrapped(t, label, stream.NewEdgeStream(g), opt, func(a *DualPrimal) engine.Algorithm { return countSkips{a, &skipped} })
	want, _ := driveWrapped(t, label, stream.NewEdgeStream(g), opt, func(a *DualPrimal) engine.Algorithm { return solveEveryRound{a} })
	requireSameOutcome(t, label, got, want)
	full := 0
	for _, size := range got.Stats.UnionSizes {
		if size == a.keptEdges {
			full++
		}
	}
	if want := max(full-1, 0); skipped != want {
		t.Errorf("%s: %d rounds skipped the offline solve, but %d of the unions %v repeat the full set of %d edges",
			label, skipped, want, got.Stats.UnionSizes, a.keptEdges)
	}
	return skipped
}

func TestOfflineSkipBitIdenticalOnCorpus(t *testing.T) {
	for name, g := range solverCorpus() {
		for _, workers := range []int{1, 4} {
			skipped := driveBoth(t, name, g, Options{Eps: 0.25, P: 2, Seed: 7, Workers: workers})
			if skipped == 0 {
				t.Errorf("%s workers=%d: no round skipped the offline solve", name, workers)
			}
			// A full-union instance that runs the whole round budget:
			// only its first round solves.
			if name == "gnm-uniform" && skipped != 24 {
				t.Errorf("gnm-uniform workers=%d: %d rounds skipped the offline solve, want 24 of 25", workers, skipped)
			}
		}
	}
}

func TestOfflineSkipBitIdenticalPartialUnions(t *testing.T) {
	// One forest per sparsifier and χ = 1.5 or 1.2: the sampled union
	// misses edges, so the skip must stay off until it covers every kept
	// edge, and again on every later round whose union is partial.
	weights := graph.WeightConfig{Mode: graph.UniformWeights, WMax: 100}
	for _, c := range []struct {
		label   string
		n, m    int
		chi     float64
		skipped int
	}{
		{"gnm-128-1500 (partial in rounds 1-2)", 128, 1500, 1.5, 22},
		{"gnm-256-12000 (partial every round)", 256, 12000, 1.5, 0},
		{"gnm-64-400 (full from round 5, partial again in round 7)", 64, 400, 1.2, 10},
	} {
		prof := Practical(0.25)
		prof.SparsifierK, prof.ChiOverride = 1, c.chi
		g := graph.GNM(c.n, c.m, weights, 1)
		opt := Options{Eps: 0.25, P: 2, Seed: 7, Workers: 4, Profile: &prof}
		if skipped := driveBoth(t, c.label, g, opt); skipped != c.skipped {
			t.Errorf("%s: %d rounds skipped the offline solve, want %d", c.label, skipped, c.skipped)
		}
	}
}
