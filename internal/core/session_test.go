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

// TestSessionLayoutChangesBitIdentical solves instances of different
// (n, levels) shapes back to back through one engine.Session around one
// DualPrimal: the retained
// oracle grids (laid out by n and level count) and the sparsifier
// scratch (sized by n) must re-derive their layout on every change, so
// each warm result equals a cold solve of the same instance exactly.
func TestSessionLayoutChangesBitIdentical(t *testing.T) {
	ctx := context.Background()
	opt := Options{Eps: 0.25, P: 2, Seed: 5, Workers: 1}
	uniform := func(wmax float64) graph.WeightConfig {
		return graph.WeightConfig{Mode: graph.UniformWeights, WMax: wmax}
	}
	small := graph.GNM(64, 400, uniform(20), 1)
	// The level count is fixed by B = Σ b_v (the rescaled top weight),
	// not by the weight range: capacities change it at equal n.
	capacitated := graph.GNM(128, 900, uniform(5000), 3)
	for v := 0; v < capacitated.N(); v += 3 {
		capacitated.SetB(v, 3)
	}
	instances := []struct {
		name string
		g    *graph.Graph
	}{
		{"n=64", small},
		{"n=128", graph.GNM(128, 900, uniform(20), 2)},
		{"n=128 wide weights, capacities", capacitated},
		{"n=64 again", small},
	}
	alg, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	sess := engine.NewSession(alg)
	shapes := map[[2]int]bool{}
	for _, inst := range instances {
		warm, err := sess.Solve(ctx, stream.NewEdgeStream(inst.g), engine.Extensions{})
		if err != nil {
			t.Fatalf("%s: session solve: %v", inst.name, err)
		}
		shapes[[2]int{alg.n, alg.nl}] = true
		cold, err := SolveGraph(inst.g, opt)
		if err != nil {
			t.Fatalf("%s: cold solve: %v", inst.name, err)
		}
		for _, f := range []struct {
			name       string
			warm, cold float64
		}{
			{"Weight", warm.Weight, cold.Weight},
			{"DualObjective", warm.DualObjective, cold.DualObjective},
			{"Lambda", warm.Lambda, cold.Lambda},
		} {
			if math.Float64bits(f.warm) != math.Float64bits(f.cold) {
				t.Errorf("%s: %s %v, cold %v", inst.name, f.name, f.warm, f.cold)
			}
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Errorf("%s: session result differs from a cold solve", inst.name)
		}
	}
	if len(shapes) != 3 {
		t.Fatalf("instances cover %d distinct (n, levels) shapes, want 3: %v", len(shapes), shapes)
	}
}

// TestWarmRequestConsumedOnce pins SetWarm's one-run scope: the run
// after a warm-started one is cold unless SetWarm is called again, and
// Warm snapshots the last run's duals.
func TestWarmRequestConsumedOnce(t *testing.T) {
	ctx := context.Background()
	g := graph.GNM(48, 320, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}, 41)
	opt := Options{Eps: 0.3, P: 2, Seed: 13, Workers: 1}
	cold, err := SolveGraph(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	if alg.Warm() != nil {
		t.Fatal("Warm before any run is non-nil")
	}
	sess := engine.NewSession(alg)
	if _, err := sess.Solve(ctx, stream.NewEdgeStream(g), engine.Extensions{}); err != nil {
		t.Fatal(err)
	}
	alg.SetWarm(alg.Warm())
	warm, err := sess.Solve(ctx, stream.NewEdgeStream(g), engine.Extensions{})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.WarmStarted {
		t.Fatal("SetWarm request was not installed")
	}
	plain, err := sess.Solve(ctx, stream.NewEdgeStream(g), engine.Extensions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cold) {
		t.Errorf("run after a warm one differs from a cold solve\nwant: %+v\ngot:  %+v", cold.Stats, plain.Stats)
	}
}
