package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/stream"
)

// TestSessionLayoutChangesBitIdentical solves instances of different
// (n, levels) shapes back to back through one Session: the retained
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
	sess, err := NewSession(opt)
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[[2]int]bool{}
	for _, inst := range instances {
		warm, err := sess.Solve(ctx, stream.NewEdgeStream(inst.g), Extensions{}, nil)
		if err != nil {
			t.Fatalf("%s: session solve: %v", inst.name, err)
		}
		shapes[[2]int{sess.alg.n, sess.alg.nl}] = true
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
