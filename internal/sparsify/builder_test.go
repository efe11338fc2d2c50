package sparsify

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// The builder's contract: feeding the same (localIdx, u, v, sigma)
// sequence NewDeferred receives via arrays must produce a bit-identical
// Deferred. The solver's out-of-core sampling round depends on this.
func TestBuilderMatchesNewDeferred(t *testing.T) {
	for _, tc := range []struct {
		name string
		n, m int
		chi  float64
		seed uint64
	}{
		{"small", 24, 120, 2, 5},
		{"wide-sigma", 40, 400, 4, 6},
		{"single-class", 16, 60, 1, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.GNM(tc.n, tc.m, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 30}, tc.seed)
			r := xrand.New(tc.seed + 100)
			sigma := make([]float64, g.M())
			for i := range sigma {
				// Span several powers-of-two classes; sprinkle zeros to
				// exercise the drop rule.
				sigma[i] = r.Float64() * 16
				if r.Bernoulli(0.05) {
					sigma[i] = 0
				}
			}
			cfg := Config{Xi: 0.5, K: 4, Seed: tc.seed + 9}
			want, err := NewDeferred(g.N(), func(i int) (int32, int32) {
				e := g.Edge(i)
				return e.U, e.V
			}, g.M(), sigma, tc.chi, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewDeferredBuilder(g.N(), g.M(), tc.chi, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range g.Edges() {
				b.Add(i, e.U, e.V, e.W, i, sigma[i])
			}
			got := b.Finish()
			if got.Size() != want.Size() {
				t.Fatalf("size %d, NewDeferred %d", got.Size(), want.Size())
			}
			// The builder additionally records W; compare everything else
			// field by field.
			for i := range got.items {
				a, w := got.items[i], want.items[i]
				a.W = 0
				if !reflect.DeepEqual(a, w) {
					t.Fatalf("item %d differs: builder %+v vs NewDeferred %+v", i, got.items[i], w)
				}
			}
			// Refinement must agree too (RefineWith vs RefineParallel).
			u := make([]float64, g.M())
			for i := range u {
				u[i] = sigma[i] * (0.5 + r.Float64())
			}
			spWant := want.Refine(func(i int) float64 { return u[i] })
			spGot := got.RefineWith(1, func(it Item) float64 { return u[it.Orig] })
			if len(spWant.Items) != len(spGot.Items) {
				t.Fatalf("refined sizes differ: %d vs %d", len(spGot.Items), len(spWant.Items))
			}
			for i := range spGot.Items {
				a, w := spGot.Items[i], spWant.Items[i]
				a.W = 0
				if !reflect.DeepEqual(a, w) {
					t.Fatalf("refined item %d differs: %+v vs %+v", i, spGot.Items[i], w)
				}
			}
		})
	}
}

func TestBuilderRejectsBadArgs(t *testing.T) {
	if _, err := NewDeferredBuilder(10, 5, 0.5, Config{}); err == nil {
		t.Fatal("chi < 1 accepted")
	}
	if _, err := NewDeferredBuilder(10, -1, 2, Config{}); err == nil {
		t.Fatal("negative m accepted")
	}
}

func TestBuilderStaleRevealUsesPromise(t *testing.T) {
	// The stored Item's provisional Weight is the sampling-time promise:
	// a stale reveal (ablation mode) returns it unchanged and the refined
	// weight is promise/prob.
	g := graph.GNM(12, 40, graph.WeightConfig{}, 11)
	b, err := NewDeferredBuilder(g.N(), g.M(), 2, Config{Xi: 0.5, K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range g.Edges() {
		b.Add(i, e.U, e.V, e.W, i, 1.5)
	}
	d := b.Finish()
	sp := d.RefineWith(1, func(it Item) float64 { return it.Weight })
	for _, it := range sp.Items {
		if got := it.Weight * it.Prob; got < 1.5-1e-12 || got > 1.5+1e-12 {
			t.Fatalf("stale refine weight %v * prob %v != promise 1.5", it.Weight, it.Prob)
		}
	}
}
