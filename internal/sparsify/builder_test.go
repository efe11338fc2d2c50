package sparsify

import (
	"reflect"
	"slices"
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
				b.Add(i, e.U, e.V, e.W, i, sigma[i], classOf(sigma[i]))
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

// streamEdge is one (u, v, ς) arrival of a builder test stream.
type streamEdge struct {
	u, v  int32
	sigma float64
}

// buildStream feeds edges to a fresh builder with χ = 1, so K is used
// unboosted, and returns the sealed structure.
func buildStream(t *testing.T, n int, edges []streamEdge, k, maxDegree int, scr *Scratch) *Deferred {
	t.Helper()
	b, err := NewDeferredBuilder(n, len(edges), 1, Config{K: k, Seed: 13, MaxDegree: maxDegree, Scratch: scr})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range edges {
		b.Add(i, e.u, e.v, float64(i+1), i, e.sigma, Class(e.sigma))
	}
	return b.Finish()
}

// keptBelowOne reports whether some item was kept with probability
// below 1: some construction opened its K-th forest.
func keptBelowOne(d *Deferred) bool {
	for _, it := range d.Items() {
		if it.Prob < 1 {
			return true
		}
	}
	return false
}

// A builder told the largest degree must emit exactly what one that
// builds every forest emits: with the forests skipped when the bound is
// below K, and with them built when it is not.
func TestBuilderMaxDegreeMatchesForests(t *testing.T) {
	// A multigraph on 12 vertices with parallel edges and promises over
	// six classes.
	const n, m = 12, 300
	r := xrand.New(41)
	edges := make([]streamEdge, m)
	degree := make([]int, n)
	for i := range edges {
		u, v := int32(r.Intn(n)), int32(r.Intn(n-1))
		if v >= u {
			v++
		}
		edges[i] = streamEdge{u, v, 0.5 + 30*r.Float64()}
		degree[u]++
		degree[v]++
	}
	maxDeg := slices.Max(degree)
	for _, c := range []struct {
		label  string
		k      int
		skip   bool
		reachK bool
	}{
		{"max degree K-1", maxDeg + 1, true, false},
		{"max degree K", maxDeg, false, false},
		{"K = 4", 4, false, true},
	} {
		want := buildStream(t, n, edges, c.k, 0, nil)
		scr := NewScratch(n)
		got := buildStream(t, n, edges, c.k, maxDeg, scr)
		if !reflect.DeepEqual(got.Items(), want.Items()) {
			t.Errorf("%s: items differ from the forest build", c.label)
		}
		if skipped := scr.Retained() == 0; skipped != c.skip {
			t.Errorf("%s: forests skipped = %v, want %v", c.label, skipped, c.skip)
		}
		if reached := keptBelowOne(want); reached != c.reachK {
			t.Errorf("%s: K reached = %v, want %v", c.label, reached, c.reachK)
		}
		// The array-fed construction honours the bound the same way.
		sigma := make([]float64, m)
		for i, e := range edges {
			sigma[i] = e.sigma
		}
		endpoints := func(i int) (int32, int32) { return edges[i].u, edges[i].v }
		plain, err := NewDeferred(n, endpoints, m, sigma, 1, Config{K: c.k, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		bounded, err := NewDeferred(n, endpoints, m, sigma, 1, Config{K: c.k, Seed: 13, MaxDegree: maxDeg})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bounded.Items(), plain.Items()) {
			t.Errorf("%s: NewDeferred items differ with the bound", c.label)
		}
	}

	// K parallel edges on one pair open the K-th forest at degree
	// exactly K, so a bound of K must not skip the forests.
	const k = 5
	bundle := make([]streamEdge, k)
	for i := range bundle {
		bundle[i] = streamEdge{0, 1, 3}
	}
	want := buildStream(t, 2, bundle, k, 0, nil)
	if !keptBelowOne(want) {
		t.Fatal("the bundle did not open its K-th forest")
	}
	if got := buildStream(t, 2, bundle, k, k, nil); !reflect.DeepEqual(got.Items(), want.Items()) {
		t.Errorf("bundle of K parallel edges: items %+v, forest build %+v", got.Items(), want.Items())
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
		b.Add(i, e.U, e.V, e.W, i, 1.5, Class(1.5))
	}
	d := b.Finish()
	sp := d.RefineWith(1, func(it Item) float64 { return it.Weight })
	for _, it := range sp.Items {
		if got := it.Weight * it.Prob; got < 1.5-1e-12 || got > 1.5+1e-12 {
			t.Fatalf("stale refine weight %v * prob %v != promise 1.5", it.Weight, it.Prob)
		}
	}
}

// classOf is Class for the promise values the tests feed Add, which
// include zeros (dropped by Add, so their class is never read).
func classOf(sigma float64) int {
	if !(sigma > 0) {
		return 0
	}
	return Class(sigma)
}
