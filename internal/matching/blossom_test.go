package matching

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/xrand"
)

func TestBlossomTrivial(t *testing.T) {
	mate, w := MaxWeightMatching(2, []WEdge{{0, 1, 5}}, false)
	if w != 5 || mate[0] != 1 || mate[1] != 0 {
		t.Fatalf("trivial: w=%d mate=%v", w, mate)
	}
}

func TestBlossomEmpty(t *testing.T) {
	mate, w := MaxWeightMatching(3, nil, false)
	if w != 0 || mate[0] != -1 {
		t.Fatalf("empty: w=%d mate=%v", w, mate)
	}
}

func TestBlossomPath(t *testing.T) {
	// Path with weights 2-3-2: optimal picks the two 2s (total 4)? No:
	// edges (0,1,2),(1,2,3),(2,3,2): picking (0,1) and (2,3) gives 4 > 3.
	mate, w := MaxWeightMatching(4, []WEdge{{0, 1, 2}, {1, 2, 3}, {2, 3, 2}}, false)
	if w != 4 {
		t.Fatalf("path: w=%d, want 4, mate=%v", w, mate)
	}
}

func TestBlossomPrefersHeavyMiddle(t *testing.T) {
	// Middle edge so heavy the ends stay single.
	_, w := MaxWeightMatching(4, []WEdge{{0, 1, 2}, {1, 2, 10}, {2, 3, 2}}, false)
	if w != 10 {
		t.Fatalf("w=%d, want 10", w)
	}
}

func TestBlossomMaxCardinality(t *testing.T) {
	// Same path; with maxCardinality the two light edges win (cardinality
	// 2 beats cardinality 1).
	mate, w := MaxWeightMatching(4, []WEdge{{0, 1, 2}, {1, 2, 10}, {2, 3, 2}}, true)
	if w != 4 {
		t.Fatalf("maxcard: w=%d mate=%v, want 4", w, mate)
	}
}

func TestBlossomTriangle(t *testing.T) {
	// Odd cycle: only one edge can be used.
	_, w := MaxWeightMatching(3, []WEdge{{0, 1, 3}, {1, 2, 4}, {0, 2, 5}}, false)
	if w != 5 {
		t.Fatalf("triangle: w=%d, want 5", w)
	}
}

func TestBlossomClassicBlossomCases(t *testing.T) {
	// Cases from Van Rantwijk's reference test suite (S-blossom creation
	// and expansion paths).
	cases := []struct {
		n     int
		edges []WEdge
		want  int64
	}{
		// create S-blossom and use it for augmentation
		{5, []WEdge{{1, 2, 8}, {1, 3, 9}, {2, 3, 10}, {3, 4, 7}}, 15},
		{7, []WEdge{{1, 2, 8}, {1, 3, 9}, {2, 3, 10}, {3, 4, 7}, {1, 6, 5}, {4, 5, 6}}, 21},
		// create S-blossom, relabel as T-blossom, use for augmentation
		{7, []WEdge{{1, 2, 9}, {1, 3, 8}, {2, 3, 10}, {1, 4, 5}, {4, 5, 4}, {1, 6, 3}}, 17},
		{7, []WEdge{{1, 2, 9}, {1, 3, 8}, {2, 3, 10}, {1, 4, 5}, {4, 5, 3}, {1, 6, 4}}, 17},
		{7, []WEdge{{1, 2, 9}, {1, 3, 8}, {2, 3, 10}, {1, 4, 5}, {4, 5, 3}, {3, 6, 4}}, 16},
		// create nested S-blossom, use for augmentation (optimum 1-3, 2-4, 5-6)
		{9, []WEdge{{1, 2, 9}, {1, 3, 9}, {2, 3, 10}, {2, 4, 8}, {3, 5, 8}, {4, 5, 10}, {5, 6, 6}}, 23},
		// create S-blossom, relabel as S, include in nested S-blossom
		{9, []WEdge{{1, 2, 10}, {1, 7, 10}, {2, 3, 12}, {3, 4, 20}, {3, 5, 20}, {4, 5, 25}, {5, 6, 10}, {6, 7, 10}, {7, 8, 8}}, 48},
		// again, but slightly different expanding order
		{12, []WEdge{{1, 2, 8}, {1, 3, 8}, {2, 3, 10}, {2, 4, 12}, {3, 5, 12}, {4, 5, 14}, {4, 6, 12}, {5, 7, 12}, {6, 7, 14}, {7, 8, 12}}, 44},
		// create nested S-blossom, relabel as T, expand
		{9, []WEdge{{1, 2, 19}, {1, 3, 20}, {1, 8, 8}, {2, 3, 25}, {2, 4, 18}, {3, 5, 18}, {4, 5, 13}, {4, 7, 7}, {5, 6, 7}}, 47},
		// create nested S-blossom, augment, expand recursively
		{11, []WEdge{{1, 2, 8}, {1, 3, 8}, {2, 3, 10}, {2, 4, 12}, {3, 5, 12}, {4, 5, 14}, {4, 6, 12}, {5, 7, 12}, {6, 7, 14}, {7, 8, 12}, {5, 9, 9}, {6, 10, 7}}, 48},
	}
	for ci, c := range cases {
		mate, w := MaxWeightMatching(c.n, c.edges, false)
		if w != c.want {
			t.Errorf("case %d: weight %d, want %d (mate %v)", ci, w, c.want, mate)
		}
		// Sanity: mate is symmetric.
		for v, u := range mate {
			if u >= 0 && mate[u] != int32(v) {
				t.Errorf("case %d: mate not symmetric at %d", ci, v)
			}
		}
	}
}

func TestBlossomNegativeBehaviour(t *testing.T) {
	// Zero-weight edges are never forced (weights here are >= 0 in the
	// repo, but the solver must not match worthless edges when better
	// options exist).
	_, w := MaxWeightMatching(4, []WEdge{{0, 1, 0}, {1, 2, 6}, {2, 3, 0}}, false)
	if w != 6 {
		t.Fatalf("w=%d, want 6", w)
	}
}

func TestBlossomAgainstBruteForceRandom(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 4 + r.Intn(6) // 4..9 vertices
		maxM := n * (n - 1) / 2
		m := 3 + r.Intn(maxM-2)
		g := graph.GNM(n, m, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 20}, seed+77)
		// Integerize weights for exactness.
		ig := graph.New(n)
		for _, e := range g.Edges() {
			ig.MustAddEdge(int(e.U), int(e.V), math.Ceil(e.W))
		}
		_, got := MaxWeightMatchingFloat(ig, false)
		want := bruteForceMWM(ig)
		return math.Abs(got-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestBlossomMaxCardAgainstBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 4 + r.Intn(5)
		m := 3 + r.Intn(8)
		g := graph.GNM(n, m, graph.WeightConfig{Mode: graph.UnitWeights}, seed+177)
		edges := make([]WEdge, g.M())
		for i, e := range g.Edges() {
			edges[i] = WEdge{e.U, e.V, 1}
		}
		mate, _ := MaxWeightMatching(n, edges, true)
		card := 0
		for v, u := range mate {
			if u >= 0 && int32(v) < u {
				card++
			}
		}
		return card == bruteForceMaxCard(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBlossomFloatRecoversPlanted(t *testing.T) {
	g, planted := graph.PlantedMatching(40, 100, 100, 2, 55)
	m, w := MaxWeightMatchingFloat(g, false)
	if w < planted {
		t.Fatalf("exact solver found %f < planted %f", w, planted)
	}
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Weight(g)-w) > 1e-6 {
		t.Fatalf("reported weight %f != matching weight %f", w, m.Weight(g))
	}
}

func TestBlossomParallelEdges(t *testing.T) {
	// The matched pair's heaviest edge is reported, and among equally
	// heavy ones the first index wins. The second instance lists its
	// parallel edges in both orientations.
	for _, c := range []struct {
		n     int
		edges [][3]float64
		want  []int
		w     float64
	}{
		{2, [][3]float64{{0, 1, 3}, {0, 1, 7}}, []int{1}, 7},
		{5, [][3]float64{
			{1, 0, 4}, // 0
			{2, 3, 6}, // 1: first of the heaviest on (2,3)
			{0, 1, 9}, // 2: first of the heaviest on (0,1)
			{3, 2, 6}, // 3
			{0, 1, 9}, // 4
			{2, 3, 5}, // 5
			{3, 4, 1}, // 6
		}, []int{2, 1}, 15},
	} {
		g := graph.New(c.n)
		for _, e := range c.edges {
			g.MustAddEdge(int(e[0]), int(e[1]), e[2])
		}
		m, w := MaxWeightMatchingFloat(g, false)
		if !slices.Equal(m.EdgeIdx, c.want) || w != c.w {
			t.Fatalf("n=%d: picked edges %v (weight %v), want %v (weight %v)", c.n, m.EdgeIdx, w, c.want, c.w)
		}
	}
}

func TestBlossomLargerRandomConsistency(t *testing.T) {
	// On a moderate instance the exact weight must dominate greedy.
	g := graph.GNM(120, 1200, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 50}, 66)
	_, exact := MaxWeightMatchingFloat(g, false)
	greedy := Greedy(g).Weight(g)
	if exact < greedy-1e-6 {
		t.Fatalf("exact %f < greedy %f", exact, greedy)
	}
	if greedy < exact/2-1e-6 {
		t.Fatalf("greedy %f below half of exact %f", greedy, exact)
	}
}
