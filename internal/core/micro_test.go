package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Direct MicroOracle (Algorithm 5) tests: drive the oracle with synthetic
// supports and verify the three-way case split and the part (i) witness.

func unitWHat(k int) float64 { return math.Pow(1.25, float64(k)) }

func microFromGraph(g *graph.Graph, level int, w float64, zeta map[rowKey]float64, rho, beta, eps float64) microInput {
	var edges []supportEdge
	for i, e := range g.Edges() {
		edges = append(edges, supportEdge{u: e.U, v: e.V, k: level, w: w, origIdx: i})
	}
	maxNorm := int(math.Ceil(4 / eps))
	return microInput{
		edges: edges, zeta: rowVals(zeta), rho: rho, beta: beta, eps: eps,
		bOf:  func(int) int { return 1 },
		wHat: unitWHat, nLevels: level + 1, maxNorm: maxNorm,
	}
}

// rowVals lists a rowKey-indexed map in ascending (v, k) order, the
// form microInput.zeta takes.
func rowVals(m map[rowKey]float64) []rowVal {
	var out []rowVal
	for _, rk := range sortedRowKeys(m) {
		out = append(out, rowVal{rk, m[rk]})
	}
	return out
}

func TestMicroZeroGammaReturnsZero(t *testing.T) {
	// Heavy ζ makes γ <= 0: the zero answer satisfies LagInner trivially.
	g := graph.TriangleChain(1)
	zeta := map[rowKey]float64{}
	for v := int32(0); v < 3; v++ {
		zeta[rowKey{v, 0}] = 100
	}
	in := microFromGraph(g, 0, 1, zeta, 1, 10, 0.25)
	res := runMicroOracle(in)
	if res.matchingWitness || !res.answer.isZero() {
		t.Fatalf("expected zero answer, got witness=%v answer=%+v", res.matchingWitness, res.answer)
	}
	if res.gamma > 0 {
		t.Fatalf("gamma %f should be <= 0", res.gamma)
	}
}

func TestMicroSmallBetaTriggersVertexPay(t *testing.T) {
	// Tiny β makes the vertex thresholds γ·b·ŵ/β huge... inverted: tiny β
	// RAISES the threshold, so nothing pays; LARGE β makes violations
	// easy. With large β the oracle should return an x-type answer.
	g := graph.GNM(12, 40, graph.WeightConfig{Mode: graph.UnitWeights}, 5)
	in := microFromGraph(g, 0, 1, nil, 1e-6, 1e9, 0.25)
	res := runMicroOracle(in)
	if res.matchingWitness {
		t.Fatal("witness with huge beta")
	}
	if len(res.answer.xEntries) == 0 {
		t.Fatal("expected x-type answer with huge beta")
	}
	// Answer must respect the P_i box: x_i(k) <= 24/eps... loosely check
	// positivity and finiteness.
	for _, xe := range res.answer.xEntries {
		if !(xe.val > 0) || math.IsInf(xe.val, 0) {
			t.Fatalf("bad x value %v", xe.val)
		}
	}
}

func TestMicroPartIWitnessOnMatchableSupport(t *testing.T) {
	// A perfect-matching-rich support with small β: no vertex or odd-set
	// pays, so the oracle must return part (i) with a feasible LP7
	// witness.
	g := graph.GNM(20, 60, graph.WeightConfig{Mode: graph.UnitWeights}, 7)
	in := microFromGraph(g, 0, 1, nil, 1, 1e-3, 0.25)
	res := runMicroOracle(in)
	if !res.matchingWitness {
		t.Fatalf("expected part (i); got answer with %d x / %d z entries",
			len(res.answer.xEntries), len(res.answer.zEntries))
	}
	if res.witness == nil {
		t.Fatal("witness not constructed")
	}
	if msg := checkLP7(in, res.witness, 1e-9); msg != "" {
		t.Fatalf("LP7 witness infeasible: %s", msg)
	}
}

func TestMicroWitnessObjectiveScalesWithBeta(t *testing.T) {
	g := graph.GNM(16, 50, graph.WeightConfig{Mode: graph.UnitWeights}, 9)
	for _, beta := range []float64{1e-3, 1e-2} {
		in := microFromGraph(g, 0, 1, nil, 1, beta, 0.25)
		res := runMicroOracle(in)
		if !res.matchingWitness || res.witness == nil {
			t.Fatalf("beta=%g: no witness", beta)
		}
		if msg := checkLP7(in, res.witness, 1e-9); msg != "" {
			t.Fatalf("beta=%g: %s", beta, msg)
		}
	}
}

func TestMicroOddSetPayOnTriangles(t *testing.T) {
	// Heavy triangles with moderate β: vertices should not pay (their
	// thresholds are met) but the odd sets should — producing z entries.
	// Construct: each triangle's edges carry large uˢ while β is sized so
	// vertex deltas stay under γ·b·ŵ/β but triangle density exceeds the
	// Eq. 4 threshold. We scan β to find the z-producing regime and then
	// validate the answer's structure.
	g := graph.TriangleChain(4)
	found := false
	for _, beta := range []float64{0.5, 1, 2, 4, 8, 16} {
		in := microFromGraph(g, 0, 1, nil, 1, beta, 0.25)
		res := runMicroOracle(in)
		if len(res.answer.zEntries) > 0 {
			found = true
			for _, ze := range res.answer.zEntries {
				if len(ze.members)%2 == 0 {
					t.Fatalf("even-size z set: %v", ze.members)
				}
				if !(ze.val > 0) {
					t.Fatalf("non-positive z value")
				}
			}
			break
		}
	}
	if !found {
		t.Skip("no β in the scan produced a z answer on this instance (vertex pay dominates)")
	}
}

func TestMicroDeterministic(t *testing.T) {
	g := graph.GNM(14, 40, graph.WeightConfig{Mode: graph.UnitWeights}, 11)
	in := microFromGraph(g, 0, 1, nil, 0.7, 3, 0.25)
	a := runMicroOracle(in)
	b := runMicroOracle(in)
	if a.matchingWitness != b.matchingWitness || len(a.answer.xEntries) != len(b.answer.xEntries) ||
		len(a.answer.zEntries) != len(b.answer.zEntries) {
		t.Fatal("MicroOracle nondeterministic")
	}
}

func TestEnumerateOddSubsets(t *testing.T) {
	vs := []int32{0, 1, 2, 3, 4}
	count := 0
	enumerateOddSubsets(vs, func(int) int { return 1 }, 5, func(set []int32) bool {
		count++
		return true
	})
	if count != 11 { // C(5,3)+C(5,5)
		t.Fatalf("count %d, want 11", count)
	}
	// Early stop.
	count = 0
	enumerateOddSubsets(vs, func(int) int { return 1 }, 5, func([]int32) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop failed: %d", count)
	}
}

func TestMicroRandomizedInvariants(t *testing.T) {
	// Across random supports and parameters: answers are non-negative,
	// witnesses are LP7-feasible, x answers respect b·x <= β (Q̃(β)).
	r := xrand.New(13)
	for trial := 0; trial < 30; trial++ {
		n := 8 + r.Intn(10)
		m := 10 + r.Intn(30)
		g := graph.GNM(n, m, graph.WeightConfig{Mode: graph.UnitWeights}, uint64(trial)+100)
		beta := math.Pow(10, -2+4*r.Float64())
		rho := math.Pow(10, -1+2*r.Float64())
		in := microFromGraph(g, 0, 1, nil, rho, beta, 0.25)
		res := runMicroOracle(in)
		if res.matchingWitness {
			if res.witness == nil {
				t.Fatalf("trial %d: witness flag without data", trial)
			}
			if msg := checkLP7(in, res.witness, 1e-9); msg != "" {
				t.Fatalf("trial %d: %s", trial, msg)
			}
			continue
		}
		bx := 0.0
		maxPerVertex := map[int32]float64{}
		for _, xe := range res.answer.xEntries {
			if xe.val < 0 {
				t.Fatalf("trial %d: negative x", trial)
			}
			if xe.val > maxPerVertex[xe.v] {
				maxPerVertex[xe.v] = xe.val
			}
		}
		for _, xv := range maxPerVertex {
			bx += xv
		}
		if bx > beta*(1+1e-9) && len(res.answer.xEntries) > 0 {
			t.Fatalf("trial %d: b·x = %f exceeds beta %f", trial, bx, beta)
		}
	}
}
