package core

import (
	"testing"

	"repro/internal/graph"
)

// TestMiniOracleAllocs bounds one runMiniOracle call on a warm
// oracleScratch (GNM n=40 m=160 over three levels, non-uniform uˢ) at
// two β: one where the packing loop returns an answer and one where
// the support certifies a matching through the LP7 witness branch.
// The map-keyed scratch measured 8 and 2685 allocations respectively.
// What remains is the packing framework's own state and, on the
// witness path, the odd-set heuristic's working sets (nearly all of
// the 2685) and the witness itself, which are deliberately fresh.
func TestMiniOracleAllocs(t *testing.T) {
	prof := Practical(0.25)
	bOf := func(int) int { return 1 }
	g := graph.GNM(40, 160, graph.WeightConfig{Mode: graph.UnitWeights}, 11)
	var edges []supportEdge
	for i, e := range g.Edges() {
		edges = append(edges, supportEdge{u: e.U, v: e.V, k: i % 3, w: 1 + float64(i%5)/4, origIdx: i})
	}
	for _, tc := range []struct {
		beta    float64
		witness bool
		max     float64
	}{
		{40, false, 2},
		{8, true, 2685},
	} {
		sc := newOracleScratch()
		call := func() miniResult { return runMiniOracle(edges, tc.beta, 0.25, prof, bOf, unitWHat, 3, 7, sc) }
		if res := call(); res.matchingWitness != tc.witness {
			t.Fatalf("beta %v: witness %v, want %v", tc.beta, res.matchingWitness, tc.witness)
		}
		got := testing.AllocsPerRun(20, func() { call() })
		t.Logf("beta %v: allocs per warm call: %v", tc.beta, got)
		if got > tc.max {
			t.Errorf("beta %v: warm runMiniOracle allocates %v times, want <= %v", tc.beta, got, tc.max)
		}
	}
}
