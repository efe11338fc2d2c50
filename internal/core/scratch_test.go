package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// Determinism pinning for the retained oracle scratch: everything the
// scratch recycles must leave results bit-identical to cold allocation,
// including across calls of different shapes (the dangerous path — a
// stale entry from a larger previous call leaking into a smaller one).

// answersEqual compares oracle answers entry-wise at the bit level
// (reused buffers differ from cold nil slices only in capacity, which
// reflect.DeepEqual would misreport as a difference for empty answers).
func answersEqual(a, b *oracleAnswer) bool {
	if len(a.xEntries) != len(b.xEntries) || len(a.zEntries) != len(b.zEntries) {
		return false
	}
	for i := range a.xEntries {
		x, y := a.xEntries[i], b.xEntries[i]
		if x.v != y.v || x.k != y.k || math.Float64bits(x.val) != math.Float64bits(y.val) {
			return false
		}
	}
	for i := range a.zEntries {
		x, y := a.zEntries[i], b.zEntries[i]
		if x.level != y.level || math.Float64bits(x.val) != math.Float64bits(y.val) ||
			len(x.members) != len(y.members) {
			return false
		}
		for j := range x.members {
			if x.members[j] != y.members[j] {
				return false
			}
		}
	}
	return true
}

// TestMicroOracleScratchReuseBitIdentical drives the micro oracle
// through heterogeneous inputs — different graphs, levels, and case
// branches — twice each: cold (fresh scratch) and through one shared
// scratch. Every pair must agree bit-for-bit.
func TestMicroOracleScratchReuseBitIdentical(t *testing.T) {
	sc := newOracleScratch()
	cases := []struct {
		g         *graph.Graph
		level     int
		rho, beta float64
	}{
		{graph.GNM(12, 40, graph.WeightConfig{Mode: graph.UnitWeights}, 5), 0, 1e-6, 1e9},
		{graph.TriangleChain(3), 2, 0.5, 4},
		{graph.GNM(30, 90, graph.WeightConfig{Mode: graph.UnitWeights}, 7), 1, 0.05, 2},
		{graph.TriangleChain(1), 0, 1, 10},
		{graph.GNM(8, 12, graph.WeightConfig{Mode: graph.UnitWeights}, 9), 0, 0.2, 1},
	}
	for ci, tc := range cases {
		in := microFromGraph(tc.g, tc.level, 1, nil, tc.rho, tc.beta, 0.25)
		cold := runMicroOracle(in)
		warm := runMicroOracleScratch(in, sc)
		if cold.matchingWitness != warm.matchingWitness {
			t.Fatalf("case %d: witness %v != %v", ci, warm.matchingWitness, cold.matchingWitness)
		}
		if math.Float64bits(cold.gamma) != math.Float64bits(warm.gamma) {
			t.Fatalf("case %d: gamma %v != %v", ci, warm.gamma, cold.gamma)
		}
		if !answersEqual(&cold.answer, &warm.answer) {
			t.Fatalf("case %d: scratch-reuse answer differs from cold answer", ci)
		}
	}
}

// TestMiniOracleScratchReuseBitIdentical runs the full inner loop —
// packing iterations, ϱ binary search, answer averaging — with a shared
// scratch across supports of different shapes and checks each run
// against a cold (nil-scratch) run.
func TestMiniOracleScratchReuseBitIdentical(t *testing.T) {
	prof := Practical(0.25)
	bOf := func(int) int { return 1 }
	sc := newOracleScratch()
	graphs := []*graph.Graph{
		graph.GNM(20, 60, graph.WeightConfig{Mode: graph.UnitWeights}, 11),
		graph.TriangleChain(4),
		graph.GNM(8, 10, graph.WeightConfig{Mode: graph.UnitWeights}, 13),
	}
	for gi, g := range graphs {
		var edges []supportEdge
		for i, e := range g.Edges() {
			edges = append(edges, supportEdge{u: e.U, v: e.V, k: i % 2, w: 1, origIdx: i})
		}
		for _, beta := range []float64{0.5, 4, 50} {
			cold := runMiniOracle(edges, beta, 0.25, prof, bOf, unitWHat, 2, 7, nil)
			warm := runMiniOracle(edges, beta, 0.25, prof, bOf, unitWHat, 2, 7, sc)
			if cold.matchingWitness != warm.matchingWitness ||
				cold.microCalls != warm.microCalls || cold.packIters != warm.packIters {
				t.Fatalf("graph %d beta %v: trajectory differs: cold={w:%v micro:%d pack:%d} warm={w:%v micro:%d pack:%d}",
					gi, beta, cold.matchingWitness, cold.microCalls, cold.packIters,
					warm.matchingWitness, warm.microCalls, warm.packIters)
			}
			if !answersEqual(&cold.answer, &warm.answer) {
				t.Fatalf("graph %d beta %v: scratch-reuse answer differs from cold answer", gi, beta)
			}
		}
	}
}

// TestOracleScratchRetainedWordsExact holds retainedWords to a
// reflection walk over every slice the scratch owns — the row grids,
// per-row and per-vertex buffers, pool spines and pooled buffers — so
// a buffer added to the scratch without being counted fails here.
func TestOracleScratchRetainedWordsExact(t *testing.T) {
	prof := Practical(0.25)
	bOf := func(v int) int { return 1 + v%2 }
	sc := newOracleScratch()
	if got := sc.retainedWords(); got != 0 {
		t.Fatalf("fresh scratch retains %d words", got)
	}
	for gi, g := range []*graph.Graph{
		graph.GNM(20, 60, graph.WeightConfig{Mode: graph.UnitWeights}, 11),
		graph.TriangleChain(4),
	} {
		var edges []supportEdge
		for i, e := range g.Edges() {
			edges = append(edges, supportEdge{u: e.U, v: e.V, k: i % 3, w: 1, origIdx: i})
		}
		sc.perLevel = resizeRows(sc.perLevel, 2)
		sc.perLevel[gi] = append(sc.perLevel[gi], edges...)
		for _, beta := range []float64{0.5, 4, 50} {
			runMiniOracle(edges, beta, 0.25, prof, bOf, unitWHat, 3, 7, sc)
		}
	}
	want := (scratchBytes(reflect.ValueOf(sc).Elem()) + 7) / 8
	if got := sc.retainedWords(); got != want {
		t.Fatalf("retainedWords = %d, reflection walk says %d", got, want)
	}
}

// scratchBytes sums the backing arrays reachable through v's slices at
// capacity, descending into slices of slices and into struct fields
// (the lent pools) but not into slice elements' own fields — zEntry
// member lists belong to the dual state, not the scratch.
func scratchBytes(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Slice:
		b := v.Cap() * int(v.Type().Elem().Size())
		if v.Type().Elem().Kind() == reflect.Slice {
			for i := 0; i < v.Len(); i++ {
				b += scratchBytes(v.Index(i))
			}
		}
		return b
	case reflect.Struct:
		b := 0
		for i := 0; i < v.NumField(); i++ {
			b += scratchBytes(v.Field(i))
		}
		return b
	}
	return 0
}
