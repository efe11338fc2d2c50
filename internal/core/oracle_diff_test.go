package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Differential tests: the flat (vertex, level) grid oracles against the
// verbatim map-keyed reference in legacy_oracle_test.go. γ, the answers
// and the LP7 witness must agree bit for bit on random supports that
// exercise several levels, non-unit capacities, ζ rows without support
// mass, zero ζ̄ rows and every branch of Algorithm 5.

// diffCase is one random oracle instance.
type diffCase struct {
	edges   []supportEdge
	zeta    map[rowKey]float64
	b       []int
	nLevels int
}

func (c *diffCase) bOf(v int) int {
	if v < len(c.b) {
		return c.b[v]
	}
	return 1
}

// randomDiffCase draws a support on n vertices with edges spread over
// nLevels levels. Some edges carry zero weight (their rows have s = 0,
// so ζ̄ = 0 there); ζ covers a random subset of the support rows plus
// rows off the support — at support vertices on idle levels and at
// vertices past the support's range — and some ζ values are exactly 0.
func randomDiffCase(r *xrand.RNG, n, m, nLevels int, unitB bool) *diffCase {
	c := &diffCase{nLevels: nLevels}
	for i := 0; i < m; i++ {
		u := int32(r.Intn(n))
		v := int32(r.Intn(n - 1))
		if v >= u {
			v++
		}
		w := 0.05 + 2*r.Float64()
		if r.Bernoulli(0.05) {
			w = 0
		}
		c.edges = append(c.edges, supportEdge{u: u, v: v, k: r.Intn(nLevels), w: w, origIdx: i})
	}
	c.fill(r, n, unitB)
	return c
}

// triangleDiffCase is a chain of dense triangles: the odd-set regime of
// Algorithm 5 (dense odd sets pay while vertices do not).
func triangleDiffCase(r *xrand.RNG, triangles, nLevels int, unitB bool) *diffCase {
	c := &diffCase{nLevels: nLevels}
	k, w := r.Intn(nLevels), 0.5+3*r.Float64()
	for i, e := range graph.TriangleChain(triangles).Edges() {
		if r.Bernoulli(0.2) {
			k = r.Intn(nLevels)
		}
		c.edges = append(c.edges, supportEdge{u: e.U, v: e.V, k: k, w: w, origIdx: i})
	}
	c.fill(r, 3*triangles, unitB)
	return c
}

// fill draws the capacities and ζ for a support on n vertices.
func (c *diffCase) fill(r *xrand.RNG, n int, unitB bool) {
	c.zeta = map[rowKey]float64{}
	c.b = make([]int, n+4)
	for v := range c.b {
		c.b[v] = 1
		if !unitB {
			c.b[v] = 1 + r.Intn(3)
		}
	}
	for _, e := range c.edges {
		for _, v := range [2]int32{e.u, e.v} {
			if r.Bernoulli(0.4) {
				c.zeta[rowKey{v, e.k}] = r.Float64()
			}
		}
	}
	for i := 0; i < 1+n/4; i++ {
		v := int32(r.Intn(n + 4)) // may lie past every support vertex
		val := r.Float64()
		if r.Bernoulli(0.2) {
			val = 0
		}
		c.zeta[rowKey{v, r.Intn(c.nLevels)}] = val
	}
}

func (c *diffCase) inputs(rho, beta, eps float64, noOdd bool) (microInput, legacyMicroInput) {
	maxNorm := int(math.Ceil(4 / eps))
	in := microInput{
		edges: c.edges, zeta: rowVals(c.zeta), rho: rho, beta: beta, eps: eps,
		bOf: c.bOf, wHat: unitWHat, nLevels: c.nLevels, maxNorm: maxNorm, noOdd: noOdd,
	}
	legacy := legacyMicroInput{
		edges: c.edges, zeta: c.zeta, rho: rho, beta: beta, eps: eps,
		bOf: c.bOf, wHat: unitWHat, nLevels: c.nLevels, maxNorm: maxNorm, noOdd: noOdd,
	}
	return in, legacy
}

// microMatchesLegacy reports the first difference between a grid and a
// legacy MicroOracle result, or "".
func microMatchesLegacy(got microResult, want legacyMicroResult) string {
	if math.Float64bits(got.gamma) != math.Float64bits(want.gamma) {
		return "gamma differs"
	}
	if got.matchingWitness != want.matchingWitness {
		return "witness flag differs"
	}
	if !answersEqual(&got.answer, &want.answer) {
		return "answer differs"
	}
	if (got.witness == nil) != (want.witness == nil) {
		return "witness presence differs"
	}
	if got.witness == nil {
		return ""
	}
	gw, ww := got.witness, want.witness
	if math.Float64bits(gw.beta) != math.Float64bits(ww.beta) ||
		math.Float64bits(gw.gamma) != math.Float64bits(ww.gamma) || len(gw.y) != len(ww.y) {
		return "witness header differs"
	}
	for i := range gw.y {
		if math.Float64bits(gw.y[i]) != math.Float64bits(ww.y[i]) {
			return "witness y differs"
		}
	}
	if len(gw.mu) != len(ww.mu) {
		return "witness mu size differs"
	}
	for i, m := range gw.mu {
		if i > 0 && !rowLess(gw.mu[i-1].rowKey, m.rowKey) {
			return "witness mu not in (v, k) order"
		}
		if v, ok := ww.mu[m.rowKey]; !ok || math.Float64bits(v) != math.Float64bits(m.val) {
			return "witness mu differs"
		}
	}
	return ""
}

func rowLess(a, b rowKey) bool { return a.v < b.v || a.v == b.v && a.k < b.k }

// TestMicroOracleMatchesLegacy drives both MicroOracles over random
// instances, cold and through one shared scratch each (so grid shapes
// change between calls), and requires every branch of Algorithm 5 to
// be exercised.
func TestMicroOracleMatchesLegacy(t *testing.T) {
	r := xrand.New(2024)
	sc, lsc := newOracleScratch(), newLegacyScratch()
	branches := map[string]int{}
	for trial := 0; trial < 1000; trial++ {
		nLevels := 1 + r.Intn(5)
		var c *diffCase
		beta := math.Pow(10, -3+5*r.Float64())
		if trial%2 == 1 {
			c = triangleDiffCase(r, 1+r.Intn(5), nLevels, trial%3 == 0)
			beta = math.Pow(10, -1+2*r.Float64())
		} else {
			n := 3 + r.Intn(14)
			c = randomDiffCase(r, n, 2+r.Intn(3*n), nLevels, trial%3 == 0)
		}
		if trial%4 < 2 {
			clear(c.zeta) // ζ-free supports reach the odd-set and witness branches often
		}
		rho := math.Pow(10, -2+2.5*r.Float64())
		in, legacy := c.inputs(rho, beta, 0.25, trial%25 == 7)
		want := legacyRunMicroOracle(legacy, newLegacyScratch())
		if msg := microMatchesLegacy(runMicroOracle(in), want); msg != "" {
			t.Fatalf("trial %d (cold): %s", trial, msg)
		}
		wantWarm := legacyRunMicroOracle(legacy, lsc)
		if msg := microMatchesLegacy(runMicroOracleScratch(in, sc), wantWarm); msg != "" {
			t.Fatalf("trial %d (shared scratch): %s", trial, msg)
		}
		switch {
		case want.gamma <= 0:
			branches["gamma<=0"]++
		case len(want.answer.xEntries) > 0:
			branches["vertex pay"]++
		case len(want.answer.zEntries) > 0:
			branches["odd-set pay"]++
		case want.witness != nil:
			branches["LP7 witness"]++
		case want.matchingWitness:
			branches["no-odd witness"]++
		}
	}
	t.Logf("branches: %v", branches)
	for _, b := range []string{"gamma<=0", "vertex pay", "odd-set pay", "LP7 witness", "no-odd witness"} {
		if branches[b] == 0 {
			t.Errorf("branch %q never exercised (%v)", b, branches)
		}
	}
}

// TestMiniOracleMatchesLegacy runs the full inner loop — packing
// iterations, the ϱ binary search, answer averaging — on both row
// layouts over random multi-level supports with non-unit capacities.
func TestMiniOracleMatchesLegacy(t *testing.T) {
	prof := Practical(0.25)
	r := xrand.New(77)
	sc, lsc := newOracleScratch(), newLegacyScratch()
	witnesses, answers, searches := 0, 0, 0
	for trial := 0; trial < 150; trial++ {
		n := 4 + r.Intn(20)
		c := randomDiffCase(r, n, 3+r.Intn(4*n), 1+r.Intn(4), trial%2 == 0)
		beta := math.Pow(10, -1+3*r.Float64())
		maxNorm := 3 + 2*r.Intn(3)
		for _, pair := range []struct {
			sc  *oracleScratch
			lsc *legacyScratch
		}{{nil, nil}, {sc, lsc}} {
			got := runMiniOracle(c.edges, beta, 0.25, prof, c.bOf, unitWHat, c.nLevels, maxNorm, pair.sc)
			want := legacyRunMiniOracle(c.edges, beta, 0.25, prof, c.bOf, unitWHat, c.nLevels, maxNorm, pair.lsc)
			if got.matchingWitness != want.matchingWitness || got.microCalls != want.microCalls ||
				got.packIters != want.packIters {
				t.Fatalf("trial %d: trajectory {w:%v micro:%d pack:%d}, legacy {w:%v micro:%d pack:%d}",
					trial, got.matchingWitness, got.microCalls, got.packIters,
					want.matchingWitness, want.microCalls, want.packIters)
			}
			if !answersEqual(&got.answer, &want.answer) {
				t.Fatalf("trial %d: answer differs from legacy", trial)
			}
			if pair.sc == nil && want.microCalls > want.packIters+1 {
				searches++ // some packing step ran the ϱ binary search
			}
			if pair.sc == nil && want.matchingWitness {
				witnesses++
			} else if pair.sc == nil && !want.answer.isZero() {
				answers++
			}
		}
	}
	t.Logf("%d witnesses, %d non-zero answers, %d with a ϱ search", witnesses, answers, searches)
	if witnesses == 0 || answers == 0 || searches == 0 {
		t.Fatalf("want witnesses, non-zero answers and ϱ searches all exercised")
	}
}
