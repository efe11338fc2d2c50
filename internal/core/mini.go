package core

import (
	"repro/internal/pack"
)

// MiniOracle — Theorem 4. Solves Sparse for one refined deferred
// sparsifier: find x̃ with
//
//	(uˢ)ᵀAx̃ >= (1-ε/8)(uˢ)ᵀc,  P_o x̃ <= 2q_o,  G(uˢ,x̃),  Q̃(β)
//
// by running the fractional packing framework (Theorem 7 / Corollary 8)
// over the P_o rows, with Oracle-P implemented from the MicroOracle via
// the ϱ binary search of Lemma 10. The returned answer mirrors the
// packing framework's own averaging exactly (via pack.Options.OnAccept),
// so the P_o bounds proved for the framework's x apply verbatim to it.
type miniResult struct {
	matchingWitness bool
	answer          oracleAnswer
	microCalls      int
	packIters       int
}

// answerAccum mirrors x ← (1-σ)x + σx̃ over sparse answers with a global
// scale factor. Its containers come from the scratch (entries are value
// copies; the member slices inside zEntries stay owned by their fresh
// allocations), so the growth across a packing run is retained for the
// next oracle use.
type answerAccum struct {
	scale float64
	acc   oracleAnswer
	sc    *oracleScratch
}

func newAnswerAccum(first *oracleAnswer, sc *oracleScratch) *answerAccum {
	a := &answerAccum{scale: 1, sc: sc}
	a.acc.xEntries = append(sc.accX[:0], first.xEntries...)
	a.acc.zEntries = append(sc.accZ[:0], first.zEntries...)
	return a
}

func (a *answerAccum) step(sigma float64, ans *oracleAnswer) {
	a.scale *= 1 - sigma
	inv := sigma / a.scale
	for _, xe := range ans.xEntries {
		a.acc.xEntries = append(a.acc.xEntries, xEntry{xe.v, xe.k, xe.val * inv})
	}
	for _, ze := range ans.zEntries {
		a.acc.zEntries = append(a.acc.zEntries, zEntry{ze.members, ze.level, ze.val * inv})
	}
}

func (a *answerAccum) final() oracleAnswer {
	// Retain the grown backing for the scratch's next accumulator; the
	// final answer is consumed (copied into the dual state) before the
	// next MiniOracle call reuses either buffer.
	a.sc.accX, a.sc.accZ = a.acc.xEntries, a.acc.zEntries
	out := oracleAnswer{xEntries: a.sc.finX[:0], zEntries: a.sc.finZ[:0]}
	for _, xe := range a.acc.xEntries {
		out.xEntries = append(out.xEntries, xEntry{xe.v, xe.k, xe.val * a.scale})
	}
	for _, ze := range a.acc.zEntries {
		out.zEntries = append(out.zEntries, zEntry{ze.members, ze.level, ze.val * a.scale})
	}
	a.sc.finX, a.sc.finZ = out.xEntries, out.zEntries
	return out
}

// runMiniOracle executes the inner loop for a support. sc supplies the
// retained scratch of the sequential oracle loop; nil allocates a fresh
// one (the cold path, bit-identical by the scratch contract).
func runMiniOracle(edges []supportEdge, beta, eps float64, prof Profile,
	bOf func(v int) int, wHat func(k int) float64, nLevels, maxNorm int,
	sc *oracleScratch) miniResult {

	if sc == nil {
		sc = newOracleScratch()
	}
	sc.beginMini()
	res := miniResult{}
	if len(edges) == 0 {
		return res
	}
	// P_o rows: (i,k) pairs with incident support edges; q_o = 3ŵ_k.
	// The row structure is built once per support and shared with every
	// MicroOracle call below.
	sc.buildRows(edges, wHat, nLevels)
	rows := sc.rows
	// Row values of an answer: (2x_i(k) + Σ_{ℓ<=k} Σ_{U∋i} z_{U,ℓ}) / 3ŵ_k.
	rowValues := func(ans *oracleAnswer) []float64 {
		rv := sc.f64s.get(len(rows))
		for _, xe := range ans.xEntries {
			if ri := sc.rowOf(rowKey{xe.v, xe.k}); ri >= 0 {
				rv[ri] += 2 * xe.val
			}
		}
		for _, ze := range ans.zEntries {
			for _, m := range ze.members {
				for _, ri := range sc.vertexRows(m) {
					if rows[ri].k >= ze.level {
						rv[ri] += ze.val
					}
				}
			}
		}
		for ri := range rows {
			rv[ri] /= sc.den[ri]
		}
		return rv
	}
	usC := sc.usC

	var accum *answerAccum
	var pending oracleAnswer

	// Oracle-P: Lemma 10's binary search over ϱ.
	oracle := func(z []float64, _ int) ([]float64, bool) {
		// ζ_{i,k} = z_row / (3ŵ_k) (the PST multipliers carry 1/d_r),
		// listed in (v, k) order; zᵀq_o sums in row order.
		zTqo := 0.0
		for ri := range rows {
			if z[ri] > 0 {
				zTqo += z[ri]
			}
		}
		zeta := sc.zeta[:0]
		for _, ri := range sc.byCell {
			if z[ri] > 0 {
				zeta = append(zeta, rowVal{rows[ri], z[ri] / sc.den[ri]})
			}
		}
		sc.zeta = zeta
		if zTqo <= 0 {
			zTqo = 1e-300
		}
		upsilon := (13.0 / 12) * zTqo
		rho0 := 12 * usC / (13 * zTqo)
		call := func(rho float64) (microResult, []float64, float64) {
			res.microCalls++
			mr := microOnRows(microInput{
				edges: edges, zeta: zeta, rho: rho, beta: beta, eps: eps,
				bOf: bOf, wHat: wHat, nLevels: nLevels, maxNorm: maxNorm,
				noOdd: prof.DisableOddSets,
			}, sc)
			rv := rowValues(&mr.answer)
			zPo := 0.0
			for ri := range rows {
				zPo += z[ri] * rv[ri]
			}
			return mr, rv, zPo
		}
		rho1 := eps * usC / (16 * zTqo)
		mr, rv, zPo := call(rho1)
		if mr.matchingWitness {
			res.matchingWitness = true
			return nil, false
		}
		if zPo <= upsilon {
			pending = mr.answer
			return rv, true
		}
		// Binary search: lo violates Eq 2 (zᵀP_o x > Υ), hi satisfies.
		lo, hi := rho1, rho0
		loAns, loRv, loZ := mr.answer, rv, zPo
		var hiAns oracleAnswer
		var hiRv []float64
		hiZ := 0.0
		hiSet := false
		for step := 0; step < prof.BinSearchCap && hi-lo > eps*rho0/16; step++ {
			mid := (lo + hi) / 2
			m, mrv, mz := call(mid)
			if m.matchingWitness {
				res.matchingWitness = true
				return nil, false
			}
			if mz <= upsilon {
				hi, hiAns, hiRv, hiZ, hiSet = mid, m.answer, mrv, mz, true
			} else {
				lo, loAns, loRv, loZ = mid, m.answer, mrv, mz
			}
		}
		if !hiSet {
			// ϱ0 makes x = 0 feasible for Eq 1; an all-zero answer
			// trivially satisfies Eq 2.
			m, mrv, mz := call(rho0)
			if m.matchingWitness {
				res.matchingWitness = true
				return nil, false
			}
			hiAns, hiRv, hiZ = m.answer, mrv, mz
			if hiZ > upsilon {
				// Still violating at ϱ0 (numerical corner); fall back to
				// the zero answer.
				hiAns = oracleAnswer{}
				hiRv = sc.f64s.get(len(rows))
				hiZ = 0
			}
		}
		// Convex combination with s1·Υ1 + s2·Υ2 = Υ.
		den := loZ - hiZ
		s1 := 0.0
		if den > 1e-300 {
			s1 = (upsilon - hiZ) / den
		}
		if s1 < 0 {
			s1 = 0
		}
		if s1 > 1 {
			s1 = 1
		}
		s2 := 1 - s1
		pending = combineAnswers(&loAns, s1, &hiAns, s2, sc)
		crv := sc.f64s.get(len(rows))
		for ri := range rows {
			crv[ri] = s1*loRv[ri] + s2*hiRv[ri]
		}
		return crv, true
	}

	// First oracle call provides the packing framework's initial x0.
	firstRv, ok := oracle(uniform(len(rows), sc), 0)
	if !ok {
		return res
	}
	accum = newAnswerAccum(&pending, sc)
	pres, err := pack.Solve(firstRv, oracle, pack.Options{
		Delta:    eps / 6,
		RhoPrime: prof.InnerRho(eps),
		MaxIters: prof.InnerIterCap,
		OnAccept: func(_ int, sigma float64) { accum.step(sigma, &pending) },
	})
	if err != nil {
		return res
	}
	res.packIters = pres.Iters + 1
	if res.matchingWitness {
		return res
	}
	res.answer = accum.final()
	return res
}

func uniform(n int, sc *oracleScratch) []float64 {
	u := sc.f64s.get(n)
	for i := range u {
		u[i] = 1
	}
	return u
}

// combineAnswers returns s1·a + s2·b in the scratch's combination
// buffers — one combined answer is alive at a time (the packing loop
// consumes it via OnAccept before the next oracle invocation).
func combineAnswers(a *oracleAnswer, s1 float64, b *oracleAnswer, s2 float64, sc *oracleScratch) oracleAnswer {
	out := oracleAnswer{xEntries: sc.combX[:0], zEntries: sc.combZ[:0]}
	if s1 > 0 {
		for _, xe := range a.xEntries {
			out.xEntries = append(out.xEntries, xEntry{xe.v, xe.k, xe.val * s1})
		}
		for _, ze := range a.zEntries {
			out.zEntries = append(out.zEntries, zEntry{ze.members, ze.level, ze.val * s1})
		}
	}
	if s2 > 0 {
		for _, xe := range b.xEntries {
			out.xEntries = append(out.xEntries, xEntry{xe.v, xe.k, xe.val * s2})
		}
		for _, ze := range b.zEntries {
			out.zEntries = append(out.zEntries, zEntry{ze.members, ze.level, ze.val * s2})
		}
	}
	sc.combX, sc.combZ = out.xEntries, out.zEntries
	return out
}
