package core

import (
	"sort"

	"repro/internal/oddset"
)

// MicroOracle — Algorithm 5 (part (ii) of the oracle behind Lemma 14).
//
// Given the refined sparsifier weights uˢ (supported on E′), packing
// multipliers ζ_{i,k} on the P_o rows, a Lagrange multiplier ϱ and the
// current dual budget β, it either
//
//   - returns a sparse dual step x̃ = ({x_i(k)}, {z_{U,ℓ}}) satisfying the
//     Lagrangian LagInner together with G(uˢ,x̃) and Q̃(β)   (part ii), or
//   - certifies that the support carries a (1-ε)-sized fractional
//     b-matching witness (LP7)                                (part i).
//
// The logic follows the three-way split of Algorithm 5: violating
// vertices pay (Γ(V) large → x-type answer), violating odd sets pay
// (Γ(Os) large → z-type answer), or nothing pays much and the support is
// itself a large matching witness.

// supportEdge is one refined sparsifier edge.
type supportEdge struct {
	u, v    int32
	k       int     // weight level
	w       float64 // uˢ value (refined multiplier estimate)
	origIdx int     // index into the input graph's edge list
}

// microInput bundles a MicroOracle invocation.
type microInput struct {
	edges   []supportEdge
	zeta    []rowVal // ζ_{i,k} (same scale as uˢ): ascending (v, k), distinct, k < nLevels
	rho     float64  // the Lagrange multiplier ϱ
	beta    float64
	eps     float64
	bOf     func(v int) int
	wHat    func(k int) float64
	nLevels int
	maxNorm int  // 4/ε bound for odd sets
	noOdd   bool // ablation: skip odd-set pricing
}

// rowKey identifies a P_o row (vertex, level).
type rowKey struct {
	v int32
	k int
}

// rowVal is one value on a P_o row — ζ_{i,k} in a microInput, μ_{i,k}
// in an LP7 witness. Lists of them are kept in ascending (v, k) order,
// the canonical iteration order for float accumulations over rows.
type rowVal struct {
	rowKey
	val float64
}

// microResult is the oracle's answer.
type microResult struct {
	// matchingWitness true means part (i): the support certifies a large
	// matching (the caller raises β / extracts a matching offline).
	matchingWitness bool
	// witness is the explicit LP7 solution of Algorithm 5 steps 20-21
	// (set only when matchingWitness is true and the oracle reached the
	// constructive branch — the noOdd ablation short-circuits it).
	witness *lp7Witness
	answer  oracleAnswer
	gamma   float64 // γ of Algorithm 5 step 1 (diagnostics)
}

// lp7Witness is a feasible solution of LP7 over the support: fractional
// edge values y (per support edge, in the order of microInput.edges) and
// vertex slacks μ_{i,k}. By Lemma 13 its existence certifies an integral
// matching of weight >= (1-2ε)β within the support.
type lp7Witness struct {
	y     []float64 // parallel to microInput.edges
	mu    []rowVal  // positive entries only, ascending (v, k)
	beta  float64
	gamma float64
}

// runMicroOracle executes Algorithm 5 with a fresh scratch — the
// direct entry point the tests use; the solver's oracle loop threads
// its retained scratch through runMicroOracleScratch instead.
func runMicroOracle(in microInput) microResult {
	return runMicroOracleScratch(in, newOracleScratch())
}

// runMicroOracleScratch lays in.edges out on the scratch's row grid and
// runs Algorithm 5 on it.
func runMicroOracleScratch(in microInput, sc *oracleScratch) microResult {
	sc.buildRows(in.edges, in.wHat, in.nLevels)
	return microOnRows(in, sc)
}

// microOnRows is Algorithm 5 on the row structure sc already holds for
// in.edges: runMiniOracle builds it once per support and shares it with
// every MicroOracle call on that support. Every float accumulation
// walks rows in ascending (v, k) order (sc.byCell, and in.zeta's own
// order), so the oracle is a pure function of its input — the
// determinism the parallel pipeline's bit-identical contract rests on.
func microOnRows(in microInput, sc *oracleScratch) microResult {
	rows, s := sc.rows, sc.sRow
	nl := sc.nl
	// ζ on the support rows. ζ rows with no support mass stay in
	// in.zeta only: their d is <= 0, so they never join Pos.
	zetaRow := resizeZeroed(sc.zetaRow, len(rows))
	sc.zetaRow = zetaRow
	for _, z := range in.zeta {
		if ri := sc.rowOf(z.rowKey); ri >= 0 {
			zetaRow[ri] = z.val
		}
	}
	// γ = (uˢ)ᵀc - 3ϱ Σ_{i,k} ŵ_k ζ_{i,k}, with s_{i,k} = Σ_j uˢ_{ijk}
	// and (uˢ)ᵀc = Σ_k ŵ_k Σ_{E'_k} uˢ from the row structure.
	gamma := sc.usC
	for _, z := range in.zeta {
		gamma -= 3 * in.rho * in.wHat(z.k) * z.val
	}
	res := microResult{gamma: gamma}
	if gamma <= 0 {
		// Step 1 note: x = 0 satisfies LagInner trivially.
		return res
	}
	// d_{i,k} = s_{i,k} - 2ϱζ_{i,k}; Pos(i) = {k : d_{i,k} > 0}. Rows
	// come in (v, k) order, so each vertex's Pos entries are contiguous:
	// Pos(posVerts[p]) = pos[posStart[p]:posStart[p+1]], ascending k.
	dPos := resizeZeroed(sc.dPos, len(rows))
	sc.dPos = dPos
	pos, posVerts, posStart := sc.pos[:0], sc.posVerts[:0], sc.posStart[:0]
	for _, ri := range sc.byCell {
		rk := rows[ri]
		d := s[ri] - 2*in.rho*zetaRow[ri]
		if d > 0 {
			dPos[ri] = true
			if last := len(posVerts) - 1; last < 0 || posVerts[last] != rk.v {
				posVerts = append(posVerts, rk.v)
				posStart = append(posStart, int32(len(pos)))
			}
			pos = append(pos, posEntry{rk.k, d})
		}
	}
	posStart = append(posStart, int32(len(pos)))
	sc.pos, sc.posVerts, sc.posStart = pos, posVerts, posStart
	posOf := func(p int32) []posEntry { return pos[posStart[p]:posStart[p+1]] }
	// Δ(i,ℓ) = Σ_{k∈Pos(i),k<=ℓ} ŵ_k d_{i,k} + Σ_{k∈Pos(i),k>ℓ} ŵ_ℓ d_{i,k}.
	delta := func(p int32, l int) float64 {
		t := 0.0
		for _, pe := range posOf(p) {
			if pe.k <= l {
				t += in.wHat(pe.k) * pe.d
			} else {
				t += in.wHat(l) * pe.d
			}
		}
		return t
	}
	// k*_i = largest ℓ with Δ(i,ℓ) > γ·b_i·ŵ_ℓ/β (-1 if none); kstar
	// holds k*_i + 1 per vertex, 0 for a vertex that does not violate.
	kstar := resizeZeroed(sc.kstar, sc.nv)
	sc.kstar = kstar
	gammaOverBeta := gamma / in.beta
	viol := sc.viol[:0] // indices into posVerts
	gammaV := 0.0
	for p, i := range posVerts {
		ks := -1
		for l := in.nLevels - 1; l >= 0; l-- {
			if delta(int32(p), l) > gammaOverBeta*float64(in.bOf(int(i)))*in.wHat(l) {
				ks = l
				break
			}
		}
		if ks >= 0 {
			kstar[i] = int32(ks) + 1
			viol = append(viol, int32(p))
			gammaV += delta(int32(p), ks)
		}
	}
	sc.viol = viol
	// Case A (step 5): vertex violations pay. The answer container is
	// lent from the scratch pool: the binary search in runMiniOracle
	// holds several micro answers at once, and all of them die by the
	// next MiniOracle call's reclaim.
	if gammaV >= in.eps*gamma/24 {
		res.answer.xEntries = sc.xents.getEmpty()
		for _, p := range viol {
			i := posVerts[p]
			ks := int(kstar[i]) - 1
			for _, pe := range posOf(p) {
				var val float64
				if pe.k > ks {
					val = gamma * in.wHat(ks) / gammaV
				} else {
					val = gamma * in.wHat(pe.k) / gammaV
				}
				res.answer.xEntries = append(res.answer.xEntries, xEntry{v: i, k: pe.k, val: val})
			}
		}
		sc.xents.retain(res.answer.xEntries)
		return res
	}
	// Step 9: raise ζ to ζ̄ = s_{i,k}/(2ϱ) on violating (i, k<=k*,
	// k∈Pos); γ′ (step 10) subtracts ζ̄ over the support rows, then ζ
	// over the rows without support mass.
	zbRow := resizeZeroed(sc.zbRow, len(rows))
	sc.zbRow = zbRow
	gammaP := sc.usC
	for _, ri := range sc.byCell {
		rk := rows[ri]
		zb := zetaRow[ri]
		if dPos[ri] && rk.k < int(kstar[rk.v]) {
			zb = s[ri] / (2 * in.rho)
		}
		zbRow[ri] = zb
		gammaP -= 3 * in.rho * in.wHat(rk.k) * zb
	}
	for _, z := range in.zeta {
		if sc.rowOf(z.rowKey) < 0 {
			gammaP -= 3 * in.rho * in.wHat(z.k) * z.val
		}
	}
	// zbarSuffix is Σ_{k>=ℓ} ζ̄_{v,k} over v's support rows, ascending k.
	zbarSuffix := func(v, l int) float64 {
		zsum := 0.0
		for _, ri := range sc.rowAt[v*nl+l : (v+1)*nl] {
			if ri != 0 {
				zsum += zbRow[ri-1]
			}
		}
		return zsum
	}
	// Steps 11-14: per level ℓ, collect disjoint dense odd sets K(ℓ).
	// Charges (proof of Lemma 16): q_ij(ℓ) = (1-ε/4)β/γ · uˢ (edges with
	// k >= ℓ); q̂_i(ℓ) = b_i + 2(1-ε/4)ϱβ/γ · Σ_{k>=ℓ} ζ̄_{i,k}.
	scaleQ := (1 - in.eps/4) * in.beta / gamma
	type levelSets struct {
		level int
		sets  []oddset.Set
		// Δ(U,ℓ) = Σ_{k>=ℓ}(Σ_{ij∈U} uˢ - ϱ Σ_{i∈U} ζ̄) per set
		deltas []float64
	}
	var perLevel []levelSets
	gammaOs := 0.0
	if in.noOdd {
		// Ablation: no odd sets are priced; fall through to part (i).
		res.matchingWitness = true
		return res
	}
	nV := sc.nv
	// Only levels that actually carry support edges can yield distinct
	// collections: for ℓ between two active levels the charges q(ℓ) are
	// identical to those of the next active level up, so z_{U,ℓ} placed
	// there covers the same constraints. Iterate active levels only,
	// highest first.
	activeDesc := sc.activeDesc[:0]
	for l := nl - 1; l >= 0; l-- {
		if sc.inUse[l] {
			activeDesc = append(activeDesc, l)
		}
	}
	sc.activeDesc = activeDesc
	// The odd-set instance buffers live one level at a time: Collect
	// returns fresh member copies, so nothing retained by perLevel
	// aliases them and the next level overwrites in place.
	if cap(sc.qhat) < nV {
		sc.qhat = make([]float64, nV)
	}
	if cap(sc.bnorm) < nV {
		sc.bnorm = make([]int, nV)
	}
	for _, l := range activeDesc {
		inst := &oddset.Instance{
			N:       nV,
			QHat:    sc.qhat[:nV],
			MaxNorm: in.maxNorm,
			Eps:     in.eps,
		}
		inst.Edges = sc.qedges[:0]
		bn := sc.bnorm[:nV]
		unit := true
		for v := 0; v < nV; v++ {
			bn[v] = in.bOf(v)
			if bn[v] != 1 {
				unit = false
			}
			inst.QHat[v] = float64(bn[v]) + 2*scaleQ*in.rho*zbarSuffix(v, l)
		}
		if !unit {
			inst.BNorm = bn
		}
		for _, e := range in.edges {
			if e.k >= l {
				inst.Edges = append(inst.Edges, oddset.QEdge{U: e.u, V: e.v, Q: scaleQ * e.w})
			}
		}
		sc.qedges = inst.Edges
		sets := inst.Collect()
		if len(sets) == 0 {
			continue
		}
		ls := levelSets{level: l}
		for _, st := range sets {
			// Δ(U,ℓ) in uˢ units: internal/scaleQ - ϱ Σ ζ̄ suffix.
			inside := st.Internal / scaleQ
			zpart := 0.0
			for _, m := range st.Members {
				for _, ri := range sc.rowAt[m*nl+l : (m+1)*nl] {
					if ri != 0 {
						zpart += zbRow[ri-1]
					}
				}
			}
			d := inside - in.rho*zpart
			ls.sets = append(ls.sets, st)
			ls.deltas = append(ls.deltas, d)
			gammaOs += in.wHat(l) * d
		}
		perLevel = append(perLevel, ls)
	}
	// Case B (step 16): odd-set violations pay. (Note use of γ′.) The
	// entry container is pooled; the member lists are NOT — addZSet
	// retains them in the dual state, so sortedMembers allocates fresh.
	if gammaOs >= in.eps*gammaP/24 && gammaOs > 0 {
		res.answer.zEntries = sc.zents.getEmpty()
		for _, ls := range perLevel {
			for si := range ls.sets {
				members := make([]int32, len(ls.sets[si].Members))
				for mi, m := range ls.sets[si].Members {
					members[mi] = int32(m)
				}
				res.answer.zEntries = append(res.answer.zEntries, zEntry{
					members: sortedMembers(members),
					level:   ls.level,
					val:     gammaP * in.wHat(ls.level) / gammaOs,
				})
			}
		}
		sc.zents.retain(res.answer.zEntries)
		return res
	}
	// Part (i): nothing pays — the support certifies a large matching.
	// Steps 20-21: lift ζ̄ to ζ̂ on the members of the collected sets and
	// scale (uˢ, ϱζ̂) into the LP7 solution (y, μ); the driver's offline
	// solve extracts the integral matching per Lemma 13. ζ̂ lives on a
	// fresh (v, k) grid wide enough for every ζ row: ζ̄ on the support
	// rows, ζ on the rows without support mass, 0 elsewhere.
	res.matchingWitness = true
	gridV := nV
	for _, z := range in.zeta {
		gridV = max(gridV, int(z.v)+1)
	}
	zetaHat := make([]float64, gridV*nl)
	for ri, rk := range rows {
		zetaHat[int(rk.v)*nl+rk.k] = zbRow[ri]
	}
	for _, z := range in.zeta {
		if sc.rowOf(z.rowKey) < 0 {
			zetaHat[int(z.v)*nl+z.k] = z.val
		}
	}
	for _, ls := range perLevel {
		for _, set := range ls.sets {
			for _, m := range set.Members {
				zetaHat[m*nl+ls.level] += gamma * float64(in.bOf(m)) / (2 * in.rho * in.beta)
			}
		}
	}
	scaleY := (1 - in.eps/4) * in.beta / ((1 + in.eps/2) * gamma)
	w := &lp7Witness{
		y:     make([]float64, len(in.edges)),
		beta:  in.beta,
		gamma: gamma,
	}
	for i, e := range in.edges {
		w.y[i] = scaleY * e.w
	}
	for c, zh := range zetaHat {
		if zh > 0 {
			w.mu = append(w.mu, rowVal{rowKey{int32(c / nl), c % nl}, scaleY * in.rho * zh})
		}
	}
	res.witness = w
	return res
}

// checkLP7 verifies the witness against LP7's constraints over the
// support, enumerating odd sets up to maxNorm over the support vertices
// (exponential — test/verification use only). It returns the first
// violation as a non-empty string, or "".
func checkLP7(in microInput, w *lp7Witness, tol float64) string {
	// Objective: Σ_k ŵ_k (Σ y - 3 Σ_i μ_{i,k}) >= (1-ε)β. Like every
	// float accumulation in this file, the sums walk rows in sorted
	// (v, k) order so the verdict is bit-identical run to run —
	// near-tolerance witnesses must not flip with Go's randomized map
	// iteration.
	obj := 0.0
	for i, e := range in.edges {
		obj += in.wHat(e.k) * w.y[i]
	}
	mu := make(map[rowKey]float64, len(w.mu))
	for _, m := range w.mu {
		obj -= 3 * in.wHat(m.k) * m.val
		mu[m.rowKey] = m.val
	}
	if obj < (1-in.eps)*w.beta-tol {
		return "objective below (1-eps)beta"
	}
	// Vertex constraints: Σ_k max(0, Σ_j y_{ijk} - 2μ_{i,k}) <= b_i.
	perRow := map[rowKey]float64{}
	verts := map[int32]bool{}
	for i, e := range in.edges {
		perRow[rowKey{e.u, e.k}] += w.y[i]
		perRow[rowKey{e.v, e.k}] += w.y[i]
		verts[e.u] = true
		verts[e.v] = true
	}
	perVertex := map[int32]float64{}
	for _, rk := range sortedRowKeys(perRow) {
		d := perRow[rk] - 2*mu[rk]
		if d > 0 {
			perVertex[rk.v] += d
		}
	}
	//lint:ordered per-key threshold check, no cross-key accumulation
	for v, tot := range perVertex {
		if tot > float64(in.bOf(int(v)))+tol {
			return "vertex capacity violated"
		}
	}
	// Odd-set constraints: Σ_{k>=ℓ}(Σ_{ij∈U} y - Σ_{i∈U} μ_{i,k}) <=
	// floor(||U||_b/2) for every odd U up to maxNorm and every active ℓ.
	// Vertices and levels are sorted so the subset enumeration order (and
	// hence which violation is reported first) is deterministic.
	vs := make([]int32, 0, len(verts))
	//lint:ordered key collection, sorted immediately below
	for v := range verts {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	levelSet := map[int]bool{}
	for _, e := range in.edges {
		levelSet[e.k] = true
	}
	levels := make([]int, 0, len(levelSet))
	//lint:ordered key collection, sorted immediately below
	for l := range levelSet {
		levels = append(levels, l)
	}
	sort.Ints(levels)
	viol := ""
	enumerateOddSubsets(vs, in.bOf, in.maxNorm, func(set []int32) bool {
		mask := map[int32]bool{}
		norm := 0
		for _, v := range set {
			mask[v] = true
			norm += in.bOf(int(v))
		}
		for _, l := range levels {
			lhs := 0.0
			for i, e := range in.edges {
				if e.k >= l && mask[e.u] && mask[e.v] {
					lhs += w.y[i]
				}
			}
			for _, m := range w.mu {
				if m.k >= l && mask[m.v] {
					lhs -= m.val
				}
			}
			if lhs > float64(norm/2)+tol {
				viol = "odd-set constraint violated"
				return false
			}
		}
		return true
	})
	return viol
}

// enumerateOddSubsets enumerates subsets of vs with odd b-norm, size >= 3
// and norm <= maxNorm, calling f (stop on false).
func enumerateOddSubsets(vs []int32, bOf func(int) int, maxNorm int, f func([]int32) bool) {
	var cur []int32
	stopped := false
	var rec func(start, norm int)
	rec = func(start, norm int) {
		if stopped {
			return
		}
		if len(cur) >= 3 && norm%2 == 1 {
			if !f(cur) {
				stopped = true
				return
			}
		}
		for i := start; i < len(vs); i++ {
			nb := bOf(int(vs[i]))
			if norm+nb > maxNorm {
				continue
			}
			cur = append(cur, vs[i])
			rec(i+1, norm+nb)
			cur = cur[:len(cur)-1]
			if stopped {
				return
			}
		}
	}
	rec(0, 0)
}

// sortedRowKeys returns the keys of a rowKey-indexed map in (v, k) order,
// the canonical iteration order for float accumulations over P_o rows.
func sortedRowKeys(m map[rowKey]float64) []rowKey {
	keys := make([]rowKey, 0, len(m))
	//lint:ordered key collection, sorted immediately below
	for rk := range m {
		keys = append(keys, rk)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].v != keys[j].v {
			return keys[i].v < keys[j].v
		}
		return keys[i].k < keys[j].k
	})
	return keys
}
