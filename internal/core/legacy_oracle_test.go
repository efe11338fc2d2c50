package core

import (
	"slices"
	"sort"

	"repro/internal/oddset"
	"repro/internal/pack"
)

// The map-keyed MicroOracle and MiniOracle row machinery the flat
// (vertex, level) grids replaced, kept verbatim (identifiers prefixed
// legacy, receivers and types renamed) as the reference the
// differential tests hold the grid layout to. Only the row machinery
// is legacy: the answer accumulator, lent pools and combination
// buffers are the unchanged production code, reached through the
// embedded oracleScratch.

// legacyMicroInput is microInput with ζ as a map.
type legacyMicroInput struct {
	edges   []supportEdge
	zeta    map[rowKey]float64 // ζ_{i,k} (same scale as uˢ)
	rho     float64            // the Lagrange multiplier ϱ
	beta    float64
	eps     float64
	bOf     func(v int) int
	wHat    func(k int) float64
	nLevels int
	maxNorm int  // 4/ε bound for odd sets
	noOdd   bool // ablation: skip odd-set pricing
}

type legacyMicroResult struct {
	matchingWitness bool
	witness         *legacyLP7Witness
	answer          oracleAnswer
	gamma           float64
}

type legacyLP7Witness struct {
	y     []float64 // parallel to microInput.edges
	mu    map[rowKey]float64
	beta  float64
	gamma float64
}

// legacyScratch carries the map-based fields; the fields it shares by
// name with oracleScratch shadow the embedded ones.
type legacyScratch struct {
	*oracleScratch

	// MiniOracle row machinery, rebuilt per call.
	rowIndex   map[rowKey]int
	rows       []rowKey
	vertexRows map[int32][]int
	rowSpare   [][]int // retired vertexRows value slices
	zeta       map[rowKey]float64

	// MicroOracle per-call state.
	s           map[rowKey]float64
	levelsInUse map[int]bool
	zetaKeys    []rowKey // both key buffers are alive at once, hence two
	sKeys       []rowKey
	pos         map[int32][]posEntry
	posSpare    [][]posEntry
	posVerts    []int32
	kstar       map[int32]int
	zetaBarSums map[rowKey]float64
	activeDesc  []int
	qhat        []float64      // oddset.Instance charge vector, len nV
	bnorm       []int          // oddset.Instance norms, len nV
	qedges      []oddset.QEdge // oddset.Instance edge list
}

func newLegacyScratch() *legacyScratch {
	return &legacyScratch{
		oracleScratch: newOracleScratch(),
		rowIndex:      make(map[rowKey]int),
		vertexRows:    make(map[int32][]int),
		zeta:          make(map[rowKey]float64),
		s:             make(map[rowKey]float64),
		levelsInUse:   make(map[int]bool),
		pos:           make(map[int32][]posEntry),
		kstar:         make(map[int32]int),
		zetaBarSums:   make(map[rowKey]float64),
	}
}

func (sc *legacyScratch) beginMini() {
	sc.f64s.reclaim()
	sc.xents.reclaim()
	sc.zents.reclaim()
	clear(sc.rowIndex)
	sc.rows = sc.rows[:0]
	//lint:ordered slice recycling into a spare pool; order never observed
	for v, l := range sc.vertexRows {
		sc.rowSpare = append(sc.rowSpare, l[:0])
		delete(sc.vertexRows, v)
	}
}

func (sc *legacyScratch) rowList() []int {
	if last := len(sc.rowSpare) - 1; last >= 0 {
		l := sc.rowSpare[last]
		sc.rowSpare = sc.rowSpare[:last]
		return l
	}
	return nil
}

func (sc *legacyScratch) beginMicro() {
	clear(sc.s)
	clear(sc.levelsInUse)
	clear(sc.kstar)
	clear(sc.zetaBarSums)
	sc.posVerts = sc.posVerts[:0]
	sc.activeDesc = sc.activeDesc[:0]
	//lint:ordered slice recycling into a spare pool; order never observed
	for v, l := range sc.pos {
		sc.posSpare = append(sc.posSpare, l[:0])
		delete(sc.pos, v)
	}
}

func (sc *legacyScratch) posList() []posEntry {
	if last := len(sc.posSpare) - 1; last >= 0 {
		l := sc.posSpare[last]
		sc.posSpare = sc.posSpare[:last]
		return l
	}
	return nil
}

func legacyRunMicroOracle(in legacyMicroInput, sc *legacyScratch) legacyMicroResult {
	sc.beginMicro()
	// Per-(i,k) incident support weight s_{i,k} = Σ_j uˢ_{ijk}.
	s := sc.s
	// Total weighted support (uˢ)ᵀc = Σ_k ŵ_k Σ_{E'_k} uˢ.
	usC := 0.0
	levelsInUse := sc.levelsInUse
	for _, e := range in.edges {
		s[rowKey{e.u, e.k}] += e.w
		s[rowKey{e.v, e.k}] += e.w
		usC += in.wHat(e.k) * e.w
		levelsInUse[e.k] = true
	}
	// Map iteration order is randomized in Go, and float addition is not
	// associative: every sum over these maps walks keys in sorted order so
	// the oracle is a pure function of its input — the determinism the
	// parallel pipeline's bit-identical contract rests on.
	zetaKeys := legacySortedRowKeysInto(sc.zetaKeys, in.zeta)
	sc.zetaKeys = zetaKeys
	sKeys := legacySortedRowKeysInto(sc.sKeys, s)
	sc.sKeys = sKeys
	// γ = (uˢ)ᵀc - 3ϱ Σ_{i,k} ŵ_k ζ_{i,k}.
	gamma := usC
	for _, rk := range zetaKeys {
		gamma -= 3 * in.rho * in.wHat(rk.k) * in.zeta[rk]
	}
	res := legacyMicroResult{gamma: gamma}
	if gamma <= 0 {
		// Step 1 note: x = 0 satisfies LagInner trivially.
		return res
	}
	// d_{i,k} = s_{i,k} - 2ϱζ_{i,k}; Pos(i) = {k : d_{i,k} > 0}.
	pos := sc.pos
	posVerts := sc.posVerts
	for _, rk := range sKeys {
		d := s[rk] - 2*in.rho*in.zeta[rk]
		if d > 0 {
			if len(pos[rk.v]) == 0 {
				posVerts = append(posVerts, rk.v)
				pos[rk.v] = sc.posList()
			}
			pos[rk.v] = append(pos[rk.v], posEntry{rk.k, d})
		}
	}
	sc.posVerts = posVerts
	// ζ rows with no support mass have d <= 0 and never join Pos.
	// Δ(i,ℓ) = Σ_{k∈Pos(i),k<=ℓ} ŵ_k d_{i,k} + Σ_{k∈Pos(i),k>ℓ} ŵ_ℓ d_{i,k}.
	delta := func(i int32, l int) float64 {
		t := 0.0
		for _, pe := range pos[i] {
			if pe.k <= l {
				t += in.wHat(pe.k) * pe.d
			} else {
				t += in.wHat(l) * pe.d
			}
		}
		return t
	}
	// k*_i = largest ℓ with Δ(i,ℓ) > γ·b_i·ŵ_ℓ/β (-1 if none).
	kstar := sc.kstar
	gammaOverBeta := gamma / in.beta
	var viol []int32
	gammaV := 0.0
	for _, i := range posVerts {
		ks := -1
		for l := in.nLevels - 1; l >= 0; l-- {
			if delta(i, l) > gammaOverBeta*float64(in.bOf(int(i)))*in.wHat(l) {
				ks = l
				break
			}
		}
		if ks >= 0 {
			kstar[i] = ks
			viol = append(viol, i)
			gammaV += delta(i, ks)
		}
	}
	// Case A (step 5): vertex violations pay. The answer container is
	// lent from the scratch pool: the binary search in runMiniOracle
	// holds several micro answers at once, and all of them die by the
	// next MiniOracle call's reclaim.
	if gammaV >= in.eps*gamma/24 {
		res.answer.xEntries = sc.xents.getEmpty()
		for _, i := range viol {
			ks := kstar[i]
			for _, pe := range pos[i] {
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
	// Step 9: raise ζ to ζ̄ on violating (i, k<=k*, k∈Pos).
	zetaBar := func(i int32, k int) float64 {
		if ks, ok := kstar[i]; ok && k <= ks {
			for _, pe := range pos[i] {
				if pe.k == k {
					// ζ̄ = s_{i,k}/(2ϱ).
					return s[rowKey{i, k}] / (2 * in.rho)
				}
			}
		}
		return in.zeta[rowKey{i, k}]
	}
	// γ′ (step 10).
	gammaP := usC
	zetaBarSums := sc.zetaBarSums // cache ζ̄ per touched row
	for _, rk := range sKeys {
		zb := zetaBar(rk.v, rk.k)
		zetaBarSums[rk] = zb
		gammaP -= 3 * in.rho * in.wHat(rk.k) * zb
	}
	for _, rk := range zetaKeys {
		if _, ok := s[rk]; !ok {
			gammaP -= 3 * in.rho * in.wHat(rk.k) * in.zeta[rk]
		}
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
	// Precompute per-vertex suffix ζ̄ sums and per-edge suffix inclusion.
	maxV := int32(0)
	for _, e := range in.edges {
		if e.u > maxV {
			maxV = e.u
		}
		if e.v > maxV {
			maxV = e.v
		}
	}
	nV := int(maxV) + 1
	// Only levels that actually carry support edges can yield distinct
	// collections: for ℓ between two active levels the charges q(ℓ) are
	// identical to those of the next active level up, so z_{U,ℓ} placed
	// there covers the same constraints. Iterate active levels only.
	activeDesc := sc.activeDesc
	//lint:ordered key collection, sortDesc'd immediately below
	for l := range levelsInUse {
		activeDesc = append(activeDesc, l)
	}
	legacySortDesc(activeDesc)
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
			zsum := 0.0
			for k := l; k < in.nLevels; k++ {
				if zb, ok := zetaBarSums[rowKey{int32(v), k}]; ok {
					zsum += zb
				}
			}
			inst.QHat[v] = float64(bn[v]) + 2*scaleQ*in.rho*zsum
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
				for k := l; k < in.nLevels; k++ {
					if zb, ok := zetaBarSums[rowKey{int32(m), k}]; ok {
						zpart += zb
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
	// solve extracts the integral matching per Lemma 13.
	res.matchingWitness = true
	zetaHat := make(map[rowKey]float64, len(zetaBarSums))
	//lint:ordered per-key copy, no cross-key accumulation
	for rk, zb := range zetaBarSums {
		zetaHat[rk] = zb
	}
	//lint:ordered per-key fill-in, no cross-key accumulation
	for rk, z := range in.zeta {
		if _, ok := zetaHat[rk]; !ok {
			zetaHat[rk] = z
		}
	}
	for _, ls := range perLevel {
		for _, set := range ls.sets {
			for _, m := range set.Members {
				rk := rowKey{int32(m), ls.level}
				zetaHat[rk] += gamma * float64(in.bOf(m)) / (2 * in.rho * in.beta)
			}
		}
	}
	scaleY := (1 - in.eps/4) * in.beta / ((1 + in.eps/2) * gamma)
	w := &legacyLP7Witness{
		y:     make([]float64, len(in.edges)),
		mu:    make(map[rowKey]float64, len(zetaHat)),
		beta:  in.beta,
		gamma: gamma,
	}
	for i, e := range in.edges {
		w.y[i] = scaleY * e.w
	}
	//lint:ordered per-key scale into w.mu, no cross-key accumulation
	for rk, zh := range zetaHat {
		if zh > 0 {
			w.mu[rk] = scaleY * in.rho * zh
		}
	}
	res.witness = w
	return res
}

func legacyRunMiniOracle(edges []supportEdge, beta, eps float64, prof Profile,
	bOf func(v int) int, wHat func(k int) float64, nLevels, maxNorm int,
	sc *legacyScratch) miniResult {

	if sc == nil {
		sc = newLegacyScratch()
	}
	sc.beginMini()
	res := miniResult{}
	if len(edges) == 0 {
		return res
	}
	// P_o rows: (i,k) pairs with incident support edges; q_o = 3ŵ_k.
	rowIndex := sc.rowIndex
	rows := sc.rows
	vertexRows := sc.vertexRows
	for _, e := range edges {
		for _, rk := range [2]rowKey{{e.u, e.k}, {e.v, e.k}} {
			if _, ok := rowIndex[rk]; !ok {
				rowIndex[rk] = len(rows)
				if _, seen := vertexRows[rk.v]; !seen {
					vertexRows[rk.v] = sc.rowList()
				}
				vertexRows[rk.v] = append(vertexRows[rk.v], len(rows))
				rows = append(rows, rk)
			}
		}
	}
	sc.rows = rows
	// Row values of an answer: (2x_i(k) + Σ_{ℓ<=k} Σ_{U∋i} z_{U,ℓ}) / 3ŵ_k.
	rowValues := func(ans *oracleAnswer) []float64 {
		rv := sc.f64s.get(len(rows))
		for _, xe := range ans.xEntries {
			if ri, ok := rowIndex[rowKey{xe.v, xe.k}]; ok {
				rv[ri] += 2 * xe.val
			}
		}
		for _, ze := range ans.zEntries {
			for _, m := range ze.members {
				for _, ri := range vertexRows[m] {
					if rows[ri].k >= ze.level {
						rv[ri] += ze.val
					}
				}
			}
		}
		for ri, rk := range rows {
			rv[ri] /= 3 * wHat(rk.k)
		}
		return rv
	}
	usC := 0.0
	for _, e := range edges {
		usC += wHat(e.k) * e.w
	}

	var accum *answerAccum
	var pending oracleAnswer

	// Oracle-P: Lemma 10's binary search over ϱ.
	oracle := func(z []float64, _ int) ([]float64, bool) {
		// ζ_{i,k} = z_row / (3ŵ_k) (the PST multipliers carry 1/d_r).
		zeta := sc.zeta
		clear(zeta)
		zTqo := 0.0
		for ri, rk := range rows {
			if z[ri] > 0 {
				zeta[rk] = z[ri] / (3 * wHat(rk.k))
				zTqo += z[ri]
			}
		}
		if zTqo <= 0 {
			zTqo = 1e-300
		}
		upsilon := (13.0 / 12) * zTqo
		rho0 := 12 * usC / (13 * zTqo)
		call := func(rho float64) (legacyMicroResult, []float64, float64) {
			res.microCalls++
			mr := legacyRunMicroOracle(legacyMicroInput{
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
		pending = combineAnswers(&loAns, s1, &hiAns, s2, sc.oracleScratch)
		crv := sc.f64s.get(len(rows))
		for ri := range rows {
			crv[ri] = s1*loRv[ri] + s2*hiRv[ri]
		}
		return crv, true
	}

	// First oracle call provides the packing framework's initial x0.
	firstRv, ok := oracle(uniform(len(rows), sc.oracleScratch), 0)
	if !ok {
		return res
	}
	accum = newAnswerAccum(&pending, sc.oracleScratch)
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

func legacySortedRowKeysInto(buf []rowKey, m map[rowKey]float64) []rowKey {
	keys := buf[:0]
	//lint:ordered key collection, sorted immediately below
	for rk := range m {
		keys = append(keys, rk)
	}
	slices.SortFunc(keys, func(a, b rowKey) int {
		if a.v != b.v {
			if a.v < b.v {
				return -1
			}
			return 1
		}
		switch {
		case a.k < b.k:
			return -1
		case a.k > b.k:
			return 1
		}
		return 0
	})
	return keys
}

func legacySortDesc(xs []int) {
	sort.Sort(sort.Reverse(sort.IntSlice(xs)))
}
