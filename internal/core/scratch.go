package core

import (
	"repro/internal/oddset"
)

// oracleScratch owns the retained working buffers of the sequential
// refine-and-use loop: the support's row structure shared by
// runMiniOracle and runMicroOracle, the MicroOracle's per-call row and
// odd-set instance buffers, and the answer containers the packing
// framework averages. One scratch belongs to one solver and the oracle
// loop is sequential, so nothing locks.
//
// The rows live on a flat (vertex, level) grid: cell v·nl+k addresses
// row (v, k), so ascending cells are exactly the (v, k) lexicographic
// order every float accumulation over rows walks. The grid is the dual
// state's own O(n·levels) footprint; its shape (nv, nl) is re-derived
// from each support, so supports of different sizes and level counts
// share one scratch.
//
// The aliasing rules that keep reuse sound:
//
//   - Pools with lent tracking (row-value vectors, answer containers)
//     are reclaimed at the START of each runMiniOracle call. Everything
//     handed out during the previous call is dead by then — the final
//     answer is consumed by dualState.Average before the next use, and
//     pack.Solve copies its initial rows instead of retaining them.
//   - Grids and append-buffers without lent tracking are resized and
//     zeroed (or truncated) by the call that owns them: the row
//     structure per support (buildRows), ζ per packing-oracle
//     invocation, the per-row and odd-set buffers per MicroOracle call.
//   - Anything that lands in long-lived state is NEVER pooled: odd-set
//     member lists (retained by dualState.addZSet) stay freshly
//     allocated in sortedMembers, as do the LP7 witness fields.
//
// A nil scratch is legal everywhere and means "allocate fresh", which
// is also how the tests drive the oracles directly.
type oracleScratch struct {
	// The support's row structure, rebuilt by buildRows: the P_o rows
	// of runMiniOracle are exactly the s_{i,k} rows of runMicroOracle.
	nv, nl  int       // grid shape: vertices (max endpoint + 1) × levels
	rowAt   []int32   // grid: row index + 1, 0 = no support row
	rows    []rowKey  // first-appearance order — the packing row order
	byCell  []int32   // row indices in ascending cell = (v, k) order
	sRow    []float64 // per row: s_{i,k} = Σ_j uˢ_{ijk}
	den     []float64 // per row: 3ŵ_k
	vrStart []int32   // per vertex: offsets into vrRows (len nv+1)
	vrRows  []int32   // row indices grouped by vertex, ascending
	inUse   []bool    // per level: carries a support edge
	usC     float64   // (uˢ)ᵀc = Σ_k ŵ_k Σ_{E'_k} uˢ

	zeta []rowVal // ζ of the current packing-oracle invocation

	// refineBatch buffers: per-level support rows (each written only by
	// the worker that owns its index, so the parallel fan-out stays
	// race-free) and their level-order concatenation. The concatenated
	// support is consumed by the runMiniOracle call that follows and is
	// dead by the next refineBatch.
	perLevel [][]supportEdge
	support  []supportEdge

	f64s  lentPool[float64] // row-value vectors (rv, crv, uniform)
	xents lentPool[xEntry]  // answer containers; entries are value copies
	zents lentPool[zEntry]  // (zEntry member pointers stay fresh)

	// answerAccum backing: one accumulator and one final answer live per
	// MiniOracle call, so these are plain fields, not pools — growth
	// across the packing iterations is retained.
	accX, finX, combX []xEntry
	accZ, finZ, combZ []zEntry

	// MicroOracle per-call state.
	zetaRow    []float64  // per row: ζ_{i,k}
	zbRow      []float64  // per row: ζ̄_{i,k}
	dPos       []bool     // per row: d_{i,k} > 0
	pos        []posEntry // Pos(i) lists, contiguous per vertex
	posVerts   []int32    // vertices with a non-empty Pos, ascending
	posStart   []int32    // offsets into pos per posVerts entry (+1 end)
	kstar      []int32    // per vertex: k*_i + 1, 0 = not violating
	viol       []int32    // indices into posVerts of violating vertices
	activeDesc []int
	qhat       []float64      // oddset.Instance charge vector, len nV
	bnorm      []int          // oddset.Instance norms, len nV
	qedges     []oddset.QEdge // oddset.Instance edge list
}

func newOracleScratch() *oracleScratch { return &oracleScratch{} }

// beginMini resets the scratch for one runMiniOracle call: reclaim the
// lent pools (the previous call's buffers are all dead, see above).
func (sc *oracleScratch) beginMini() {
	sc.f64s.reclaim()
	sc.xents.reclaim()
	sc.zents.reclaim()
}

// buildRows lays the support's rows out on the (vertex, level) grid:
// rows in first-appearance order (u before v per edge), their incident
// support mass s accumulated in edge order, the (v, k)-sorted row
// order, the per-vertex row lists, the active levels and (uˢ)ᵀc.
func (sc *oracleScratch) buildRows(edges []supportEdge, wHat func(int) float64, nLevels int) {
	maxV := int32(0)
	for _, e := range edges {
		maxV = max(maxV, e.u, e.v)
	}
	nv, nl := int(maxV)+1, nLevels
	sc.nv, sc.nl = nv, nl
	rowAt := resizeZeroed(sc.rowAt, nv*nl)
	inUse := resizeZeroed(sc.inUse, nl)
	rows, s := sc.rows[:0], sc.sRow[:0]
	usC := 0.0
	for _, e := range edges {
		for _, v := range [2]int32{e.u, e.v} {
			c := int(v)*nl + e.k
			if rowAt[c] == 0 {
				rows = append(rows, rowKey{v, e.k})
				s = append(s, 0)
				rowAt[c] = int32(len(rows))
			}
			s[rowAt[c]-1] += e.w
		}
		usC += wHat(e.k) * e.w
		inUse[e.k] = true
	}
	den := sc.den[:0]
	for _, rk := range rows {
		den = append(den, 3*wHat(rk.k))
	}
	byCell := sc.byCell[:0]
	for _, ri := range rowAt {
		if ri != 0 {
			byCell = append(byCell, ri-1)
		}
	}
	// Per-vertex row lists (CSR): count, prefix-sum, then fill in row
	// order with vrStart as the cursor and shift it back.
	start := resizeZeroed(sc.vrStart, nv+1)
	for _, rk := range rows {
		start[rk.v+1]++
	}
	for v := 1; v <= nv; v++ {
		start[v] += start[v-1]
	}
	vrRows := resizeZeroed(sc.vrRows, len(rows))
	for ri, rk := range rows {
		vrRows[start[rk.v]] = int32(ri)
		start[rk.v]++
	}
	copy(start[1:], start[:nv])
	start[0] = 0
	sc.rowAt, sc.inUse, sc.rows, sc.sRow, sc.den = rowAt, inUse, rows, s, den
	sc.byCell, sc.vrStart, sc.vrRows, sc.usC = byCell, start, vrRows, usC
}

// rowOf returns rk's row index, or -1 when rk is not a support row.
func (sc *oracleScratch) rowOf(rk rowKey) int {
	if rk.v < 0 || int(rk.v) >= sc.nv || rk.k < 0 || rk.k >= sc.nl {
		return -1
	}
	return int(sc.rowAt[int(rk.v)*sc.nl+rk.k]) - 1
}

// vertexRows returns the row indices of vertex v, ascending.
func (sc *oracleScratch) vertexRows(v int32) []int32 {
	if v < 0 || int(v) >= sc.nv {
		return nil
	}
	return sc.vrRows[sc.vrStart[v]:sc.vrStart[v+1]]
}

// posEntry is one positive-deficit level of a vertex (d_{i,k} > 0).
type posEntry struct {
	k int
	d float64
}

// retainedWords counts the scratch's pooled footprint in 64-bit words:
// every retained backing array at capacity — grids, per-row and
// per-vertex buffers, pool spines and the buffers they hold — summed
// in bytes and rounded up once. Fixed-size struct fields are not
// counted. Retained capacity, never part of any run's metered live
// space.
func (sc *oracleScratch) retainedWords() int {
	const (
		i32B, intB, f64B, sliceB = 4, 8, 8, 24
		rowKeyB                  = 16 // {int32, int}
		rowValB                  = 24 // {rowKey, float64}
		supportEdgeB             = 32 // {int32, int32, int, float64, int}
		xEntryB                  = 24 // {int32, int, float64}
		zEntryB                  = 40 // {[]int32, int, float64}
		posEntryB                = 16 // {int, float64}
		qEdgeB                   = 16 // {int32, int32, float64}
	)
	b := i32B * (cap(sc.rowAt) + cap(sc.byCell) + cap(sc.vrStart) + cap(sc.vrRows) +
		cap(sc.posVerts) + cap(sc.posStart) + cap(sc.kstar) + cap(sc.viol))
	b += cap(sc.inUse) + cap(sc.dPos) // one byte per bool
	b += intB * (cap(sc.activeDesc) + cap(sc.bnorm))
	b += f64B * (cap(sc.sRow) + cap(sc.den) + cap(sc.zetaRow) + cap(sc.zbRow) + cap(sc.qhat))
	b += rowKeyB*cap(sc.rows) + rowValB*cap(sc.zeta)
	b += supportEdgeB*cap(sc.support) + sliceB*cap(sc.perLevel)
	for _, row := range sc.perLevel {
		b += supportEdgeB * cap(row)
	}
	b += sc.f64s.capBytes(f64B) + sc.xents.capBytes(xEntryB) + sc.zents.capBytes(zEntryB)
	b += xEntryB * (cap(sc.accX) + cap(sc.finX) + cap(sc.combX))
	b += zEntryB * (cap(sc.accZ) + cap(sc.finZ) + cap(sc.combZ))
	b += posEntryB*cap(sc.pos) + qEdgeB*cap(sc.qedges)
	return (b + 7) / 8
}

// lentPool is a typed free-list with wholesale reclaim — the engine
// arena's bufPool pattern scoped to the oracle loop, where buffers turn
// over per call rather than per run. get pops the most recently freed
// buffer when it fits (within one MiniOracle call nearly every request
// has the same length, so the last-freed buffer almost always fits and
// the best-fit scan never runs), zeroes it to the requested length, and
// records it as lent; getEmpty returns a zero-length buffer for
// append-style use.
type lentPool[T any] struct {
	free [][]T
	lent [][]T
}

func (p *lentPool[T]) get(n int) []T {
	var buf []T
	if last := len(p.free) - 1; last >= 0 && cap(p.free[last]) >= n {
		buf = p.free[last][:n]
		p.free = p.free[:last]
		clear(buf)
	} else {
		best := -1
		for i, b := range p.free {
			if cap(b) >= n && (best < 0 || cap(b) < cap(p.free[best])) {
				best = i
			}
		}
		if best >= 0 {
			last := len(p.free) - 1
			buf = p.free[best][:n]
			p.free[best] = p.free[last]
			p.free = p.free[:last]
			clear(buf)
		} else {
			buf = make([]T, n)
		}
	}
	p.lent = append(p.lent, buf)
	return buf
}

func (p *lentPool[T]) getEmpty() []T {
	return p.get(0)[:0]
}

// retain replaces the most recently lent header with buf, so append
// growth past the pooled capacity is kept at reclaim. Must follow the
// get that produced buf's original backing with no interleaving get on
// the same pool.
func (p *lentPool[T]) retain(buf []T) {
	if last := len(p.lent) - 1; last >= 0 {
		p.lent[last] = buf
	}
}

func (p *lentPool[T]) reclaim() {
	p.free = append(p.free, p.lent...)
	p.lent = p.lent[:0]
}

// capBytes sums both lists' spines and buffers at capacity, elemBytes
// bytes per element.
func (p *lentPool[T]) capBytes(elemBytes int) int {
	const sliceB = 24
	n := 0
	for _, b := range p.free {
		n += cap(b)
	}
	for _, b := range p.lent {
		n += cap(b)
	}
	return sliceB*(cap(p.free)+cap(p.lent)) + elemBytes*n
}

// resizeZeroed returns b resliced (or regrown) to length n with every
// element zeroed.
func resizeZeroed[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}
