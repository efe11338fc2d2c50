package core

// Warm-started duals ("Faster Matchings via Learned Duals",
// arXiv:2107.09770, transplanted onto the covering framework): a
// finished solve snapshots its dual state, and a later solve on a
// similar instance can install that snapshot in place of the Lemma
// 20/21 initial solution, entering the sampling loop with a dual point
// that is already close to feasible for the drifted instance. The
// correctness argument is the one the paper's certificate already
// makes: λ and the dual objective are re-evaluated against the *current*
// instance every round, so the certificate (dual objective / λ) stands
// by weak duality no matter where the starting duals came from — a warm
// start can only change how many rounds the trajectory needs, never
// what a positive certificate means.
//
// Validity and the certified fallback: installing a snapshot is only
// meaningful when both solves discretize weights identically — same
// vertex count, same ε, and the same (W*, B) pair, which fully
// determine the level scheme. When any of those drifted, the snapshot's
// (vertex, level) grid no longer addresses the new instance and the
// solve falls back to the cold initial solution, whose Lemma 20/21
// guarantees certify the run exactly as if no warm start had been
// requested. Stats.WarmStarted reports which path ran.

import "repro/internal/levels"

// WarmDuals is a portable snapshot of a solve's final dual state,
// detached from the solver that produced it: installing it cannot alias
// live session state, and the producing session reusing its buffers
// cannot corrupt it.
type WarmDuals struct {
	// N, Eps, WStar, TotalB fingerprint the discretization the snapshot
	// was taken under; all four must match for the snapshot to be
	// installable (they fully determine the level scheme).
	N      int
	Eps    float64
	WStar  float64
	TotalB int
	// NumLevels is the level count of the scheme (derived, kept for the
	// flat X layout).
	NumLevels int
	// X is the flat [vertex*NumLevels + level] table of x_i(k) values in
	// actual (unscaled) units.
	X []float64
	// Z holds the odd-set duals in actual units.
	Z []WarmZSet
}

// WarmZSet is one odd-set dual z_{U,ℓ} of a snapshot.
type WarmZSet struct {
	Members []int32
	Level   int
	Val     float64
}

// Warm copies the last run's final dual state into a detached
// WarmDuals, ready for a later SetWarm. Nil before any run, after Reset,
// and when the run aborted before the state existed.
func (a *DualPrimal) Warm() *WarmDuals {
	st := a.state
	if st == nil || a.scheme == nil {
		return nil
	}
	w := &WarmDuals{
		N:         a.n,
		Eps:       a.eps,
		WStar:     a.scheme.WStar,
		TotalB:    int(a.scheme.B),
		NumLevels: st.nl,
		X:         make([]float64, st.n*st.nl),
	}
	for v := 0; v < st.n; v++ {
		row := st.xik[v]
		for k, val := range row {
			w.X[v*st.nl+k] = val * st.scale
		}
	}
	// All member lists share one backing array: the facade snapshots
	// every dual-primal solve (a public Result's duals are always
	// installable later), so its own allocation count must stay O(1) in
	// the number of odd sets.
	total := 0
	live := 0
	for _, zs := range st.zsets {
		if zs.val != 0 {
			total += len(zs.members)
			live++
		}
	}
	if live > 0 {
		backing := make([]int32, 0, total)
		w.Z = make([]WarmZSet, 0, live)
		for _, zs := range st.zsets {
			if zs.val == 0 {
				continue
			}
			lo := len(backing)
			backing = append(backing, zs.members...)
			w.Z = append(w.Z, WarmZSet{
				Members: backing[lo:len(backing):len(backing)],
				Level:   zs.level,
				Val:     zs.val * st.scale,
			})
		}
	}
	return w
}

// installable reports whether the snapshot addresses the same
// discretization as the current instance.
func (w *WarmDuals) installable(n int, eps float64, scheme *levels.Scheme) bool {
	return w != nil &&
		w.N == n &&
		w.Eps == eps &&
		w.WStar == scheme.WStar &&
		w.TotalB == int(scheme.B) &&
		w.NumLevels == scheme.NumLevels() &&
		len(w.X) == n*scheme.NumLevels()
}

// install seeds a fresh dual state from the snapshot. Must be called on
// a state with scale 1 and no z-sets (the state Init just built).
func (w *WarmDuals) install(st *dualState) {
	for v := 0; v < st.n; v++ {
		copy(st.xik[v], w.X[v*st.nl:(v+1)*st.nl])
	}
	for _, z := range w.Z {
		if z.Val <= 0 || len(z.Members) == 0 {
			continue
		}
		// The member list is aliased, not copied: both the snapshot and
		// the state treat members as immutable, and Warm copies
		// outward, so the sharing is never observable.
		st.addZSet(z.Members, z.Level, z.Val)
	}
}
