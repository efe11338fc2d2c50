package core

// The dual-primal solve session: the rich-result counterpart of
// engine.Session. One Session holds one dualPrimal instance plus one
// scratch arena across solves, so a second solve on a same-shape
// instance reuses the first solve's working memory — the dual state's
// n×nl table, the (use, level) construction grids, the staging chunk,
// the union slice/subgraph and the union-find forest pool — instead of
// reallocating all of it. Every solve is bit-identical to a cold
// Solve/SolveWith of the same (source, Options): retention is capacity
// only, never state, and the space accountant meters exactly the words
// a cold run meters.

import (
	"context"

	"repro/internal/engine"
	"repro/internal/stream"
)

// Session is a reusable dual-primal solve lifecycle: construct once
// with NewSession, Solve many times. Not safe for concurrent use — one
// algorithm instance, one arena; hold several Sessions for in-flight
// parallelism (the public repro/match.Pool does).
type Session struct {
	opt   Options
	alg   *dualPrimal
	arena *engine.Arena
	runs  int
}

// NewSession validates the options and builds a session.
func NewSession(opt Options) (*Session, error) {
	alg, err := newDualPrimal(opt)
	if err != nil {
		return nil, err
	}
	return &Session{opt: opt, alg: alg, arena: engine.NewArena()}, nil
}

// Solve runs one solve through the session under the shared engine
// driver. warm overrides the session Options' warm-start request for
// this run only (nil = the Options' own Warm, usually cold); see
// Options.Warm for the validity-check-and-fallback semantics. The
// returned Result carries a fresh dual snapshot in Warm, ready to seed
// a later solve.
func (s *Session) Solve(ctx context.Context, src stream.Source, ext Extensions, warm *WarmDuals) (*Result, error) {
	if s.runs > 0 {
		s.alg.Reset(engine.Params{})
		s.arena.Reclaim()
	}
	if warm != nil {
		s.alg.SetWarm(warm)
	}
	s.runs++
	out, err := engine.DriveArena(ctx, s.alg, src, ext, s.arena)
	res := s.alg.res
	res.Matching = out.Matching
	res.Weight = out.Weight
	res.DualObjective = out.DualObjective
	res.Lambda = out.Lambda
	res.Stats.SamplingRounds = out.Rounds
	res.Stats.Passes = out.Passes
	res.Stats.PeakWords = out.PeakWords
	res.Stats.EarlyStopped = out.EarlyStopped
	res.Warm = s.alg.snapshotDuals()
	return res, err
}

// Runs returns how many solves the session has started.
func (s *Session) Runs() int { return s.runs }

// RetainedWords reports the session's retained scratch capacity — warm
// memory between runs, not part of any run's metered live space. It
// sums the engine arena's typed pools with the solver-owned pools this
// arena cannot see: the sparsifier scratch (forests, shells, builder
// side data, item and reveal buffers) and the oracle-loop scratch
// (row grids, per-row buffers, answer pools).
func (s *Session) RetainedWords() int {
	return s.arena.RetainedWords() + s.alg.retainedWords()
}
