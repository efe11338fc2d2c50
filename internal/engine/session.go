package engine

import (
	"context"

	"repro/internal/stream"
)

// Session is a reusable solve lifecycle around one algorithm instance:
// construct once, Solve many times. Between solves the algorithm is
// Reset — per-run state cleared, scratch capacity retained — and the
// session's arena is reclaimed, so a second solve on a same-shape
// instance reuses the first solve's working memory instead of
// reallocating it. Each Solve is bit-identical to a cold Drive of a
// freshly constructed instance (the Algorithm.Reset contract), including
// every resource meter: the arena retains capacity, never live words.
//
// A Session is not safe for concurrent use — it is one algorithm
// instance plus one arena. Run many instances in flight by holding many
// sessions (the public repro/match.Pool does exactly that).
type Session struct {
	alg   Algorithm
	arena *Arena
	runs  int
}

// NewSession wraps alg, which must be freshly constructed, in a
// session.
func NewSession(alg Algorithm) *Session {
	return &Session{alg: alg, arena: NewArena()}
}

// Solve runs one driven solve through the session: Reset + arena
// reclaim when a prior run left state behind, then the shared Drive
// loop with the session's arena.
func (s *Session) Solve(ctx context.Context, src stream.Source, ext Extensions) (*Outcome, error) {
	if s.runs > 0 {
		s.alg.Reset()
		s.arena.Reclaim()
	}
	s.runs++
	return driveArena(ctx, s.alg, src, ext, s.arena)
}

// Runs returns how many solves the session has started.
func (s *Session) Runs() int { return s.runs }

// RetainedWords reports the scratch capacity the session keeps warm
// between runs — deliberately NOT part of any run's metered live space
// (see Arena). It sums the arena's typed pools with the pools the
// algorithm owns itself, when it reports them through a
// RetainedWords() int method.
func (s *Session) RetainedWords() int {
	w := s.arena.RetainedWords()
	if r, ok := s.alg.(interface{ RetainedWords() int }); ok {
		w += r.RetainedWords()
	}
	return w
}
