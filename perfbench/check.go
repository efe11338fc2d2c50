package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/match"
)

// checker tallies attempted and failed operations. An op fails when any
// of its output checks fails; reasons counts failures by check name.
type checker struct {
	attempted, failed int
	reasons           map[string]int
}

func newChecker() *checker { return &checker{reasons: map[string]int{}} }

// record counts one attempted op; a non-nil err marks it failed. The
// reason key is the error text up to its first colon.
func (c *checker) record(err error) {
	c.attempted++
	if err == nil {
		return
	}
	c.failed++
	key, _, _ := strings.Cut(err.Error(), ":")
	c.reasons[key]++
}

// expect holds what every result on one instance must satisfy.
type expect struct {
	// src is the untraced source results are validated against.
	src stream.Source
	// weightOf returns the weight of edge idx, for recomputing the
	// reported weight; nil skips the recomputation.
	weightOf func(idx int) float64
	// opt is the exact optimum (0 when unknown for this instance).
	opt float64
	// minOptRatio is the least weight ÷ opt the solver guarantees
	// (1-ε for the dual-primal solver, 0 for algorithms without one).
	minOptRatio float64
	// vertexBound is Σ_v b_v·max_w(v)/2, the trivial fractional
	// vertex-cover certificate; it bounds results that carry no dual.
	vertexBound float64
	// ref is the fingerprint every result must reproduce; the first
	// checked result sets it when empty.
	ref string
	// primalOnly restricts the identity check to the primal part of the
	// result (matching, weight, Stats). A warm-cache chain needs it: each
	// warm solve starts from the previous solve's duals, so λ and the dual
	// objective legitimately move from one repeat to the next.
	primalOnly bool
}

// check runs every output check on one result and returns its
// fingerprint.
func (x *expect) check(res *match.Result) (string, error) {
	if res == nil {
		return "", errors.New("no result")
	}
	if err := res.Validate(x.src); err != nil {
		return "", fmt.Errorf("validate: %w", err)
	}
	if x.weightOf != nil {
		w := 0.0
		for i, idx := range res.Matching.EdgeIdx {
			mult := 1
			if len(res.Matching.Mult) > 0 {
				mult = res.Matching.Mult[i]
			}
			w += x.weightOf(idx) * float64(mult)
		}
		if math.Abs(w-res.Weight) > 1e-9*math.Max(1, math.Abs(w)) {
			return "", fmt.Errorf("weight: reported %v, matched edges sum to %v", res.Weight, w)
		}
	}
	if bound := x.bound(res); res.Weight > bound*(1+1e-12) {
		return "", fmt.Errorf("certificate: weight %v exceeds certified bound %v", res.Weight, bound)
	}
	if x.opt > 0 {
		if res.Weight > x.opt*(1+1e-9) {
			return "", fmt.Errorf("optimum: weight %v exceeds the exact optimum %v", res.Weight, x.opt)
		}
		if r := res.Weight / x.opt; r < x.minOptRatio {
			return "", fmt.Errorf("opt_ratio: %v below the guaranteed %v", r, x.minOptRatio)
		}
	}
	fp, err := fingerprint(res)
	if err != nil {
		return "", err
	}
	id := fp
	if x.primalOnly {
		if id, err = fingerprint(struct {
			Matching match.Matching
			Weight   float64
			Stats    match.Stats
		}{res.Matching, res.Weight, res.Stats}); err != nil {
			return "", err
		}
	}
	if x.ref == "" {
		x.ref = id
	} else if id != x.ref {
		return fp, errors.New("identity: result differs from the reference result")
	}
	return fp, nil
}

// bound is the upper bound on the optimum a result is held to: its own
// dual certificate, or the vertex-cover bound when it carries none.
func (x *expect) bound(res *match.Result) float64 {
	if b := res.CertifiedUpperBound(); !math.IsInf(b, 1) {
		return b
	}
	return x.vertexBound
}

// optRatio is weight over the exact optimum, or over the vertex-cover
// bound where the optimum is out of reach (a lower bound on the true
// ratio).
func (x *expect) optRatio(res *match.Result) float64 {
	if x.opt > 0 {
		return res.Weight / x.opt
	}
	return res.Weight / x.vertexBound
}

// certRatio is weight over the bound the result is certified against.
func (x *expect) certRatio(res *match.Result) float64 {
	return res.Weight / x.bound(res)
}

// fingerprint hashes a value's JSON form. For a result that is the
// matching, weight, dual fields and every Stats counter; equal
// fingerprints mean bit-identical results, since JSON float formatting
// round-trips exactly.
func fingerprint(v any) (string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("fingerprint: %w", err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:12]), nil
}

// vertexBound computes Σ_v b_v·max_w(v)/2 in one un-metered sweep: with
// y_v = max_w(v)/2, every edge has y_u + y_v >= w_e, so Σ b_v·y_v bounds
// every b-matching's weight.
func vertexBound(src stream.Source) float64 {
	maxW := make([]float64, src.N())
	stream.SweepBlocks(src, func(_ int, edges []graph.Edge) bool {
		for _, e := range edges {
			maxW[e.U] = math.Max(maxW[e.U], e.W)
			maxW[e.V] = math.Max(maxW[e.V], e.W)
		}
		return true
	})
	total := 0.0
	for v, w := range maxW {
		total += float64(src.B(v)) * w / 2
	}
	return total
}
