package main

import (
	"context"
	"time"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/stream"
	"repro/match"
)

// coldSize is the cold-solve instance: GNM with uniform weights, solved
// by the dual-primal solver at ε=0.25, p=2.
type coldSize struct {
	n, m int
	wmax float64
}

func coldSizeFor(tiny bool) coldSize {
	if tiny {
		return coldSize{n: 40, m: 300, wmax: 100}
	}
	return coldSize{n: 256, m: 12000, wmax: 100}
}

const (
	coldEps = 0.25
	coldP   = 2
)

// coldInstance is the cold-solve set-up: the in-memory instance and its
// exact blossom optimum.
type coldInstance struct {
	g   *graph.Graph
	src *stream.EdgeStream
	opt float64
}

func buildColdInstance(size coldSize, seed uint64) (*coldInstance, error) {
	g := graph.GNM(size.n, size.m, graph.WeightConfig{Mode: graph.UniformWeights, WMax: size.wmax}, seed)
	_, opt := matching.MaxWeightMatchingFloat(g, false)
	return &coldInstance{g: g, src: stream.NewEdgeStream(g), opt: opt}, nil
}

// coldSolve is the op: a fresh Solver (so no session, arena or warm
// state survives from the previous op) running the dual-primal solver
// with WithWorkers(0), i.e. one worker per GOMAXPROCS.
func coldSolve(src stream.Source, obs match.Observer) (*match.Result, int, error) {
	opts := []match.Option{match.WithEps(coldEps), match.WithSpaceExponent(coldP), match.WithWorkers(0)}
	if obs != nil {
		opts = append(opts, match.WithObserver(obs))
	}
	s, err := match.New(opts...)
	if err != nil {
		return nil, 0, err
	}
	res, err := s.Solve(context.Background(), src)
	return res, s.RetainedWords(), err
}

// runColdSolve: repeated identical cold dual-primal solves of one
// in-memory GNM instance. Untraced runs report the end-to-end metrics;
// traced runs pair every untraced op with a traced twin.
func runColdSolve(cfg config) (*report, error) {
	size := coldSizeFor(cfg.tiny)
	inst, setupS, err := timedSetup(5, func() (*coldInstance, error) {
		return buildColdInstance(size, cfg.seed)
	}, func(*coldInstance) {})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	loop := &opLoop{
		exp:        newColdExpect(inst),
		checks:     rep.checks,
		solve:      coldSolve,
		dualPrimal: true,
	}
	rep.detail["instance"] = map[string]any{"family": "gnm", "n": size.n, "m": inst.g.M(),
		"wmax": size.wmax, "eps": coldEps, "p": coldP, "opt": inst.opt}
	d := time.Duration(cfg.seconds * float64(time.Second))
	untraced, traced, err := loop.run(inst.src, d, cfg.trace)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		rep.endToEnd(untraced, setupS)
		return rep, nil
	}
	rep.layers(untraced, traced, inst.g.M(), 0)
	return rep, nil
}

// newColdExpect holds every cold solve to the exact optimum (ratio at
// least 1-ε), its own certificate, and the first op's result.
func newColdExpect(inst *coldInstance) *expect {
	return &expect{
		src:         inst.src,
		weightOf:    func(idx int) float64 { return inst.g.Edge(idx).W },
		opt:         inst.opt,
		minOptRatio: 1 - coldEps,
		vertexBound: vertexBound(inst.src),
	}
}
