package match_test

// Allocation benchmarks for the session lifecycle: cold
// construct-per-call solves, reused-session solves, warm-started repeat
// solves, and pool-served solves. CI runs these with -benchtime=1x as
// an allocation smoke — a regression that re-introduces per-solve
// rebuild cost shows up as an allocs/op jump here before it shows up in
// E17. BenchmarkSolveColdGNM256 is the repo benchmark's cold-solve op,
// here so `make bench-profile` can profile it.

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/match"
)

func benchGraph() *graph.Graph {
	return graph.GNM(48, 320, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 25}, 17)
}

func benchOpts() []match.Option {
	return []match.Option{match.WithSeed(7), match.WithWorkers(1), match.WithEps(0.3)}
}

func BenchmarkSolveCold(b *testing.B) {
	src := stream.NewEdgeStream(benchGraph())
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		solver, err := match.New(benchOpts()...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := solver.Solve(ctx, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveColdGNM256 repeats perfbench's cold-solve op: a fresh
// Solver per op on GNM n=256, m=12,000 with uniform weights up to 100,
// at ε=0.25, p=2 and one worker per GOMAXPROCS.
func BenchmarkSolveColdGNM256(b *testing.B) {
	g := graph.GNM(256, 12000, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 100}, 1)
	src := stream.NewEdgeStream(g)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		solver, err := match.New(match.WithEps(0.25), match.WithSpaceExponent(2), match.WithWorkers(0))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := solver.Solve(ctx, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveSessionReuse(b *testing.B) {
	src := stream.NewEdgeStream(benchGraph())
	ctx := context.Background()
	solver, err := match.New(benchOpts()...)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := solver.Solve(ctx, src); err != nil { // session warm-up
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(ctx, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveWarmRepeat(b *testing.B) {
	src := stream.NewEdgeStream(benchGraph())
	ctx := context.Background()
	solver, err := match.New(benchOpts()...)
	if err != nil {
		b.Fatal(err)
	}
	prev, err := solver.Solve(ctx, src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := solver.Solve(ctx, src, match.WithInitialDuals(prev))
		if err != nil {
			b.Fatal(err)
		}
		prev = res
	}
}

func BenchmarkPoolSolve(b *testing.B) {
	src := stream.NewEdgeStream(benchGraph())
	ctx := context.Background()
	pool, err := match.NewPool(2, benchOpts()...)
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	if r := <-pool.Submit(ctx, src); r.Err != nil { // session warm-up
		b.Fatal(r.Err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := <-pool.Submit(ctx, src); r.Err != nil {
			b.Fatal(r.Err)
		}
	}
}
