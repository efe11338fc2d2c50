package match_test

// The acceptance gate of the facade: match.Solver.Solve with default
// plumbing must be bit-identical to core.Solve, a direct engine.Drive of
// a fresh dual-primal solver —
// on the pinned 14-run corpus (7 instance families × 2 worker counts)
// for the in-memory backend, and across all four stream backends. The
// public Result is compared to the engine Outcome field by field (exact
// float bits, exact matching indices, exact stats).

import (
	"context"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/stream"
	"repro/match"
)

// corpus returns the 7 instance families of the pinned corpus (the same
// families internal/core's worker bit-identity suite uses).
func corpus() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"gnm-uniform": graph.GNM(64, 512, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 40}, 101),
		"gnm-powers":  graph.GNM(48, 300, graph.WeightConfig{Mode: graph.PowersOf, Eps: 0.25, Levels: 10}, 102),
		"gnm-exp":     graph.GNM(56, 400, graph.WeightConfig{Mode: graph.ExpWeights, Scale: 2}, 103),
		"powerlaw":    graph.PowerLaw(64, 10, 2.5, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 30}, 104),
		"triangles":   graph.TriangleChain(16),
		"bipartite":   graph.BipartiteParallel(24, 24, 200, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 12}, 105, 2),
		"bmatching":   graph.WithRandomB(graph.GNM(40, 260, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 15}, 106), 3, false, 107),
	}
}

// assertMatchesCore compares the public result against the engine
// outcome bit for bit: the dual fields, the matching, and every Stats
// field (the public Stats is the engine's type).
func assertMatchesCore(t *testing.T, label string, pub *match.Result, ref *engine.Outcome) {
	t.Helper()
	exact := func(name string, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: %s = %v, engine has %v (not bit-identical)", label, name, got, want)
		}
	}
	exact("Weight", pub.Weight, ref.Weight)
	exact("DualObjective", pub.DualObjective, ref.DualObjective)
	exact("Lambda", pub.Lambda, ref.Lambda)
	if !reflect.DeepEqual(pub.Matching.EdgeIdx, ref.Matching.EdgeIdx) {
		t.Errorf("%s: matching edge indices differ\npub: %v\nref: %v", label, pub.Matching.EdgeIdx, ref.Matching.EdgeIdx)
	}
	if !reflect.DeepEqual(pub.Matching.Mult, ref.Matching.Mult) {
		t.Errorf("%s: matching multiplicities differ", label)
	}
	if !reflect.DeepEqual(pub.Stats, ref.Stats) {
		t.Errorf("%s: stats differ\npub: %+v\nref: %+v", label, pub.Stats, ref.Stats)
	}
}

func TestSolveEquivalentToCoreOnCorpus(t *testing.T) {
	// 7 families × workers {1, 4} = the pinned 14-run corpus.
	for name, g := range corpus() {
		for _, workers := range []int{1, 4} {
			ref, err := core.Solve(stream.NewEdgeStream(g), core.Options{Eps: 0.25, P: 2, Seed: 7, Workers: workers})
			if err != nil {
				t.Fatalf("%s: engine: %v", name, err)
			}
			solver, err := match.New(match.WithEps(0.25), match.WithSpaceExponent(2),
				match.WithSeed(7), match.WithWorkers(workers))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			pub, err := solver.Solve(context.Background(), stream.NewEdgeStream(g))
			if err != nil {
				t.Fatalf("%s: facade: %v", name, err)
			}
			assertMatchesCore(t, name, pub, ref)
			if pub.Eps != 0.25 {
				t.Errorf("%s: solve-time eps not baked into the result: %v", name, pub.Eps)
			}
			want := math.Inf(1)
			if ref.Lambda > 0 {
				want = ref.DualObjective / ref.Lambda * (1 + 0.25)
			}
			if got := pub.CertifiedUpperBound(); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: certified bound %v, engine (with matching eps) has %v", name, got, want)
			}
		}
	}
}

func TestSolveEquivalentToCoreAcrossBackends(t *testing.T) {
	// The same edge sequence behind all four backends must match the
	// engine's in-memory reference exactly, for sequential and sharded
	// pipelines.
	spec := stream.GenSpec{N: 72, M: 700,
		Weights: graph.WeightConfig{Mode: graph.UniformWeights, WMax: 30}, Seed: 21}
	gen, err := stream.NewGen(spec)
	if err != nil {
		t.Fatal(err)
	}
	g := stream.Materialize(gen)
	path := filepath.Join(t.TempDir(), "inst.rbg")
	if err := stream.WriteBinaryFile(path, stream.NewEdgeStream(g)); err != nil {
		t.Fatal(err)
	}
	file, err := stream.OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	genFresh, err := stream.NewGen(spec)
	if err != nil {
		t.Fatal(err)
	}
	half := g.M() / 2
	a, b := graph.New(g.N()), graph.New(g.N())
	for i, e := range g.Edges() {
		dst := a
		if i >= half {
			dst = b
		}
		dst.MustAddEdge(int(e.U), int(e.V), e.W)
	}
	concat, err := stream.Concat(stream.NewEdgeStream(a), stream.NewEdgeStream(b))
	if err != nil {
		t.Fatal(err)
	}
	backends := map[string]match.Source{
		"memory":    stream.NewEdgeStream(g),
		"file":      file,
		"generator": genFresh,
		"sharded":   concat,
	}
	for _, workers := range []int{1, 0} {
		ref, err := core.Solve(stream.NewEdgeStream(g), core.Options{Eps: 0.25, P: 2, Seed: 9, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		solver, err := match.New(match.WithSeed(9), match.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for name, src := range backends {
			pub, err := solver.Solve(context.Background(), src)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			assertMatchesCore(t, name, pub, ref)
		}
	}
}
