package sparsify

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/unionfind"
	"repro/internal/xrand"
)

// builderCycleAllocs bounds one NewDeferredBuilder → Add×m → Finish →
// Release cycle on a warm Scratch (GNM n=64 m=600, promises over five
// classes, K = 16 after the χ² boost, degree about 19 on average and
// 30 at most, so the forests are built). The map-keyed builder
// measured 103 allocations here; what remains is per-construction
// set-up (hash, level closure) and the builder and Deferred headers. A
// pool that stops recycling the side data, class list, dedup flags or
// item buffers pushes it back up.
const builderCycleAllocs = 24

// keepAllCycleAllocs bounds the same cycle when MaxDegree is below K
// (K = 32 after the boost): no construction builds forests or a level
// hash, so only the builder and Deferred headers remain.
const keepAllCycleAllocs = 2

func TestDeferredBuilderCycleAllocs(t *testing.T) {
	checkBuilderCycleAllocs(t, Config{Xi: 0.5, K: 4, Seed: 9}, builderCycleAllocs)
}

func TestDeferredBuilderKeepAllCycleAllocs(t *testing.T) {
	checkBuilderCycleAllocs(t, Config{Xi: 0.5, K: 8, Seed: 9}, keepAllCycleAllocs)
}

// checkBuilderCycleAllocs runs warm builder cycles under cfg, with
// MaxDegree set to the instance's largest degree, and requires that
// they build forests exactly when that degree reaches K, match a cold
// build, and allocate at most bound times each.
func checkBuilderCycleAllocs(t *testing.T, cfg Config, bound int) {
	t.Helper()
	const chi = 2
	g := graph.GNM(64, 600, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 30}, 3)
	r := xrand.New(5)
	sigma := make([]float64, g.M())
	for i := range sigma {
		sigma[i] = r.Float64() * 16
	}
	degree := make([]int, g.N())
	for _, e := range g.Edges() {
		degree[e.U]++
		degree[e.V]++
	}
	cfg.MaxDegree = slices.Max(degree)
	keepAll := deferredConfig(g.N(), chi, cfg).keepsAll()
	build := func(scr *Scratch) *Deferred {
		cfg.Scratch = scr
		b, err := NewDeferredBuilder(g.N(), g.M(), chi, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range g.Edges() {
			b.Add(i, e.U, e.V, e.W, i, sigma[i], classOf(sigma[i]))
		}
		return b.Finish()
	}
	cold := build(nil)
	scr := NewScratch(g.N())
	for i := 0; i < 3; i++ {
		d := build(scr)
		if !reflect.DeepEqual(d.Items(), cold.Items()) {
			t.Fatalf("pooled cycle %d: items differ from a cold build", i)
		}
		d.Release()
	}
	if built := scr.Retained() > 0; built == keepAll {
		t.Fatalf("largest degree %d: forests built = %v with keepAll = %v", cfg.MaxDegree, built, keepAll)
	}
	got := testing.AllocsPerRun(20, func() { build(scr).Release() })
	t.Logf("largest degree %d, keepAll %v: allocs per warm cycle: %v", cfg.MaxDegree, keepAll, got)
	if got > float64(bound) {
		t.Fatalf("warm builder cycle allocates %v times, want <= %d", got, bound)
	}
}

// TestScratchRetainedWordsExact pins RetainedWords on hand-filled pools:
// every free list's spine and every pooled backing array is counted.
// Each list below receives one value, so each spine has capacity 1.
func TestScratchRetainedWordsExact(t *testing.T) {
	s := NewScratch(10)
	s.Put(unionfind.New(10))                  // 1 + (5·10+7)/8 = 8
	s.items.put(make([]Item, 0, 4))           // 3 + 6·4 = 27
	s.f64s.put(make([]float64, 0, 5))         // 3 + 5 = 8
	s.infos.put(make([]builderEdge, 0, 2))    // 3 + 5·2 = 13
	s.classes.put(make([]builderClass, 0, 3)) // 3 + 2·3 = 9
	s.flags.put(make([]bool, 0, 9))           // 3 + 2 = 5
	s.shells.put(&construction{               // 1 + 3·(2+2) + 3 + 4 + 1 = 21
		ufs:    [][]*unionfind.UF{make([]*unionfind.UF, 0, 3), nil},
		stored: [][]int{make([]int, 0, 4), make([]int, 0, 1)},
	})
	const want = 8 + 27 + 8 + 13 + 9 + 5 + 21
	if got := s.RetainedWords(); got != want {
		t.Fatalf("RetainedWords = %d, want %d", got, want)
	}
}
