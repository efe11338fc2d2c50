package sparsify

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/unionfind"
	"repro/internal/xrand"
)

// builderCycleAllocs bounds one NewDeferredBuilder → Add×m → Finish →
// Release cycle on a warm Scratch (GNM n=64 m=600, promises over five
// classes). The map-keyed builder measured 103 allocations here; what
// remains is per-construction set-up (hash, level closure) and the
// builder and Deferred headers. A pool that stops recycling the side
// data, class list, dedup flags or item buffers pushes it back up.
const builderCycleAllocs = 24

func TestDeferredBuilderCycleAllocs(t *testing.T) {
	g := graph.GNM(64, 600, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 30}, 3)
	r := xrand.New(5)
	sigma := make([]float64, g.M())
	for i := range sigma {
		sigma[i] = r.Float64() * 16
	}
	build := func(scr *Scratch) *Deferred {
		b, err := NewDeferredBuilder(g.N(), g.M(), 2, Config{Xi: 0.5, K: 4, Seed: 9, Scratch: scr})
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range g.Edges() {
			b.Add(i, e.U, e.V, e.W, i, sigma[i])
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
	got := testing.AllocsPerRun(20, func() { build(scr).Release() })
	t.Logf("allocs per warm cycle: %v", got)
	if got > builderCycleAllocs {
		t.Fatalf("warm builder cycle allocates %v times, want <= %d", got, builderCycleAllocs)
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
