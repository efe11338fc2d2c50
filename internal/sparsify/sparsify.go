// Package sparsify implements cut sparsification as used by the paper:
//
//   - the single-pass streaming construction of Algorithm 6 (geometric
//     edge-subsampling levels G_0 ⊇ G_1 ⊇ …, with k spanning forests per
//     level estimating edge connectivity), following Benczúr–Karger
//     sampling as systematized by Fung et al. and Ahn–Guha–McGregor;
//   - weighted sparsification by weight class (sum of per-class
//     sparsifiers is a sparsifier of the sum — Lemma 17's proof);
//   - the *deferred* sparsifier of Definition 4: sampling decisions are
//     made from promise values ς with ς/χ ≤ u ≤ ςχ, oversampling by
//     Θ(χ²); the exact weights u are revealed only for stored edges, after
//     which Refine produces an unbiased (1±ξ) cut approximation.
//
// Edges kept at critical level i′ (the smallest subsampling level at which
// the endpoints are no longer k-connected) survive with probability
// 2^(−i′); inverse-probability weighting makes every cut unbiased, and
// k = O(ξ⁻² log² n) concentrates it.
package sparsify

import (
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/unionfind"
	"repro/internal/xrand"
)

// Config parameterizes a sparsifier construction.
type Config struct {
	// K is the number of spanning forests per subsampling level
	// (connectivity threshold). The theory wants O(ξ⁻² log² n); the
	// constructor computes a default from Xi and N when K == 0.
	K int
	// Xi is the target cut accuracy (default 0.25 when 0).
	Xi float64
	// Seed drives all sampling.
	Seed uint64
	// Workers shards the weight-class bucketing by edge range and runs
	// the per-class constructions concurrently (0 = GOMAXPROCS, 1 =
	// sequential). The output is bit-identical for every worker count:
	// per-class randomness is seeded from the class id, and classes merge
	// in increasing class order.
	Workers int
	// Scratch, when non-nil, supplies the constructions' union-find
	// forests from a reusable pool sized for the same vertex count
	// (callers releasing their constructions hand the forests back). A
	// Reset forest equals a fresh one, so results are unchanged; only
	// allocation traffic is.
	Scratch *Scratch
}

func (c Config) withDefaults(n int) Config {
	if c.Xi <= 0 {
		c.Xi = 0.25
	}
	if c.K == 0 {
		logn := math.Log2(float64(n) + 1)
		c.K = int(math.Ceil(2 * logn / (c.Xi * c.Xi)))
		if c.K < 4 {
			c.K = 4
		}
	}
	return c
}

// Sparsifier is the output: a weighted subgraph approximating all cuts of
// the input within (1 ± ξ) with high probability.
type Sparsifier struct {
	N     int
	Items []Item
}

// Item is one stored edge with its inverse-probability weight. An Item
// carries everything downstream consumers need about the edge — the
// refinement reveal and the union/offline steps of the solver work from
// stored Items alone, with no random access back into the input stream.
type Item struct {
	EdgeIdx int     // index into the construction's local edge sequence
	Orig    int     // index into the original source stream (== EdgeIdx unless built via DeferredBuilder)
	U, V    int32   // endpoints
	W       float64 // original edge weight (0 when the builder was not told it)
	Weight  float64 // reweighted value (source weight / retention prob)
	Prob    float64 // retention probability used
}

// Graph materializes the sparsifier as a graph (for downstream cut
// queries).
func (s *Sparsifier) Graph() *graph.Graph {
	g := graph.New(s.N)
	for _, it := range s.Items {
		g.MustAddEdge(int(it.U), int(it.V), it.Weight)
	}
	return g
}

// CutWeight evaluates the sparsifier's estimate of the cut around the set.
func (s *Sparsifier) CutWeight(inSet []bool) float64 {
	t := 0.0
	for _, it := range s.Items {
		if inSet[it.U] != inSet[it.V] {
			t += it.Weight
		}
	}
	return t
}

// construction holds the per-level forest state shared by the plain and
// deferred builds.
type construction struct {
	cfg    Config
	n      int
	numLv  int
	hash   *xrand.PolyHash   // draws each edge's subsampling level
	ufs    [][]*unionfind.UF // [level][j], j < K
	stored [][]int           // [level] -> slots of the edges stored in forests
}

func newConstruction(n, m int, cfg Config) *construction {
	numLv := 1
	for v := 1; v < m; v <<= 1 {
		numLv++
	}
	h := xrand.NewPolyHash(xrand.New(cfg.Seed), 2)
	// A retired shell supplies the spines and the stored rows' capacity;
	// the hash is always rebuilt from the seed, so a pooled construction
	// computes exactly what a fresh one does.
	var c *construction
	if s := cfg.Scratch; s != nil && s.n == n {
		c = s.shells.get(nil)
	}
	if c == nil {
		c = &construction{}
	}
	c.cfg = cfg
	c.n = n
	c.numLv = numLv
	c.hash = h
	c.ufs = respine(c.ufs, numLv)
	c.stored = respine(c.stored, numLv)
	// Forests are allocated lazily: forest j at level i exists only once
	// some edge was rejected by forests 0..j-1 there. An unallocated
	// forest is semantically a discrete forest (nothing connected), which
	// is exactly the state it would be allocated in.
	return c
}

// respine sizes a slice-of-slices spine to n rows, keeping surviving
// rows' backing arrays (retired shells truncate them to length 0).
func respine[T any](rows [][]T, n int) [][]T {
	for len(rows) < n {
		rows = append(rows, nil)
	}
	return rows[:n]
}

// levelOf is the geometric subsampling level of an edge.
func (c *construction) levelOf(edgeIdx int) int {
	return c.hash.Level(uint64(edgeIdx)+1, c.numLv-1)
}

// process streams one edge through every level it survives to, inserting
// it into the first forest without a cycle (Algorithm 6 steps 5-8). The
// stored rows record slot: the edge index itself for the array-fed
// builds, the side-data position for the streaming builder. Reports
// whether the edge was stored at any level, so streaming callers can
// retain side data for stored edges only.
func (c *construction) process(edgeIdx, slot int, u, v int32) bool {
	lv := c.levelOf(edgeIdx)
	storedAny := false
	for i := 0; i <= lv && i < c.numLv; i++ {
		forests := c.ufs[i]
		placed := false
		for j := 0; j < len(forests); j++ {
			if !forests[j].Same(int(u), int(v)) {
				forests[j].Union(int(u), int(v))
				c.stored[i] = append(c.stored[i], slot)
				placed = true
				break
			}
		}
		if placed {
			storedAny = true
			continue
		}
		if len(forests) < c.cfg.K {
			nf := c.newForest()
			nf.Union(int(u), int(v))
			c.ufs[i] = append(forests, nf)
			c.stored[i] = append(c.stored[i], slot)
			storedAny = true
		}
	}
	return storedAny
}

// newForest allocates one spanning-forest structure, from the pool when
// the construction was configured with one.
func (c *construction) newForest() *unionfind.UF {
	if s := c.cfg.Scratch; s != nil && s.n == c.n {
		return s.Get()
	}
	return unionfind.New(c.n)
}

// words is a retired shell's pooled footprint: both level spines and
// their rows at capacity.
func (c *construction) words() int {
	w := sliceHeaderWords * (cap(c.ufs) + cap(c.stored))
	for _, row := range c.ufs[:cap(c.ufs)] {
		w += pointerWords * cap(row)
	}
	for _, row := range c.stored[:cap(c.stored)] {
		w += cap(row)
	}
	return w
}

// release hands every allocated forest back to the configured pool.
// Call only once the construction is fully consumed (criticalLevel
// reads the forests during item emission).
func (c *construction) release() {
	s := c.cfg.Scratch
	if s == nil || s.n != c.n {
		return
	}
	for i, forests := range c.ufs {
		s.Put(forests...)
		clear(forests)
		c.ufs[i] = forests[:0] // the level's spine stays with the shell
	}
}

// retire releases the forests and hands the construction shell itself
// back to the pool for the next newConstruction. Call only once fully
// consumed; the construction must not be used afterwards.
func (c *construction) retire() {
	c.release()
	s := c.cfg.Scratch
	if s == nil || s.n != c.n {
		return
	}
	for i := range c.stored {
		c.stored[i] = c.stored[i][:0]
	}
	c.hash = nil
	s.shells.put(c)
}

// criticalLevel returns i′(e): the smallest level at which the endpoints
// are not connected in the K-th (last) forest structure, i.e. the level
// where the edge's connectivity drops below K. ok=false if the endpoints
// are K-connected at every level (out of levels; treat as not output).
func (c *construction) criticalLevel(u, v int32) (int, bool) {
	for i := 0; i < c.numLv; i++ {
		// Fewer than K forests allocated means no edge ever needed the
		// K-th: the endpoints cannot be K-connected there.
		if len(c.ufs[i]) < c.cfg.K {
			return i, true
		}
		if !c.ufs[i][c.cfg.K-1].Same(int(u), int(v)) {
			return i, true
		}
	}
	return 0, false
}

// finish emits the sparsifier items (Algorithm 6 steps 10-15): an edge is
// output iff its own subsampling level reaches its critical level i′; the
// weight is inverse-probability scaled. An edge whose subsampling level
// reaches i′ necessarily entered a forest at level i′ (its endpoints are
// not K-connected there), so the stored set always contains every output
// candidate and the inverse-probability estimator is unbiased.
func (c *construction) finish(edges []graph.Edge, weightOf func(edgeIdx int) float64) []Item {
	seen := make(map[int]bool)
	var items []Item
	for i := 0; i < c.numLv; i++ {
		for _, idx := range c.stored[i] {
			if seen[idx] {
				continue
			}
			seen[idx] = true
			e := edges[idx]
			ip, ok := c.criticalLevel(e.U, e.V)
			if !ok {
				continue
			}
			if c.levelOf(idx) < ip {
				continue
			}
			prob := retentionProb(ip)
			items = append(items, Item{
				EdgeIdx: idx,
				Orig:    idx,
				U:       e.U,
				V:       e.V,
				W:       weightOf(idx),
				Weight:  weightOf(idx) / prob,
				Prob:    prob,
			})
		}
	}
	return items
}

// Unweighted builds a sparsifier of an unweighted (or uniformly weighted)
// graph in a single pass over its edges.
func Unweighted(g *graph.Graph, cfg Config) *Sparsifier {
	cfg = cfg.withDefaults(g.N())
	c := newConstruction(g.N(), g.M(), cfg)
	for idx, e := range g.Edges() {
		c.process(idx, idx, e.U, e.V)
	}
	items := c.finish(g.Edges(), func(i int) float64 { return g.Edge(i).W })
	return &Sparsifier{N: g.N(), Items: items}
}

// Weighted builds a sparsifier of a weighted graph by splitting edges
// into powers-of-two weight classes, sparsifying each class, and taking
// the union (the sum of sparsifiers of a partition is a sparsifier of the
// whole — Lemma 17). Weights may span any positive range. Classes build
// concurrently on cfg.Workers goroutines and merge in class order, so the
// output is identical for every worker count.
func Weighted(g *graph.Graph, cfg Config) *Sparsifier {
	cfg = cfg.withDefaults(g.N())
	classes := bucketByClass(g.M(), func(i int) float64 { return g.Edge(i).W }, cfg.Workers)
	perClass := parallel.Map(cfg.Workers, len(classes), func(ci int) []Item {
		grp := classes[ci]
		sub := newConstruction(g.N(), g.M(), withClassSeed(cfg, grp.class))
		for _, idx := range grp.idxs {
			e := g.Edge(idx)
			sub.process(idx, idx, e.U, e.V)
		}
		return sub.finish(g.Edges(), func(i int) float64 { return g.Edge(i).W })
	})
	var items []Item
	for _, its := range perClass {
		items = append(items, its...)
	}
	return &Sparsifier{N: g.N(), Items: items}
}

func withClassSeed(cfg Config, class int) Config {
	cfg.Seed = xrand.Mix64(cfg.Seed ^ (uint64(class)+1)*0x9e3779b97f4a7c15)
	return cfg
}

// classGroup is one powers-of-two weight class with its edge indices in
// increasing edge order.
type classGroup struct {
	class int
	idxs  []int
}

// bucketByClass groups edge indices by ⌊log2(weight)⌋ class, sharding the
// scan by edge range across workers. Shard-local lists concatenate in
// shard order, so each class's index list comes out in increasing edge
// order — exactly what a sequential scan produces for any shard partition
// — and parallel edges (same endpoints, same class) keep their arrival
// order, which makes their downstream weight sums deterministic. Classes
// are returned sorted; zero-weight edges are dropped (no cut mass).
func bucketByClass(m int, weightOf func(int) float64, workers int) []classGroup {
	shards := parallel.Shards(m, parallel.Workers(workers))
	locals := parallel.Map(workers, len(shards), func(s int) map[int][]int {
		local := make(map[int][]int)
		for i := shards[s].Lo; i < shards[s].Hi; i++ {
			w := weightOf(i)
			if w <= 0 {
				continue
			}
			cl := int(math.Floor(math.Log2(w)))
			local[cl] = append(local[cl], i)
		}
		return local
	})
	merged := make(map[int][]int)
	for _, local := range locals {
		//lint:ordered per-class append; shard order is fixed by the locals slice
		for cl, idxs := range local {
			merged[cl] = append(merged[cl], idxs...)
		}
	}
	keys := make([]int, 0, len(merged))
	//lint:ordered key collection, sorted immediately below
	for cl := range merged {
		keys = append(keys, cl)
	}
	sort.Ints(keys)
	out := make([]classGroup, 0, len(keys))
	for _, cl := range keys {
		out = append(out, classGroup{class: cl, idxs: merged[cl]})
	}
	return out
}
