package core

import (
	"context"
	"errors"
	"math"
	"slices"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/levels"
	"repro/internal/matching"
	"repro/internal/parallel"
	"repro/internal/sparsify"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// Options configures a Solve run.
type Options struct {
	// Eps is the accuracy target ε (result aims at (1-O(ε))·OPT).
	Eps float64
	// P is the space exponent p > 1: central space ~ n^(1+1/p), rounds
	// O(p/ε).
	P float64
	// Seed drives all randomness.
	Seed uint64
	// Profile selects the constant regime; nil means Practical(eps).
	Profile *Profile
	// MaxRounds overrides the round budget (0 = derive from profile).
	MaxRounds int
	// Workers shards the per-edge/per-vertex work of every sampling
	// round (promise-multiplier evaluation, deferred-sparsifier
	// construction, refinement reveals, the per-level initial solutions)
	// across a worker pool: 0 = GOMAXPROCS, 1 = exact sequential
	// execution. The Result is bit-identical for every worker count —
	// randomness is pre-split per shard and shard outputs merge in
	// deterministic order (see internal/parallel); only wall-clock time
	// changes. The sequential oracle-use loop is untouched: that
	// adaptivity is the quantity the paper bounds, not an implementation
	// artifact.
	Workers int
	// Warm, when non-nil, requests a warm start from a prior solution's
	// dual snapshot: when the snapshot addresses the same discretization
	// (same n, ε, W*, B — see WarmDuals), the solve installs it in place
	// of the Lemma 20/21 initial solution and typically converges in
	// fewer rounds and passes; otherwise it falls back to the certified
	// cold start. Stats.WarmStarted reports which path ran.
	Warm *WarmDuals
}

// Stats reports the resource usage the paper's theorems bound.
type Stats struct {
	SamplingRounds  int   // adaptive access rounds (Theorem 15: O(p/ε))
	InitRounds      int   // rounds consumed by the initial solution (Lemma 20)
	OracleUses      int   // sequential deferred-sparsifier uses ("adaptivity at use")
	MicroCalls      int   // MicroOracle invocations
	PackIters       int   // inner packing iterations
	Passes          int   // metered passes over the input Source (W* scan, level census, λ evaluations, one fused sampling pass per round)
	PeakSampleEdges int   // peak sampled edges held centrally
	PeakWords       int   // peak words of central storage ever metered (samples, staging chunks, init transients) — the SpaceAccountant's high-water mark
	DualStateWords  int   // final size of the dual state
	UnionSizes      []int // per round: offline-solve union size
	LambdaTrace     []float64
	BetaTrace       []float64
	WitnessEvents   int // MicroOracle part (i) firings
	EarlyStopped    bool
	// WarmStarted reports that the run installed a prior solution's dual
	// snapshot instead of building the Lemma 20/21 initial solution (a
	// requested-but-invalid snapshot falls back cold and reports false).
	WarmStarted bool
	// RoundOfBestMatching is the (1-based) sampling round in which the
	// reported matching was found — the primal convergence point, usually
	// far earlier than the dual early-stop.
	RoundOfBestMatching int
}

// Result is the outcome of a Solve run.
type Result struct {
	// Matching is the best integral b-matching found (indices into the
	// input stream's edge sequence, with multiplicities).
	Matching *matching.Matching
	// Weight is the matching's weight in original units.
	Weight float64
	// DualObjective is the final dual objective scaled back to original
	// units; DualObjective/Lambda upper-bounds the optimum over the kept
	// (non-discretization-dropped) edges when Lambda > 0.
	DualObjective float64
	// Lambda is the final minimum normalized coverage over kept edges.
	Lambda float64
	Stats  Stats
	// Warm is a detached snapshot of the final dual state, installable
	// into a later solve via Options.Warm (nil when the run aborted
	// before the duals existed).
	Warm *WarmDuals
}

// CertifiedUpperBound returns the dual certificate's upper bound on the
// optimum matching weight: (dual objective)/λ with the (1+ε)
// discretization slack folded in. Valid (up to the weight mass dropped
// by discretization, < m·W*/B) whenever Lambda > 0, by weak duality of
// the layered relaxation LP10 against LP6. Returns +Inf when Lambda <= 0.
func (r *Result) CertifiedUpperBound(eps float64) float64 {
	if r.Lambda <= 0 {
		return math.Inf(1)
	}
	return r.DualObjective / r.Lambda * (1 + eps)
}

// solveChunkEdges is the staging-buffer granule of the fused sampling
// pass: edges are read from the Source in chunks of this size, promise
// multipliers are evaluated over the chunk in parallel shards, and the
// chunk is dispatched into the streaming sparsifier constructions. It is
// a constant so chunk boundaries — which never affect results anyway —
// are also independent of everything. The buffer is metered against the
// SpaceAccountant; it is the only per-round state whose size is not
// already bounded by the sample.
const solveChunkEdges = 1 << 12

// chunkEdge is one staged edge of the fused sampling pass.
type chunkEdge struct {
	u, v  int32
	k     int32 // weight level
	orig  int   // index in the source stream
	local int   // index within the level's own sequence
	w     float64
	sigma float64 // promise multiplier, filled per chunk
}

// SolveGraph runs the dual-primal algorithm on a materialized in-memory
// graph — the historical entry point, now a thin wrapper that serves the
// graph to Solve through the in-memory Source backend.
func SolveGraph(g *graph.Graph, opt Options) (*Result, error) {
	return Solve(stream.NewEdgeStream(g), opt)
}

// Solve runs the dual-primal algorithm against any stream.Source: an
// in-memory edge list, an on-disk binary file, a replayed generator, or
// a sharded composition. The solver holds O(n) dual state plus the
// O(n^(1+1/p))-word samples and a constant-size staging chunk; it never
// materializes the edge set, so instances larger than memory run through
// the file- or generator-backed Sources unchanged. The Result is a pure
// function of (source edge sequence, Options) — every backend serving
// the same sequence yields a bit-identical Result for any worker count.
func Solve(src stream.Source, opt Options) (*Result, error) {
	return SolveWith(context.Background(), src, opt, Extensions{})
}

// SolveWith is the engine entry point behind the public repro/match
// facade: Solve plus the optional resource extensions. The dual-primal
// solver is an engine.Algorithm — the first one — and SolveWith is a
// thin adapter that runs it under engine.Drive, the shared round-loop
// driver that owns cancellation, budgets and observer events. The
// context is honored at pass and round boundaries — sequential sweeps
// abort within a constant number of edges of cancellation on every
// backend, and the engine returns ctx.Err() at the next checkpoint.
// Budget axes are enforced at the same checkpoints; a trip returns the
// best-so-far primal result together with a *BudgetError
// (errors.Is-matchable against ErrBudgetExceeded) naming the axis. The
// returned *Result is non-nil whenever the options validate: on
// cancellation or a budget trip its Matching is the best found so far
// (feasibility is invariant — the matching only ever grows by whole
// offline solutions) and its Stats meter what was actually consumed.
// With an ample budget, a nil observer, and an uncancelled context,
// SolveWith is bit-identical to Solve: enforcement only reads meters the
// engine already keeps.
func SolveWith(ctx context.Context, src stream.Source, opt Options, ext Extensions) (*Result, error) {
	s, err := NewSession(opt)
	if err != nil {
		return nil, err
	}
	return s.Solve(ctx, src, ext, opt.Warm)
}

// dualPrimal is the paper's dual-primal solver (Algorithms 2/4) as an
// engine.Algorithm: Init runs the pre-loop passes (W* scan, level
// census, Lemma 20/21 initial solution, first λ evaluation) and Round is
// one sampling round — t deferred sparsifiers in a fused chunked pass,
// the offline solve on the sampled union, the sequential refine-and-use
// oracle loop, the λ re-evaluation. The engine.Run owns the accountant,
// pass meter, round counter, budgets and observer; this struct owns the
// dual state and everything derived from the instance.
type dualPrimal struct {
	opt  Options
	prof Profile
	res  *Result
	warm *WarmDuals // per-run warm-start request (nil = cold)

	// Instance-derived state, set by Init. The dual state is retained
	// across session runs (reuseOrNewState zeroes it in place when the
	// instance shape repeats).
	src        stream.Source
	eps        float64
	n, nl      int
	scheme     *levels.Scheme
	state      *dualState
	rng        *xrand.RNG
	workers    int
	maxNorm    int
	gammaChi   float64
	tUses      int
	maxRounds  int
	target     float64
	mKept      float64
	liveLevels []int
	levelCount []int // arena-backed

	// The (use, level) job grid of one sampling round, fixed across
	// rounds: job (q, slot) owns the deferred construction for use q at
	// level liveLevels[slot].
	jobs        []defJob
	chunk       []chunkEdge
	levelCursor []int // arena-backed
	slotOf      []int // arena-backed
	// Per-slot index lists into the chunk, rebuilt per dispatch (backing
	// arrays reused): each (use, level) job walks only its own level's
	// edges rather than rescanning the whole chunk.
	bySlot [][]int32

	// Round-loop scratch retained across rounds and runs: the (use,
	// slot) grids of deferred constructions, the offline-solve union
	// (sorted by source index, deduplicated), the union subgraph, and
	// the pool of union-find forests every construction draws from.
	// All of it is rebuilt from scratch-equivalent state each round;
	// retention only removes the per-round make/alloc traffic the
	// allocation audit found here.
	batches   [][]*sparsify.DeferredBuilder
	batchBuf  []*sparsify.DeferredBuilder
	defs      [][]*sparsify.Deferred
	defBuf    []*sparsify.Deferred
	union     []unionEdge
	unionTmp  []unionEdge // radix-sort ping-pong buffer
	sub       *graph.Graph
	ufScratch *sparsify.Scratch
	scratch   *oracleScratch // refine + oracle-loop working buffers

	// Trajectory and best-so-far primal state.
	lambda       float64
	beta         float64
	bestHat      float64
	bestWeight   float64
	best         *matching.Matching
	earlyStopped bool
}

type defJob struct{ q, slot, k int }

// unionEdge is one sampled edge of the offline-solve union, keyed by
// its index in the source stream.
type unionEdge struct {
	orig int
	e    graph.Edge
}

// sortByOrig sorts xs by source index with a stable LSD radix sort, one
// pass per significant byte of the largest index, ping-ponging through
// tmp. It returns the sorted slice and the other buffer for reuse.
func sortByOrig(xs, tmp []unionEdge) (sorted, spare []unionEdge) {
	maxOrig := 0
	for _, x := range xs {
		maxOrig = max(maxOrig, x.orig)
	}
	tmp = slices.Grow(tmp[:0], len(xs))[:len(xs)]
	for shift := 0; maxOrig>>shift > 0; shift += 8 {
		var start [257]int
		for _, x := range xs {
			start[(x.orig>>shift)&0xff+1]++
		}
		for b := 1; b < len(start); b++ {
			start[b] += start[b-1]
		}
		for _, x := range xs {
			b := (x.orig >> shift) & 0xff
			tmp[start[b]] = x
			start[b]++
		}
		xs, tmp = tmp, xs
	}
	return xs, tmp
}

// newDualPrimal validates the options and builds a fresh solver
// instance for one run.
func newDualPrimal(opt Options) (*dualPrimal, error) {
	if !(opt.Eps > 0) || opt.Eps >= 0.5 {
		return nil, errors.New("core: Eps must be in (0, 0.5)")
	}
	if !(opt.P > 1) {
		return nil, errors.New("core: P must be > 1")
	}
	prof := Practical(opt.Eps)
	if opt.Profile != nil {
		prof = *opt.Profile
	}
	return &dualPrimal{opt: opt, prof: prof, res: &Result{}, warm: opt.Warm}, nil
}

// Reset prepares the solver for another run (the engine.Algorithm
// reuse contract): per-run results, duals-trajectory and convergence
// state clear; the retained scratch — the dual state's backing table,
// the job grids, the staging chunk, the union slice/subgraph and the
// union-find pool — stays warm for Init to reuse. The best-so-far
// matching is released, not truncated: the previous run's Outcome owns
// those slices.
func (a *dualPrimal) Reset(engine.Params) {
	a.res = &Result{}
	a.warm = a.opt.Warm
	a.src = nil
	a.scheme = nil
	a.rng = nil
	a.liveLevels = a.liveLevels[:0]
	a.jobs = a.jobs[:0]
	a.levelCount, a.levelCursor, a.slotOf = nil, nil, nil // arena-backed; re-taken at Init
	a.chunk = a.chunk[:0]
	// Drop the previous run's construction pointers so their samples can
	// be collected between runs; the grid backing stays.
	clear(a.batchBuf)
	clear(a.defBuf)
	a.lambda, a.beta = 0, 0
	a.bestHat, a.bestWeight = 0, 0
	a.best = nil
	a.earlyStopped = false
}

// SetWarm installs the warm-start request for the next run (nil =
// cold). Sessions call it after Reset, before the drive.
func (a *dualPrimal) SetWarm(w *WarmDuals) { a.warm = w }

// retainedWords sums the solver-owned pooled scratch the session arena
// cannot see: the offline-solve union buffers, the sparsifier scratch
// (forests, shells, builder side data, item and reveal buffers) and the
// oracle-loop scratch. Zero before the first Init.
func (a *dualPrimal) retainedWords() int {
	const unionEdgeW = 3 // {int, graph.Edge{int32, int32, float64}}
	w := unionEdgeW * (cap(a.union) + cap(a.unionTmp))
	if a.ufScratch != nil {
		w += a.ufScratch.RetainedWords()
	}
	if a.scratch != nil {
		w += a.scratch.retainedWords()
	}
	return w
}

// bOf adapts the source's capacities to the dual-state callbacks.
func (a *dualPrimal) bOf(v int) int { return a.src.B(v) }

// Init runs everything before the sampling loop. Checkpoints sit after
// every metered pass: a cancelled W* scan yields a garbage W* (typically
// 0), which must surface as ctx.Err() with the best-so-far result, not
// as a scheme-validation error.
func (a *dualPrimal) Init(_ context.Context, run *engine.Run, src stream.Source) error {
	a.src = src
	a.eps = a.opt.Eps
	a.n = src.N()

	// Pass: W* scan — the only instance statistic the discretization
	// needs that is not known a priori.
	wstar := stream.MaxWeight(src)
	if err := run.Check(); err != nil {
		return err
	}
	scheme, err := levels.NewScheme(a.eps, wstar, src.TotalB())
	if err != nil {
		// A degenerate instance (e.g. a custom backend serving only
		// zero-weight edges), not bad options: the documented non-nil
		// Result contract still holds, with the meters filled in.
		return err
	}
	a.scheme = scheme
	a.rng = xrand.New(a.opt.Seed)
	a.workers = parallel.Workers(a.opt.Workers)
	a.nl = scheme.NumLevels()
	a.maxNorm = int(math.Ceil(4 / a.eps))
	if a.prof.OddSetNormCap > 0 && a.maxNorm > a.prof.OddSetNormCap {
		a.maxNorm = a.prof.OddSetNormCap
	}
	if a.maxNorm < 3 {
		a.maxNorm = 3
	}

	// Pass: level census — how many edges live at each weight level. The
	// populated levels define the per-level streams of the initial
	// solution and the (use, level) sparsifier grid; the counts fix each
	// construction's subsampling depth.
	a.levelCount = run.Arena().Ints(a.nl)
	stream.ForEachBlocks(src, func(_ int, edges []graph.Edge) bool {
		for i := range edges {
			if k, ok := scheme.Level(edges[i].W); ok {
				a.levelCount[k]++
			}
		}
		return true
	})
	a.liveLevels = a.liveLevels[:0]
	for k, cnt := range a.levelCount {
		if cnt > 0 {
			a.liveLevels = append(a.liveLevels, k)
		}
	}
	if err := run.Check(); err != nil {
		return err
	}

	// ---- Initial solution (Lemmas 12, 20, 21) or warm start ----
	a.state = reuseOrNewState(a.state, scheme, a.n, a.prof.ZPruneRel)
	// The init-solution seed split is consumed on both paths so the
	// per-round sampling seeds below stay aligned between warm and cold
	// runs of the same configuration.
	initRNG := a.rng.Split(1)
	if a.warm.installable(a.n, a.eps, scheme) {
		// Warm start: install the prior solution's duals in place of the
		// initial solution. The certificate is unaffected — λ and the
		// objective are re-evaluated against this instance below and
		// every round — only the trajectory's starting point moves.
		a.warm.install(a.state)
		a.res.Stats.WarmStarted = true
	} else {
		initRounds := buildInitialSolution(src, a.liveLevels, scheme, a.prof, a.eps, a.opt.P,
			initRNG, run.Acct, a.state, a.workers)
		a.res.Stats.InitRounds = initRounds
	}
	if err := run.Check(); err != nil {
		return err
	}

	// ---- Outer loop parameters (Algorithms 2/4) ----
	//lint:powtable once per Init (γ = n^(1/2p), Theorem 3), not a per-round cost
	a.gammaChi = math.Pow(float64(a.n), 1/(2*a.opt.P))
	if a.gammaChi < 2 {
		a.gammaChi = 2
	}
	if a.prof.ChiOverride > 0 {
		a.gammaChi = a.prof.ChiOverride
	}
	a.tUses = int(math.Ceil(a.prof.UsesPerRoundScale * math.Log(a.gammaChi) / a.eps))
	if a.tUses < 1 {
		a.tUses = 1
	}
	a.maxRounds = a.opt.MaxRounds
	if a.maxRounds == 0 {
		a.maxRounds = int(math.Ceil(a.prof.MaxRoundsScale*3*a.opt.P/a.eps)) + 1
	}
	a.lambda = lambdaOf(src, scheme, a.state) // pass: initial λ evaluation
	if err := run.Check(); err != nil {
		return err
	}
	a.beta = a.state.Objective(a.bOf)
	if a.beta <= 0 {
		a.beta = 1e-12
	}
	a.target = 1 - 3*a.eps
	a.mKept = float64(src.Len())

	a.jobs = a.jobs[:0]
	for q := 0; q < a.tUses; q++ {
		for slot, k := range a.liveLevels {
			a.jobs = append(a.jobs, defJob{q: q, slot: slot, k: k})
		}
	}
	if a.chunk == nil {
		a.chunk = make([]chunkEdge, 0, solveChunkEdges)
	}
	a.levelCursor = run.Arena().Ints(a.nl)
	a.slotOf = run.Arena().Ints(a.nl)
	for slot, k := range a.liveLevels {
		a.slotOf[k] = slot
	}
	a.bySlot = resizeRows(a.bySlot, len(a.liveLevels))

	// Round-loop scratch, sized once per run from the (use, level) grid
	// and the instance; a session's next run finds it warm.
	a.batches, a.batchBuf = grid(a.batches, a.batchBuf, a.tUses, len(a.liveLevels))
	a.defs, a.defBuf = grid(a.defs, a.defBuf, a.tUses, len(a.liveLevels))
	if a.sub == nil || a.sub.N() != a.n {
		a.sub = graph.New(a.n)
	}
	if a.ufScratch == nil || a.ufScratch.N() != a.n {
		a.ufScratch = sparsify.NewScratch(a.n)
	}
	if a.scratch == nil {
		a.scratch = newOracleScratch()
	}
	return nil
}

// resizeRows reuses a slice-of-slices spine: the length becomes n, the
// surviving rows keep their backing arrays (callers truncate them with
// [:0] before refilling).
func resizeRows[T any](rows [][]T, n int) [][]T {
	for len(rows) < n {
		rows = append(rows, nil)
	}
	return rows[:n]
}

// grid carves an r×c grid of row views out of one flat buffer, reusing
// both allocations across runs. Stale entries from a previous round or
// run are left in place — every (row, col) cell is overwritten before
// it is read in each round — except that Reset clears the buffer so
// retired constructions do not outlive their run.
func grid[T any](rows [][]T, buf []T, r, c int) ([][]T, []T) {
	if cap(buf) >= r*c {
		buf = buf[:r*c]
	} else {
		buf = make([]T, r*c)
	}
	if cap(rows) >= r {
		rows = rows[:r]
	} else {
		rows = make([][]T, r)
	}
	for i := 0; i < r; i++ {
		rows[i] = buf[i*c : (i+1)*c : (i+1)*c]
	}
	return rows, buf
}

// Round runs one sampling round, or reports convergence. For ε >= 1/3
// the certificate target 1-3ε is non-positive and any dual point
// satisfies it; still run at least one sampling round so a matching is
// produced.
func (a *dualPrimal) Round(_ context.Context, run *engine.Run) (bool, error) {
	round := run.Rounds() // 0-based index of the round about to run
	if round >= a.maxRounds || (round > 0 && a.lambda >= a.target) {
		a.earlyStopped = a.lambda >= a.target
		return true, nil
	}
	run.Lambda, run.Beta = a.lambda, a.beta
	// The rounds budget trips inside BeginRound exactly when the loop
	// wants a round it is not allowed: a run that converges within
	// budget never trips.
	if err := run.BeginRound(); err != nil {
		return false, err
	}
	acct := run.Acct
	src := a.src
	scheme, state := a.scheme, a.state
	eps, wHat := a.eps, scheme.WHat
	a.res.Stats.LambdaTrace = append(a.res.Stats.LambdaTrace, a.lambda)
	a.res.Stats.BetaTrace = append(a.res.Stats.BetaTrace, a.beta)

	// Outer covering parameters for this phase (Theorem 5 via
	// Corollary 6): α from the current λ, σ = ε/(4αρo).
	alpha := 2 * math.Log(a.mKept/eps) / (math.Max(a.lambda, 1e-9) * eps)
	boost := a.prof.SigmaBoost
	if boost <= 0 {
		boost = 1
	}
	sigma := eps / (4 * alpha * a.prof.OuterRho) * boost
	if sigma > 0.5 {
		sigma = 0.5
	}

	// Sample t deferred sparsifiers, per weight level (Lemma 11: the
	// union of per-class sparsifiers is the sparsifier we need), in
	// ONE fused chunked pass over the source: each staged chunk gets
	// its promise multipliers ς_e = exp(-α(cov_e/ŵ_k - λ))/ŵ_k
	// evaluated in parallel shards (the broadcast read-only dual
	// state, exactly as the distributed mappers would), then streams
	// into every (use, level) construction. The (use, level) pairs
	// are independent given their seeds, so the seeds are split
	// sequentially up front — in the exact order the sequential loop
	// would draw them — and the constructions consume the chunk
	// concurrently, each slotted at its (q, level) position. Nothing
	// of size m is ever materialized: the staging chunk is constant,
	// the constructions hold only their samples.
	for q := 0; q < a.tUses; q++ {
		for slot, k := range a.liveLevels {
			b, berr := sparsify.NewDeferredBuilder(a.n, a.levelCount[k], a.gammaChi, sparsify.Config{
				Xi:      a.prof.SparsifierXi,
				K:       a.prof.SparsifierK,
				Seed:    a.rng.Split(uint64(round*1000 + q*100 + k)).Uint64(),
				Scratch: a.ufScratch,
			})
			if berr != nil {
				return false, berr
			}
			a.batches[q][slot] = b
		}
	}
	dispatch := func(buf []chunkEdge) {
		if len(buf) == 0 {
			return
		}
		parallel.ForEachShard(a.workers, len(buf), func(_ int, sh parallel.Range) {
			for i := sh.Lo; i < sh.Hi; i++ {
				ce := &buf[i]
				r := state.CoverageRatio(ce.u, ce.v, int(ce.k))
				ce.sigma = math.Exp(-alpha*(r-a.lambda)) / wHat(int(ce.k))
			}
		})
		for slot := range a.bySlot {
			a.bySlot[slot] = a.bySlot[slot][:0]
		}
		for i := range buf {
			slot := a.slotOf[buf[i].k]
			a.bySlot[slot] = append(a.bySlot[slot], int32(i))
		}
		parallel.Run(a.workers, len(a.jobs), func(ji int) {
			job := a.jobs[ji]
			b := a.batches[job.q][job.slot]
			for _, i := range a.bySlot[job.slot] {
				ce := &buf[i]
				b.Add(ce.local, ce.u, ce.v, ce.w, ce.orig, ce.sigma)
			}
		})
	}
	for k := range a.levelCursor {
		a.levelCursor[k] = 0
	}
	acct.Alloc(solveChunkEdges) // the staging buffer is central storage
	// Staging chunks cut at solveChunkEdges regardless of the delivered
	// block shape, so dispatch boundaries — and therefore every sampling
	// draw — are independent of the backend's block geometry.
	stream.ForEachBlocks(src, func(base int, edges []graph.Edge) bool {
		for i := range edges {
			e := edges[i]
			k, ok := scheme.Level(e.W)
			if !ok {
				continue
			}
			a.chunk = append(a.chunk, chunkEdge{
				u: e.U, v: e.V, k: int32(k),
				orig: base + i, local: a.levelCursor[k], w: e.W,
			})
			a.levelCursor[k]++
			if len(a.chunk) == solveChunkEdges {
				dispatch(a.chunk)
				a.chunk = a.chunk[:0]
			}
		}
		return true
	})
	if err := run.Check(); err != nil {
		return false, err
	}
	dispatch(a.chunk)
	a.chunk = a.chunk[:0]
	acct.Free(solveChunkEdges)
	// Seal the constructions (the criticalLevel scans fan out over
	// the job grid, each result landing in its own index-keyed slot —
	// defBuf is the flat backing of the defs grid and job ji owns cell
	// (q, slot) = (ji/L, ji%L) — so the merge order is job order for any
	// worker count). Finish also hands every construction's forests back
	// to the pool.
	parallel.Run(a.workers, len(a.jobs), func(ji int) {
		a.defBuf[ji] = a.batches[a.jobs[ji].q][a.jobs[ji].slot].Finish()
	})
	sampledTotal := 0
	for _, d := range a.defBuf {
		sampledTotal += d.Size()
	}
	acct.Alloc(sampledTotal)
	if cur := acct.Current(); cur > a.res.Stats.PeakSampleEdges {
		a.res.Stats.PeakSampleEdges = cur
	}
	if err := run.Check(); err != nil {
		return false, err
	}

	// Offline solve on the union of sampled edges (Algorithm 2 step
	// 5); raise β on improvement (step 6). The stored Items carry
	// endpoints and original weights, so the union subgraph is built
	// from the samples alone — no lookback into the source. The union
	// and subgraph are retained scratch, rebuilt in place each round:
	// sorted by source index and deduplicated (every copy of an index
	// carries the same source edge, so which one survives is moot).
	a.union = a.union[:0]
	for q := range a.defs {
		for _, d := range a.defs[q] {
			for _, it := range d.Items() {
				a.union = append(a.union, unionEdge{it.Orig, graph.Edge{U: it.U, V: it.V, W: it.W}})
			}
		}
	}
	a.union, a.unionTmp = sortByOrig(a.union, a.unionTmp)
	a.union = slices.CompactFunc(a.union, func(x, y unionEdge) bool { return x.orig == y.orig })
	a.res.Stats.UnionSizes = append(a.res.Stats.UnionSizes, len(a.union))
	sub := a.sub
	sub.Clear()
	for v := 0; v < a.n; v++ {
		if b := src.B(v); b != 1 {
			sub.SetB(v, b)
		}
	}
	for _, ue := range a.union {
		sub.MustAddEdge(int(ue.e.U), int(ue.e.V), ue.e.W)
	}
	cand, _ := matching.OfflineB(sub, matching.OfflineConfig{ExactLimit: a.prof.OfflineExactLimit})
	candHat := 0.0
	for ci, si := range cand.EdgeIdx {
		mult := 1
		if cand.Mult != nil {
			mult = cand.Mult[ci]
		}
		if hk, ok := scheme.Level(sub.Edge(si).W); ok {
			candHat += wHat(hk) * float64(mult)
		}
	}
	if candHat > a.bestHat*(1+eps/8) || (a.best == nil || a.best.Size() == 0) && candHat > 0 {
		a.res.Stats.RoundOfBestMatching = round + 1
	}
	if candHat > a.bestHat {
		a.bestHat = candHat
		// Remap subgraph edge indices back to source indices.
		remap := &matching.Matching{Mult: []int{}}
		w := 0.0
		for ci, si := range cand.EdgeIdx {
			remap.EdgeIdx = append(remap.EdgeIdx, a.union[si].orig)
			mult := 1
			if cand.Mult != nil {
				mult = cand.Mult[ci]
			}
			remap.Mult = append(remap.Mult, mult)
			w += sub.Edge(si).W * float64(mult)
		}
		a.best = remap
		a.bestWeight = w
	}
	if candHat > a.beta {
		a.beta = candHat * (1 + eps)
	}

	// Sequential refinement and use of the t sparsifiers (the right
	// half of Figure 1: no further input access).
	for q := 0; q < a.tUses; q++ {
		support := refineBatch(a.defs[q], a.liveLevels, scheme, state, alpha, a.lambda, a.prof.StaleRefinement, a.workers, a.scratch)
		a.res.Stats.OracleUses++
		mini := runMiniOracle(support, a.beta, eps, a.prof, a.bOf, wHat, a.nl, a.maxNorm, a.scratch)
		a.res.Stats.MicroCalls += mini.microCalls
		a.res.Stats.PackIters += mini.packIters
		if mini.matchingWitness {
			a.res.Stats.WitnessEvents++
			a.beta *= 1 + eps
			continue
		}
		if !mini.answer.isZero() {
			state.Average(sigma, &mini.answer)
		}
	}
	// Every sparsifier of the round is consumed: hand their pooled
	// containers (items, indexes, refinement buffers) back for the next
	// round's constructions. The freed words below are the same words a
	// cold round frees — pooling never touches the accountant.
	for _, d := range a.defBuf {
		d.Release()
	}
	acct.Free(sampledTotal)

	a.lambda = lambdaOf(src, scheme, state) // pass: λ re-evaluation
	if err := run.Check(); err != nil {
		return false, err
	}
	return false, nil
}

// Finish reports the best-so-far matching and the dual fields. It is
// the one block shared by the normal exit and every abort — a checkpoint
// can fire before the dual state exists, so nil state is legal. A budget
// trip fires only at pass/round boundaries, so its λ is the last
// completely evaluated one (0 if it tripped before any λ pass ran) and
// the certificate, when positive, stands; the driver zeroes λ for
// non-budget aborts (a cancellation can interrupt a λ pass mid-flight,
// leaving an unsound prefix-minimum).
func (a *dualPrimal) Finish(_ *engine.Run) (*matching.Matching, engine.Extras) {
	ex := engine.Extras{
		Weight:       a.bestWeight,
		Lambda:       a.lambda,
		EarlyStopped: a.earlyStopped,
	}
	if a.state != nil {
		a.res.Stats.DualStateWords = a.n*a.nl + 4*len(a.state.zsets)
		ex.DualObjective = a.scheme.Unscale(a.state.Objective(a.bOf))
	}
	return a.best, ex
}

func init() {
	engine.Register(engine.Info{
		Name:      "dual-primal",
		Model:     "semi-streaming / MPC / clique (Ahn–Guha)",
		Guarantee: "(1-O(ε))·OPT weighted b-matching + dual certificate",
		Resources: "O(n^(1+1/p)) words, O(p/ε) rounds, 3+2·rounds passes",
	}, func(p engine.Params) (engine.Algorithm, error) {
		return newDualPrimal(Options{Eps: p.Eps, P: p.P, Seed: p.Seed,
			Workers: p.Workers, MaxRounds: p.MaxRounds})
	})
}

// lambdaOf computes λ = min over the source's kept edges of the
// normalized coverage (one metered pass; in the paper's models this is
// one round of sketch evaluation).
func lambdaOf(src stream.Source, scheme *levels.Scheme, state *dualState) float64 {
	lam := math.Inf(1)
	stream.ForEachBlocks(src, func(_ int, edges []graph.Edge) bool {
		for i := range edges {
			if k, ok := scheme.Level(edges[i].W); ok {
				if r := state.CoverageRatio(edges[i].U, edges[i].V, k); r < lam {
					lam = r
				}
			}
		}
		return true
	})
	return lam
}

// innerWorkers splits a worker budget between an outer job fan-out and
// the sharded work inside each job: with fewer jobs than workers the
// leftover pool goes to the jobs' internals. Never affects results —
// every layer is bit-identical for any worker count — only utilization.
func innerWorkers(workers, jobs int) int {
	if jobs < 1 || workers <= jobs {
		return 1
	}
	return workers / jobs
}

// refineBatch reveals current multipliers for the stored edges of one
// deferred batch (Definition 4's reveal step) and emits the support. The
// reveals work entirely from the stored Items — endpoints and levels
// travel with the sample, so no source access happens here (the right
// half of Figure 1). With stale=true (ablation) the sampling-time
// promise values carried in the Items are used instead, skipping the
// refinement. The per-level reveals run across the worker pool — every
// reveal is a read-only evaluation of the frozen dual state — and the
// per-level supports concatenate in level order, so the support is
// identical for any worker count.
func refineBatch(defs []*sparsify.Deferred, liveLevels []int,
	scheme *levels.Scheme, state *dualState, alpha, lambda float64,
	stale bool, workers int, sc *oracleScratch) []supportEdge {

	if sc == nil {
		sc = newOracleScratch()
	}
	// The level fan-out is the outer parallelism; when there are fewer
	// levels than workers (single weight class is common for unit
	// weights) push the leftover pool down into the per-item reveals.
	// Each job writes only its own per-level row of the scratch, so the
	// retained buffers stay race-free.
	inner := innerWorkers(workers, len(defs))
	sc.perLevel = resizeRows(sc.perLevel, len(defs))
	parallel.Run(workers, len(defs), func(li int) {
		k := liveLevels[li]
		sp := defs[li].RefineWith(inner, func(it sparsify.Item) float64 {
			if stale {
				return it.Weight // the sampling-time promise value
			}
			r := state.CoverageRatio(it.U, it.V, k)
			return math.Exp(-alpha*(r-lambda)) / scheme.WHat(k)
		})
		out := sc.perLevel[li][:0]
		for _, item := range sp.Items {
			out = append(out, supportEdge{
				u: item.U, v: item.V, k: k,
				w:       item.Weight,
				origIdx: item.Orig,
			})
		}
		sc.perLevel[li] = out
	})
	support := sc.support[:0]
	for _, out := range sc.perLevel {
		support = append(support, out...)
	}
	sc.support = support
	return support
}

// buildInitialSolution computes per-level maximal b-matchings by
// filtering (Lemma 20) and installs the Lemma 21 assignment
// x_i(k) = r·ŵ_k on saturated vertices. Each level's stream is a
// Filtered view of the source — no per-level subgraph is materialized;
// the filter holds O(n) residuals and its metered transient sample.
// Returns the rounds consumed (levels run conceptually in parallel: the
// max over levels — and with workers > 1 they genuinely do, each with a
// pre-split seed, entries merging in level order). The jobs meter
// nothing shared; each level's FilterStats replay onto acct in level
// order afterwards, so acct's rounds, current, and peak end up exactly
// as a sequential run leaves them for any worker count — concurrent
// levels never inflate the measured peak.
func buildInitialSolution(src stream.Source, liveLevels []int, scheme *levels.Scheme,
	prof Profile, eps, p float64, rng *xrand.RNG, acct *stream.SpaceAccountant,
	state *dualState, workers int) int {

	r := prof.RInitFactor * eps
	type levelJob struct {
		k    int
		seed uint64
	}
	jobs := make([]levelJob, 0, len(liveLevels))
	for _, k := range liveLevels {
		jobs = append(jobs, levelJob{k: k, seed: rng.Split(uint64(k)).Uint64()})
	}
	type levelResult struct {
		entries    []xEntry
		rounds     int
		peakSample int
	}
	results := parallel.Map(workers, len(jobs), func(ji int) levelResult {
		j := jobs[ji]
		view := stream.NewFilter(src, func(_ int, e graph.Edge) bool {
			ek, ok := scheme.Level(e.W)
			return ok && ek == j.k
		})
		_, stats := matching.MaximalBMatchingFilter(view, p, j.seed, nil)
		var entries []xEntry
		for v := 0; v < src.N(); v++ {
			if stats.FinalResidual[v] == 0 { // saturated at level k
				entries = append(entries, xEntry{v: int32(v), k: j.k, val: r * scheme.WHat(j.k)})
			}
		}
		return levelResult{entries: entries, rounds: stats.Rounds, peakSample: stats.PeakSample}
	})
	maxRounds := 0
	var entries []xEntry
	for _, lr := range results {
		if lr.rounds > maxRounds {
			maxRounds = lr.rounds
		}
		entries = append(entries, lr.entries...)
		// Replay: a sequential run meters each level's rounds and holds
		// its peak transiently before freeing it all (filters free every
		// allocation before returning).
		for i := 0; i < lr.rounds; i++ {
			acct.BeginRound()
		}
		acct.Alloc(lr.peakSample)
		acct.Free(lr.peakSample)
	}
	state.SetInit(entries)
	for i := 0; i < maxRounds; i++ {
		acct.BeginRound()
	}
	return maxRounds
}
