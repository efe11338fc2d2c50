package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/match"
)

// serveSize is the serve-warm job mix: jobs distinct inline-edges GNM
// instances solved by the dual-primal solver at ε=0.3.
type serveSize struct {
	jobs, n, m int
	wmax       float64
}

func serveSizeFor(tiny bool) serveSize {
	if tiny {
		return serveSize{jobs: 4, n: 30, m: 120, wmax: 100}
	}
	return serveSize{jobs: 4, n: 128, m: 1500, wmax: 100}
}

const (
	serveEps      = 0.3
	servePool     = 2
	maxWarmSolves = 40 // a job that has not converged to 1 warm round by then fails set-up
)

// serveOptions is the server's base solver configuration; the replay
// solvers use the same one, so they run the computation the server
// runs.
func serveOptions() []match.Option {
	return []match.Option{match.WithEps(serveEps), match.WithWorkers(0)}
}

// serveJob is one job of the mix: its wire body and what its results
// must satisfy.
type serveJob struct {
	body []byte
	src  *stream.EdgeStream
	exp  *expect
	// ref is the job's first 1-round warm reply at set-up, refAt the
	// warm-chain position it was served at (1 = the cold solve).
	ref   *match.Result
	refAt int
}

func buildServeJobs(size serveSize, seed uint64) ([]*serveJob, error) {
	jobs := make([]*serveJob, size.jobs)
	for i := range jobs {
		g := graph.GNM(size.n, size.m, graph.WeightConfig{Mode: graph.UniformWeights, WMax: size.wmax}, seed*16+uint64(i))
		spec := serve.JobSpec{Eps: serveEps, Source: serve.SourceSpec{Kind: "edges", N: g.N()}}
		for _, e := range g.Edges() {
			spec.Source.Edges = append(spec.Source.Edges, []float64{float64(e.U), float64(e.V), e.W})
		}
		body, err := json.Marshal(&spec)
		if err != nil {
			return nil, err
		}
		_, opt := matching.MaxWeightMatchingFloat(g, false)
		src := stream.NewEdgeStream(g)
		jobs[i] = &serveJob{body: body, src: src, exp: &expect{
			src:         src,
			weightOf:    func(idx int) float64 { return g.Edge(idx).W },
			opt:         opt,
			minOptRatio: 1 - serveEps,
			vertexBound: vertexBound(src),
			primalOnly:  true,
		}}
	}
	return jobs, nil
}

// serveSetup is a running in-process server on a loopback listener,
// pre-warmed on every job.
type serveSetup struct {
	jobs    []*serveJob
	srv     *serve.Server
	httpSrv *http.Server
	served  chan struct{} // closed when the HTTP serve loop has returned
	client  *http.Client
	url     string
	clients int
}

func startServe(size serveSize, seed uint64) (*serveSetup, error) {
	jobs, err := buildServeJobs(size, seed)
	if err != nil {
		return nil, err
	}
	clients := runtime.NumCPU()
	srv, err := serve.New(serve.Config{PoolSize: servePool, Options: serveOptions()})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	st := &serveSetup{
		jobs:    jobs,
		srv:     srv,
		httpSrv: &http.Server{Handler: srv.Handler()},
		served:  make(chan struct{}),
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
			MaxIdleConnsPerHost: clients, DisableCompression: true}},
		url:     "http://" + ln.Addr().String() + "/v1/solve",
		clients: clients,
	}
	go func() {
		defer close(st.served)
		st.httpSrv.Serve(ln)
	}()
	if err := st.prewarm(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// prewarm repeats each job until the server answers it from the warm
// cache in one round; that answer becomes the job's reference result.
func (st *serveSetup) prewarm() error {
	for i, j := range st.jobs {
		for k := 1; j.ref == nil; k++ {
			if k > maxWarmSolves {
				return fmt.Errorf("job %d did not converge to a 1-round warm solve in %d solves", i, maxWarmSolves)
			}
			doc, err := st.post(context.Background(), j.body).status()
			if err != nil {
				return fmt.Errorf("pre-warm job %d: %w", i, err)
			}
			if doc.WarmHit && doc.Rounds == 1 {
				j.exp.ref = ""
				if _, err := j.exp.check(doc.Result); err != nil {
					return fmt.Errorf("pre-warm job %d: %w", i, err)
				}
				j.ref, j.refAt = doc.Result, k
			}
		}
	}
	return nil
}

// close stops the HTTP server, drains the solve server and waits for
// the serve loop to return.
func (st *serveSetup) close() {
	if st == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st.httpSrv.Shutdown(ctx)
	<-st.served
	st.srv.Close()
	st.client.CloseIdleConnections()
}

// reply is one request as the client saw it.
type reply struct {
	job       int
	latencyMs float64
	code      int
	raw       []byte
	retries   int
	err       error
}

// post sends one synchronous solve and waits for its reply, retrying
// after 429 as a well-behaved caller does; latency spans the first
// attempt to the final reply.
func (st *serveSetup) post(ctx context.Context, body []byte) reply {
	start := time.Now()
	var r reply
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.url, bytes.NewReader(body))
		if err != nil {
			r.err = err
			return r
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := st.client.Do(req)
		if err != nil {
			r.err = fmt.Errorf("http: %w", err)
			return r
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			r.err = fmt.Errorf("http: %w", err)
			return r
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			r.retries++
			delay := 25 * time.Millisecond
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				delay = min(time.Duration(secs)*time.Second, 250*time.Millisecond)
			}
			time.Sleep(delay)
			continue
		}
		r.code, r.raw = resp.StatusCode, raw
		r.latencyMs = ms(time.Since(start))
		return r
	}
}

// status decodes a reply into the job status document.
func (r reply) status() (*serve.JobStatus, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.code != http.StatusOK {
		return nil, fmt.Errorf("http: status %d: %s", r.code, bytes.TrimSpace(r.raw))
	}
	var doc serve.JobStatus
	if err := json.Unmarshal(r.raw, &doc); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	if doc.Status != "done" || doc.Result == nil {
		return nil, fmt.Errorf("status: job ended %q", doc.Status)
	}
	return &doc, nil
}

// closedLoop runs st.clients clients for d; each sends its next request
// only once the previous reply arrived, cycling through the jobs.
func (st *serveSetup) closedLoop(d time.Duration) ([]reply, time.Duration, memDelta) {
	per := make([][]reply, st.clients)
	m0 := readMem()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < st.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k == 0 || time.Now().Before(deadline); k++ {
				job := (c + k) % len(st.jobs)
				r := st.post(context.Background(), st.jobs[job].body)
				r.job = job
				per[c] = append(per[c], r)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	mem := m0.to(readMem())
	var all []reply
	for _, p := range per {
		all = append(all, p...)
	}
	return all, wall, mem
}

// servedOp is one checked reply.
type servedOp struct {
	reply
	doc                 *serve.JobStatus
	optRatio, certRatio float64
}

// checkReplies runs the output checks on every reply and counts the
// replies served from the warm cache. Each job's replies must reproduce
// its reference's primal part bit for bit.
func (st *serveSetup) checkReplies(replies []reply, checks *checker) (ops []servedOp, warmHits int) {
	for _, r := range replies {
		doc, err := r.status()
		if err == nil {
			if doc.WarmHit {
				warmHits++
			} else {
				err = errors.New("warm: reply was not served from the warm cache")
			}
		}
		exp := st.jobs[r.job].exp
		if err == nil {
			_, err = exp.check(doc.Result)
		}
		checks.record(err)
		if err != nil {
			continue
		}
		ops = append(ops, servedOp{reply: r, doc: doc,
			optRatio: exp.optRatio(doc.Result), certRatio: exp.certRatio(doc.Result)})
	}
	return ops, warmHits
}

// runServeWarm: a closed loop of nproc clients against an in-process
// serve.Server whose warm cache holds every job. A traced run spends
// half its time on the HTTP loop (the serve layer split comes from the
// job status documents) and half on an in-process replay of the same
// warm solves, paired untraced and traced, for the engine, core and
// stream layers the server's solves run.
//
// Every warm solve starts from the previous solve's duals, so λ climbs
// along the chain of repeats (from about 0.1 to about 0.95 over some 600
// repeats of a job) while the matching, weight and Stats stay fixed.
// Replies are therefore held to their job's reference in that primal
// part only, and cert_ratio is read off the reference replies: a median
// over the timed replies would measure how many repeats the run fit in.
func runServeWarm(cfg config) (*report, error) {
	size := serveSizeFor(cfg.tiny)
	st, setupS, err := timedSetup(3, func() (*serveSetup, error) {
		return startServe(size, cfg.seed)
	}, (*serveSetup).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	rep := newReport()
	var refAt, refCert []float64
	for _, j := range st.jobs {
		refAt = append(refAt, float64(j.refAt))
		refCert = append(refCert, j.exp.certRatio(j.ref))
	}
	rep.detail["instance"] = map[string]any{"family": "gnm", "jobs": size.jobs, "n": size.n, "m": size.m,
		"wmax": size.wmax, "eps": serveEps, "pool": servePool, "clients": st.clients,
		"loop": "closed", "reference_chain_position": refAt}
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		d /= 2
	}
	replies, wall, mem := st.closedLoop(d)
	ops, warmHits := st.checkReplies(replies, rep.checks)
	if len(ops) == 0 {
		return nil, errors.New("no request succeeded")
	}
	lat := make([]float64, 0, len(replies))
	retries := 0
	for _, r := range replies {
		lat = append(lat, r.latencyMs)
		retries += r.retries
	}
	stat := func(f func(servedOp) float64) float64 {
		xs := make([]float64, len(ops))
		for i, o := range ops {
			xs[i] = f(o)
		}
		return median(xs)
	}
	v := rep.values
	n := float64(len(replies))
	if !cfg.trace {
		v["setup_s"] = setupS
		v["latency_ms.p50"] = median(lat)
		v["throughput_ops_s"] = float64(len(ops)) / wall.Seconds()
		v["passes"] = stat(func(o servedOp) float64 { return float64(o.doc.Result.Stats.Passes) })
		v["rounds"] = stat(func(o servedOp) float64 { return float64(o.doc.Result.Stats.SamplingRounds) })
		v["peak_words"] = stat(func(o servedOp) float64 { return float64(o.doc.Result.Stats.PeakWords) })
		v["opt_ratio"] = stat(func(o servedOp) float64 { return o.optRatio })
		v["cert_ratio"] = median(refCert)
		v["alloc_mb_per_op"] = mem.allocMB / n
		v["peak_rss_mb"] = peakRSSMB()
		latencyDetail(rep, "", lat)
		rep.detail["cert_ratio_timed_replies.p50"] = stat(func(o servedOp) float64 { return o.certRatio })
		return rep, nil
	}

	v["serve.queue_ms.p50"] = stat(func(o servedOp) float64 { return o.doc.QueueMS })
	v["serve.solve_ms.p50"] = stat(func(o servedOp) float64 { return o.doc.SolveMS })
	v["serve.overhead_ms.p50"] = stat(func(o servedOp) float64 { return o.latencyMs - o.doc.QueueMS - o.doc.SolveMS })
	v["serve.warm_hit_ratio"] = float64(warmHits) / n
	v["serve.retries_429"] = float64(retries)
	rep.detail["share.serve_solve"] = stat(func(o servedOp) float64 { return o.doc.SolveMS / o.latencyMs })
	latencyDetail(rep, "http.", lat)

	untraced, traced, err := st.replay(d, rep.checks)
	if err != nil {
		return nil, err
	}
	rep.layers(untraced, traced, size.m, 0)
	// The runtime metrics describe the served requests: server and
	// clients share the process, so they are read over the HTTP loop.
	v["runtime.gc_cycles_per_op"] = mem.gcCycles / n
	v["runtime.gc_pause_ms_per_op"] = mem.gcPauseMs / n
	return rep, nil
}

// replay runs the served warm solves in process: one Solver per job
// with the server's options, warm-started from its own previous result
// exactly as the server's warm cache does. The chain must reach the
// server's reference reply, bit for bit, at the same position; from
// there the jobs share d, each op paired untraced and traced from the
// same duals.
func (st *serveSetup) replay(d time.Duration, checks *checker) (untraced, traced []opSample, err error) {
	for i, j := range st.jobs {
		solver, err := match.New(serveOptions()...)
		if err != nil {
			return nil, nil, err
		}
		var prev *match.Result
		for k := 1; k <= j.refAt; k++ {
			if prev, err = solver.Solve(context.Background(), j.src, match.WithInitialDuals(prev)); err != nil {
				return nil, nil, fmt.Errorf("replay of job %d: %w", i, err)
			}
		}
		checks.record(sameResult(prev, j.ref))
		loop := &opLoop{exp: j.exp, checks: checks, dualPrimal: true,
			solve: func(src stream.Source, obs match.Observer) (*match.Result, int, error) {
				opts := []match.Option{match.WithInitialDuals(prev)}
				if obs != nil {
					opts = append(opts, match.WithObserver(obs))
				}
				res, err := solver.Solve(context.Background(), src, opts...)
				return res, solver.RetainedWords(), err
			},
			advance: func(res *match.Result) { prev = res },
		}
		u, t, err := loop.run(j.src, d/time.Duration(len(st.jobs)), true)
		if err != nil {
			return nil, nil, err
		}
		untraced = append(untraced, u...)
		traced = append(traced, t...)
	}
	return untraced, traced, nil
}

// sameResult reports whether the in-process replay reproduced the
// server's reply in full, dual fields included.
func sameResult(replayed, served *match.Result) error {
	a, err := fingerprint(replayed)
	if err != nil {
		return err
	}
	b, err := fingerprint(served)
	if err != nil {
		return err
	}
	if a != b {
		return errors.New("identity: the in-process replay differs from the server's reply")
	}
	return nil
}
