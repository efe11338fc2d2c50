package main

import (
	"errors"
	"time"

	"repro/internal/stream"
	"repro/match"
)

// solveFn runs one operation on src; obs is nil on untraced ops. It
// returns the result and the Solver's retained words after the solve.
type solveFn func(src stream.Source, obs match.Observer) (*match.Result, int, error)

// opSample is what the benchmark keeps of one in-process op. The
// matching itself is dropped once checked.
type opSample struct {
	latencyMs           float64
	stats               match.Stats
	optRatio, certRatio float64
	retained            int
	mem                 memDelta
	layers              layerSample // traced ops only
}

// opLoop runs one solve repeatedly against one instance, checking every
// output.
type opLoop struct {
	exp        *expect
	checks     *checker
	solve      solveFn
	dualPrimal bool
	// advance, when set, receives each untraced result before the next
	// op: the warm-start replay feeds it back as the next op's duals.
	advance func(*match.Result)
}

// run repeats the op for d, at least once. An untraced run times src
// directly. A paired run follows every untraced op with a traced twin on
// the same input state — src read through a tracedSource, round starts
// reported to the recorder — which must return a bit-identical result;
// interleaving the two keeps drift out of trace.overhead_ratio.
func (l *opLoop) run(src stream.Source, d time.Duration, paired bool) (untraced, traced []opSample, err error) {
	rec := newRecorder()
	for start := time.Now(); len(untraced) == 0 || time.Since(start) < d; {
		u, res, fp := l.once(src, rec, false, "")
		untraced = append(untraced, u)
		if paired {
			rec.reset()
			ts, err := newTracedSource(src, rec)
			if err != nil {
				return nil, nil, err
			}
			t, _, _ := l.once(ts, rec, true, fp)
			traced = append(traced, t)
		}
		if l.advance != nil && res != nil {
			l.advance(res)
		}
	}
	return untraced, traced, nil
}

// once runs and checks one op, timed on rec's clock. A traced op also
// reports its rounds to rec and must reproduce twin, the fingerprint of
// its untraced twin. The result is nil when the op failed.
func (l *opLoop) once(src stream.Source, rec *recorder, traced bool, twin string) (opSample, *match.Result, string) {
	var obs match.Observer
	if traced {
		obs = rec
	}
	m0 := readMem()
	c0 := rec.now()
	res, retained, err := l.solve(src, obs)
	c1 := rec.now()
	m1 := readMem()
	var fp string
	if err == nil {
		fp, err = l.exp.check(res)
	}
	if err == nil && traced && fp != twin {
		err = errors.New("identity: traced result differs from its untraced twin")
	}
	l.checks.record(err)
	s := opSample{latencyMs: ms(c1 - c0), retained: retained, mem: m0.to(m1)}
	if res != nil {
		s.stats = res.Stats
		s.optRatio = l.exp.optRatio(res)
		s.certRatio = l.exp.certRatio(res)
	}
	if traced {
		s.layers = rec.summarize(c0, c1, l.dualPrimal)
	}
	if err != nil {
		res, fp = nil, ""
	}
	return s, res, fp
}

// pick maps every sample through f.
func pick(samples []opSample, f func(opSample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

// latencyDetail records the latency distribution behind latency_ms.p50:
// the sample count, the quartiles, and p90 once at least 100 ops leave
// ten samples beyond it.
func latencyDetail(rep *report, prefix string, lat []float64) {
	rep.detail[prefix+"ops"] = len(lat)
	rep.detail[prefix+"latency_ms.p25"] = quantile(lat, 0.25)
	rep.detail[prefix+"latency_ms.p50"] = median(lat)
	rep.detail[prefix+"latency_ms.p75"] = quantile(lat, 0.75)
	if len(lat) >= 100 {
		rep.detail[prefix+"latency_ms.p90"] = quantile(lat, 0.9)
	}
}

// endToEnd fills the end-to-end metrics of an in-process workload from
// its untraced ops.
func (r *report) endToEnd(samples []opSample, setupS float64) {
	lat := pick(samples, func(s opSample) float64 { return s.latencyMs })
	total := 0.0
	for _, l := range lat {
		total += l
	}
	v := r.values
	v["setup_s"] = setupS
	v["latency_ms.p50"] = median(lat)
	v["throughput_ops_s"] = float64(len(lat)) / (total / 1000)
	v["passes"] = median(pick(samples, func(s opSample) float64 { return float64(s.stats.Passes) }))
	v["rounds"] = median(pick(samples, func(s opSample) float64 { return float64(s.stats.SamplingRounds) }))
	v["peak_words"] = median(pick(samples, func(s opSample) float64 { return float64(s.stats.PeakWords) }))
	v["opt_ratio"] = median(pick(samples, func(s opSample) float64 { return s.optRatio }))
	v["cert_ratio"] = median(pick(samples, func(s opSample) float64 { return s.certRatio }))
	v["alloc_mb_per_op"] = median(pick(samples, func(s opSample) float64 { return s.mem.allocMB }))
	v["peak_rss_mb"] = peakRSSMB()
	latencyDetail(r, "", lat)
}

// layers fills the per-layer metrics of the solve path from a traced
// run's untraced and traced ops over an instance of m edges.
// fileBytes is the size of the file backing the source (0 in memory).
func (r *report) layers(untraced, traced []opSample, m int, fileBytes int64) {
	v := r.values
	lt := func(f func(layerSample) time.Duration) float64 {
		return median(pick(traced, func(s opSample) float64 { return ms(f(s.layers)) }))
	}
	st := func(f func(match.Stats) float64) float64 {
		return median(pick(traced, func(s opSample) float64 { return f(s.stats) }))
	}
	v["core.sample_pass_ms"] = lt(func(l layerSample) time.Duration { return l.coreSample })
	v["core.central_ms"] = lt(func(l layerSample) time.Duration { return l.coreCentral })
	v["core.lambda_pass_ms"] = lt(func(l layerSample) time.Duration { return l.coreLambda })
	unionSum := func(s match.Stats) float64 {
		total := 0
		for _, u := range s.UnionSizes {
			total += u
		}
		return float64(total)
	}
	v["core.union_edges"] = st(unionSum)
	v["core.keep_ratio"] = st(func(s match.Stats) float64 {
		if len(s.UnionSizes) == 0 {
			return 0
		}
		return unionSum(s) / float64(len(s.UnionSizes)*m)
	})
	v["core.oracle_uses"] = st(func(s match.Stats) float64 { return float64(s.OracleUses) })
	v["core.micro_calls"] = st(func(s match.Stats) float64 { return float64(s.MicroCalls) })
	v["core.pack_iters"] = st(func(s match.Stats) float64 { return float64(s.PackIters) })
	v["core.witness_events"] = st(func(s match.Stats) float64 { return float64(s.WitnessEvents) })
	v["core.peak_sample_edges"] = st(func(s match.Stats) float64 { return float64(s.PeakSampleEdges) })

	v["stream.self_ms"] = lt(func(l layerSample) time.Duration { return l.streamSelf })
	v["stream.consumer_ms"] = lt(func(l layerSample) time.Duration { return l.streamConsumer })
	v["stream.sweeps"] = median(pick(traced, func(s opSample) float64 { return float64(s.layers.sweeps) }))
	v["stream.edges"] = median(pick(traced, func(s opSample) float64 { return float64(s.layers.edges) }))
	v["stream.ns_per_edge"] = median(pick(traced, func(s opSample) float64 {
		if s.layers.edges == 0 {
			return 0
		}
		return float64(s.layers.streamSelf) / float64(s.layers.edges)
	}))
	v["stream.bytes_read.computed"] = float64(fileBytes) * st(func(s match.Stats) float64 { return float64(s.Passes) })

	v["engine.init_ms"] = lt(func(l layerSample) time.Duration { return l.engineInit })
	v["engine.finish_ms"] = lt(func(l layerSample) time.Duration { return l.engineFinish })
	var rounds []float64
	unattributed := 0
	for _, s := range traced {
		for _, d := range s.layers.rounds {
			rounds = append(rounds, ms(d))
		}
		unattributed += s.layers.unattributedRounds
	}
	v["engine.round_ms.p50"] = median(rounds)
	r.detail["trace.unattributed_rounds"] = unattributed

	v["match.retained_words"] = median(pick(traced, func(s opSample) float64 { return float64(s.retained) }))
	v["match.warm_started_ratio"] = mean(pick(traced, func(s opSample) float64 {
		if s.stats.WarmStarted {
			return 1
		}
		return 0
	}))

	v["runtime.gc_cycles_per_op"] = mean(pick(untraced, func(s opSample) float64 { return s.mem.gcCycles }))
	v["runtime.gc_pause_ms_per_op"] = mean(pick(untraced, func(s opSample) float64 { return s.mem.gcPauseMs }))

	share := func(f func(layerSample) time.Duration) float64 {
		return median(pick(traced, func(s opSample) float64 { return ms(f(s.layers)) / s.latencyMs }))
	}
	r.detail["share.core_sample_pass"] = share(func(l layerSample) time.Duration { return l.coreSample })
	r.detail["share.core_central"] = share(func(l layerSample) time.Duration { return l.coreCentral })
	r.detail["share.core_lambda_pass"] = share(func(l layerSample) time.Duration { return l.coreLambda })
	r.detail["share.stream_self"] = share(func(l layerSample) time.Duration { return l.streamSelf })
	r.detail["share.stream_consumer"] = share(func(l layerSample) time.Duration { return l.streamConsumer })
	r.detail["share.engine_init_finish"] = share(func(l layerSample) time.Duration { return l.engineInit + l.engineFinish })

	untracedP50 := median(pick(untraced, func(s opSample) float64 { return s.latencyMs }))
	tracedP50 := median(pick(traced, func(s opSample) float64 { return s.latencyMs }))
	v["trace.overhead_ratio"] = tracedP50 / untracedP50
	latencyDetail(r, "untraced.", pick(untraced, func(s opSample) float64 { return s.latencyMs }))
	latencyDetail(r, "traced.", pick(traced, func(s opSample) float64 { return s.latencyMs }))
	for _, k := range []string{"serve.queue_ms.p50", "serve.solve_ms.p50", "serve.overhead_ms.p50",
		"serve.warm_hit_ratio", "serve.retries_429"} {
		if _, ok := v[k]; !ok {
			v[k] = 0
		}
	}
}
