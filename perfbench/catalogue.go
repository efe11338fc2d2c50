package main

// metricDef names one metric the benchmark prints. The catalogue is the
// single list BENCHMARK.json's end_to_end and per_layer entries are
// checked against (see TestCatalogueMatchesBenchmarkJSON).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the solver sees, printed by every
// untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_ms.p50", "ms", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
	{"passes", "count", "lower"},
	{"rounds", "count", "lower"},
	{"peak_words", "words", "lower"},
	{"opt_ratio", "ratio", "higher"},
	{"cert_ratio", "ratio", "higher"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers, printed by every traced
// run. A layer that a workload's path does not reach reports 0 (the
// serve metrics on the in-process workloads, the core metrics on the
// greedy file-stream solve, stream.bytes_read.computed off the file
// backend).
var perLayer = []metricDef{
	{"core.central_ms", "ms", "lower"},
	{"core.sample_pass_ms", "ms", "lower"},
	{"core.lambda_pass_ms", "ms", "lower"},
	{"core.union_edges", "count", "lower"},
	{"core.oracle_uses", "count", "lower"},
	{"core.micro_calls", "count", "lower"},
	{"core.pack_iters", "count", "lower"},
	{"core.witness_events", "count", "lower"},
	{"core.peak_sample_edges", "count", "lower"},
	{"core.keep_ratio", "ratio", "lower"},
	{"stream.self_ms", "ms", "lower"},
	{"stream.consumer_ms", "ms", "lower"},
	{"stream.sweeps", "count", "lower"},
	{"stream.edges", "count", "lower"},
	{"stream.ns_per_edge", "ns", "lower"},
	{"stream.bytes_read.computed", "B", "lower"},
	{"engine.init_ms", "ms", "lower"},
	{"engine.round_ms.p50", "ms", "lower"},
	{"engine.finish_ms", "ms", "lower"},
	{"match.retained_words", "words", "lower"},
	{"match.warm_started_ratio", "ratio", "higher"},
	{"serve.queue_ms.p50", "ms", "lower"},
	{"serve.solve_ms.p50", "ms", "lower"},
	{"serve.overhead_ms.p50", "ms", "lower"},
	{"serve.warm_hit_ratio", "ratio", "higher"},
	{"serve.retries_429", "count", "lower"},
	{"runtime.gc_cycles_per_op", "count", "lower"},
	{"runtime.gc_pause_ms_per_op", "ms", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// catalogue returns the metrics a run prints.
func catalogue(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}
