// Command perfbench is the repository benchmark: it runs one named
// workload against the solver for a fixed measuring time, checks every
// operation's output, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as one JSON object on the last line
// of standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload cold-solve --seed 1 --seconds 20 --trace 0
//
// The workloads (cold-solve, file-stream, serve-warm), the metric
// catalogue and the layer each per-layer metric belongs to are
// described in perfbench/METRICS.md. Every timing is taken from outside
// the program: around calls into the match, stream and serve packages,
// through a forwarding stream.Source, a timestamping match.Observer,
// the serve job status document and runtime.ReadMemStats.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string // scratch directory for files a workload writes
	tiny     bool   // test-sized instances, set only by the tests
}

// report is what a workload run hands back to main: the op tally, the
// values of every metric it measured, and free-form detail (shares,
// percentiles below the reporting threshold, failure reasons) printed on
// the line before the result.
type report struct {
	checks *checker
	values map[string]float64
	detail map[string]any
}

func newReport() *report {
	return &report{checks: newChecker(), values: map[string]float64{}, detail: map[string]any{}}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"cold-solve":  runColdSolve,
	"file-stream": runFileStream,
	"serve-warm":  runServeWarm,
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err == nil {
		err = run(cfg, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: cold-solve, file-stream or serve-warm")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed; equal seeds give equal inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "measuring time in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/perfbench-work", "directory for files the workload writes")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if traceFlag != 0 && traceFlag != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	cfg.trace = traceFlag == 1
	return cfg, nil
}

// run measures one workload and prints the environment, detail and
// result lines.
func run(cfg config, stdout io.Writer) error {
	runner, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want cold-solve, file-stream or serve-warm)", cfg.workload)
	}
	if !(cfg.seconds > 0) {
		return errors.New("--seconds must be positive")
	}
	env := captureEnv(cfg)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%g trace=%v on %s, nproc=%d GOMAXPROCS=%d, %s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, env.CPUModel, env.NProc, env.GOMAXPROCS, env.GoVersion)
	start := time.Now()
	rep, err := runner(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	out, err := rep.result(cfg.trace)
	if err != nil {
		return err
	}
	rep.detail["wall_s"] = time.Since(start).Seconds()
	rep.detail["failure_reasons"] = rep.checks.reasons
	rep.detail["failed_ratio"] = float64(out.Failed) / float64(out.Attempted)
	enc := json.NewEncoder(stdout)
	for _, line := range []any{map[string]any{"env": env}, map[string]any{"detail": rep.detail}, out} {
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}

// result assembles the last output line from the catalogue: every
// end-to-end metric, or every per-layer metric on a traced run. A metric
// the workload did not measure is a bug in the benchmark, not a result.
func (r *report) result(traced bool) (*result, error) {
	out := &result{
		Attempted: r.checks.attempted,
		Failed:    r.checks.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range catalogue(traced) {
		v, ok := r.values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if out.Attempted < 1 {
		return nil, errors.New("no operation completed within the measuring time")
	}
	out.Correct = out.Failed == 0
	return out, nil
}
