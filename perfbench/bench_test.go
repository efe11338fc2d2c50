package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/match"
)

// TestSmokeEachWorkload runs every workload at test size, untraced and
// traced, through the same printing path the benchmark uses, and checks
// that the last line names every metric of the catalogue with its unit
// and that no op failed.
func TestSmokeEachWorkload(t *testing.T) {
	for _, w := range []string{"cold-solve", "file-stream", "serve-warm"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				cfg, err := parseFlags([]string{"--workload", w, "--seed", "3", "--seconds", "0.2",
					"--trace", trace, "--workdir", t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				cfg.tiny = true
				var out bytes.Buffer
				if err := run(cfg, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var env struct {
					Env environment `json:"env"`
				}
				if err := json.Unmarshal([]byte(lines[0]), &env); err != nil || env.Env.NProc < 1 || env.Env.CPUModel == "" {
					t.Fatalf("first line does not record the environment: %s (%v)", lines[0], err)
				}
				var res result
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d; detail: %s", res.Correct, res.Attempted, res.Failed, lines[1])
				}
				want := catalogue(trace == "1")
				if len(res.Metrics) != len(want) {
					t.Fatalf("printed %d metrics, catalogue has %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: printed %+v (present=%v), want unit %s", d.name, m, ok, d.unit)
					}
				}
			})
		}
	}
}

// TestCorruptedOpIsCounted solves, as the second op, a view that drops
// one edge of the reference matching but keeps every other index: the
// result still validates, so the identity check must fail the op.
func TestCorruptedOpIsCounted(t *testing.T) {
	inst, err := buildColdInstance(coldSizeFor(true), 5)
	if err != nil {
		t.Fatal(err)
	}
	checks := newChecker()
	exp := newColdExpect(inst)
	ref, _, err := coldSolve(inst.src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.check(ref); err != nil {
		t.Fatal(err)
	}
	dropped := ref.Matching.EdgeIdx[0]
	ops := 0
	loop := &opLoop{exp: exp, checks: checks, dualPrimal: true,
		solve: func(src stream.Source, obs match.Observer) (*match.Result, int, error) {
			ops++
			if ops == 2 {
				src = stream.NewFilter(src, func(idx int, _ graph.Edge) bool { return idx != dropped })
			}
			return coldSolve(src, obs)
		}}
	for i := 0; i < 3; i++ {
		loop.run(inst.src, 0, false)
	}
	if checks.attempted != 3 || checks.failed != 1 || checks.reasons["identity"] != 1 {
		t.Fatalf("attempted=%d failed=%d reasons=%v, want the one corrupted op failed on identity",
			checks.attempted, checks.failed, checks.reasons)
	}
}

// TestCheckCatchesWrongWeight feeds the checks a result whose reported
// weight disagrees with its matched edges.
func TestCheckCatchesWrongWeight(t *testing.T) {
	inst, err := buildColdInstance(coldSizeFor(true), 6)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := coldSolve(inst.src, nil)
	if err != nil {
		t.Fatal(err)
	}
	res.Weight *= 0.99
	if _, err := newColdExpect(inst).check(res); err == nil || !strings.HasPrefix(err.Error(), "weight:") {
		t.Fatalf("check = %v, want a weight failure", err)
	}
}

// TestTracedSourceForwardsEverySweep drives every sweep family and
// RandomAccess through the tracer: each must deliver exactly what the
// backend delivers, record one span, and meter passes only for the
// metered families.
func TestTracedSourceForwardsEverySweep(t *testing.T) {
	g := graph.GNM(50, 9000, graph.WeightConfig{Mode: graph.UniformWeights, WMax: 10}, 2)
	inner := stream.NewEdgeStream(g)
	rec := newRecorder()
	ts, err := newTracedSource(inner, rec)
	if err != nil {
		t.Fatal(err)
	}
	want := g.Edges()
	collect := func(sweep func(got []graph.Edge)) {
		t.Helper()
		got := make([]graph.Edge, len(want))
		sweep(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatal("sweep delivered different edges than the backend holds")
		}
	}
	families := []struct {
		name    string
		metered bool
		sweep   func(got []graph.Edge)
	}{
		{"ForEach", true, func(got []graph.Edge) {
			ts.ForEach(func(i int, e graph.Edge) bool { got[i] = e; return true })
		}},
		{"Sweep", false, func(got []graph.Edge) {
			ts.Sweep(func(i int, e graph.Edge) bool { got[i] = e; return true })
		}},
		{"ForEachParallel", true, func(got []graph.Edge) {
			ts.ForEachParallel(4, func(i int, e graph.Edge) { got[i] = e })
		}},
		{"SweepParallel", false, func(got []graph.Edge) {
			ts.SweepParallel(4, func(i int, e graph.Edge) { got[i] = e })
		}},
		{"ForEachBlocks", true, func(got []graph.Edge) {
			stream.ForEachBlocks(ts, func(b int, es []graph.Edge) bool { copy(got[b:], es); return true })
		}},
		{"SweepBlocks", false, func(got []graph.Edge) {
			stream.SweepBlocks(ts, func(b int, es []graph.Edge) bool { copy(got[b:], es); return true })
		}},
		{"ForEachBlocksParallel", true, func(got []graph.Edge) {
			stream.ForEachBlocksParallel(ts, 4, func(b int, es []graph.Edge) { copy(got[b:], es) })
		}},
		{"SweepBlocksParallel", false, func(got []graph.Edge) {
			stream.SweepBlocksParallel(ts, 4, func(b int, es []graph.Edge) { copy(got[b:], es) })
		}},
		{"Edge", false, func(got []graph.Edge) {
			for i := range got {
				got[i] = ts.Edge(i)
			}
		}},
	}
	for _, f := range families {
		rec.reset()
		passes := ts.Passes()
		collect(f.sweep)
		metered := ts.Passes() - passes
		if (metered == 1) != f.metered || metered > 1 {
			t.Errorf("%s metered %d passes", f.name, metered)
		}
		spans := len(rec.spans)
		if f.name == "Edge" {
			if spans != 0 {
				t.Errorf("Edge recorded %d spans", spans)
			}
			continue
		}
		if spans != 1 || rec.spans[0].metered != f.metered || rec.spans[0].edges != int64(len(want)) {
			t.Errorf("%s: %d spans, want one of %d edges (metered=%v)", f.name, spans, len(want), f.metered)
		}
	}
}

// TestSummarizeSplitsRounds checks the phase split on a synthetic
// two-round trace.
func TestSummarizeSplitsRounds(t *testing.T) {
	rec := newRecorder()
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	rec.marks = []time.Duration{at(10), at(50)}
	add := func(metered bool, start, end, consumer int) {
		rec.spans = append(rec.spans, &span{metered: metered, start: at(start), end: at(end), consumer: at(consumer)})
	}
	add(true, 2, 8, 4)   // init pass
	add(true, 11, 15, 3) // round 1 sampling
	add(true, 40, 45, 4) // round 1 λ
	add(true, 51, 53, 1) // round 2 sampling
	add(true, 70, 72, 1) // round 2 λ
	s := rec.summarize(0, at(80), true)
	checks := map[string][2]time.Duration{
		"init":    {s.engineInit, at(10)},
		"finish":  {s.engineFinish, at(8)},
		"sample":  {s.coreSample, at(6)},
		"central": {s.coreCentral, at(25 + 17)},
		"lambda":  {s.coreLambda, at(7)},
		"self":    {s.streamSelf, at(19 - 13)},
	}
	for name, c := range checks {
		if c[0] != c[1] {
			t.Errorf("%s = %v, want %v", name, c[0], c[1])
		}
	}
	if !reflect.DeepEqual(s.rounds, []time.Duration{at(40), at(22)}) || s.unattributedRounds != 0 {
		t.Errorf("rounds = %v (unattributed %d)", s.rounds, s.unattributedRounds)
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json's metric lists
// and the printed catalogue in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, catalogue %d", len(c.got), len(c.want))
		}
		for i, d := range c.want {
			if g := c.got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("BENCHMARK.json entry %d = %+v, catalogue %+v", i, g, d)
			}
		}
	}
}
