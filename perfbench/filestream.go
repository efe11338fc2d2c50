package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/graph"
	"repro/internal/stream"
	"repro/match"
)

// fileSize is the file-stream instance: a GNM graph written as an RBG2
// file and solved by the one-pass greedy baseline.
type fileSize struct {
	n, m int
	wmax float64
}

func fileSizeFor(tiny bool) fileSize {
	if tiny {
		return fileSize{n: 2000, m: 20000, wmax: 100}
	}
	return fileSize{n: 200000, m: 2000000, wmax: 100}
}

const fileAlgo = "greedy"

// fileInstance is the file-stream set-up: the opened file, its size,
// and the expectations derived from the in-memory twin.
type fileInstance struct {
	path  string
	src   *stream.FileSource
	bytes int64
	exp   *expect
}

func (f *fileInstance) release() {
	if f == nil {
		return
	}
	f.src.Close()
	os.Remove(f.path)
}

// buildFileInstance generates the graph, writes it as RBG2, opens it
// (mmap when available) and solves the in-memory twin once: every file
// solve must reproduce that result bit for bit. The reference's weight
// is recomputed from the in-memory edges here, so the per-op identity
// check carries that check too.
func buildFileInstance(size fileSize, seed uint64, dir string, rep int) (*fileInstance, error) {
	g := graph.GNMParallel(size.n, size.m, graph.WeightConfig{Mode: graph.UniformWeights, WMax: size.wmax}, seed, 0)
	mem := stream.NewEdgeStream(g)
	path := filepath.Join(dir, fmt.Sprintf("file-stream-%d-%d.rbg2", seed, rep))
	if err := stream.WriteBinaryFile2(path, mem); err != nil {
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	src, err := stream.OpenBinary(path)
	if err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("opening %s: %w", path, err)
	}
	inst := &fileInstance{path: path, src: src, bytes: fi.Size()}
	memExp := &expect{src: mem, weightOf: func(idx int) float64 { return g.Edge(idx).W }, vertexBound: vertexBound(mem)}
	ref, _, err := fileSolve(mem, nil)
	if err == nil {
		_, err = memExp.check(ref)
	}
	if err != nil {
		inst.release()
		return nil, fmt.Errorf("in-memory reference solve: %w", err)
	}
	inst.exp = &expect{src: src, vertexBound: memExp.vertexBound, ref: memExp.ref}
	return inst, nil
}

// fileSolve is the op: match.Solve's one-shot path with the greedy
// registry algorithm.
func fileSolve(src stream.Source, obs match.Observer) (*match.Result, int, error) {
	opts := []match.Option{match.WithAlgorithm(fileAlgo), match.WithWorkers(0)}
	if obs != nil {
		opts = append(opts, match.WithObserver(obs))
	}
	s, err := match.New(opts...)
	if err != nil {
		return nil, 0, err
	}
	res, err := s.Solve(context.Background(), src)
	return res, s.RetainedWords(), err
}

// runFileStream: repeated greedy solves of one RBG2 file. The file is
// written at set-up, so every sweep reads from the page cache, not the
// disk.
func runFileStream(cfg config) (*report, error) {
	size := fileSizeFor(cfg.tiny)
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	builds := 0
	inst, setupS, err := timedSetup(3, func() (*fileInstance, error) {
		builds++
		return buildFileInstance(size, cfg.seed, cfg.workdir, builds)
	}, (*fileInstance).release)
	if err != nil {
		return nil, err
	}
	defer inst.release()
	rep := newReport()
	rep.detail["instance"] = map[string]any{"family": "gnm", "n": size.n, "m": size.m, "wmax": size.wmax,
		"algorithm": fileAlgo, "codec": "RBG2", "file_bytes": inst.bytes, "mmap": inst.src.Mapped(),
		"io": "page cache: the file is written at set-up and never evicted, so sweeps measure decode, not disk"}
	rep.detail["opt_ratio_base"] = "vertex-cover bound sum_v b_v*max_w(v)/2 (exact blossom is out of reach at this n)"
	loop := &opLoop{exp: inst.exp, checks: rep.checks, solve: fileSolve}
	d := time.Duration(cfg.seconds * float64(time.Second))
	untraced, traced, err := loop.run(inst.src, d, cfg.trace)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		rep.endToEnd(untraced, setupS)
		return rep, nil
	}
	rep.layers(untraced, traced, size.m, inst.bytes)
	return rep, nil
}
