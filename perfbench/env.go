package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"

	"repro/internal/parallel"
)

// environment is recorded with every output so captures from different
// machines are never compared unknowingly.
type environment struct {
	Workload        string `json:"workload"`
	Seed            uint64 `json:"seed"`
	Trace           bool   `json:"trace"`
	Tiny            bool   `json:"tiny"`
	NProc           int    `json:"nproc"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
	ResolvedWorkers int    `json:"resolved_workers"`
	CPUModel        string `json:"cpu_model"`
	GoVersion       string `json:"go_version"`
	GOOS            string `json:"goos"`
	GOARCH          string `json:"goarch"`
}

func captureEnv(cfg config) environment {
	return environment{
		Workload:        cfg.workload,
		Seed:            cfg.seed,
		Trace:           cfg.trace,
		Tiny:            cfg.tiny,
		NProc:           runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		ResolvedWorkers: parallel.Workers(0),
		CPUModel:        cpuModel(),
		GoVersion:       runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
