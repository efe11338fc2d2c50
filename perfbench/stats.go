package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*q+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memSample is the part of runtime.MemStats the benchmark reports.
type memSample struct {
	totalAlloc, numGC, pauseNs uint64
}

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{totalAlloc: m.TotalAlloc, numGC: uint64(m.NumGC), pauseNs: m.PauseTotalNs}
}

// memDelta is what happened between two samples.
type memDelta struct {
	allocMB, gcCycles, gcPauseMs float64
}

func (a memSample) to(b memSample) memDelta {
	return memDelta{
		allocMB:   float64(b.totalAlloc-a.totalAlloc) / 1e6,
		gcCycles:  float64(b.numGC - a.numGC),
		gcPauseMs: float64(b.pauseNs-a.pauseNs) / 1e6,
	}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in
// MB, set-up included; 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// timedSetup builds a workload's set-up reps times, releases all but
// the last build, and returns it with the median build time in seconds,
// so one slow build does not move setup_s.
func timedSetup[T any](reps int, build func() (T, error), release func(T)) (T, float64, error) {
	var kept T
	secs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if i > 0 {
			release(kept)
			runtime.GC()
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return kept, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		kept = v
	}
	runtime.GC()
	return kept, median(secs), nil
}
