package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// minBeyondTail is how many samples must lie above a tail percentile
// for it to be reported: fewer and the percentile is one or two
// outliers, which do not repeat from run to run.
const minBeyondTail = 10

// tailPct is the tail percentile each op kind's latency metrics
// report, named in the metric (join_p70_ms, append_p75_ms, ...). It is
// fixed rather than chosen per run so that two runs always compare the
// same statistic. Reads report p70: routed-ndjson completes only about
// 50 full count-only joins in a 20 s run, and p70 keeps minBeyondTail
// samples beyond it from 35 samples on. It also falls inside, not
// between, the five algorithm clusters of a join cycle (see fiveAlgs).
// Appends, 300 to 500 a run at a fixed rate, report p75: their p90 did
// not repeat. Short stretches in which the host runs an op at half
// speed cover a share of a run that varies from run to run, and p90
// landed inside them in some runs and not in others.
var tailPct = [numKinds]int{opJoin: 70, opCount: 70, opWindow: 70, opAppend: 75}

// beyond returns how many of n sorted samples lie strictly above the
// nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(p / 100 * float64(n)))
	if k < 1 {
		k = 1
	}
	return n - k
}

// series is a set of samples of one quantity, safe for concurrent
// appends from the workload's clients.
type series struct {
	mu sync.Mutex
	xs []float64
}

func (s *series) add(x float64) {
	s.mu.Lock()
	s.xs = append(s.xs, x)
	s.mu.Unlock()
}

func (s *series) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.xs...)
}

func (s *series) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.xs)
}

func (s *series) sum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t float64
	for _, x := range s.xs {
		t += x
	}
	return t
}

// percentile returns the nearest-rank p-th percentile (0 for no
// samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	k = min(max(k, 1), len(s))
	return s[k-1]
}

// median returns the middle sample (the mean of the two middle ones
// for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
