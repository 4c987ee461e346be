package main

import (
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// quantile is the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// beyond is the number of samples strictly past the nearest-rank
// q-quantile of n samples.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

func durationsUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

func median(xs []float64) float64 {
	ys := slices.Clone(xs)
	slices.Sort(ys)
	n := len(ys)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// spread summarises one metric over repeated runs: median, the first and
// third quartiles (Python's statistics.quantiles exclusive method), and
// the extremes.
type spread struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Runs   int     `json:"runs"`
}

func spreadOf(xs []float64) spread {
	ys := slices.Clone(xs)
	slices.Sort(ys)
	s := spread{Median: median(ys), Runs: len(ys)}
	if len(ys) == 0 {
		return s
	}
	s.Min, s.Max = ys[0], ys[len(ys)-1]
	s.Q1, s.Q3 = s.Median, s.Median
	if len(ys) >= 2 {
		s.Q1, s.Q3 = exclusiveQuartile(ys, 1), exclusiveQuartile(ys, 3)
	}
	return s
}

// exclusiveQuartile is statistics.quantiles(n=4, method="exclusive")[k-1].
func exclusiveQuartile(sorted []float64, k int) float64 {
	m := len(sorted) + 1
	j := max(1, min(k*m/4, len(sorted)-1))
	delta := float64(k*m - j*4)
	return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
}

// fingerprint identifies the host a result was measured on.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				fp.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return fp
}
