package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder lists the percentiles step_us_tail may report. It stops at
// p95 because deeper ones measure preemption of the host rather than the
// simulator: on a shared 2-CPU host, window-bw-1m's p99 read 5.6-6.2 ms in
// three 20 s runs and 9.7-11.0 ms in two others, while its p95 stayed
// within 5.1-6.7 ms.
var tailLadder = []float64{50, 90, 95}

// percentile is the nearest-rank p-th percentile of sorted.
func percentile(sorted []int64, p float64) int64 {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// tail returns the highest ladder percentile of samples that still has at
// least ten samples beyond it, with its value. ok is false when there are
// too few samples for even the median to have ten beyond it.
func tail(sorted []int64) (p float64, v int64, ok bool) {
	n := float64(len(sorted))
	for i := len(tailLadder) - 1; i >= 0; i-- {
		q := tailLadder[i]
		beyond := n - math.Ceil(q/100*n)
		if beyond >= 10 {
			return q, percentile(sorted, q), true
		}
	}
	return 0, 0, false
}

// fingerprint describes the host a result was measured on.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Seed       int64  `json:"seed"`
}

func hostFingerprint(seed int64) fingerprint {
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Seed:       seed,
	}
}

func (f fingerprint) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s seed=%d", f.NProc, f.GOMAXPROCS, f.CPU, f.Go, f.Seed)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
