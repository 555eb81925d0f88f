// Command perfgate runs the hot-path wall-clock benchmarks
// (BenchmarkFig04/06/07/08 with -benchmem), records the results in
// BENCH_hotpath.json next to the seed baseline, and — in gate mode —
// fails if any gated figure regresses past its budget.
//
// Usage:
//
//	perfgate                 # run, print, write BENCH_hotpath.json
//	perfgate -gate           # also enforce the per-figure floors
//	perfgate -benchtime 5x   # more iterations (steadier numbers)
//	perfgate -samples 5      # repeat each benchmark, report mean ± stddev
//	perfgate -o path.json    # alternate output file
//
// The test binary is compiled once; each (benchmark, sample) cell then
// runs as its own child process, fanned out over the harness pool. The
// virtual-time results inside every simulation are deterministic, so
// parallel cells only affect wall-clock noise: allocs/op is exact
// regardless of concurrency, and ns/op on a loaded multicore machine is
// read as "loaded machine" — force IB12X_WORKERS=1 for quiet timings.
//
// Every benchmark is one row of a declarative table (rows, below) in
// report order. A row may gate against the seed baseline — ns/op and/or
// allocs/op must sit a fixed fraction below the pre-overhaul number — or
// gate its allocs/op against another row within a percentage slack plus an
// absolute headroom for per-world state, or record without a gate.
//
// BenchmarkFig06UniBW (the window-64 bandwidth sweep, the
// allocation-heaviest figure) must hold ns/op at least 25% below the seed
// and allocs/op at least 50% below it (with -samples > 1 the ns gate judges
// the fastest sample — background load only ever inflates wall clock).
// The zero-copy payload path cut the other figures' allocations by >90% as
// well, so Fig04/Fig07/Fig08 gate allocs/op too (allocation counts are
// exact, so the floors are tight); their ns/op is recorded but not gated.
// The RDMA-write eager row, the integrity row and the three-tier routing
// row gate their allocs/op against their shadow rows, so per-message,
// per-payload or per-chunk garbage on those paths fails the gate. The
// lane-collective pair is recorded without a gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ib12x/internal/harness"
)

// row is one benchmark of the report and its gate.
type row struct {
	bench string
	// seed is the pre-overhaul measurement, taken on the growth seed with
	// `go test -bench ... -benchmem -benchtime 3x` (single run; ns/op is
	// machine-dependent, allocs/op is exact). Zero when the seed had no
	// such benchmark.
	seed Result
	// nsCut and allocCut are the fractions of the seed value that must be
	// shaved; 0 leaves that measure ungated against the seed.
	nsCut, allocCut float64
	// vs, when set, gates allocs/op against that row's: at most
	// vs + vs·slackPct/100 + headroom. leak names what an overrun means.
	vs                 string
	slackPct, headroom int64
	leak               string
}

// rows is the benchmark table in report order. The alloc floors sit far
// above the measured post-overhaul counts (98%+ cuts) but far below the
// seed, so they trip on any real leak of per-chunk or per-WR garbage
// without flaking.
var rows = []row{
	{bench: "BenchmarkFig04LargeLatency", seed: Result{NsPerOp: 30487433, AllocsPerOp: 119238}, allocCut: 0.80},
	{bench: "BenchmarkFig06UniBW", seed: Result{NsPerOp: 182581294, AllocsPerOp: 1140271}, nsCut: 0.25, allocCut: 0.50},
	{bench: "BenchmarkFig07BiBW", seed: Result{NsPerOp: 164104600, AllocsPerOp: 1137865}, allocCut: 0.80},
	{bench: "BenchmarkFig08Alltoall", seed: Result{NsPerOp: 17535687, AllocsPerOp: 110807}, allocCut: 0.80},
	// The 256KB Allgather under the lane-decomposed and the striped
	// algorithm: recorded so the host cost of the lane machinery is
	// visible next to the reference row it shadows.
	{bench: "BenchmarkLaneAllgather"},
	{bench: "BenchmarkLaneAllgatherStriped"},
	// The 1B/1KB EPC ping-pong under the send/recv channel and the
	// RDMA-write ring. The ring's slab and header cache are per-connection
	// state allocated at world build, covered by the headroom.
	{bench: "BenchmarkSmallMsgLatency"},
	{bench: "BenchmarkSmallMsgLatencyRDMA", vs: "BenchmarkSmallMsgLatency", slackPct: 10, headroom: 256,
		leak: "the ring fast path is allocating per message"},
	// The Figure 6 sweep with end-to-end verification armed; the headroom
	// covers the per-world checksum state.
	{bench: "BenchmarkFig06Integrity", vs: "BenchmarkFig06UniBW", slackPct: 10, headroom: 512,
		leak: "checksum capture/verify is allocating per payload"},
	// The Figure 6 sweep over a routed 1:1 three-tier tree with adaptive
	// selection; the headroom covers the per-world switch graph.
	{bench: "BenchmarkFig06ThreeTier", vs: "BenchmarkFig06UniBW", slackPct: 10, headroom: 512,
		leak: "the route walk is allocating per chunk"},
}

// check applies every row's gate to current and returns one message per
// violation (none when the gate holds).
func check(current map[string]Result) []string {
	var fails []string
	for _, r := range rows {
		if r.nsCut == 0 && r.allocCut == 0 && r.vs == "" {
			continue // recorded, not gated
		}
		cur, ok := current[r.bench]
		if !ok {
			fails = append(fails, fmt.Sprintf("gated benchmark %s missing from output", r.bench))
			continue
		}
		if budget := r.seed.NsPerOp * (1 - r.nsCut); r.nsCut > 0 && cur.gateNs() > budget {
			fails = append(fails, fmt.Sprintf("%s ns/op %.0f exceeds the budget %.0f (seed %.0f - %.0f%%); rerun with -samples 3 on a noisy machine",
				r.bench, cur.gateNs(), budget, r.seed.NsPerOp, r.nsCut*100))
		}
		if budget := float64(r.seed.AllocsPerOp) * (1 - r.allocCut); r.allocCut > 0 && float64(cur.AllocsPerOp) > budget {
			fails = append(fails, fmt.Sprintf("%s allocs/op %d exceeds the budget %.0f (seed %d - %.0f%%)",
				r.bench, cur.AllocsPerOp, budget, r.seed.AllocsPerOp, r.allocCut*100))
		}
		if r.vs == "" {
			continue
		}
		base, ok := current[r.vs]
		if !ok {
			fails = append(fails, fmt.Sprintf("%s's baseline %s missing from output", r.bench, r.vs))
			continue
		}
		if budget := base.AllocsPerOp + base.AllocsPerOp*r.slackPct/100 + r.headroom; cur.AllocsPerOp > budget {
			fails = append(fails, fmt.Sprintf("%s allocs/op %d exceeds the budget %d (%s %d + %d%% + %d): %s",
				r.bench, cur.AllocsPerOp, budget, r.vs, base.AllocsPerOp, r.slackPct, r.headroom, r.leak))
		}
	}
	return fails
}

// Result is one benchmark measurement. With -samples > 1 the fields are
// means across samples, NsStddev carries the ns/op spread, and NsMin the
// fastest sample — the least noise-inflated wall-clock estimate, which
// is what the ns gate judges.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	NsStddev    float64 `json:"ns_stddev,omitempty"`
	NsMin       float64 `json:"ns_min,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// gateNs is the ns/op value a gate judges: the fastest sample when
// several were taken (background load only ever inflates wall clock),
// else the single measurement.
func (r Result) gateNs() float64 {
	if r.NsMin > 0 {
		return r.NsMin
	}
	return r.NsPerOp
}

// Report is the BENCH_hotpath.json document.
type Report struct {
	Date      string            `json:"date"`
	Benchtime string            `json:"benchtime"`
	Samples   int               `json:"samples,omitempty"`
	CPUs      int               `json:"cpus"`
	Seed      map[string]Result `json:"seed"`
	Current   map[string]Result `json:"current"`
}

func main() {
	gate := flag.Bool("gate", false, "fail unless every per-figure floor holds")
	benchtime := flag.String("benchtime", "3x", "go test -benchtime value")
	samples := flag.Int("samples", 1, "runs per benchmark; >1 reports mean ± stddev")
	out := flag.String("o", "BENCH_hotpath.json", "output file")
	flag.Parse()

	if *samples < 1 {
		*samples = 1
	}
	current, err := runBenchmarks(*benchtime, *samples)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(1)
	}

	rep := Report{
		Date:      time.Now().UTC().Format("2006-01-02"),
		Benchtime: *benchtime,
		CPUs:      runtime.NumCPU(),
		Seed:      map[string]Result{},
		Current:   current,
	}
	for _, r := range rows {
		if r.seed != (Result{}) {
			rep.Seed[r.bench] = r.seed
		}
	}
	if *samples > 1 {
		rep.Samples = *samples
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		os.Exit(1)
	}

	for _, r := range rows {
		cur, ok := current[r.bench]
		if !ok {
			fmt.Printf("%-30s (missing)\n", r.bench)
			continue
		}
		spread := ""
		if cur.NsStddev > 0 {
			spread = fmt.Sprintf(" ±%.0f", cur.NsStddev)
		}
		line := fmt.Sprintf("%-30s ns/op %12.0f%s  allocs/op %9d", r.bench, cur.NsPerOp, spread, cur.AllocsPerOp)
		if s := r.seed; s != (Result{}) {
			line += fmt.Sprintf("  (seed ns/op %.0f %+.1f%%, allocs/op %d %+.1f%%)",
				s.NsPerOp, pct(cur.NsPerOp, s.NsPerOp), s.AllocsPerOp, pct(float64(cur.AllocsPerOp), float64(s.AllocsPerOp)))
		}
		fmt.Println(line)
	}
	fmt.Println("wrote", *out)

	if *gate {
		fails := check(current)
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "perfgate:", f)
		}
		if len(fails) > 0 {
			os.Exit(1)
		}
		fmt.Println("gate OK: every row holds its budget")
	}
}

func pct(cur, seed float64) float64 {
	if seed == 0 {
		return 0
	}
	return (cur - seed) / seed * 100
}

// benchLine matches `go test -bench -benchmem` output, e.g.
// BenchmarkFig06UniBW  3  182581294 ns/op ... 58294416 B/op  1140271 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(.*)$`)

// runBenchmarks compiles the test binary once, then runs every
// (benchmark, sample) cell as its own child process through the harness
// pool, and folds the samples into per-benchmark means.
func runBenchmarks(benchtime string, samples int) (map[string]Result, error) {
	dir, err := os.MkdirTemp("", "perfgate-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	bin := filepath.Join(dir, "ib12x.test")
	if out, err := exec.Command("go", "test", "-c", "-o", bin, ".").CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go test -c: %v\n%s", err, out)
	}

	type cell struct {
		bench  string
		sample int
	}
	var cells []cell
	for _, r := range rows {
		for s := 0; s < samples; s++ {
			cells = append(cells, cell{r.bench, s})
		}
	}
	raw, err := harness.Map(cells, func(c cell) (Result, error) {
		return runOne(bin, c.bench, benchtime)
	})
	if err != nil {
		return nil, err
	}

	results := map[string]Result{}
	fold := func(name string, rs []Result) {
		var ns []float64
		var agg Result
		for _, r := range rs {
			ns = append(ns, r.NsPerOp)
			agg.BytesPerOp += r.BytesPerOp
			agg.AllocsPerOp += r.AllocsPerOp
		}
		n := int64(len(ns))
		agg.BytesPerOp /= n
		agg.AllocsPerOp /= n
		agg.NsPerOp, agg.NsStddev = meanStddev(ns)
		if len(ns) > 1 {
			agg.NsMin = ns[0]
			for _, x := range ns[1:] {
				agg.NsMin = math.Min(agg.NsMin, x)
			}
		}
		results[name] = agg
	}
	for _, r := range rows {
		var rs []Result
		for i, c := range cells {
			if c.bench == r.bench {
				rs = append(rs, raw[i])
			}
		}
		fold(r.bench, rs)
	}
	return results, nil
}

// runOne executes a single benchmark in a child process and parses its
// one result line.
func runOne(bin, bench, benchtime string) (Result, error) {
	out, err := exec.Command(bin, "-test.run", "^$",
		"-test.bench", "^"+bench+"$", "-test.benchmem", "-test.benchtime", benchtime).CombinedOutput()
	if err != nil {
		return Result{}, fmt.Errorf("%s: %v\n%s", bench, err, out)
	}
	for _, line := range strings.Split(string(out), "\n") {
		m := benchLine.FindStringSubmatch(line)
		if m == nil || m[1] != bench {
			continue
		}
		r := Result{}
		r.NsPerOp, _ = strconv.ParseFloat(m[2], 64)
		// Trailing metrics come as "<value> <unit>" pairs.
		rest := strings.Fields(m[3])
		for i := 1; i < len(rest); i++ {
			switch rest[i] {
			case "B/op":
				r.BytesPerOp, _ = strconv.ParseInt(rest[i-1], 10, 64)
			case "allocs/op":
				r.AllocsPerOp, _ = strconv.ParseInt(rest[i-1], 10, 64)
			}
		}
		return r, nil
	}
	return Result{}, fmt.Errorf("%s: no benchmark line in output:\n%s", bench, out)
}

// meanStddev returns the mean and (for n > 1) the sample standard
// deviation of xs.
func meanStddev(xs []float64) (mean, stddev float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}
