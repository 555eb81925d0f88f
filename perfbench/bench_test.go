package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"ib12x/internal/bench"
	"ib12x/internal/core"
	"ib12x/internal/model"
	"ib12x/internal/mpi"
)

// tinySteps keeps every job small in the short-mode tests.
var tinySteps = map[string]int{"pingpong-small": 40, "window-bw-1m": 2, "ring-256": 2, "alltoall-fattree": 2}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []declared `json:"workloads"`
	EndToEnd  []declared `json:"end_to_end"`
	PerLayer  []declared `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func names(ds []declared) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	return out
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := loadBenchmarkFile(t)
	var ws []string
	for _, w := range workloads {
		ws = append(ws, w.name)
	}
	if got := names(f.Workloads); !slices.Equal(got, ws) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, ws)
	}
	if got := names(f.EndToEnd); !slices.Equal(got, endToEndNames) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", got, endToEndNames)
	}
	if got := names(f.PerLayer); !slices.Equal(got, perLayerNames) {
		t.Errorf("BENCHMARK.json per_layer %v, program prints %v", got, perLayerNames)
	}
}

// printedUnit returns the unit of the "metric <name> <value> <unit>" line
// for name in out.
func printedUnit(out, name string) (string, bool) {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 4 && f[0] == "metric" && f[1] == name {
			return f[3], true
		}
	}
	return "", false
}

// TestShortEveryMetricPrinted runs every workload at tiny size, untraced
// and traced, and checks that every declared metric is printed and carried
// by the JSON line with its unit.
func TestShortEveryMetricPrinted(t *testing.T) {
	f := loadBenchmarkFile(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			res, err := run(options{workload: w.name, seed: defaultSeed, steps: tinySteps[w.name], trace: trace}, pins, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			line := res.final()
			if !line.Correct || line.Failed != 0 || line.Attempted < minJobs {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", w.name, trace, line.Correct, line.Attempted, line.Failed, out.String())
			}
			want := f.EndToEnd
			if trace {
				want = f.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: JSON line has %d metrics, want %d", w.name, trace, len(line.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: JSON metric %s = %+v, want unit %q", w.name, trace, d.Name, m, d.Unit)
				}
			}
			// Printed only: error_rate everywhere; untraced, step_us_tail,
			// the reference kernel and the unscaled host times.
			printed := slices.Concat(want, []declared{{"error_rate", "ratio"}})
			if !trace {
				printed = append(printed, declared{"step_us_tail", "us"}, declared{"ref_cpu_s", "s"},
					declared{"setup_cpu_s", "s"}, declared{"run_cpu_s", "s"}, declared{"run_wall_s", "s"}, declared{"step_wall_us_p50", "us"})
			}
			for _, d := range printed {
				if unit, ok := printedUnit(out.String(), d.Name); !ok || unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s printed with unit %q (printed: %v), want %q", w.name, trace, d.Name, unit, ok, d.Unit)
				}
			}
		}
	}
}

// failedRun runs o and checks that every job failed and error_rate says so.
func failedRun(t *testing.T, o options, table map[pinKey]pin, reason string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(o, table, &out)
	if err != nil {
		t.Fatal(err)
	}
	line := res.final()
	if line.Correct || line.Failed != line.Attempted || line.Attempted < minJobs {
		t.Fatalf("correct=%v attempted=%d failed=%d, want every job failed\n%s", line.Correct, line.Attempted, line.Failed, out.String())
	}
	if !strings.Contains(out.String(), reason) {
		t.Errorf("output does not name the failure %q:\n%s", reason, out.String())
	}
	for _, m := range res.metrics {
		if m.name == "error_rate" && m.value != 1 {
			t.Errorf("error_rate = %v, want 1", m.value)
		}
	}
}

func TestWrongPinRaisesErrorRate(t *testing.T) {
	w, _ := findWorkload("window-bw-1m")
	steps := tinySteps[w.name]
	r := runJob(w, makeInputs(w, defaultSeed, steps), steps, runOpts{})
	if r.err != nil {
		t.Fatal(r.err)
	}
	wrong := pin{Elapsed: int64(r.elapsed) + 1, Value: math.Float64bits(r.value), Digest: r.digest}
	table := map[pinKey]pin{{w.name, 0, steps}: wrong}
	failedRun(t, options{workload: w.name, seed: defaultSeed, steps: steps}, table, "differs from the pinned value")
}

func TestLeakedBufferRaisesErrorRate(t *testing.T) {
	// An eager message nobody receives keeps its captured payload buffer.
	leak := func(c *mpi.Comm) {
		if c.Rank() == 0 {
			c.Send(1, 99, []byte("leaked"))
		}
	}
	failedRun(t, options{workload: "pingpong-small", seed: defaultSeed, steps: tinySteps["pingpong-small"], inject: leak},
		pins, "payload buffers live")
}

func TestPanicRaisesErrorRate(t *testing.T) {
	boom := func(c *mpi.Comm) {
		if c.Rank() == 1 {
			panic("rank body bug")
		}
	}
	failedRun(t, options{workload: "pingpong-small", seed: defaultSeed, steps: tinySteps["pingpong-small"], inject: boom},
		pins, "FAILED")
}

func TestInputsFromSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := makeInputs(w, 7, 100), makeInputs(w, 7, 100), makeInputs(w, 8, 100)
		if !slices.Equal(a.sizes, b.sizes) || !slices.Equal(a.perm, b.perm) || !bytes.Equal(a.pattern, b.pattern) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
		if !w.seeded {
			if a.sizes != nil || a.perm != nil {
				t.Errorf("%s draws inputs from the seed but is documented as fixed", w.name)
			}
			continue
		}
		if slices.Equal(a.sizes, c.sizes) && slices.Equal(a.perm, c.perm) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w.name)
		}
	}
	w, _ := findWorkload("pingpong-small")
	for _, n := range makeInputs(w, 1, 10000).sizes {
		if n < 1 || n > pingMaxSize || n >= model.Default().RendezvousThreshold {
			t.Fatalf("ping-pong size %d outside 1 B..8 KB eager range", n)
		}
	}
	w, _ = findWorkload("ring-256")
	perm := slices.Clone(makeInputs(w, 1, 1).perm)
	slices.Sort(perm)
	for i, r := range perm {
		if i != r {
			t.Fatalf("ring order is not a permutation of the ranks")
		}
	}
}

func TestTailLadder(t *testing.T) {
	mk := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n     int
		p     float64
		value int64
		ok    bool
	}{{9, 0, 0, false}, {20, 50, 10, true}, {100, 90, 90, true}, {199, 90, 180, true}, {200, 95, 190, true}, {1_000_000, 95, 950_000, true}} {
		p, v, ok := tail(mk(c.n))
		if p != c.p || v != c.value || ok != c.ok {
			t.Errorf("tail of %d samples = p%v %d %v, want p%v %d %v", c.n, p, v, ok, c.p, c.value, c.ok)
		}
	}
}

// TestCPUTimeLeavesOutWaiting checks that the host-time clock counts work
// and not time the process spends off the CPU.
func TestCPUTimeLeavesOutWaiting(t *testing.T) {
	t0 := cpuTime()
	time.Sleep(100 * time.Millisecond)
	if slept := cpuTime() - t0; slept > 50*time.Millisecond {
		t.Errorf("CPU time grew by %v over a 100 ms sleep", slept)
	}
	t0 = cpuTime()
	x := 1.0
	for start := time.Now(); time.Since(start) < 100*time.Millisecond; {
		x = math.Sqrt(x + 1)
	}
	if busy := cpuTime() - t0; busy < 25*time.Millisecond {
		t.Errorf("CPU time grew by %v over 100 ms of work (x=%v)", busy, x)
	}
}

// TestPinnedSeeds runs every workload at full size on the default and the
// held-out seed and checks the result against its pin.
func TestPinnedSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size jobs")
	}
	for _, w := range workloads {
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			orc := newOracle(w, seed, w.steps, pins)
			if orc.want == nil {
				t.Errorf("%s seed %d: no pinned result", w.name, seed)
				continue
			}
			r := runJob(w, makeInputs(w, seed, w.steps), w.steps, runOpts{})
			orc.check(&r)
			if r.err != nil {
				t.Errorf("%s seed %d: %v", w.name, seed, r.err)
			}
			if !w.seeded {
				break
			}
		}
	}
}

// TestPinsEqualBenchHelpers checks the workloads whose shape matches an
// internal/bench helper against that helper at the same iterations.
func TestPinsEqualBenchHelpers(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size jobs")
	}
	epc := bench.Setup{QPs: 4, Policy: core.EPC}
	check := func(name string, helper float64) {
		t.Helper()
		w, _ := findWorkload(name)
		p, ok := pins[pinKey{name, 0, w.steps}]
		if !ok {
			t.Fatalf("%s: no pinned result", name)
		}
		if got := math.Float64frombits(p.Value); math.Float64bits(helper) != p.Value {
			t.Errorf("%s: pinned %v, helper gives %v", name, got, helper)
		}
	}
	w, _ := findWorkload("window-bw-1m")
	bw, err := bench.UniBandwidth(epc, []int{windowSize}, windowLen, w.steps, 0)
	if err != nil {
		t.Fatal(err)
	}
	check(w.name, bw[0])

	w, _ = findWorkload("alltoall-fattree")
	a2a := epc
	a2a.Nodes, a2a.PPN, a2a.NodesPerSwitch = w.cfg.Nodes, w.cfg.ProcsPerNode, w.cfg.NodesPerSwitch
	at, err := bench.Alltoall(a2a, []int{a2aSize}, w.steps, 0)
	if err != nil {
		t.Fatal(err)
	}
	check(w.name, at[0])

	// pingpong-small draws its sizes from the seed; at one fixed size it
	// is bench.Latency's loop.
	w, _ = findWorkload("pingpong-small")
	const steps, size = 200, 1024
	in := makeInputs(w, defaultSeed, steps)
	for i := range in.sizes {
		in.sizes[i] = size
	}
	r := runJob(w, in, steps, runOpts{})
	if r.err != nil {
		t.Fatal(r.err)
	}
	lat, err := bench.Latency(epc, []int{size}, steps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.value != lat[0] {
		t.Errorf("pingpong-small at %d B: %v us, bench.Latency gives %v", size, r.value, lat[0])
	}
}
