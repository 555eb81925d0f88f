// Command perfbench is the ib12x host-performance benchmark. It runs one
// named simulated MPI job after another through the public mpi.Run/mpi.Comm
// API on the serial engine, checks every job's output, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . -workload pingpong-small -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones, measured on untraced
// jobs; with -trace 1 they are the per-layer ones, from a traced run. See
// README.md for the workloads and the layer ledger.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"ib12x/internal/mpi"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	steps    int    // steps per job; 0 = the workload's full size (tests shrink it)
	out      string // directory for the result and span files; "" = none
	// inject, when non-nil, runs on every rank after the body of every
	// job. Tests use it to break jobs on purpose.
	inject func(c *mpi.Comm)
}

// The metrics of the JSON line, as BENCHMARK.json lists them: end-to-end
// ones for -trace 0 and per-layer ones for -trace 1. The other printed
// metrics stay out of the line: error_rate, the per-op mpi.*_us spans and
// runtime.gc_pause_ms read 0 or are absent on every run of some workload,
// and step_us_tail's run-to-run spread on ring-256 reached the largest
// bound a gated metric may have (see README.md).
var (
	endToEndNames = []string{"setup_s", "run_s", "step_us_p50", "alloc_mb"}
	perLayerNames = []string{
		"run_s_untraced", "run_s_traced", "trace.overhead",
		"sim.events", "sim.ns_per_event", "sim.switch_ns", "sim.post_ns",
		"mpi.calls", "mpi.call_us",
		"adi.build_s", "adi.conns", "adi.conn_use", "adi.eager", "adi.rndv", "adi.stripes",
		"adi.stripes_per_rndv", "adi.shmem", "adi.unexpected", "adi.ctrl", "adi.credit_stalls",
		"core.plan_ns",
		"ib.sends", "ib.writes", "ib.bytes",
		"hca.wqes", "hca.send_util", "hca.recv_util",
		"gx.util",
		"fabric.trunk_items", "fabric.trunk_util",
		"buf.live",
		"runtime.allocs", "runtime.gc_cycles",
	}
)

// minJobs is the fewest jobs a run makes, however short --seconds is, so
// that the first job has a second to be compared with.
const minJobs = 2

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "pingpong-small", "workload to run")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed the inputs are drawn from")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics from untraced jobs; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.out, "out", "", "directory for the result and span JSON files (empty: write none)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	// The serial engine runs one goroutine at a time. A second P would only
	// add cross-CPU wake-ups on every proc handoff, whose cost is the
	// host's rather than the simulator's, and would let the process CPU
	// time that setup_s and run_s report include idle spinning.
	runtime.GOMAXPROCS(1)
	res, err := run(o, pins, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(res.final())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	metrics           []metric // every metric the run measured
	names             []string // the ones the JSON line carries
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type finalLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) final() finalLine {
	f := finalLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.metrics {
		if slices.Contains(r.names, m.name) {
			f.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
		}
	}
	return f
}

// run measures one workload for o.seconds and prints every metric.
func run(o options, table map[pinKey]pin, out io.Writer) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if _, err := processCPUTime(); err != nil {
		return nil, fmt.Errorf("read the process CPU clock: %w", err)
	}
	steps := o.steps
	if steps <= 0 {
		steps = w.steps
	}
	in := makeInputs(w, o.seed, steps)
	s := &session{
		w: w, in: in, steps: steps, out: out, inject: o.inject,
		orc:      newOracle(w, o.seed, steps, table),
		deadline: time.Now().Add(time.Duration(o.seconds * float64(time.Second))),
	}
	fp := hostFingerprint(o.seed)
	fmt.Fprintf(out, "host %s\n", fp)
	origin := fmt.Sprintf("sizes/permutation drawn from seed %d", o.seed)
	if !w.seeded {
		origin = "fixed inputs: this workload draws nothing from the seed"
	}
	fmt.Fprintf(out, "workload %s: %d ranks, %d steps per job, %s\n", w.name, w.cfg.Size(), steps, origin)

	var res *result
	var tr *tracer
	if o.trace {
		res, tr, err = s.traced()
	} else {
		res = s.endToEnd()
	}
	if err != nil {
		return nil, err
	}
	if s.orc.want != nil {
		fmt.Fprintf(out, "virtual result (%s, checked against the %s): %v\n", w.unit, s.orc.source, *s.orc.want)
	}
	for _, m := range res.metrics {
		printMetric(out, m)
	}
	if o.out != "" {
		if err := writeResult(o, w, fp, res, tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func printMetric(out io.Writer, m metric) {
	if m.note != "" {
		fmt.Fprintf(out, "metric %-22s %14.6g %-6s (%s)\n", m.name, m.value, m.unit, m.note)
		return
	}
	fmt.Fprintf(out, "metric %-22s %14.6g %s\n", m.name, m.value, m.unit)
}

// session is one run of one workload.
type session struct {
	w        *workload
	in       *inputs
	steps    int
	orc      *oracle
	deadline time.Time
	out      io.Writer
	inject   func(c *mpi.Comm)
	res      result
}

// job runs and checks one job, counting it and printing why it failed.
func (s *session) job(o runOpts) jobResult {
	o.id, o.inject = s.res.attempted, s.inject
	r := runJob(s.w, s.in, s.steps, o)
	s.res.attempted++
	s.orc.check(&r)
	if r.err != nil {
		s.res.failed++
		fmt.Fprintf(s.out, "job %d FAILED: %v\n", o.id, r.err)
	}
	return r
}

// maxSetupReps bounds the setup-only jobs that follow each full job.
const maxSetupReps = 20

// setupReps is how many setup-only jobs follow a full job: as many as fit
// in a tenth of its run time, so set-up is sampled often where it is
// cheap and costs at most about a tenth of the run.
func setupReps(r jobResult) int {
	if r.setup <= 0 {
		return 0
	}
	return min(maxSetupReps, int(r.run/(10*r.setup)))
}

// setupOnly runs the workload's shape with an empty rank body and returns
// the host CPU time from the mpi.Run call to the first rank-body entry:
// the same set-up a full job pays.
func (s *session) setupOnly() (time.Duration, bool) {
	runtime.GC()
	first := time.Duration(-1)
	t0 := cpuTime()
	rep, err := runProtected(s.w.cfg, func(*mpi.Comm) {
		if first < 0 {
			first = cpuTime()
		}
	})
	s.res.attempted++
	if err == nil && rep.World.BufLive() != 0 {
		err = fmt.Errorf("%d payload buffers live after the job", rep.World.BufLive())
	}
	if err != nil {
		s.res.failed++
		fmt.Fprintf(s.out, "setup-only job %d FAILED: %v\n", s.res.attempted-1, err)
		return 0, false
	}
	return first - t0, true
}

// scaledJob is a passing job of endToEnd, with what scaling it needs.
type scaledJob struct {
	r     jobResult
	ref   time.Duration // the kernel's CPU time just before the job
	extra []float64     // CPU seconds of the setup-only jobs that followed it
}

// endToEnd runs the reference kernel and an untraced job, by turns, until
// the deadline, and the kernel once more after the last job, and reports
// the end-to-end metrics. setup_s, run_s and step_us_p50 are medians, over
// jobs or over the steps of every job pooled, of host time in reference
// seconds: each job's times scaled by the kernel's mean CPU time over its
// runs just before and just after the job (see reference.go). Their
// unscaled medians are printed beside them, and step_us_tail is a
// percentile of the unscaled steps pooled.
func (s *session) endToEnd() *result {
	res := &s.res
	res.names = endToEndNames
	var refs, setups, runs, steps, setupCPU, runCPU, runWall, allocs []float64
	var samples []int64 // wall-time steps of every job
	var last *scaledJob // the passing job that waits for the kernel run after it
	for {
		ref := refKernel()
		refs = append(refs, ref.Seconds())
		if last != nil {
			k := refScale((last.ref + ref) / 2)
			r := last.r
			setups = append(setups, r.setup.Seconds()*k)
			runs = append(runs, r.run.Seconds()*k)
			for _, ns := range r.stepNS {
				steps = append(steps, float64(ns)/1e3*k)
			}
			setupCPU = append(setupCPU, r.setup.Seconds())
			for _, d := range last.extra {
				setups = append(setups, d*k)
				setupCPU = append(setupCPU, d)
			}
			last = nil
		}
		if res.attempted >= minJobs && !time.Now().Before(s.deadline) {
			break
		}
		r := s.job(runOpts{})
		if r.err != nil {
			continue
		}
		runCPU = append(runCPU, r.run.Seconds())
		runWall = append(runWall, r.runWall.Seconds())
		allocs = append(allocs, float64(r.allocBytes)/1e6)
		samples = append(samples, r.stepNS...)
		last = &scaledJob{r: r, ref: ref}
		for n := setupReps(r); n > 0; n-- {
			if d, ok := s.setupOnly(); ok {
				last.extra = append(last.extra, d.Seconds())
			}
		}
	}
	slices.Sort(samples)
	stepWall := 0.0
	if len(samples) > 0 {
		stepWall = float64(percentile(samples, 50)) / 1e3
	}
	tailV, tailNote := 0.0, "too few samples"
	if p, v, ok := tail(samples); ok {
		tailV = float64(v) / 1e3
		tailNote = fmt.Sprintf("p%g of %d samples", p, len(samples))
	}
	jobs := fmt.Sprintf("median of %d jobs", len(runs))
	res.metrics = []metric{
		{name: "setup_s", value: median(setups), unit: "s", note: fmt.Sprintf("reference seconds, median of %d set-ups", len(setups))},
		{name: "run_s", value: median(runs), unit: "s", note: "reference seconds, " + jobs},
		{name: "step_us_p50", value: median(steps), unit: "us", note: fmt.Sprintf("reference time, %d steps", len(steps))},
		{name: "step_us_tail", value: tailV, unit: "us", note: "wall time, " + tailNote},
		{name: "alloc_mb", value: median(allocs), unit: "MB", note: "per job"},
		{name: "ref_cpu_s", value: median(refs), unit: "s", note: fmt.Sprintf("reference kernel, median of %d runs; refNominal %v", len(refs), refNominal)},
		{name: "setup_cpu_s", value: median(setupCPU), unit: "s", note: "unscaled setup_s"},
		{name: "run_cpu_s", value: median(runCPU), unit: "s", note: "unscaled run_s"},
		{name: "run_wall_s", value: median(runWall), unit: "s", note: "wall time, " + jobs},
		{name: "step_wall_us_p50", value: stepWall, unit: "us", note: "unscaled step_us_p50"},
		s.errorRate(),
	}
	return res
}

func (s *session) errorRate() metric {
	return metric{name: "error_rate", value: ratio(float64(s.res.failed), float64(s.res.attempted)), unit: "ratio",
		note: fmt.Sprintf("%d of %d jobs failed", s.res.failed, s.res.attempted)}
}

// traced alternates an untraced job, a traced job and one call of each
// probe until the deadline. Host times are medians over the rounds; the
// counters come from the last passing untraced job.
func (s *session) traced() (*result, *tracer, error) {
	w, in := s.w, s.in
	res := &s.res
	res.names = perLayerNames
	tr := newTracer()
	var runOff, runOn, switchNS, postNS, planNS, buildS, nsPerEvent, allocs, gcCycles, gcPause []float64
	var counts []metric
	callUS := map[string][]float64{}
	var calls []float64
	for round := 0; round == 0 || time.Now().Before(s.deadline); round++ {
		r := s.job(runOpts{keepRep: true})
		if r.err == nil {
			counts = counters(w, in, r.rep)
			runOff = append(runOff, r.run.Seconds())
			nsPerEvent = append(nsPerEvent, r.run.Seconds()*1e9/float64(r.rep.World.Eng.EventsFired()))
			allocs = append(allocs, float64(r.mallocs))
			gcCycles = append(gcCycles, float64(r.gcCycles))
			gcPause = append(gcPause, float64(r.gcPause)/1e6)
		}
		r.rep = nil

		t := s.job(runOpts{tr: tr, keepSpans: round == 0})
		if t.err == nil {
			runOn = append(runOn, t.run.Seconds())
			n := 0
			for _, sp := range t.spans {
				if sp.Rank >= 0 && strings.HasPrefix(sp.Name, "mpi.") {
					callUS[sp.Name] = append(callUS[sp.Name], float64(sp.End-sp.Start)/1e3)
					n++
				}
			}
			calls = append(calls, float64(n))
		}

		switchNS = append(switchNS, tr.probe("probe.sim.switch", func() float64 { return probeSwitch(20000) }))
		postNS = append(postNS, tr.probe("probe.sim.post", func() float64 { return probePost(200000) }))
		planNS = append(planNS, tr.probe("probe.core.plan", func() float64 { return probePlan(w, in, 200000) }))
		buildS = append(buildS, tr.probe("probe.adi.build", func() float64 { return probeBuild(w) }))
	}
	if counts == nil {
		return nil, nil, fmt.Errorf("no untraced job passed, so the per-layer counters are unavailable")
	}

	var all []float64
	names := make([]string, 0, len(callUS))
	for name, v := range callUS {
		names = append(names, name)
		all = append(all, v...)
	}
	sort.Strings(names)
	off, on := median(runOff), median(runOn)
	res.metrics = []metric{
		{name: "run_s_untraced", value: off, unit: "s", note: fmt.Sprintf("median of %d jobs", len(runOff))},
		{name: "run_s_traced", value: on, unit: "s", note: fmt.Sprintf("median of %d jobs", len(runOn))},
		{name: "trace.overhead", value: ratio(on-off, off), unit: "ratio", note: "traced/untraced run_s - 1"},
		{name: "sim.ns_per_event", value: median(nsPerEvent), unit: "ns"},
		{name: "sim.switch_ns", value: median(switchNS), unit: "ns", note: "probe"},
		{name: "sim.post_ns", value: median(postNS), unit: "ns", note: fmt.Sprintf("probe, queue depth %d", postDepth)},
		{name: "core.plan_ns", value: median(planNS), unit: "ns", note: "probe"},
		{name: "adi.build_s", value: median(buildS), unit: "s", note: "probe"},
		{name: "mpi.calls", value: median(calls), unit: "count", note: "per traced job"},
		{name: "mpi.call_us", value: median(all), unit: "us", note: "p50 over every MPI call span"},
	}
	for _, name := range names {
		res.metrics = append(res.metrics, metric{name: name + "_us", value: median(callUS[name]), unit: "us",
			note: fmt.Sprintf("p50 of %d calls", len(callUS[name]))})
	}
	res.metrics = append(res.metrics,
		metric{name: "runtime.allocs", value: median(allocs), unit: "count", note: "per job"},
		metric{name: "runtime.gc_cycles", value: median(gcCycles), unit: "count", note: "per job"},
		metric{name: "runtime.gc_pause_ms", value: median(gcPause), unit: "ms", note: "per job"})
	res.metrics = append(res.metrics, counts...)
	res.metrics = append(res.metrics, s.errorRate())
	return res, tr, nil
}

// writeResult stores the run's metrics and host fingerprint under o.out,
// and for a traced run (tr != nil) its spans.
func writeResult(o options, w *workload, fp fingerprint, res *result, tr *tracer) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d", w.name, o.seed, trace))
	b, err := json.MarshalIndent(struct {
		Host   fingerprint `json:"host"`
		Result finalLine   `json:"result"`
	}{fp, res.final()}, "", "  ")
	if err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	if err := os.WriteFile(base+".json", b, 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	if tr == nil {
		return nil
	}
	return tr.write(base+"-spans.json", fp)
}
