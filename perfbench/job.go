package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"ib12x/internal/mpi"
	"ib12x/internal/sim"
)

// job is the state of one mpi.Run of a workload. Ranks run one at a time
// on the serial engine, each writing only its own slots of the per-rank
// slices.
type job struct {
	in      *inputs
	steps   int
	stepNS  []int64  // rank 0's host time per step
	digest  []uint64 // per-rank digest of received data and virtual times
	fails   []string // per-rank failure, "" when the rank saw none
	virt    sim.Time // virtual result time recorded by rank 0
	first   time.Time
	cpu0    time.Duration // process CPU time at first
	tr      *tracer       // nil for untraced jobs
	runSpan int64
}

func (j *job) spans(rank int) *spanRec {
	if j.tr == nil {
		return nil
	}
	return j.tr.ranks[rank]
}

func (j *job) failf(rank int, format string, args ...any) {
	j.fails[rank] = fmt.Sprintf(format, args...)
}

// jobResult is what one job measured and produced.
type jobResult struct {
	// Host time of set-up (mpi.Run call -> first body entry) and run
	// (-> mpi.Run return) in process CPU time, and the run's wall time.
	setup, run time.Duration
	runWall    time.Duration
	stepNS     []int64
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcPause    time.Duration

	elapsed sim.Time // virtual-time result
	value   float64  // the result in the workload's unit
	digest  uint64
	err     error // why the job failed, nil when every check passed

	rep   *mpi.Report // nil unless kept for counter reads
	spans []span      // the job's spans when traced
}

// runOpts are the per-job knobs of runJob.
type runOpts struct {
	id        int
	tr        *tracer
	keepSpans bool // keep the job's spans for the tracer's file
	keepRep   bool
	// inject, when non-nil, runs on every rank after the body. Tests use it
	// to break a job on purpose.
	inject func(c *mpi.Comm)
}

// runJob runs one job and checks everything that does not need a
// reference value: mpi.Run errors and panics, per-rank payload checks and
// leaked payload buffers. The caller compares the virtual-time result with
// the pinned or reference value.
func runJob(w *workload, in *inputs, steps int, o runOpts) jobResult {
	size := w.cfg.Size()
	j := &job{
		in: in, steps: steps, tr: o.tr,
		stepNS: make([]int64, steps),
		digest: make([]uint64, size),
		fails:  make([]string, size),
	}
	var jobSpan, setupSpan int64
	if o.tr != nil {
		o.tr.beginJob(o.id, size)
		jobSpan, setupSpan, j.runSpan = o.tr.host.id(), o.tr.host.id(), o.tr.host.id()
	}
	body := func(c *mpi.Comm) {
		if j.first.IsZero() {
			j.first, j.cpu0 = time.Now(), cpuTime()
		}
		defer func() {
			if p := recover(); p != nil {
				j.failf(c.Rank(), "panic: %v", p)
			}
		}()
		w.body(j, c)
		if o.inject != nil {
			o.inject(c)
		}
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0, cpuStart := time.Now(), cpuTime()
	rep, err := runProtected(w.cfg, body)
	t1, cpu1 := time.Now(), cpuTime()
	runtime.ReadMemStats(&m1)

	if j.first.IsZero() {
		j.first, j.cpu0 = t1, cpu1
	}
	r := jobResult{
		setup:      j.cpu0 - cpuStart,
		run:        cpu1 - j.cpu0,
		runWall:    t1.Sub(j.first),
		stepNS:     j.stepNS,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		mallocs:    m1.Mallocs - m0.Mallocs,
		gcCycles:   m1.NumGC - m0.NumGC,
		gcPause:    time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		err:        err,
	}
	if o.tr != nil {
		h := o.tr.host
		start := func(t time.Time) int64 { return t.Sub(o.tr.epoch).Nanoseconds() }
		h.spans = append(h.spans,
			span{ID: jobSpan, Job: o.id, Rank: -1, Name: "job", Start: start(t0), End: start(t1)},
			span{ID: setupSpan, Parent: jobSpan, Job: o.id, Rank: -1, Name: "setup", Start: start(t0), End: start(j.first)},
			span{ID: j.runSpan, Parent: jobSpan, Job: o.id, Rank: -1, Name: "run", Start: start(j.first), End: start(t1)})
		r.spans = o.tr.endJob(o.keepSpans)
	}
	var bad []string
	for rank, f := range j.fails {
		if f != "" {
			bad = append(bad, fmt.Sprintf("rank %d: %s", rank, f))
		}
	}
	switch {
	case err != nil:
	case len(bad) > 0:
		r.err = fmt.Errorf("%s", strings.Join(bad, "; "))
	case rep.World.BufLive() != 0:
		r.err = fmt.Errorf("%d payload buffers live after the job", rep.World.BufLive())
	default:
		r.elapsed, r.value = w.result(j, rep)
		d := uint64(digestInit)
		for _, v := range j.digest {
			d = mix(d, v)
		}
		r.digest = d
	}
	if o.keepRep && r.err == nil {
		r.rep = rep
	}
	return r
}

// runProtected turns a panic that reaches mpi.Run's caller (an event
// handler on the engine goroutine) into an error.
func runProtected(cfg mpi.Config, body func(*mpi.Comm)) (rep *mpi.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("mpi.Run panicked: %v", p)
		}
	}()
	return mpi.Run(cfg, body)
}
