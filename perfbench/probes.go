package main

import (
	"time"

	"ib12x/internal/adi"
	"ib12x/internal/core"
	"ib12x/internal/model"
	"ib12x/internal/mpi"
	"ib12x/internal/sim"
	"ib12x/internal/topo"
)

// The probes time one layer each through its exported API, so a later
// change inside the program is measured with this code untouched.

// probeSwitch returns host ns per Proc.Yield handoff between two procs on a
// bare engine.
func probeSwitch(yields int) float64 {
	e := sim.NewEngine()
	for i := 0; i < 2; i++ {
		e.Spawn("yield", func(p *sim.Proc) {
			for k := 0; k < yields; k++ {
				p.Yield()
			}
		})
	}
	t0 := time.Now()
	if err := e.Run(); err != nil {
		panic(err) // two yielding procs cannot deadlock
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(2*yields)
}

// postDepth is the standing event-queue depth of the post probe: about one
// pending chunk, completion and ack event per in-flight message and rail
// of a 64-message window.
const postDepth = 256

// probePost returns host ns per Engine.Post plus its firing, with postDepth
// other events pending.
func probePost(posts int) float64 {
	e := sim.NewEngine()
	far := sim.Time(1) << 60
	for i := 0; i < postDepth; i++ {
		e.Post(far+sim.Time(i), func() {})
	}
	left := posts
	var next func()
	next = func() {
		if left--; left > 0 {
			e.Post(e.Now()+1, next)
		}
	}
	e.Post(0, next)
	t0 := time.Now()
	if err := e.Run(); err != nil {
		panic(err) // no procs, so no deadlock
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(posts)
}

// planSizes are the message sizes the workload hands the planner.
func planSizes(w *workload, in *inputs) []int {
	switch w.name {
	case "pingpong-small":
		return in.sizes
	case "window-bw-1m":
		return []int{windowSize}
	case "ring-256":
		return []int{ringSize}
	default:
		return []int{a2aSize}
	}
}

// probePlan returns host ns per PickEager (below the rendezvous threshold)
// or PlanBulk call of the EPC policy at the workload's sizes, class and
// rail count.
func probePlan(w *workload, in *inputs, calls int) float64 {
	m := model.Default()
	p := core.New(w.cfg.Policy, m.MinStripe)
	rails := max(w.cfg.QPsPerPort, 1)
	sizes := planSizes(w, in)
	var st core.ConnState
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		n := sizes[i%len(sizes)]
		if n < m.RendezvousThreshold {
			p.PickEager(w.class, n, rails, &st)
		} else {
			p.PlanBulk(w.class, n, rails, &st)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}

// specOf is the topo.Spec mpi.Run builds for cfg.
func specOf(cfg mpi.Config) topo.Spec {
	return topo.Spec{
		Nodes:          cfg.Nodes,
		ProcsPerNode:   max(cfg.ProcsPerNode, 1),
		HCAsPerNode:    max(cfg.HCAs, 1),
		PortsPerHCA:    max(cfg.Ports, 1),
		QPsPerPort:     max(cfg.QPsPerPort, 1),
		NodesPerSwitch: cfg.NodesPerSwitch,
		TrunkRate:      cfg.TrunkRate,
	}
}

// probeBuild returns host seconds for adi.NewWorld on the workload's shape
// and policy: the topo, fabric, hca and ib build that precedes every job.
func probeBuild(w *workload) float64 {
	t0 := time.Now()
	adi.NewWorld(sim.NewEngine(), model.Default(), specOf(w.cfg), adi.Options{Policy: w.cfg.Policy})
	return time.Since(t0).Seconds()
}
