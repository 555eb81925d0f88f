package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"time"

	"ib12x/internal/core"
	"ib12x/internal/mpi"
	"ib12x/internal/sim"
)

// workload is one named simulated MPI job. Every workload runs on the
// serial engine (Shards 0) with 4 EPC rails per port, the paper's enhanced
// design.
type workload struct {
	name  string
	cfg   mpi.Config
	steps int // steps per job at full size
	// seeded reports whether the job's inputs depend on --seed; the
	// unseeded workloads are the same job for every seed.
	seeded bool
	// unit names the virtual-time result the job pins.
	unit string
	// class is the communication marker of the workload's messages, as the
	// planner sees it (core.plan_ns).
	class core.Class
	// usedConns is the number of (rank, peer) connections the traffic
	// pattern touches, excluding the drain barrier mpi.Run appends.
	usedConns func(in *inputs) int
	// body is the rank body; it records into j and its result is read by
	// result after mpi.Run returns.
	body   func(j *job, c *mpi.Comm)
	result func(j *job, rep *mpi.Report) (sim.Time, float64)
}

const (
	pingMaxSize = 8 << 10
	windowLen   = 64
	windowSize  = 1 << 20
	ringSize    = 256 << 10
	a2aSize     = 64 << 10
	ackTag      = 1
)

var workloads = []*workload{
	{
		name:      "pingpong-small",
		cfg:       mpi.Config{Nodes: 2, QPsPerPort: 4, Policy: core.EPC},
		steps:     20000,
		seeded:    true,
		unit:      "us one-way latency",
		class:     core.Blocking,
		usedConns: func(*inputs) int { return 2 },
		body:      pingpongBody,
		result: func(j *job, _ *mpi.Report) (sim.Time, float64) {
			return j.virt, j.virt.Micros() / float64(2*j.steps)
		},
	},
	{
		name: "window-bw-1m",
		cfg:  mpi.Config{Nodes: 2, QPsPerPort: 4, Policy: core.EPC},
		// 50 windows put the cold first window of each job at 2% of the
		// steps, inside step_us_tail's p99 rather than on its edge.
		steps:     50,
		unit:      "MB/s",
		class:     core.NonBlocking,
		usedConns: func(*inputs) int { return 2 },
		body:      windowBody,
		result: func(j *job, _ *mpi.Report) (sim.Time, float64) {
			bytes := float64(j.steps) * windowLen * windowSize
			return j.virt, bytes / j.virt.Seconds() / 1e6
		},
	},
	{
		name: "ring-256",
		cfg:  mpi.Config{Nodes: 256, QPsPerPort: 4, Policy: core.EPC, NodesPerSwitch: 16},
		// 32 steps keep the steps slowed by the world build's garbage
		// collection near a fifth of the job, away from the p50 and p90.
		steps:     32,
		seeded:    true,
		unit:      "us max elapsed",
		class:     core.Blocking,
		usedConns: func(in *inputs) int { return 2 * len(in.perm) },
		body:      ringBody,
		result: func(_ *job, rep *mpi.Report) (sim.Time, float64) {
			return rep.Elapsed, rep.Elapsed.Micros()
		},
	},
	{
		name:      "alltoall-fattree",
		cfg:       mpi.Config{Nodes: 16, ProcsPerNode: 2, QPsPerPort: 4, Policy: core.EPC, NodesPerSwitch: 4},
		steps:     12,
		unit:      "us per Alltoall",
		class:     core.Collective,
		usedConns: func(*inputs) int { return 32 * 31 }, // every pair of the 32 ranks
		body:      alltoallBody,
		result: func(j *job, _ *mpi.Report) (sim.Time, float64) {
			return j.virt, j.virt.Micros() / float64(j.steps)
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// inputs are the generated inputs the simulator receives: the ping-pong
// size sequence and payload bytes, and the ring permutation. Unseeded
// workloads leave them empty.
type inputs struct {
	sizes   []int  // pingpong-small: message size of each round trip
	pattern []byte // pingpong-small: payload source bytes
	perm    []int  // ring-256: ring position -> rank
	pos     []int  // ring-256: rank -> ring position
}

// makeInputs draws a workload's inputs from the seed.
func makeInputs(w *workload, seed int64, steps int) *inputs {
	in := &inputs{}
	if !w.seeded {
		return in
	}
	r := rand.New(rand.NewSource(seed))
	switch w.name {
	case "pingpong-small":
		// Log-uniform over 1 B .. 8 KB: every size stays below the 16 KB
		// rendezvous/striping threshold, so the eager path carries it all.
		in.sizes = make([]int, steps)
		for i := range in.sizes {
			lo := 1 << r.Intn(13)
			in.sizes[i] = lo + r.Intn(lo)
		}
		in.pattern = make([]byte, 2*pingMaxSize)
		r.Read(in.pattern)
	case "ring-256":
		in.perm = r.Perm(w.cfg.Size())
		in.pos = make([]int, len(in.perm))
		for i, rank := range in.perm {
			in.pos[rank] = i
		}
	}
	return in
}

// payloadAt is the expected payload of round trip i in direction dir
// (0 = ping, 1 = pong).
func (in *inputs) payloadAt(i, dir int) []byte {
	n := in.sizes[i]
	off := (i*7919 + dir*4099) % pingMaxSize
	return in.pattern[off : off+n]
}

// mix folds v into a running FNV-style digest.
func mix(d, v uint64) uint64 { return (d ^ v) * 1099511628211 }

const digestInit = 14695981039346656037

func pingpongBody(j *job, c *mpi.Comm) {
	rank := c.Rank()
	sp := j.spans(rank)
	buf := make([]byte, pingMaxSize)
	d := uint64(digestInit)
	peer, dirOut, dirIn := 1, 0, 1
	if rank == 1 {
		peer, dirOut, dirIn = 0, 1, 0
	}
	t0 := c.Time()
	for i := 0; i < j.steps; i++ {
		out, want := j.in.payloadAt(i, dirOut), j.in.payloadAt(i, dirIn)
		start := time.Now()
		step, s0 := sp.id(), sp.now()
		var st mpi.Status
		if rank == 0 {
			a := sp.now()
			c.Send(peer, 0, out)
			sp.add(sp.id(), step, "mpi.send", a)
			a = sp.now()
			st = c.Recv(peer, 0, buf)
			sp.add(sp.id(), step, "mpi.recv", a)
		} else {
			a := sp.now()
			st = c.Recv(peer, 0, buf)
			sp.add(sp.id(), step, "mpi.recv", a)
			a = sp.now()
			c.Send(peer, 0, out)
			sp.add(sp.id(), step, "mpi.send", a)
		}
		sp.add(step, j.runSpan, "step", s0)
		if rank == 0 {
			j.stepNS[i] = time.Since(start).Nanoseconds()
		}
		if st.Count != len(want) || !bytes.Equal(buf[:st.Count], want) {
			j.failf(rank, "round trip %d: received %d bytes, want %d matching bytes", i, st.Count, len(want))
			return
		}
		d = mix(mix(d, uint64(crc32.ChecksumIEEE(buf[:st.Count]))), uint64(c.Time()))
	}
	j.digest[rank] = d
	if rank == 0 {
		j.virt = c.Time() - t0
	}
}

// windowBody is bench.UniBandwidth's shape at one size: windows of 64
// synthetic 1 MB IsendN, then a 4-byte ack from the receiver.
func windowBody(j *job, c *mpi.Comm) {
	rank := c.Rank()
	sp := j.spans(rank)
	reqs := make([]*mpi.Request, windowLen)
	ack := make([]byte, 4)
	d := uint64(digestInit)
	t0 := c.Time()
	for i := 0; i < j.steps; i++ {
		start := time.Now()
		step, s0 := sp.id(), sp.now()
		if rank == 0 {
			for w := range reqs {
				a := sp.now()
				reqs[w] = c.IsendN(1, 0, nil, windowSize)
				sp.add(sp.id(), step, "mpi.isend", a)
			}
			a := sp.now()
			c.Waitall(reqs)
			sp.add(sp.id(), step, "mpi.waitall", a)
			a = sp.now()
			st := c.Recv(1, ackTag, ack)
			sp.add(sp.id(), step, "mpi.recv", a)
			if st.Count != len(ack) {
				j.failf(rank, "window %d: ack of %d bytes", i, st.Count)
				return
			}
		} else {
			for w := range reqs {
				a := sp.now()
				reqs[w] = c.IrecvN(0, 0, nil, windowSize)
				sp.add(sp.id(), step, "mpi.irecv", a)
			}
			a := sp.now()
			c.Waitall(reqs)
			sp.add(sp.id(), step, "mpi.waitall", a)
			for w, r := range reqs {
				if st := r.Status(); st.Count != windowSize || st.Source != 0 {
					j.failf(rank, "window %d message %d: %d bytes from rank %d", i, w, st.Count, st.Source)
					return
				}
			}
			a = sp.now()
			c.Send(0, ackTag, ack)
			sp.add(sp.id(), step, "mpi.send", a)
		}
		sp.add(step, j.runSpan, "step", s0)
		if rank == 0 {
			j.stepNS[i] = time.Since(start).Nanoseconds()
		}
		d = mix(d, uint64(c.Time()))
	}
	j.digest[rank] = d
	if rank == 0 {
		j.virt = c.Time() - t0
	}
}

// ringBody exchanges 256 KB with both neighbours of the seeded ring:
// every rank sends right and receives from the left.
func ringBody(j *job, c *mpi.Comm) {
	rank := c.Rank()
	sp := j.spans(rank)
	p := len(j.in.perm)
	pos := j.in.pos[rank]
	right, left := j.in.perm[(pos+1)%p], j.in.perm[(pos+p-1)%p]
	d := uint64(digestInit)
	for i := 0; i < j.steps; i++ {
		start := time.Now()
		step, s0 := sp.id(), sp.now()
		a := sp.now()
		st := c.SendrecvN(right, 0, nil, ringSize, left, 0, nil, ringSize)
		sp.add(sp.id(), step, "mpi.sendrecv", a)
		sp.add(step, j.runSpan, "step", s0)
		if rank == 0 {
			j.stepNS[i] = time.Since(start).Nanoseconds()
		}
		if st.Count != ringSize || st.Source != left {
			j.failf(rank, "step %d: %d bytes from rank %d, want %d from %d", i, st.Count, st.Source, ringSize, left)
			return
		}
		d = mix(d, uint64(c.Time()))
	}
	j.digest[rank] = d
}

// alltoallBody is bench.Alltoall's shape at one size: a barrier, repeated
// synthetic 64 KB Alltoall, and the slowest rank's elapsed time by
// AllreduceInt64.
func alltoallBody(j *job, c *mpi.Comm) {
	rank := c.Rank()
	sp := j.spans(rank)
	a := sp.now()
	c.Barrier()
	sp.add(sp.id(), j.runSpan, "mpi.barrier", a)
	d := uint64(digestInit)
	t0 := c.Time()
	for i := 0; i < j.steps; i++ {
		start := time.Now()
		step, s0 := sp.id(), sp.now()
		a := sp.now()
		c.Alltoall(nil, a2aSize, nil)
		sp.add(sp.id(), step, "mpi.alltoall", a)
		sp.add(step, j.runSpan, "step", s0)
		if rank == 0 {
			j.stepNS[i] = time.Since(start).Nanoseconds()
		}
		d = mix(d, uint64(c.Time()))
	}
	el := []int64{int64(c.Time() - t0)}
	a = sp.now()
	c.AllreduceInt64(el, mpi.Max)
	sp.add(sp.id(), j.runSpan, "mpi.allreduce", a)
	j.digest[rank] = mix(d, uint64(el[0]))
	if rank == 0 {
		j.virt = sim.Time(el[0])
	}
}
