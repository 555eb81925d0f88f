package main

import (
	"container/heap"
	"hash/crc32"
	"math/rand"
	"runtime"
	"time"
)

// The reference kernel is a fixed piece of Go that runs the way the
// simulator runs on the host, in two parts. The first is a discrete-event
// loop over a binary heap whose every event hands control to a proc
// goroutine over unbuffered channels and back, the proc allocating and
// checksumming a small buffer: the scheduler-bound side, which dominates
// pingpong-small. The second builds a randomly linked heap of 300 000
// small pointer-holding nodes and collects it while it is live: the
// allocator and garbage-collector side, which dominates ring-256. It imports nothing of ib12x, so no change to the simulator
// moves it.
//
// On a shared host the speed at which this kind of code runs drifts by
// tens of percent over seconds to minutes, and the drift is largely common
// to the simulator and the kernel. The benchmark runs the kernel before
// every job and reports host times in reference seconds: CPU time scaled
// by refNominal over the kernel's CPU time, so the value is what the job
// would take on the host running at the speed where the kernel takes
// refNominal.
const (
	refIters = 30000
	refNodes = 300000 // nodes of the collected heap, about 17 MB with its index
	// refNominal is the kernel's CPU time at the usual speed of the 2-CPU
	// shared host (Intel Xeon, go1.24, GOMAXPROCS 1) the benchmark was
	// tuned on. It only fixes the unit: reference seconds are close to
	// CPU seconds there.
	refNominal = 200 * time.Millisecond
	refPending = 256 // events pending in the kernel's heap
	refBuf     = 512 // bytes the proc allocates per event
)

type refEvent struct {
	at int64
	fn func()
}

type refQueue []refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

var refSink uint32

// refNode is a node of the kernel's collected heap.
type refNode struct {
	links [4]*refNode
	val   [2]int64
}

var refLive []*refNode // keeps the heap live while it is collected

// refKernel runs the reference kernel once, from a collected heap, and
// returns its CPU time.
func refKernel() time.Duration {
	runtime.GC()
	t0 := cpuTime()
	refEvents()
	refCollect()
	return cpuTime() - t0
}

// refCollect builds the linked heap and collects it while it is live.
func refCollect() {
	r := rand.New(rand.NewSource(1))
	nodes := make([]*refNode, refNodes)
	for i := range nodes {
		nodes[i] = &refNode{val: [2]int64{int64(i), 0}}
	}
	for _, n := range nodes {
		for k := range n.links {
			n.links[k] = nodes[r.Intn(len(nodes))]
		}
	}
	refLive = nodes
	runtime.GC()
	refLive = nil
}

// refEvents runs the event loop.
func refEvents() {
	resume, yield, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for range resume {
			b := make([]byte, refBuf)
			refSink += crc32.ChecksumIEEE(b)
			yield <- struct{}{}
		}
	}()
	q := make(refQueue, 0, refPending+1)
	fired := 0
	fire := func() { fired++ }
	for i := 0; i < refPending; i++ {
		heap.Push(&q, refEvent{at: int64(i * 7 % 97), fn: fire})
	}
	for i := 0; i < refIters; i++ {
		e := heap.Pop(&q).(refEvent)
		e.fn()
		resume <- struct{}{}
		<-yield
		heap.Push(&q, refEvent{at: e.at + int64(i%13) + 1, fn: fire})
	}
	close(resume)
	<-done
	refSink += uint32(fired)
}

// refScale is the factor that turns host time measured beside a kernel
// run of ref CPU time into reference seconds.
func refScale(ref time.Duration) float64 {
	if ref <= 0 {
		return 1
	}
	return float64(refNominal) / float64(ref)
}
