// Package hca models the IBM 12x dual-port InfiniBand Host Channel Adapter
// (paper §2.2): each port carries multiple send and multiple receive DMA
// engines behind a single hardware send scheduler, attached to the node's
// GX+ bus on one side and a 12x link on the other.
//
// Each work request flows through a pipeline of resource stages — hardware
// send scheduler, send DMA engine, GX+ payload fetch, TX lane, wire, RX
// lane, receive DMA engine, GX+ store, RC acknowledgment. Every stage books
// its resource at the simulated instant the request *arrives* at that stage
// (event-driven staging), so shared resources serve competing traffic in
// true arrival order; contention emerges from the bookings without
// per-packet events.
//
// Two properties of the real hardware are preserved exactly, because the
// paper's results hinge on them:
//
//  1. A single QP's descriptors execute strictly in order, so one QP can
//     keep at most one send engine busy at a time ("multiple queue pairs
//     should be used to utilize the send engines efficiently"). Flow
//     enforces this: a QP's next descriptor enters the engine stage only
//     when the previous one's engine phase ends.
//  2. Every descriptor pays the scheduler arbitration, engine WQE-fetch and
//     RC acknowledgment costs, so striping a message into k stripes pays
//     those costs k times.
package hca

import (
	"fmt"

	"ib12x/internal/fabric"
	"ib12x/internal/gx"
	"ib12x/internal/model"
	"ib12x/internal/sim"
)

// HCA is one IBM 12x dual-port adapter.
type HCA struct {
	Name  string
	Ports []*Port
	Bus   *gx.Bus // the node's GX+ bus (shared across HCAs of the node)
}

// New creates an HCA with nports ports attached to the given GX+ bus.
func New(name string, nports int, bus *gx.Bus, m *model.Params, net *fabric.Net) *HCA {
	h := &HCA{Name: name, Bus: bus}
	for i := 0; i < nports; i++ {
		h.Ports = append(h.Ports, newPort(fmt.Sprintf("%s.p%d", name, i), bus, m, net))
	}
	return h
}

// Port is one 12x port: a hardware send scheduler, pools of send and receive
// DMA engines, and the two lanes of its link.
type Port struct {
	Name string
	Node int // owning node id (fabric leaf lookup)
	M    *model.Params
	Net  *fabric.Net
	Bus  *gx.Bus

	Sched       sim.Server   // HW send scheduler (serial, PerItem per WQE)
	SendEngines []sim.Server // send DMA engines
	RecvEngines []sim.Server // receive DMA engines
	TX, RX      fabric.Lane

	// ErrorEvery injects a deterministic transmission error on every
	// N-th outbound chunk (0 disables). The lost chunk burns its wire
	// time, waits the model's RetransmitTimeout, and is retransmitted —
	// the observable cost of an RC retry. For failure-injection tests.
	ErrorEvery int64

	// Fault-injection hooks (all zero in healthy operation; driven by the
	// chaos harness off simulated virtual time, so faulty runs stay
	// bit-reproducible):
	//
	// StallUntil freezes the send-engine stage — WQEs arriving before this
	// instant wait for it before an engine is picked (a stalled send
	// engine / hung scheduler).
	StallUntil sim.Time
	// LatencyPad adds fixed one-way latency to every chunk entering or
	// leaving this port (a degraded link retraining at lower speed).
	LatencyPad sim.Time
	// AckDelay postpones RC acknowledgment generation by this much
	// (delayed completions at the responder).
	AckDelay sim.Time

	// Corruption plan (the chaos harness's integrity faults; DESIGN.md
	// §17). Each knob corrupts every N-th payload descriptor posted
	// through this port (0 disables); the shared counter advances once per
	// payload descriptor regardless of which knobs are armed, so plans
	// compose deterministically. CorruptSeed feeds the per-event byte/bit
	// selection. Control traffic (probes, credits, RTS/CTS/FIN, atomics)
	// never consults the plan — the model treats it as protected by the
	// transport's VCRC, which keeps every corruption plan liveness-safe.
	//
	// FlipEvery flips one seeded bit of the payload (BitFlipEveryN);
	// HdrEvery mangles the wire header of an envelope-bearing descriptor
	// (HeaderCorrupt); TornEvery delivers a ring slot whose payload trails
	// its doorbell (RingTornWrite; ring descriptors only).
	FlipEvery   int64
	HdrEvery    int64
	TornEvery   int64
	CorruptSeed uint64

	// Stats.
	WQEs        int64 // data descriptors transmitted
	Acks        int64 // acknowledgments generated
	TxBytes     int64 // payload bytes transmitted
	RxBytes     int64 // payload bytes received
	RnrWaits    int64 // messages that arrived before a receive was posted
	Retransmits int64 // chunks retransmitted after injected errors

	chunksSent int64  // error-injection counter
	payloadWRs int64  // corruption-injection counter (payload descriptors posted)
	flowSeq    uint64 // flows created from this port (routed-fabric key salt)
}

// Corrupt describes the integrity fault the port's corruption plan assigns
// to one payload descriptor. Rnd is the seeded draw the consumer derives
// the byte offset and bit mask from; the zero value means "clean".
type Corrupt struct {
	Flip bool   // flip one bit of the payload
	Hdr  bool   // mangle the wire header
	Torn bool   // ring slot payload trails its doorbell
	Rnd  uint64 // seeded draw for byte/bit selection
}

// CorruptNext evaluates the port's corruption plan against the next payload
// descriptor posted through it. ring marks a descriptor that lands in an
// RDMA eager ring slot (the only torn-write candidates); env marks one that
// carries a wire header (the only header-corruption candidates). Called at
// post time, exactly like Sched bookings.
func (p *Port) CorruptNext(ring, env bool) Corrupt {
	if p.FlipEvery == 0 && p.HdrEvery == 0 && p.TornEvery == 0 {
		return Corrupt{}
	}
	p.payloadWRs++
	c := Corrupt{Rnd: corruptMix(p.CorruptSeed ^ uint64(p.payloadWRs)*0x9E3779B97F4A7C15)}
	switch {
	case ring && p.TornEvery > 0 && p.payloadWRs%p.TornEvery == 0:
		c.Torn = true
	case p.FlipEvery > 0 && p.payloadWRs%p.FlipEvery == 0:
		c.Flip = true
	case env && p.HdrEvery > 0 && p.payloadWRs%p.HdrEvery == 0:
		c.Hdr = true
	default:
		return Corrupt{}
	}
	return c
}

// corruptMix is splitmix64's finalizer: a cheap, well-mixed hash of the
// (seed, counter) pair that makes flip positions deterministic per event.
func corruptMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func newPort(name string, bus *gx.Bus, m *model.Params, net *fabric.Net) *Port {
	p := &Port{
		Name:  name,
		M:     m,
		Net:   net,
		Bus:   bus,
		Sched: sim.Server{PerItem: m.SchedulerPerWQE},
		TX:    fabric.Lane{Rate: m.LinkRawRate},
		RX:    fabric.Lane{Rate: m.LinkRawRate},
	}
	for i := 0; i < m.SendEnginesPerPort; i++ {
		p.SendEngines = append(p.SendEngines, sim.Server{Rate: m.EngineRate, PerItem: m.EnginePerWQE})
	}
	for i := 0; i < m.RecvEnginesPerPort; i++ {
		p.RecvEngines = append(p.RecvEngines, sim.Server{Rate: m.EngineRate, PerItem: m.EnginePerWQE})
	}
	return p
}

// pickEngine returns the engine (by index) that can start work soonest given
// an earliest-start constraint; ties break toward the lowest index so runs
// are deterministic.
func pickEngine(engines []sim.Server, earliest sim.Time) int {
	best, bestStart := 0, sim.Time(-1)
	for i := range engines {
		s := earliest
		if f := engines[i].FreeAt(); f > s {
			s = f
		}
		if bestStart < 0 || s < bestStart {
			best, bestStart = i, s
		}
	}
	return best
}

// Timing captures the instants of one work request's journey. Fields are
// filled progressively as the request moves through the pipeline.
type Timing struct {
	Posted    sim.Time // doorbell rang
	SchedEnd  sim.Time // HW scheduler dispatched the WQE
	EngineEnd sim.Time // payload fully staged by the send engine
	Leaves    sim.Time // last byte left the source TX lane
	Delivered sim.Time // last byte through the destination RX lane
	InMemory  sim.Time // payload landed in destination memory
	AckArrive sim.Time // RC acknowledgment back at the requester
}

// Flow is the transmit pipeline of one QP direction: it enforces the
// per-QP in-order rule at the engine stage and drives each work request
// through the staged resources: source-side stages (scheduler, send
// engines, GX+ fetch, TX/uplink lanes), then destination-side stages
// (RX/downlink lanes, receive engines, GX+ store, ack generation).
type Flow struct {
	eng *sim.Engine
	src *Port
	dst *Port

	prevEngEnd sim.Time           // engine-phase end of the last WQE to enter the pool
	busy       bool               // a WQE is waiting for / holding the engine stage
	pending    sim.Ring[flowItem] // WQEs queued behind the in-order rule
	xpool      []*xfer            // recycled per-WQE pipeline states

	// routeKey identifies this flow to the routed fabric's path selection:
	// the D-mod-K hash input (static) and the tie-break salt (adaptive).
	// Derived from (src node, dst node, per-port flow ordinal) at world
	// build.
	routeKey uint64
}

// flowItem carries one WQE's completion callbacks in closure-free form: ctx
// is handed back to the package-level delivered/acked functions, so a caller
// with a pooled per-WR state object posts without allocating.
type flowItem struct {
	n         int
	posted    sim.Time
	schedEnd  sim.Time
	ctx       any
	delivered func(any, Timing) // invoked when the payload is in remote memory
	acked     func(any, Timing) // invoked when the RC ack returns
}

// cbPair adapts the closure-based Send to the ctx-carrying pipeline.
type cbPair struct {
	delivered func(Timing)
	acked     func(Timing)
}

func pairDelivered(a any, t Timing) {
	if p := a.(*cbPair); p.delivered != nil {
		p.delivered(t)
	}
}

func pairAcked(a any, t Timing) {
	if p := a.(*cbPair); p.acked != nil {
		p.acked(t)
	}
}

// NewFlow creates the transmit pipeline from p toward dst, driven by eng.
func (p *Port) NewFlow(eng *sim.Engine, dst *Port) *Flow {
	f := &Flow{eng: eng, src: p, dst: dst}
	p.flowSeq++
	f.routeKey = corruptMix(uint64(p.Node)<<40 ^ uint64(dst.Node)<<20 ^ p.flowSeq)
	return f
}

// Src and Dst report the flow's endpoints.
func (f *Flow) Src() *Port { return f.src }

// Dst reports the destination port.
func (f *Flow) Dst() *Port { return f.dst }

// Send enqueues one WQE of n payload bytes. delivered fires at the instant
// the payload is fully placed in destination memory; acked fires when the
// RC acknowledgment reaches the requester. Either may be nil. Each call
// allocates an adapter; allocation-sensitive callers use SendCtx.
func (f *Flow) Send(n int, delivered, acked func(Timing)) {
	f.SendCtx(n, &cbPair{delivered: delivered, acked: acked}, pairDelivered, pairAcked)
}

// SendCtx is the closure-free form of Send: delivered and acked are
// package-level (or otherwise non-capturing) functions that receive ctx
// back, so a caller pooling its per-WR state posts without allocating.
func (f *Flow) SendCtx(n int, ctx any, delivered, acked func(any, Timing)) {
	now := f.eng.Now()
	// The doorbell rings at post time; the HW scheduler arbitration is a
	// short serial booking at (or just after) the current instant.
	_, schedEnd := f.src.Sched.Reserve(now, 0)
	f.pending.Push(flowItem{n: n, posted: now, schedEnd: schedEnd, ctx: ctx, delivered: delivered, acked: acked})
	f.src.WQEs++
	f.src.TxBytes += int64(n)
	f.kick()
}

// kick starts the next pending WQE's engine stage once the previous one's
// engine phase has ended (the RC in-order rule).
func (f *Flow) kick() {
	if f.busy || f.pending.Len() == 0 {
		return
	}
	f.busy = true
	it := f.pending.Pop()
	at := f.eng.Now()
	if it.schedEnd > at {
		at = it.schedEnd
	}
	if f.prevEngEnd > at {
		at = f.prevEngEnd
	}
	x := f.getXfer()
	x.it = it
	x.t = Timing{Posted: it.posted, SchedEnd: it.schedEnd}
	x.recvEng = -1
	f.eng.PostCall(at, stageEngine, x, 0, 0, 0)
}

// xfer is the per-WQE state shared by its lane chunks. Instances are pooled
// per Flow: the ack event is provably the last pipeline reference (all chunks
// received, completeStage fired), so stageAck recycles them.
type xfer struct {
	f         *Flow
	it        flowItem
	t         Timing
	chunksOut int // chunks not yet fully received
	recvEng   int // receive engine assigned at first chunk (-1 before)
}

func (f *Flow) getXfer() *xfer {
	if n := len(f.xpool); n > 0 {
		x := f.xpool[n-1]
		f.xpool[n-1] = nil
		f.xpool = f.xpool[:n-1]
		return x
	}
	return &xfer{f: f}
}

func (f *Flow) putXfer(x *xfer) {
	*x = xfer{f: f}
	f.xpool = append(f.xpool, x)
}

// Pipeline-stage thunks: package-level functions scheduled via PostCall so
// each hop carries its state in the pooled timer node instead of allocating
// a capturing closure per chunk.
func stageEngine(a any, _, _, _ int64) { x := a.(*xfer); x.f.engineStage(x) }
func stageTx(a any, n, _, _ int64)     { x := a.(*xfer); x.f.txChunk(x, int(n)) }
func stageTxSend(a any, n, _, _ int64) { x := a.(*xfer); x.f.txChunkSend(x, int(n)) }
func stageRx(a any, n, first, wire int64) {
	x := a.(*xfer)
	x.f.rxChunk(x, int(n), sim.Time(first), wire)
}
func stageRecv(a any, n, _, _ int64)     { x := a.(*xfer); x.f.recvChunk(x, int(n)) }
func stageComplete(a any, _, _, _ int64) { x := a.(*xfer); x.f.completeStage(x) }
func stageAck(a any, _, _, _ int64) {
	x := a.(*xfer)
	f := x.f
	f.src.RX.Preempt(f.eng.Now(), int64(f.dst.M.AckWireBytes))
	if x.it.acked != nil {
		x.it.acked(x.it.ctx, x.t)
	}
	f.putXfer(x)
}

// engineStage books a send engine and the GX+ payload fetch, then releases
// the payload to the TX lane in chunks paced at the engine's rate, so
// concurrent transfers interleave on the lane as their packets would on a
// real link.
func (f *Flow) engineStage(x *xfer) {
	m := f.src.M
	now := f.eng.Now()
	it := x.it

	if f.src.StallUntil > now {
		now = f.src.StallUntil
	}
	ei := pickEngine(f.src.SendEngines, now)
	engStart, engEnd := f.src.SendEngines[ei].Reserve(now, int64(it.n))
	x.t.EngineEnd = engEnd

	// The next WQE of this QP may enter the engine pool once this one's
	// engine phase is over.
	f.prevEngEnd = x.t.EngineEnd
	f.busy = false
	f.kick()

	// Chunk the payload for lane interleaving; each chunk is released when
	// the engine has staged it.
	chunk := m.LaneChunk
	if chunk <= 0 {
		chunk = m.MTU
	}
	nchunks := (it.n + chunk - 1) / chunk
	if nchunks == 0 {
		nchunks = 1
	}
	x.chunksOut = nchunks
	pace := float64(x.t.EngineEnd-engStart-m.EnginePerWQE) / float64(max64(int64(it.n), 1))
	off := 0
	for i := 0; i < nchunks; i++ {
		n := chunk
		if off+n > it.n {
			n = it.n - off
		}
		off += n
		ready := engStart + m.EnginePerWQE + sim.Time(pace*float64(off))
		if ready < engStart+m.EnginePerWQE {
			ready = engStart + m.EnginePerWQE
		}
		f.eng.PostCall(ready, stageTx, x, int64(n), 0, 0)
	}
}

// txChunk fetches one staged chunk across GX+, books the TX lane for it
// and forwards it. GX+ is booked chunk-wise so concurrent DMA streams share
// the bus at fine granularity, as the real bus arbitrates. An injected
// error burns the chunk's wire time and reschedules it after the RC
// retransmit timeout.
func (f *Flow) txChunk(x *xfer, n int) {
	m := f.src.M
	now := f.eng.Now()
	f.src.chunksSent++
	if f.src.ErrorEvery > 0 && f.src.chunksSent%f.src.ErrorEvery == 0 {
		wire := int64(n) + int64(m.Packets(n)*m.PacketHeader)
		f.src.TX.Send(now, wire, now) // the corrupted transmission still burns wire time
		f.src.Retransmits++
		// The retry bypasses injection: a second loss of the same chunk
		// would model a broken link, not a transient error.
		f.eng.PostCall(now+m.RetransmitTimeout, stageTxSend, x, int64(n), 0, 0)
		return
	}
	f.txChunkSend(x, n)
}

// txChunkSend performs the actual (successful) chunk transmission.
func (f *Flow) txChunkSend(x *xfer, n int) {
	m := f.src.M
	now := f.eng.Now()
	ready := f.src.Bus.DMA(now, int64(n))
	wire := int64(n) + int64(m.Packets(n)*m.PacketHeader)
	txStart, leaves := f.src.TX.Send(ready, wire, ready)
	if leaves > x.t.Leaves {
		x.t.Leaves = leaves
	}
	net := f.src.Net
	lat := net.OneWay() + f.src.LatencyPad + f.dst.LatencyPad
	first := txStart + lat
	last := leaves + lat
	if net.CrossSwitch(f.src.Node, f.dst.Node) {
		// The fabric routes and books every trunk hop under this flow's
		// key, charging the cut-through per-hop recurrence.
		first, last = net.BookPath(f.src.Node, f.dst.Node, f.routeKey, first, last, wire, lat)
	}
	f.eng.PostCall(last, stageRx, x, int64(n), int64(first), wire)
}

// rxChunk books the destination RX lane at arrival (fan-in serializes here)
// and then the receive engine + GX+ store for this chunk.
func (f *Flow) rxChunk(x *xfer, n int, first sim.Time, wire int64) {
	delivered := f.dst.RX.Recv(first, f.eng.Now(), wire)
	if delivered > x.t.Delivered {
		x.t.Delivered = delivered
	}
	f.eng.PostCall(delivered, stageRecv, x, int64(n), 0, 0)
}

// recvChunk runs the receive-side DMA of one chunk. Inbound processing is
// packet-granular on the real HCA, so each chunk goes to the least-loaded
// receive engine; the per-WQE setup cost is paid once, on the first chunk.
func (f *Flow) recvChunk(x *xfer, n int) {
	m := f.dst.M
	now := f.eng.Now()
	f.dst.RxBytes += int64(n)
	var dur sim.Time
	if x.recvEng < 0 {
		x.recvEng = 1 // marker: setup cost paid
		dur = m.EnginePerWQE
	}
	ri := pickEngine(f.dst.RecvEngines, now)
	dur += sim.TransferTime(int64(n), m.EngineRate)
	rStart, rEnd := f.dst.RecvEngines[ri].ReserveDur(now, dur)
	gxEnd := f.dst.Bus.DMA(rStart, int64(n))
	inMem := rEnd
	if gxEnd > inMem {
		inMem = gxEnd
	}
	if inMem > x.t.InMemory {
		x.t.InMemory = inMem
	}
	x.chunksOut--
	if x.chunksOut == 0 {
		f.eng.PostCall(x.t.InMemory, stageComplete, x, 0, 0, 0)
	}
}

// completeStage delivers the payload and generates the RC acknowledgment.
// Acknowledgments are high-priority: they interleave between the data
// packets of queued transfers on both lanes instead of waiting behind bulk
// backlogs, so their wire time is charged but they are never delayed by it.
func (f *Flow) completeStage(x *xfer) {
	m := f.dst.M
	_, done := f.dst.Sched.ReserveDur(f.eng.Now()+f.dst.AckDelay, m.AckProcTime)
	leaves := f.dst.TX.Preempt(done, int64(m.AckWireBytes))
	f.dst.Acks++
	x.t.AckArrive = leaves + f.dst.Net.OneWay()
	if x.it.delivered != nil {
		x.it.delivered(x.it.ctx, x.t)
	}
	f.eng.PostCall(x.t.AckArrive, stageAck, x, 0, 0, 0)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// DegradeLink throttles the port's link to factor × the model's raw link
// rate (0 < factor ≤ 1) and pads every chunk through the port by pad of
// extra one-way latency — a link that retrained at a lower width/speed.
func (p *Port) DegradeLink(factor float64, pad sim.Time) {
	if factor <= 0 || factor > 1 {
		factor = 1
	}
	p.TX.SetRate(p.M.LinkRawRate * factor)
	p.RX.SetRate(p.M.LinkRawRate * factor)
	p.LatencyPad = pad
}

// RestoreLink returns the port's link to full speed and zero extra latency.
func (p *Port) RestoreLink() {
	p.TX.SetRate(p.M.LinkRawRate)
	p.RX.SetRate(p.M.LinkRawRate)
	p.LatencyPad = 0
}

// EffectiveRate reports the port's current outbound link rate in bytes/sec,
// reflecting any DegradeLink in force. The rail reliability layer scales its
// completion deadlines by transfer estimates at this rate, so a degraded but
// healthy link is not mistaken for a dead rail.
func (p *Port) EffectiveRate() float64 { return p.TX.Rate }

// EngineUtilization reports the mean utilization of the send engines at now.
func (p *Port) EngineUtilization(now sim.Time) float64 {
	if len(p.SendEngines) == 0 || now <= 0 {
		return 0
	}
	var u float64
	for i := range p.SendEngines {
		u += p.SendEngines[i].Utilization(now)
	}
	return u / float64(len(p.SendEngines))
}
