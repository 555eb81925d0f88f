package hca

import (
	"testing"

	"ib12x/internal/fabric"
	"ib12x/internal/gx"
	"ib12x/internal/model"
	"ib12x/internal/sim"
)

// rig is a pair of single-port HCAs on separate nodes joined by one switch,
// with a simulation engine driving the staged pipeline.
type rig struct {
	eng      *sim.Engine
	m        *model.Params
	src, dst *Port
}

func newRig(m *model.Params) *rig {
	net := fabric.NewSingleSwitch(m.WireLatency)
	a := New("hca0", 1, gx.New(m.GXRate), m, net)
	b := New("hca1", 1, gx.New(m.GXRate), m, net)
	return &rig{eng: sim.NewEngine(), m: m, src: a.Ports[0], dst: b.Ports[0]}
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestFlowOrderingInvariants(t *testing.T) {
	m := model.Default()
	r := newRig(m)
	f := r.src.NewFlow(r.eng, r.dst)
	var tm Timing
	var ackAt sim.Time
	f.Send(64*1024, func(x Timing) { tm = x }, func(x Timing) { ackAt = r.eng.Now() })
	r.run(t)
	if !(tm.SchedEnd > 0 && tm.EngineEnd > tm.SchedEnd && tm.Leaves >= tm.EngineEnd) {
		t.Errorf("stage ordering broken: %+v", tm)
	}
	if tm.Delivered < tm.Leaves+m.WireLatency {
		t.Errorf("Delivered %v before Leaves+latency", tm.Delivered)
	}
	if tm.InMemory < tm.Delivered {
		t.Errorf("InMemory %v before Delivered %v", tm.InMemory, tm.Delivered)
	}
	if tm.AckArrive < tm.InMemory+m.WireLatency || ackAt != tm.AckArrive {
		t.Errorf("ack at %v, timing says %v (InMemory %v)", ackAt, tm.AckArrive, tm.InMemory)
	}
}

// driveFlows pushes count messages of n bytes over `flows` flows in
// round-robin order, all posted at time zero, and returns the time the last
// payload lands in destination memory.
func driveFlows(t *testing.T, r *rig, flows []*Flow, count, n int) sim.Time {
	t.Helper()
	var done sim.Time
	r.eng.Post(0, func() {
		for i := 0; i < count; i++ {
			flows[i%len(flows)].Send(n, func(tm Timing) {
				if tm.InMemory > done {
					done = tm.InMemory
				}
			}, nil)
		}
	})
	r.run(t)
	return done
}

func makeFlows(r *rig, k int) []*Flow {
	fs := make([]*Flow, k)
	for i := range fs {
		fs[i] = r.src.NewFlow(r.eng, r.dst)
	}
	return fs
}

func TestSingleFlowSerializesEnginePhases(t *testing.T) {
	m := model.Default()
	r := newRig(m)
	done := driveFlows(t, r, makeFlows(r, 1), 8, 256*1024)
	perMsg := sim.TransferTime(256*1024, m.EngineRate)
	if done < 8*perMsg {
		t.Errorf("8 chained transfers done at %v, must be ≥ 8×engine time %v", done, 8*perMsg)
	}
}

func TestMultiFlowEngagesEnginesInParallel(t *testing.T) {
	m := model.Default()
	r1 := newRig(m)
	multi := driveFlows(t, r1, makeFlows(r1, 4), 4, 256*1024)
	r2 := newRig(m)
	single := driveFlows(t, r2, makeFlows(r2, 1), 4, 256*1024)
	if multi >= single {
		t.Fatalf("4 flows (%v) not faster than 1 flow (%v)", multi, single)
	}
	if ratio := float64(single) / float64(multi); ratio < 1.4 {
		t.Errorf("speedup = %.2f, want ≥ 1.4", ratio)
	}
}

func TestSingleFlowThroughputNearEngineRate(t *testing.T) {
	m := model.Default()
	r := newRig(m)
	done := driveFlows(t, r, makeFlows(r, 1), 64, 1<<20)
	bw := float64(64*(1<<20)) / done.Seconds()
	if bw > m.EngineRate {
		t.Errorf("1-flow bw %.0f MB/s exceeds engine rate", bw/1e6)
	}
	if bw < 0.90*m.EngineRate {
		t.Errorf("1-flow bw %.0f MB/s, want ≥ 90%% of engine rate %.0f MB/s", bw/1e6, m.EngineRate/1e6)
	}
}

func TestFourFlowThroughputNearLinkRate(t *testing.T) {
	m := model.Default()
	r := newRig(m)
	done := driveFlows(t, r, makeFlows(r, 4), 64, 1<<20)
	bw := float64(64*(1<<20)) / done.Seconds()
	eff := m.LinkDataRate()
	if bw > m.LinkRawRate {
		t.Errorf("4-flow bw %.0f MB/s exceeds raw link", bw/1e6)
	}
	if bw < 0.93*eff {
		t.Errorf("4-flow bw %.0f MB/s, want ≥ 93%% of effective link %.0f MB/s", bw/1e6, eff/1e6)
	}
}

func TestEnginesLoadBalance(t *testing.T) {
	m := model.Default()
	r := newRig(m)
	driveFlows(t, r, makeFlows(r, 4), 16, 1<<20)
	// 16 MB over 4 engines: no engine should carry more than half.
	for i := range r.src.SendEngines {
		if b := r.src.SendEngines[i].Bytes(); b > 8<<20 {
			t.Errorf("engine %d carried %d bytes of 16 MB: load imbalance", i, b)
		}
		if b := r.src.SendEngines[i].Bytes(); b < 2<<20 {
			t.Errorf("engine %d carried only %d bytes: idle engine", i, b)
		}
	}
}

func TestStripingOverheadVisibleAtMediumSize(t *testing.T) {
	// 16 KB in four 4 KB stripes pays 4× the per-WQE costs; one 16 KB WQE
	// pays them once. Aggregate engine-seconds must reflect it.
	m := model.Default()
	r1 := newRig(m)
	driveFlows(t, r1, makeFlows(r1, 4), 4, 4*1024)
	var striped sim.Time
	for i := range r1.src.SendEngines {
		striped += r1.src.SendEngines[i].Busy()
	}
	r2 := newRig(m)
	driveFlows(t, r2, makeFlows(r2, 1), 1, 16*1024)
	var whole sim.Time
	for i := range r2.src.SendEngines {
		whole += r2.src.SendEngines[i].Busy()
	}
	if striped <= whole+2*m.EnginePerWQE {
		t.Errorf("striped engine-seconds %v not visibly above whole-message %v", striped, whole)
	}
}

func TestAckAccounting(t *testing.T) {
	m := model.Default()
	r := newRig(m)
	driveFlows(t, r, makeFlows(r, 1), 1, 8192)
	if r.dst.Acks != 1 {
		t.Errorf("responder Acks = %d, want 1", r.dst.Acks)
	}
	if r.src.WQEs != 1 || r.src.TxBytes != 8192 || r.dst.RxBytes != 8192 {
		t.Errorf("stats: WQEs=%d Tx=%d Rx=%d", r.src.WQEs, r.src.TxBytes, r.dst.RxBytes)
	}
}

func TestFanInSerializesAtReceiver(t *testing.T) {
	m := model.Default()
	net := fabric.NewSingleSwitch(m.WireLatency)
	eng := sim.NewEngine()
	a := New("a", 1, gx.New(m.GXRate), m, net).Ports[0]
	b := New("b", 1, gx.New(m.GXRate), m, net).Ports[0]
	c := New("c", 1, gx.New(m.GXRate), m, net).Ports[0]
	fa := a.NewFlow(eng, c)
	fb := b.NewFlow(eng, c)
	var d1, d2 sim.Time
	eng.Post(0, func() {
		fa.Send(64*1024, func(tm Timing) { d1 = tm.Delivered }, nil)
		fb.Send(64*1024, func(tm Timing) { d2 = tm.Delivered }, nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if d2 <= d1 {
		t.Errorf("fan-in: second delivery %v not after first %v", d2, d1)
	}
}

func TestLateArrivalNotBlockedByEarlierSlowTransfer(t *testing.T) {
	// Regression for the book-at-post-time bug: a small message posted on
	// a second flow right after a huge one must not queue behind the huge
	// transfer's engine phase — it has its own engine and lane gaps.
	m := model.Default()
	r := newRig(m)
	big := r.src.NewFlow(r.eng, r.dst)
	small := r.src.NewFlow(r.eng, r.dst)
	var bigIn, smallIn sim.Time
	r.eng.Post(0, func() {
		big.Send(1<<20, func(tm Timing) { bigIn = tm.InMemory }, nil)
	})
	r.eng.Post(10*sim.Microsecond, func() {
		small.Send(512, func(tm Timing) { smallIn = tm.InMemory }, nil)
	})
	r.run(t)
	if smallIn >= bigIn {
		t.Errorf("small message delivered at %v, after the 1MB transfer (%v)", smallIn, bigIn)
	}
	if smallIn > 40*sim.Microsecond {
		t.Errorf("small message took until %v; must cut through", smallIn)
	}
}

func TestDualPortIndependentLanes(t *testing.T) {
	m := model.Default()
	net := fabric.NewSingleSwitch(m.WireLatency)
	eng := sim.NewEngine()
	a := New("a", 2, gx.New(m.GXRate), m, net)
	b := New("b", 2, gx.New(m.GXRate), m, net)
	f0 := a.Ports[0].NewFlow(eng, b.Ports[0])
	f1 := a.Ports[1].NewFlow(eng, b.Ports[1])
	var l0, l1 sim.Time
	eng.Post(0, func() {
		f0.Send(1<<20, func(tm Timing) { l0 = tm.Leaves }, nil)
		f1.Send(1<<20, func(tm Timing) { l1 = tm.Leaves }, nil)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if d := l1 - l0; d < 0 || d > l0/4 {
		t.Errorf("port 1 (%v) should finish near port 0 (%v): only GX+ is shared", l1, l0)
	}
}

func TestDeterministicTiming(t *testing.T) {
	m := model.Default()
	runOnce := func() sim.Time {
		r := newRig(m)
		return driveFlows(t, r, makeFlows(r, 4), 16, 32*1024)
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Errorf("non-deterministic: %v vs %v", a, b)
	}
}

func TestEngineUtilization(t *testing.T) {
	m := model.Default()
	r := newRig(m)
	f := r.src.NewFlow(r.eng, r.dst)
	var end sim.Time
	r.eng.Post(0, func() {
		f.Send(1<<20, nil, func(tm Timing) { end = tm.EngineEnd })
	})
	r.run(t)
	u := r.src.EngineUtilization(end)
	if u < 0.2 || u > 0.3 {
		t.Errorf("utilization = %g, want ~0.25 (one of four engines busy)", u)
	}
}

func TestFlowAccessors(t *testing.T) {
	m := model.Default()
	r := newRig(m)
	f := r.src.NewFlow(r.eng, r.dst)
	if f.Src() != r.src || f.Dst() != r.dst {
		t.Error("flow endpoints wrong")
	}
}

func TestErrorInjectionRetransmits(t *testing.T) {
	m := model.Default()
	r := newRig(m)
	r.src.ErrorEvery = 4 // every 4th chunk is lost
	done := driveFlows(t, r, makeFlows(r, 1), 4, 64*1024)
	if r.src.Retransmits == 0 {
		t.Fatal("no retransmissions recorded")
	}
	// Each retry stalls its transfer by the retransmit timeout.
	clean := func() sim.Time {
		r2 := newRig(m)
		return driveFlows(t, r2, makeFlows(r2, 1), 4, 64*1024)
	}()
	if done < clean+m.RetransmitTimeout {
		t.Errorf("faulty run (%v) not visibly slower than clean (%v)", done, clean)
	}
}

func TestErrorInjectionEveryChunkStillCompletes(t *testing.T) {
	// ErrorEvery=1 loses every first transmission; retries are exempt, so
	// the transfer still completes (a transient-error model, not a dead
	// link).
	m := model.Default()
	r := newRig(m)
	r.src.ErrorEvery = 1
	done := driveFlows(t, r, makeFlows(r, 1), 1, 32*1024)
	if done <= 0 {
		t.Fatal("transfer never completed under full error injection")
	}
	if r.src.Retransmits != 2 { // 32KB = 2 chunks, each lost once
		t.Errorf("Retransmits = %d, want 2", r.src.Retransmits)
	}
}

func TestErrorInjectionPreservesDelivery(t *testing.T) {
	// Payload correctness under retransmission, end to end through MPI.
	m := model.Default()
	r := newRig(m)
	r.src.ErrorEvery = 3
	var got sim.Time
	f := r.src.NewFlow(r.eng, r.dst)
	f.Send(128*1024, func(tm Timing) { got = tm.InMemory }, nil)
	r.run(t)
	if got == 0 {
		t.Fatal("delivery callback never fired")
	}
}
