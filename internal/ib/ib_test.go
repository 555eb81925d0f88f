package ib

import (
	"bytes"
	"testing"

	"ib12x/internal/fabric"
	"ib12x/internal/gx"
	"ib12x/internal/hca"
	"ib12x/internal/model"
	"ib12x/internal/sim"
)

// rig is a two-node test fixture: one connected QP pair with a CQ each.
type rig struct {
	eng      *sim.Engine
	realm    *Realm
	m        *model.Params
	pa, pb   *hca.Port
	qa, qb   *QP
	cqa, cqb *CQ
}

func newRig(t *testing.T) *rig {
	t.Helper()
	m := model.Default()
	eng := sim.NewEngine()
	realm := NewRealm(eng, m)
	net := fabric.NewSingleSwitch(m.WireLatency)
	ha := hca.New("a", 1, gx.New(m.GXRate), m, net)
	hb := hca.New("b", 1, gx.New(m.GXRate), m, net)
	r := &rig{eng: eng, realm: realm, m: m, pa: ha.Ports[0], pb: hb.Ports[0]}
	r.cqa, r.cqb = realm.NewCQ(), realm.NewCQ()
	r.qa = realm.NewQP(QPConfig{Port: r.pa, CQ: r.cqa})
	r.qb = realm.NewQP(QPConfig{Port: r.pb, CQ: r.cqb})
	if err := Connect(r.qa, r.qb); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	return r
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	if err := r.eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestSendRecvDeliversData(t *testing.T) {
	r := newRig(t)
	payload := []byte("hello, twelve-x world")
	buf := make([]byte, 64)
	if err := r.qb.PostRecv(RecvWR{WRID: 7, Buf: buf, N: len(buf)}); err != nil {
		t.Fatalf("PostRecv: %v", err)
	}
	if err := r.qa.PostSend(SendWR{WRID: 3, Op: OpSend, Data: payload, N: len(payload), Signaled: true}); err != nil {
		t.Fatalf("PostSend: %v", err)
	}
	r.run(t)

	e, ok := r.cqb.Poll()
	if !ok {
		t.Fatal("no recv completion")
	}
	if e.Op != OpRecv || e.WRID != 7 || e.Bytes != len(payload) || e.QPN != r.qb.QPN {
		t.Errorf("recv CQE = %+v", e)
	}
	if !bytes.Equal(buf[:len(payload)], payload) {
		t.Errorf("payload corrupted: %q", buf[:len(payload)])
	}
	se, ok := r.cqa.Poll()
	if !ok {
		t.Fatal("no send completion")
	}
	if se.Op != OpSend || se.WRID != 3 || se.Status != StatusSuccess {
		t.Errorf("send CQE = %+v", se)
	}
}

func TestUnsignaledSendProducesNoCQE(t *testing.T) {
	r := newRig(t)
	r.qb.PostRecv(RecvWR{Buf: nil, N: 128})
	if err := r.qa.PostSend(SendWR{Op: OpSend, N: 128, Signaled: false}); err != nil {
		t.Fatalf("PostSend: %v", err)
	}
	r.run(t)
	if r.cqa.Len() != 0 {
		t.Errorf("sender CQ has %d entries, want 0", r.cqa.Len())
	}
	if r.qa.Outstanding() != 0 {
		t.Errorf("outstanding = %d, want 0 (slot freed on ack even unsignaled)", r.qa.Outstanding())
	}
}

func TestEarlyArrivalWaitsForRecv(t *testing.T) {
	r := newRig(t)
	payload := []byte{1, 2, 3, 4}
	if err := r.qa.PostSend(SendWR{Op: OpSend, Data: payload, N: 4}); err != nil {
		t.Fatalf("PostSend: %v", err)
	}
	// Post the receive long after the message lands.
	buf := make([]byte, 4)
	r.eng.Post(1*sim.Second, func() {
		r.qb.PostRecv(RecvWR{WRID: 9, Buf: buf, N: 4})
	})
	r.run(t)
	if r.pb.RnrWaits != 1 {
		t.Errorf("RnrWaits = %d, want 1", r.pb.RnrWaits)
	}
	e, ok := r.cqb.Poll()
	if !ok || e.WRID != 9 || !bytes.Equal(buf, payload) {
		t.Errorf("late recv: ok=%v e=%+v buf=%v", ok, e, buf)
	}
}

func TestSendsDeliverInOrder(t *testing.T) {
	r := newRig(t)
	const n = 16
	for i := 0; i < n; i++ {
		r.qb.PostRecv(RecvWR{WRID: uint64(i), N: 8192})
	}
	for i := 0; i < n; i++ {
		if err := r.qa.PostSend(SendWR{WRID: uint64(100 + i), Op: OpSend, N: 8192}); err != nil {
			t.Fatalf("PostSend %d: %v", i, err)
		}
	}
	r.run(t)
	for i := 0; i < n; i++ {
		e, ok := r.cqb.Poll()
		if !ok {
			t.Fatalf("missing completion %d", i)
		}
		if e.WRID != uint64(i) {
			t.Fatalf("completion %d consumed WR %d: out of order", i, e.WRID)
		}
	}
}

func TestRDMAWritePlacesDataWithoutRemoteCQE(t *testing.T) {
	r := newRig(t)
	target := make([]byte, 128)
	mr := r.realm.RegisterMR(target, len(target))
	src := bytes.Repeat([]byte{0xAB}, 32)
	err := r.qa.PostSend(SendWR{Op: OpRDMAWrite, Data: src, N: 32, RKey: mr.RKey, RemoteOff: 64, Signaled: true})
	if err != nil {
		t.Fatalf("PostSend: %v", err)
	}
	r.run(t)
	if !bytes.Equal(target[64:96], src) {
		t.Error("RDMA write did not place data at offset")
	}
	if !bytes.Equal(target[:64], make([]byte, 64)) {
		t.Error("RDMA write touched bytes before the offset")
	}
	if r.cqb.Len() != 0 {
		t.Errorf("plain RDMA write raised %d remote CQEs, want 0", r.cqb.Len())
	}
	if e, ok := r.cqa.Poll(); !ok || e.Op != OpRDMAWrite {
		t.Errorf("sender completion = %+v ok=%v", e, ok)
	}
}

func TestRDMAWriteWithImmediateConsumesRecv(t *testing.T) {
	r := newRig(t)
	target := make([]byte, 64)
	mr := r.realm.RegisterMR(target, len(target))
	r.qb.PostRecv(RecvWR{WRID: 5, N: 0})
	err := r.qa.PostSend(SendWR{Op: OpRDMAWrite, N: 64, RKey: mr.RKey, Imm: 0xCAFE, HasImm: true})
	if err != nil {
		t.Fatalf("PostSend: %v", err)
	}
	r.run(t)
	e, ok := r.cqb.Poll()
	if !ok {
		t.Fatal("no remote CQE for write-with-immediate")
	}
	if !e.HasImm || e.Imm != 0xCAFE || e.Bytes != 64 || e.WRID != 5 {
		t.Errorf("CQE = %+v", e)
	}
}

func TestRDMAWriteValidation(t *testing.T) {
	r := newRig(t)
	target := make([]byte, 64)
	mr := r.realm.RegisterMR(target, len(target))
	if err := r.qa.PostSend(SendWR{Op: OpRDMAWrite, N: 8, RKey: 999}); err != ErrBadRKey {
		t.Errorf("bad rkey: err = %v, want ErrBadRKey", err)
	}
	if err := r.qa.PostSend(SendWR{Op: OpRDMAWrite, N: 32, RKey: mr.RKey, RemoteOff: 48}); err != ErrMRBounds {
		t.Errorf("out of bounds: err = %v, want ErrMRBounds", err)
	}
	r.realm.DeregisterMR(mr)
	if err := r.qa.PostSend(SendWR{Op: OpRDMAWrite, N: 8, RKey: mr.RKey}); err != ErrBadRKey {
		t.Errorf("deregistered: err = %v, want ErrBadRKey", err)
	}
}

func TestPostSendValidation(t *testing.T) {
	r := newRig(t)
	lone := r.realm.NewQP(QPConfig{Port: r.pa, CQ: r.cqa})
	if err := lone.PostSend(SendWR{Op: OpSend, N: 8}); err != ErrNotConnected {
		t.Errorf("unconnected: err = %v, want ErrNotConnected", err)
	}
	if err := r.qa.PostSend(SendWR{Op: OpSend, N: -1}); err != ErrBadWR {
		t.Errorf("negative length: err = %v, want ErrBadWR", err)
	}
	if err := r.qa.PostSend(SendWR{Op: OpSend, Data: []byte{1, 2, 3}, N: 2}); err != ErrBadWR {
		t.Errorf("oversized buffer: err = %v, want ErrBadWR", err)
	}
	// Data shorter than N is fine: N includes protocol header overhead.
	r.qb.PostRecv(RecvWR{N: 8})
	if err := r.qa.PostSend(SendWR{Op: OpSend, Data: []byte{1}, N: 8}); err != nil {
		t.Errorf("short data with header overhead: err = %v, want nil", err)
	}
	if err := r.qa.PostSend(SendWR{Op: OpRecv, N: 1}); err != ErrBadWR {
		t.Errorf("bad opcode: err = %v, want ErrBadWR", err)
	}
}

func TestSendQueueDepthBackpressure(t *testing.T) {
	m := model.Default()
	eng := sim.NewEngine()
	realm := NewRealm(eng, m)
	net := fabric.NewSingleSwitch(m.WireLatency)
	ha := hca.New("a", 1, gx.New(m.GXRate), m, net)
	hb := hca.New("b", 1, gx.New(m.GXRate), m, net)
	cqa, cqb := realm.NewCQ(), realm.NewCQ()
	qa := realm.NewQP(QPConfig{Port: ha.Ports[0], CQ: cqa, SQDepth: 2})
	qb := realm.NewQP(QPConfig{Port: hb.Ports[0], CQ: cqb})
	if err := Connect(qa, qb); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		qb.PostRecv(RecvWR{N: 64})
	}
	if err := qa.PostSend(SendWR{Op: OpSend, N: 64}); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(SendWR{Op: OpSend, N: 64}); err != nil {
		t.Fatal(err)
	}
	if err := qa.PostSend(SendWR{Op: OpSend, N: 64}); err != ErrSQFull {
		t.Errorf("third post: err = %v, want ErrSQFull", err)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// After acks drain, the queue accepts again.
	if err := qa.PostSend(SendWR{Op: OpSend, N: 64}); err != nil {
		t.Errorf("post after drain: %v", err)
	}
}

func TestDoubleConnectRejected(t *testing.T) {
	r := newRig(t)
	q3 := r.realm.NewQP(QPConfig{Port: r.pa, CQ: r.cqa})
	if err := Connect(q3, r.qb); err == nil {
		t.Error("connecting to an already-paired QP must fail")
	}
}

func TestSRQSharedAcrossQPs(t *testing.T) {
	m := model.Default()
	eng := sim.NewEngine()
	realm := NewRealm(eng, m)
	net := fabric.NewSingleSwitch(m.WireLatency)
	ha := hca.New("a", 1, gx.New(m.GXRate), m, net)
	hb := hca.New("b", 1, gx.New(m.GXRate), m, net)
	cqa, cqb := realm.NewCQ(), realm.NewCQ()
	srq := realm.NewSRQ()
	// Two connections into node b, both drawing from one SRQ.
	qa1 := realm.NewQP(QPConfig{Port: ha.Ports[0], CQ: cqa})
	qa2 := realm.NewQP(QPConfig{Port: ha.Ports[0], CQ: cqa})
	qb1 := realm.NewQP(QPConfig{Port: hb.Ports[0], CQ: cqb, SRQ: srq})
	qb2 := realm.NewQP(QPConfig{Port: hb.Ports[0], CQ: cqb, SRQ: srq})
	Connect(qa1, qb1)
	Connect(qa2, qb2)

	srq.PostRecv(RecvWR{WRID: 1, N: 64})
	srq.PostRecv(RecvWR{WRID: 2, N: 64})
	if qb1.PostRecv(RecvWR{N: 64}) != ErrBadWR {
		t.Error("PostRecv on an SRQ-bound QP must be rejected")
	}
	qa1.PostSend(SendWR{Op: OpSend, N: 64})
	qa2.PostSend(SendWR{Op: OpSend, N: 64})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if cqb.Len() != 2 {
		t.Fatalf("CQ has %d completions, want 2", cqb.Len())
	}
	qpns := map[int]bool{}
	for {
		e, ok := cqb.Poll()
		if !ok {
			break
		}
		qpns[e.QPN] = true
	}
	if !qpns[qb1.QPN] || !qpns[qb2.QPN] {
		t.Errorf("completions arrived on QPNs %v, want both %d and %d", qpns, qb1.QPN, qb2.QPN)
	}
	if srq.Posted() != 0 {
		t.Errorf("SRQ has %d unconsumed WRs, want 0", srq.Posted())
	}
}

func TestCQNotify(t *testing.T) {
	r := newRig(t)
	notified := 0
	r.cqb.SetNotify(func() { notified++ })
	r.qb.PostRecv(RecvWR{N: 16})
	r.qa.PostSend(SendWR{Op: OpSend, N: 16})
	r.run(t)
	if notified != 1 {
		t.Errorf("notify fired %d times, want 1", notified)
	}
}

func TestSyntheticPayload(t *testing.T) {
	// nil data + nil buffer: same protocol, no bytes touched.
	r := newRig(t)
	r.qb.PostRecv(RecvWR{WRID: 1, N: 1 << 20})
	if err := r.qa.PostSend(SendWR{Op: OpSend, N: 1 << 20, Signaled: true}); err != nil {
		t.Fatal(err)
	}
	r.run(t)
	e, ok := r.cqb.Poll()
	if !ok || e.Bytes != 1<<20 {
		t.Errorf("synthetic recv: ok=%v e=%+v", ok, e)
	}
}

func TestRecvCompletionPrecedesSendCompletion(t *testing.T) {
	// The responder sees the payload before the requester sees the ack.
	r := newRig(t)
	var recvAt, sendAt sim.Time
	r.cqb.SetNotify(func() { recvAt = r.eng.Now() })
	r.cqa.SetNotify(func() { sendAt = r.eng.Now() })
	r.qb.PostRecv(RecvWR{N: 4096})
	r.qa.PostSend(SendWR{Op: OpSend, N: 4096, Signaled: true})
	r.run(t)
	if !(recvAt > 0 && sendAt > recvAt) {
		t.Errorf("recv at %v, send completion at %v: want recv first", recvAt, sendAt)
	}
}

func TestRealmStats(t *testing.T) {
	r := newRig(t)
	target := make([]byte, 64)
	mr := r.realm.RegisterMR(target, 64)
	r.qb.PostRecv(RecvWR{N: 32})
	r.qa.PostSend(SendWR{Op: OpSend, N: 32})
	r.qa.PostSend(SendWR{Op: OpRDMAWrite, N: 64, RKey: mr.RKey})
	r.run(t)
	s := r.realm.Stats()
	if s.SendsPosted != 1 || s.WritesPosted != 1 || s.RecvsPosted != 1 || s.BytesSent != 96 {
		t.Errorf("stats = %+v", s)
	}
}

func TestOpcodeString(t *testing.T) {
	if OpSend.String() != "SEND" || OpRDMAWrite.String() != "RDMA_WRITE" || OpRecv.String() != "RECV" {
		t.Error("opcode strings wrong")
	}
	if Opcode(42).String() != "Opcode(42)" {
		t.Error("unknown opcode string wrong")
	}
}
