package main

import (
	"ib12x/internal/adi"
	"ib12x/internal/fabric"
	"ib12x/internal/mpi"
	"ib12x/internal/sim"
)

// metric is one named, unit-carrying number the benchmark prints.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // printed beside the value, never in the JSON result
}

// counters reads the per-layer counts of a finished job. They are read
// after mpi.Run returns, outside every timed region, and are exact: the
// same job gives the same counts on any host.
func counters(w *workload, in *inputs, rep *mpi.Report) []metric {
	world := rep.World
	var st adi.Stats
	for _, s := range rep.RankStats {
		st.EagerSent += s.EagerSent
		st.RendezvousSent += s.RendezvousSent
		st.StripesSent += s.StripesSent
		st.ShmemSent += s.ShmemSent
		st.UnexpectedHits += s.UnexpectedHits
		st.CtrlMsgs += s.CtrlMsgs
		st.CreditStalls += s.CreditStalls
	}
	conns := 0
	for _, ep := range world.Endpoints {
		for peer := range world.Endpoints {
			if peer != ep.Rank && ep.Conn(peer) != nil {
				conns++
			}
		}
	}
	now := world.Eng.Now()
	var wqes int64
	var sendBusy, recvBusy sim.Time
	var sendEngines, recvEngines int
	var gxUtil float64
	for _, node := range world.Cluster.Nodes {
		gxUtil += node.Bus.Utilization(now)
		for _, p := range node.Ports() {
			wqes += p.Sched.Items()
			for i := range p.SendEngines {
				sendBusy += p.SendEngines[i].Busy()
			}
			for i := range p.RecvEngines {
				recvBusy += p.RecvEngines[i].Busy()
			}
			sendEngines += len(p.SendEngines)
			recvEngines += len(p.RecvEngines)
		}
	}
	var trunkItems int64
	var trunkBusy sim.Time
	leaves := 0
	if k := w.cfg.NodesPerSwitch; k > 0 {
		leaves = (w.cfg.Nodes + k - 1) / k
	}
	net := world.Cluster.Net
	for leaf := 0; leaf < leaves; leaf++ {
		for _, l := range []*fabric.Lane{net.Uplink(leaf), net.Downlink(leaf)} {
			trunkItems += l.Items()
			trunkBusy += l.Busy()
		}
	}
	ib := world.Realm.Stats()
	return []metric{
		{name: "sim.events", value: float64(world.Eng.EventsFired()), unit: "count"},
		{name: "adi.conns", value: float64(conns), unit: "count"},
		{name: "adi.conn_use", value: ratio(float64(w.usedConns(in)), float64(conns)), unit: "ratio"},
		{name: "adi.eager", value: float64(st.EagerSent), unit: "count"},
		{name: "adi.rndv", value: float64(st.RendezvousSent), unit: "count"},
		{name: "adi.stripes", value: float64(st.StripesSent), unit: "count"},
		{name: "adi.stripes_per_rndv", value: ratio(float64(st.StripesSent), float64(st.RendezvousSent)), unit: "ratio"},
		{name: "adi.shmem", value: float64(st.ShmemSent), unit: "count"},
		{name: "adi.unexpected", value: float64(st.UnexpectedHits), unit: "count"},
		{name: "adi.ctrl", value: float64(st.CtrlMsgs), unit: "count"},
		{name: "adi.credit_stalls", value: float64(st.CreditStalls), unit: "count"},
		{name: "ib.sends", value: float64(ib.SendsPosted), unit: "count"},
		{name: "ib.writes", value: float64(ib.WritesPosted), unit: "count"},
		{name: "ib.bytes", value: float64(ib.BytesSent), unit: "bytes"},
		{name: "hca.wqes", value: float64(wqes), unit: "count"},
		{name: "hca.send_util", value: ratio(float64(sendBusy), float64(now)*float64(sendEngines)), unit: "ratio"},
		{name: "hca.recv_util", value: ratio(float64(recvBusy), float64(now)*float64(recvEngines)), unit: "ratio"},
		{name: "gx.util", value: gxUtil / float64(len(world.Cluster.Nodes)), unit: "ratio"},
		{name: "fabric.trunk_items", value: float64(trunkItems), unit: "count"},
		{name: "fabric.trunk_util", value: ratio(float64(trunkBusy), float64(now)*float64(2*leaves)), unit: "ratio"},
		{name: "buf.live", value: float64(world.BufLive()), unit: "count"},
	}
}

// ratio is a/b, or 0 when b is 0 (nothing of that kind happened).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
