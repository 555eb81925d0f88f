// Package fabric models the InfiniBand wire: full-duplex link lanes with
// cut-through forwarding through a switch graph — the paper's single
// switch, a two-level or three-tier fat tree, or a dragonfly.
//
// A Lane is one direction of one link. It is not a plain FIFO server: the
// source side may be fed by a DMA engine slower than the wire (the lane then
// idles between packets of the same transfer), and the sink side of a lane
// serializes fan-in from several senders. Both behaviours matter for the
// bandwidth asymptotes in the paper's Figures 5-7.
package fabric

import (
	"math"

	"ib12x/internal/sim"
)

// Lane is one direction of a link, serving wire bytes at a fixed rate.
// The zero value is unusable; set Rate.
type Lane struct {
	Rate float64 // bytes/s of raw wire capacity

	freeAt sim.Time
	items  int64
	bytes  int64
	busy   sim.Time
}

// Send books an outbound transfer whose first packet is staged at `ready`
// and whose source cannot finish staging before `srcDone`. wireBytes counts
// payload plus per-packet headers. It returns when the transfer's first byte
// enters the lane and when its last byte leaves.
//
// The lane is occupied only for the wire bytes themselves: packets from a
// slow source leave gaps that packets of other transfers interleave into
// (cut-through, per-packet arbitration). The transfer's own last byte,
// however, cannot leave before its source has staged it, so the returned
// leave time also waits for srcDone.
func (l *Lane) Send(ready sim.Time, wireBytes int64, srcDone sim.Time) (start, leaves sim.Time) {
	start = ready
	if l.freeAt > start {
		start = l.freeAt
	}
	d := sim.TransferTime(wireBytes, l.Rate)
	end := start + d
	l.busy += d
	l.freeAt = end
	l.items++
	l.bytes += wireBytes
	if srcDone > end {
		return start, srcDone
	}
	return start, end
}

// Recv books an inbound transfer whose first byte arrives at `first` and
// whose last byte arrives at `last` when uncontended, and returns when the
// last byte is actually through the lane.
//
// Traffic from a single upstream path is already paced at or below the lane
// rate, so it passes through with no added delay. Under fan-in from several
// senders the first-byte arrivals collide and the backlog frontier pushes
// delivery out: delivered = max(last, max(frontier, first) + wireTime).
func (l *Lane) Recv(first, last sim.Time, wireBytes int64) (delivered sim.Time) {
	d := sim.TransferTime(wireBytes, l.Rate)
	start := first
	if l.freeAt > start {
		start = l.freeAt
	}
	delivered = start + d
	if last > delivered {
		delivered = last
	}
	l.busy += d
	l.freeAt = start + d
	l.items++
	l.bytes += wireBytes
	return delivered
}

// Preempt books a high-priority transfer (an RC acknowledgment) that
// interleaves between the packets of queued bulk transfers instead of
// waiting behind them: it departs immediately, and the backlog is pushed
// back by its wire time so capacity accounting stays exact.
func (l *Lane) Preempt(at sim.Time, wireBytes int64) (leaves sim.Time) {
	d := sim.TransferTime(wireBytes, l.Rate)
	leaves = at + d
	if l.freeAt < at {
		l.freeAt = at
	}
	l.freeAt += d
	l.busy += d
	l.items++
	l.bytes += wireBytes
	return leaves
}

// SetRate changes the lane's service rate from now on. Transfers already
// booked keep their departure times — the backlog drains at the old speed;
// only new bookings see the new rate. Non-positive rates are ignored.
func (l *Lane) SetRate(r float64) {
	if r > 0 {
		l.Rate = r
	}
}

// FreeAt reports when the lane next becomes idle.
func (l *Lane) FreeAt() sim.Time { return l.freeAt }

// Items reports the number of transfers booked.
func (l *Lane) Items() int64 { return l.items }

// Bytes reports total wire bytes booked.
func (l *Lane) Bytes() int64 { return l.bytes }

// Busy reports accumulated lane occupancy.
func (l *Lane) Busy() sim.Time { return l.busy }

// Net is the switched fabric: a graph of cut-through switches whose
// inter-switch cables are Lanes (see route.go). Every shape is one graph —
// the paper's single switch (no lanes), a two-level fat tree, a three-tier
// fat tree or a dragonfly — so a chunk crossing switches is always booked
// by one walk of its route. Build one with a constructor; the zero value is
// unusable.
type Net struct {
	// Latency is the per-hop propagation plus switch cut-through time.
	Latency sim.Time

	g *graph
}

// NewSingleSwitch builds the flat fabric of the paper's testbed: one switch
// holding every node, with no inter-switch lanes.
func NewSingleSwitch(latency sim.Time) *Net {
	return &Net{Latency: latency, g: &graph{nodesPer: math.MaxInt, leaves: 1}}
}

// NewFatTree builds a two-level fabric: nodes are grouped nodesPerLeaf to a
// leaf switch; each leaf connects to the spine by one trunk of trunkRate
// bytes/s per direction. With trunkRate = linkRate the tree is
// non-blocking 1:1 only for a single active node per leaf; lower rates
// model oversubscription. It is the switch graph of one pod holding every
// leaf under a single spine; nodesPerLeaf ≤ 0 gives the single switch.
func NewFatTree(latency sim.Time, nodes, nodesPerLeaf int, trunkRate float64) *Net {
	if nodesPerLeaf <= 0 {
		return NewSingleSwitch(latency)
	}
	return newTree(latency, nodes, nodesPerLeaf, 1, 0, trunkRate, RouteStatic, 0)
}

// OneWay reports the per-hop wire latency.
func (n *Net) OneWay() sim.Time { return n.Latency }

// Uplink returns a leaf's trunk lane toward its first spine.
func (n *Net) Uplink(leaf int) *Lane { return &n.g.lanes[n.g.laneUpLS(leaf, 0)] }

// Downlink returns a leaf's trunk lane from its first spine.
func (n *Net) Downlink(leaf int) *Lane { return &n.g.lanes[n.g.laneDownSL(leaf, 0)] }
