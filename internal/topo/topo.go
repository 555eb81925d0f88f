// Package topo describes and builds the simulated cluster: nodes with one
// GX+ bus each, HCAs per node, ports per HCA, and the rank-to-node mapping.
//
// A "rail" in the multi-rail design is one QP on one port of one HCA; the
// number of rails between a process pair is HCAsPerNode × PortsPerHCA ×
// QPsPerPort (paper §3.1: "multiple queue pairs per port, multiple ports,
// multiple HCAs").
package topo

import (
	"fmt"
	"math"

	"ib12x/internal/fabric"
	"ib12x/internal/gx"
	"ib12x/internal/hca"
	"ib12x/internal/model"
)

// Spec declares a cluster shape. The paper's testbed is 2 nodes × 4 procs,
// one HCA, one port (§4.1); QPsPerPort is the experimental variable.
type Spec struct {
	Nodes        int
	ProcsPerNode int
	HCAsPerNode  int
	PortsPerHCA  int
	QPsPerPort   int

	// NodesPerSwitch groups nodes under leaf switches of a two-level fat
	// tree, one pod of leaves under a single spine (0 = the paper's single
	// switch). TrunkRate is the per-leaf trunk bandwidth toward the spine
	// in bytes/s (0 = the link's raw rate, i.e. a 1:1 trunk; negative is
	// invalid).
	NodesPerSwitch int
	TrunkRate      float64

	// Tiers = 3 selects the three-tier fat tree: leaves grouped
	// SpinesPerPod to a pod, SpinesPerPod spines per pod, SpinesPerPod
	// cores, per-switch path selection (fabric.NewThreeTier).
	// NodesPerSwitch then sets the leaf radix and TrunkRate every
	// inter-switch lane. 0/2 keep the single switch or two-level tree.
	Tiers        int
	SpinesPerPod int

	// Dragonfly, when Groups > 0, selects the dragonfly fabric instead
	// (mutually exclusive with Tiers = 3). NodesPerSwitch doubles as
	// nodes-per-router (0 = 1).
	Dragonfly Dragonfly

	// Routing picks static D-mod-K vs adaptive path selection where a
	// switch has parallel candidates (ignored by the single switch and the
	// two-level tree, which have one route per pair).
	Routing fabric.Routing
}

// Dragonfly shapes the dragonfly fabric: Groups of RoutersPerGroup routers
// (all-to-all locally), GlobalLinks parallel lanes per ordered group pair.
// The zero value means "not a dragonfly".
type Dragonfly struct {
	Groups          int
	RoutersPerGroup int
	GlobalLinks     int
}

// routeSeed fixes the deterministic tie-break seed of routed fabrics; runs
// replay bit-identically because it never varies.
const routeSeed = 0x12b51ab12b51ab

// nodesPerRouter reports the dragonfly leaf radix (NodesPerSwitch, min 1).
func (s Spec) nodesPerRouter() int {
	if s.NodesPerSwitch > 0 {
		return s.NodesPerSwitch
	}
	return 1
}

// Validate reports whether the spec is well-formed.
func (s Spec) Validate() error {
	switch {
	case s.Nodes < 1:
		return fmt.Errorf("topo: Nodes = %d, need ≥ 1", s.Nodes)
	case s.ProcsPerNode < 1:
		return fmt.Errorf("topo: ProcsPerNode = %d, need ≥ 1", s.ProcsPerNode)
	case s.HCAsPerNode < 1:
		return fmt.Errorf("topo: HCAsPerNode = %d, need ≥ 1", s.HCAsPerNode)
	case s.PortsPerHCA < 1 || s.PortsPerHCA > 2:
		return fmt.Errorf("topo: PortsPerHCA = %d, the IBM 12x HCA is dual-port (1 or 2)", s.PortsPerHCA)
	case s.QPsPerPort < 1:
		return fmt.Errorf("topo: QPsPerPort = %d, need ≥ 1", s.QPsPerPort)
	case s.TrunkRate < 0 || math.IsNaN(s.TrunkRate):
		return fmt.Errorf("topo: TrunkRate = %g, need ≥ 0 (0 = link rate)", s.TrunkRate)
	}
	if s.Tiers != 0 && s.Tiers != 2 && s.Tiers != 3 {
		return fmt.Errorf("topo: Tiers = %d, need 0 (flat or two-level), 2, or 3", s.Tiers)
	}
	if s.Dragonfly.Groups > 0 {
		d := s.Dragonfly
		switch {
		case s.Tiers == 3:
			return fmt.Errorf("topo: Dragonfly and Tiers = 3 are mutually exclusive")
		case d.RoutersPerGroup < 1:
			return fmt.Errorf("topo: Dragonfly.RoutersPerGroup = %d, need ≥ 1", d.RoutersPerGroup)
		case d.GlobalLinks < 1 && d.Groups > 1:
			return fmt.Errorf("topo: Dragonfly.GlobalLinks = %d, need ≥ 1", d.GlobalLinks)
		}
		if room := d.Groups * d.RoutersPerGroup * s.nodesPerRouter(); s.Nodes > room {
			return fmt.Errorf("topo: %d nodes exceed dragonfly capacity %d", s.Nodes, room)
		}
	} else if s.Tiers == 3 {
		switch {
		case s.NodesPerSwitch < 1:
			return fmt.Errorf("topo: Tiers = 3 needs NodesPerSwitch ≥ 1")
		case s.SpinesPerPod < 1:
			return fmt.Errorf("topo: Tiers = 3 needs SpinesPerPod ≥ 1")
		}
	}
	return nil
}

// Size reports the total number of ranks.
func (s Spec) Size() int { return s.Nodes * s.ProcsPerNode }

// Rails reports the number of rails between any inter-node process pair.
func (s Spec) Rails() int { return s.HCAsPerNode * s.PortsPerHCA * s.QPsPerPort }

// Node is one Power6 node: a GX+ bus shared by its HCAs.
type Node struct {
	ID   int
	Bus  *gx.Bus
	HCAs []*hca.HCA
}

// Ports returns the node's ports flattened across HCAs, in (hca, port) order.
func (n *Node) Ports() []*hca.Port {
	var ps []*hca.Port
	for _, h := range n.HCAs {
		ps = append(ps, h.Ports...)
	}
	return ps
}

// Cluster is a built topology.
type Cluster struct {
	Spec  Spec
	Model *model.Params
	Net   *fabric.Net
	Nodes []*Node
}

// Build constructs the hardware for a spec. It panics on an invalid spec;
// callers that take user input should Validate first.
func Build(spec Spec, m *model.Params) *Cluster {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	trunk := spec.TrunkRate
	if trunk == 0 {
		trunk = m.LinkRawRate
	}
	net := fabric.NewSingleSwitch(m.WireLatency)
	switch {
	case spec.Dragonfly.Groups > 0:
		d := spec.Dragonfly
		glinks := d.GlobalLinks
		if glinks < 1 {
			glinks = 1
		}
		net = fabric.NewDragonfly(m.WireLatency, d.Groups, d.RoutersPerGroup,
			spec.nodesPerRouter(), glinks, trunk, spec.Routing, routeSeed)
	case spec.Tiers == 3:
		net = fabric.NewThreeTier(m.WireLatency, spec.Nodes, spec.NodesPerSwitch,
			spec.SpinesPerPod, trunk, spec.Routing, routeSeed)
	case spec.NodesPerSwitch > 0:
		net = fabric.NewFatTree(m.WireLatency, spec.Nodes, spec.NodesPerSwitch, trunk)
	}
	c := &Cluster{Spec: spec, Model: m, Net: net}
	for i := 0; i < spec.Nodes; i++ {
		n := &Node{ID: i, Bus: gx.New(m.GXRate)}
		for h := 0; h < spec.HCAsPerNode; h++ {
			hc := hca.New(fmt.Sprintf("n%d.hca%d", i, h), spec.PortsPerHCA, n.Bus, m, c.Net)
			for _, port := range hc.Ports {
				port.Node = i
			}
			n.HCAs = append(n.HCAs, hc)
		}
		c.Nodes = append(c.Nodes, n)
	}
	return c
}

// Size reports the total number of ranks.
func (c *Cluster) Size() int { return c.Spec.Size() }

// NodeOf maps a rank to its node index (block distribution, as mpirun -ppn
// would place ranks on the paper's testbed).
func (c *Cluster) NodeOf(rank int) int { return rank / c.Spec.ProcsPerNode }

// SameNode reports whether two ranks share a node (and hence communicate
// over the shared-memory channel rather than the HCA).
func (c *Cluster) SameNode(a, b int) bool { return c.NodeOf(a) == c.NodeOf(b) }

// PortsOf returns the ports of a rank's node.
func (c *Cluster) PortsOf(rank int) []*hca.Port { return c.Nodes[c.NodeOf(rank)].Ports() }
