// Switch-graph fabrics: fat trees (the single switch, two-level and
// three-tier shapes) and dragonfly groups with per-switch forwarding and
// deterministic path selection.
//
// Every inter-switch cable is its own Lane, and the walk picks among
// parallel candidates at each switch — statically (D-mod-K hashing of the
// flow key) or adaptively (least modeled finish time at booking, with
// seeded tie-breaks). A switch with a single candidate takes it without
// hashing, so the two-level tree's one trunk pair per leaf is booked
// exactly as a fixed up/down route. Either way a run replays
// bit-identically: static selection is a pure function of the flow key,
// and adaptive selection reads only lane state that the deterministic
// event order already fixes.
package fabric

import "ib12x/internal/sim"

// Routing selects the path-selection discipline of a switch graph.
type Routing int

const (
	// RouteStatic picks every candidate lane by a D-mod-K hash of the
	// flow key — oblivious, pure, independent of fabric load.
	RouteStatic Routing = iota
	// RouteAdaptive picks the candidate lane with the earliest modeled
	// finish time at booking (rate-aware, see laneFinish), breaking ties
	// deterministically from a seeded starting offset.
	RouteAdaptive
)

func (r Routing) String() string {
	if r == RouteAdaptive {
		return "adaptive"
	}
	return "static"
}

// maxHops bounds any minimal route in either topology: leaf→spine→core→
// spine→leaf is 4 lanes, local→global→local is 3.
const maxHops = 4

const (
	gTree = iota
	gDragonfly
)

// graph holds the switch graph of a fabric. Lanes live in one slab
// indexed by closed-form functions of the topology coordinates; a "plane"
// (spine index in a fat tree, global-link index in a dragonfly) groups the
// lanes that a single physical failure domain would take down together.
type graph struct {
	kind     int
	mode     Routing
	seed     uint64
	nodesPer int // nodes per leaf switch / per dragonfly router

	// fat tree: `leaves` leaf switches grouped `podLeaves` to a pod, each
	// pod with `spines` spine switches, and `spines` core switches
	// connecting every spine of every pod (full bipartite). The
	// three-tier tree has podLeaves = spines; the two-level tree is one
	// pod under a single spine; the single switch is one leaf holding
	// every node, with no spine and no lanes.
	spines    int
	pods      int
	leaves    int
	podLeaves int

	// dragonfly: `groups` groups of `routers` routers each, all-to-all
	// local links inside a group and `glinks` parallel global lanes per
	// ordered group pair.
	groups  int
	routers int
	glinks  int

	lanes []Lane
	rates []float64 // built rate per lane (DegradePlane baseline)

	// slab bases
	upLS, downSL, upSC, downCS int // fat tree
	local, global              int // dragonfly
}

// NewThreeTier builds a three-tier fat tree: nodes are grouped nodesPerLeaf
// to a leaf, leaves grouped spinesPerPod to a pod served by spinesPerPod
// spine switches, and spinesPerPod core switches connect the pods. Every
// inter-switch lane runs at trunkRate bytes/s, so the leaf oversubscription
// ratio is nodesPerLeaf·linkRate : spinesPerPod·trunkRate.
func NewThreeTier(latency sim.Time, nodes, nodesPerLeaf, spinesPerPod int, trunkRate float64, mode Routing, seed uint64) *Net {
	if nodesPerLeaf < 1 || spinesPerPod < 1 {
		panic("fabric: three-tier needs nodesPerLeaf >= 1 and spinesPerPod >= 1")
	}
	return newTree(latency, nodes, nodesPerLeaf, spinesPerPod, spinesPerPod, trunkRate, mode, seed)
}

// newTree builds a fat tree of nodesPerLeaf-node leaves grouped podLeaves
// to a pod (0 = every leaf in one pod) with `spines` spines per pod and
// `spines` cores.
func newTree(latency sim.Time, nodes, nodesPerLeaf, spines, podLeaves int, trunkRate float64, mode Routing, seed uint64) *Net {
	leaves := (nodes + nodesPerLeaf - 1) / nodesPerLeaf
	if leaves < 1 {
		leaves = 1
	}
	if podLeaves < 1 {
		podLeaves = leaves
	}
	pods := (leaves + podLeaves - 1) / podLeaves
	g := &graph{
		kind:      gTree,
		mode:      mode,
		seed:      seed,
		nodesPer:  nodesPerLeaf,
		spines:    spines,
		pods:      pods,
		leaves:    leaves,
		podLeaves: podLeaves,
	}
	s := spines
	g.upLS = 0
	g.downSL = leaves * s
	g.upSC = 2 * leaves * s
	g.downCS = 2*leaves*s + pods*s*s
	g.alloc(2*leaves*s+2*pods*s*s, trunkRate)
	return &Net{Latency: latency, g: g}
}

// NewDragonfly builds a dragonfly: groups × routersPerGroup routers with
// nodesPerRouter nodes each, all-to-all local links inside a group, and
// globalLinks parallel global lanes per ordered group pair. Global lane j
// between groups (g1,g2) is anchored at router (g2+j)%R in g1 and router
// (g1+j)%R in g2, so the global channels of a group spread across its
// routers. All lanes run at trunkRate bytes/s.
func NewDragonfly(latency sim.Time, groups, routersPerGroup, nodesPerRouter, globalLinks int, trunkRate float64, mode Routing, seed uint64) *Net {
	if groups < 1 || routersPerGroup < 1 || nodesPerRouter < 1 || globalLinks < 1 {
		panic("fabric: dragonfly needs groups, routersPerGroup, nodesPerRouter, globalLinks >= 1")
	}
	g := &graph{
		kind:     gDragonfly,
		mode:     mode,
		seed:     seed,
		nodesPer: nodesPerRouter,
		groups:   groups,
		routers:  routersPerGroup,
		glinks:   globalLinks,
	}
	r := routersPerGroup
	g.local = 0
	g.global = groups * r * r
	g.alloc(groups*r*r+groups*groups*globalLinks, trunkRate)
	return &Net{Latency: latency, g: g}
}

func (g *graph) alloc(n int, rate float64) {
	if rate <= 0 {
		panic("fabric: switch graph needs trunkRate > 0")
	}
	g.lanes = make([]Lane, n)
	g.rates = make([]float64, n)
	for i := range g.lanes {
		g.lanes[i].Rate = rate
		g.rates[i] = rate
	}
}

// Lane index helpers. Coordinates are never bounds-checked here; callers
// derive them from node ids already validated by the constructor shape.

func (g *graph) laneUpLS(leaf, s int) int   { return g.upLS + leaf*g.spines + s }
func (g *graph) laneDownSL(leaf, s int) int { return g.downSL + leaf*g.spines + s }

func (g *graph) laneUpSC(pod, s, c int) int   { return g.upSC + (pod*g.spines+s)*g.spines + c }
func (g *graph) laneDownCS(pod, s, c int) int { return g.downCS + (pod*g.spines+s)*g.spines + c }

func (g *graph) laneLocal(grp, a, b int) int { return g.local + (grp*g.routers+a)*g.routers + b }
func (g *graph) laneGlobal(g1, g2, j int) int {
	return g.global + (g1*g.groups+g2)*g.glinks + j
}

// switchOf reports the first-hop switch of a node: its leaf in a fat tree,
// its router (globally numbered) in a dragonfly.
func (g *graph) switchOf(node int) int { return node / g.nodesPer }

// routeMix is the splitmix64 finalizer: a full-avalanche pure hash, the
// basis of both D-mod-K selection and adaptive tie-break offsets.
func routeMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// laneFinish is the adaptive metric: when the lane would finish serving
// `wire` bytes that become ready at `ready`. Charging the transfer at the
// lane's *current* rate — not just comparing FreeAt frontiers — is what
// keeps a DegradeLink'd trunk honest: after SetRate its booked backlog
// still drains at the old speed (so FreeAt alone can look identical to a
// healthy lane's), but the slower service it would give new bytes prices
// the degradation into every comparison.
func laneFinish(l *Lane, ready sim.Time, wire int64) sim.Time {
	s := l.freeAt
	if ready > s {
		s = ready
	}
	return s + sim.TransferTime(wire, l.Rate)
}

// chooseLane picks among ncand candidate lanes lanes[base+i*stride]. cp
// distinguishes the choice points of one route so a flow does not land on
// correlated indices at every tier.
func (g *graph) chooseLane(key uint64, cp, base, stride, ncand int, ready sim.Time, wire int64) int {
	if ncand <= 1 {
		return 0
	}
	h := routeMix(g.seed ^ key ^ (uint64(cp)+1)*0x9e3779b97f4a7c15)
	if g.mode == RouteStatic {
		return int(h % uint64(ncand))
	}
	// Adaptive: earliest modeled finish wins; scan from the hashed start
	// offset with strictly-less comparisons, so ties break toward a
	// seeded, key-dependent — but load-independent — candidate.
	start := int(h % uint64(ncand))
	best := start
	bestFin := laneFinish(&g.lanes[base+start*stride], ready, wire)
	for i := 1; i < ncand; i++ {
		c := start + i
		if c >= ncand {
			c -= ncand
		}
		fin := laneFinish(&g.lanes[base+c*stride], ready, wire)
		if fin < bestFin {
			best, bestFin = c, fin
		}
	}
	return best
}

// walk routes src→dst and, when book is true, charges each hop lane with
// the cut-through per-hop recurrence (first = start+hopLat, last = leaves+hopLat
// after every Send). Hop lane indices are recorded into hops; the hop count
// and the updated (first, last) pair are returned. With book=false the walk
// only consults lane state (adaptive mode) without mutating it.
func (g *graph) walk(src, dst int, key uint64, first, last sim.Time, wire int64, hopLat sim.Time, hops *[maxHops]int, book bool) (int, sim.Time, sim.Time) {
	nh := 0
	take := func(idx int) {
		hops[nh] = idx
		nh++
		if book {
			s, e := g.lanes[idx].Send(first, wire, last)
			first, last = s+hopLat, e+hopLat
		}
	}
	switch g.kind {
	case gTree:
		sl, dl := src/g.nodesPer, dst/g.nodesPer
		if sl == dl {
			return 0, first, last
		}
		sp, dp := sl/g.podLeaves, dl/g.podLeaves
		if sp == dp {
			// Up to a pod spine, straight down: 2 hops.
			s := g.chooseLane(key, 0, g.laneUpLS(sl, 0), 1, g.spines, first, wire)
			take(g.laneUpLS(sl, s))
			take(g.laneDownSL(dl, s))
			return nh, first, last
		}
		// Up/down through the core: each switch picks among its own
		// output lanes (leaf: which spine; spine: which core; core:
		// which spine of the destination pod), never turning back up.
		s1 := g.chooseLane(key, 0, g.laneUpLS(sl, 0), 1, g.spines, first, wire)
		take(g.laneUpLS(sl, s1))
		c := g.chooseLane(key, 1, g.laneUpSC(sp, s1, 0), 1, g.spines, first, wire)
		take(g.laneUpSC(sp, s1, c))
		s2 := g.chooseLane(key, 2, g.laneDownCS(dp, 0, c), g.spines, g.spines, first, wire)
		take(g.laneDownCS(dp, s2, c))
		take(g.laneDownSL(dl, s2))
		return nh, first, last
	default: // gDragonfly
		sr, dr := src/g.nodesPer, dst/g.nodesPer
		if sr == dr {
			return 0, first, last
		}
		sg, dg := sr/g.routers, dr/g.routers
		sl, dl := sr%g.routers, dr%g.routers
		if sg == dg {
			take(g.laneLocal(sg, sl, dl))
			return nh, first, last
		}
		// Minimal l-g-l: at most one local hop to the global lane's
		// source anchor, the global hop, one local hop from its
		// destination anchor — local→global→local order only, which is
		// the deadlock-free minimal pattern of Maglione-Mathey et al.
		j := g.chooseLane(key, 0, g.laneGlobal(sg, dg, 0), 1, g.glinks, first, wire)
		sa, da := (dg+j)%g.routers, (sg+j)%g.routers
		if sl != sa {
			take(g.laneLocal(sg, sl, sa))
		}
		take(g.laneGlobal(sg, dg, j))
		if da != dl {
			take(g.laneLocal(dg, da, dl))
		}
		return nh, first, last
	}
}

// SwitchOf reports a node's first-hop switch: its leaf in a fat tree (0 on
// the single switch), its router in a dragonfly.
func (n *Net) SwitchOf(node int) int { return n.g.switchOf(node) }

// CrossSwitch reports whether two nodes attach to different switches.
func (n *Net) CrossSwitch(a, b int) bool { return n.g.switchOf(a) != n.g.switchOf(b) }

// BookPath routes src→dst under the flow key and books every hop lane,
// applying the per-hop recurrence first=start+hopLat, last=leaves+hopLat
// after each Send: cut-through, so an idle path costs one serialization
// plus per-hop latency. It returns the delivered (first, last) pair at the
// destination's leaf port.
func (n *Net) BookPath(src, dst int, key uint64, first, last sim.Time, wire int64, hopLat sim.Time) (sim.Time, sim.Time) {
	var hops [maxHops]int
	_, f, l := n.g.walk(src, dst, key, first, last, wire, hopLat, &hops, true)
	return f, l
}

// Planes reports the number of fault planes of a fabric: spine indices in
// a fat tree (plane s = every up/down lane touching any pod's spine s or
// core s; the two-level tree has one), global-link indices in a dragonfly
// (plane j = the j-th parallel global lane of every group pair). 0 on the
// single switch.
func (n *Net) Planes() int {
	g := n.g
	if g.kind == gTree {
		return g.spines
	}
	return g.glinks
}

// eachPlaneLane visits every lane index of a fault plane.
func (g *graph) eachPlaneLane(plane int, fn func(idx int)) {
	if g.kind == gTree {
		for leaf := 0; leaf < g.leaves; leaf++ {
			fn(g.laneUpLS(leaf, plane))
			fn(g.laneDownSL(leaf, plane))
		}
		for pod := 0; pod < g.pods; pod++ {
			for i := 0; i < g.spines; i++ {
				// Spine `plane` to every core, every spine to core `plane`.
				fn(g.laneUpSC(pod, plane, i))
				fn(g.laneDownCS(pod, plane, i))
				if i != plane {
					fn(g.laneUpSC(pod, i, plane))
					fn(g.laneDownCS(pod, i, plane))
				}
			}
		}
		return
	}
	for g1 := 0; g1 < g.groups; g1++ {
		for g2 := 0; g2 < g.groups; g2++ {
			if g1 != g2 {
				fn(g.laneGlobal(g1, g2, plane))
			}
		}
	}
}

// DegradePlane throttles every lane of a fault plane to factor × its built
// rate (the chaos TrunkDegrade fault). No-op on out-of-range planes
// (every plane of the single switch); factors outside (0, 1] are clamped
// into it.
func (n *Net) DegradePlane(plane int, factor float64) {
	g := n.g
	if plane < 0 || plane >= n.Planes() {
		return
	}
	if factor <= 0 {
		factor = 0.01
	} else if factor > 1 {
		factor = 1
	}
	g.eachPlaneLane(plane, func(idx int) {
		g.lanes[idx].SetRate(g.rates[idx] * factor)
	})
}

// RestorePlane returns every lane of a fault plane to its built rate. No-op
// on out-of-range planes.
func (n *Net) RestorePlane(plane int) {
	g := n.g
	if plane < 0 || plane >= n.Planes() {
		return
	}
	g.eachPlaneLane(plane, func(idx int) {
		g.lanes[idx].SetRate(g.rates[idx])
	})
}

// PlaneStats sums bookings over a fault plane's lanes — the observability
// hook the adaptive-vs-degraded tests assert against.
func (n *Net) PlaneStats(plane int) (items, bytes int64) {
	g := n.g
	if plane < 0 || plane >= n.Planes() {
		return 0, 0
	}
	g.eachPlaneLane(plane, func(idx int) {
		items += g.lanes[idx].items
		bytes += g.lanes[idx].bytes
	})
	return items, bytes
}
