package fabric

import (
	"testing"

	"ib12x/internal/sim"
)

const testRate = 3.0e9

func threeTier(nodes, npl, spines int, mode Routing) *Net {
	return NewThreeTier(sim.Microsecond, nodes, npl, spines, testRate, mode, 7)
}

func dragonfly(groups, routers, npr, glinks int, mode Routing) *Net {
	return NewDragonfly(sim.Microsecond, groups, routers, npr, glinks, testRate, mode, 7)
}

// switch numbering for the reference graph: fat-tree leaves, then spines
// (pod-major), then cores; dragonfly routers group-major. A fat-tree pod
// holds podLeaves leaves: spines of them in a three-tier tree, all of them
// in a two-level tree.
func (g *graph) switchCount() int {
	if g.kind == gTree {
		return g.leaves + g.pods*g.spines + g.spines
	}
	return g.groups * g.routers
}

func (g *graph) spineID(pod, s int) int { return g.leaves + pod*g.spines + s }
func (g *graph) coreID(c int) int       { return g.leaves + g.pods*g.spines + c }

// laneEnds maps a lane index back to its (from, to) switch ids.
func (g *graph) laneEnds(idx int) (int, int) {
	if g.kind == gTree {
		s := g.spines
		switch {
		case idx < g.downSL:
			rel := idx - g.upLS
			return rel / s, g.spineID((rel/s)/g.podLeaves, rel%s)
		case idx < g.upSC:
			rel := idx - g.downSL
			return g.spineID((rel/s)/g.podLeaves, rel%s), rel / s
		case idx < g.downCS:
			rel := idx - g.upSC
			return g.spineID(rel/(s*s), (rel/s)%s), g.coreID(rel % s)
		default:
			rel := idx - g.downCS
			return g.coreID(rel % s), g.spineID(rel/(s*s), (rel/s)%s)
		}
	}
	r := g.routers
	if idx < g.global {
		rel := idx - g.local
		grp := rel / (r * r)
		return grp*r + (rel/r)%r, grp*r + rel%r
	}
	rel := idx - g.global
	j := rel % g.glinks
	g2 := (rel / g.glinks) % g.groups
	g1 := rel / (g.glinks * g.groups)
	return g1*r + (g2+j)%r, g2*r + (g1+j)%r
}

// tier classifies a fat-tree switch id: 0 leaf, 1 spine, 2 core.
func (g *graph) tier(sw int) int {
	switch {
	case sw < g.leaves:
		return 0
	case sw < g.leaves+g.pods*g.spines:
		return 1
	default:
		return 2
	}
}

// eachEdge visits every real (unpadded, non-diagonal) lane of the graph.
func (g *graph) eachEdge(fn func(idx int)) {
	if g.kind == gTree {
		for l := 0; l < g.leaves; l++ {
			for s := 0; s < g.spines; s++ {
				fn(g.laneUpLS(l, s))
				fn(g.laneDownSL(l, s))
			}
		}
		for p := 0; p < g.pods; p++ {
			for s := 0; s < g.spines; s++ {
				for c := 0; c < g.spines; c++ {
					fn(g.laneUpSC(p, s, c))
					fn(g.laneDownCS(p, s, c))
				}
			}
		}
		return
	}
	for grp := 0; grp < g.groups; grp++ {
		for a := 0; a < g.routers; a++ {
			for b := 0; b < g.routers; b++ {
				if a != b {
					fn(g.laneLocal(grp, a, b))
				}
			}
		}
	}
	for g1 := 0; g1 < g.groups; g1++ {
		for g2 := 0; g2 < g.groups; g2++ {
			if g1 == g2 {
				continue
			}
			for j := 0; j < g.glinks; j++ {
				fn(g.laneGlobal(g1, g2, j))
			}
		}
	}
}

// bfsDist computes shortest switch-hop distances from switch `from` over
// the full lane adjacency — the flat reference the routed walk is checked
// against.
func (g *graph) bfsDist(from int) []int {
	n := g.switchCount()
	adj := make([][]int, n)
	g.eachEdge(func(idx int) {
		a, b := g.laneEnds(idx)
		adj[a] = append(adj[a], b)
	})
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[from] = 0
	queue := []int{from}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// checkRoute walks src→dst without booking and validates connectivity, the
// shortest-path bound, and the deadlock-freedom rule of the topology. It
// returns the hop lanes for further assertions.
func checkRoute(t *testing.T, n *Net, src, dst int, key uint64) []int {
	t.Helper()
	g := n.g
	var hops [maxHops]int
	nh, _, _ := g.walk(src, dst, key, 0, 0, 4096, n.OneWay(), &hops, false)

	// Connectivity: consecutive hops chain from src's switch to dst's.
	at := g.switchOf(src)
	for i := 0; i < nh; i++ {
		from, to := g.laneEnds(hops[i])
		if from != at {
			t.Fatalf("hop %d of %d->%d starts at switch %d, want %d", i, src, dst, from, at)
		}
		at = to
	}
	if at != g.switchOf(dst) {
		t.Fatalf("route %d->%d ends at switch %d, want %d", src, dst, at, g.switchOf(dst))
	}

	// Shortest-path tier bound: a fat-tree route is exactly the BFS
	// distance; a dragonfly minimal route may pay up to the two optional
	// local hops over it (anchor mismatch) but never beats it and never
	// exceeds the l-g-l bound of 3.
	dist := g.bfsDist(g.switchOf(src))[g.switchOf(dst)]
	if g.kind == gTree {
		if nh != dist {
			t.Fatalf("route %d->%d took %d hops, BFS distance %d", src, dst, nh, dist)
		}
	} else {
		if nh < dist || nh > 3 {
			t.Fatalf("route %d->%d took %d hops, BFS distance %d (bound 3)", src, dst, nh, dist)
		}
	}

	// Deadlock rules. Fat tree: tiers strictly ascend to a peak then
	// strictly descend (up/down routing, no valley). Dragonfly: at most
	// one global hop, locals only adjacent to it (l-g-l).
	if g.kind == gTree {
		peaked := false
		for i := 0; i < nh; i++ {
			from, to := g.laneEnds(hops[i])
			if g.tier(to) > g.tier(from) {
				if peaked {
					t.Fatalf("route %d->%d turns back up at hop %d", src, dst, i)
				}
			} else {
				peaked = true
			}
		}
	} else {
		globals := 0
		for i := 0; i < nh; i++ {
			if hops[i] >= g.global {
				globals++
				if globals > 1 {
					t.Fatalf("route %d->%d uses %d global hops", src, dst, globals)
				}
			} else if globals == 0 && i > 0 {
				t.Fatalf("route %d->%d takes two local hops before the global", src, dst)
			}
		}
		sg, dg := g.switchOf(src)/g.routers, g.switchOf(dst)/g.routers
		if sg != dg && globals != 1 {
			t.Fatalf("cross-group route %d->%d uses %d global hops, want 1", src, dst, globals)
		}
	}

	// Static selection is a pure function of (src, dst, key): a second
	// walk — even after arbitrary bookings — must repeat the same lanes.
	if g.mode == RouteStatic {
		var again [maxHops]int
		nh2, _, _ := g.walk(src, dst, key, 55*sim.Microsecond, 60*sim.Microsecond, 1<<20, n.OneWay(), &again, false)
		if nh2 != nh || again != hops {
			t.Fatalf("static route %d->%d not pure: %v vs %v", src, dst, hops[:nh], again[:nh2])
		}
	}
	return hops[:nh]
}

func TestThreeTierShape(t *testing.T) {
	n := threeTier(16, 2, 2, RouteStatic) // 8 leaves, 4 pods, 2 spines/pod, 2 cores
	g := n.g
	if g.leaves != 8 || g.pods != 4 || g.spines != 2 {
		t.Fatalf("shape: leaves=%d pods=%d spines=%d", g.leaves, g.pods, g.spines)
	}
	if want := 2*8*2 + 2*4*2*2; len(g.lanes) != want {
		t.Fatalf("lanes: %d, want %d", len(g.lanes), want)
	}
	if n.Planes() != 2 {
		t.Fatalf("Planes=%d, want 2", n.Planes())
	}
	if n.SwitchOf(5) != 2 || n.CrossSwitch(0, 1) || !n.CrossSwitch(1, 2) {
		t.Fatalf("switch assignment wrong")
	}
	// Every distinct lane index is in range and unique.
	seen := map[int]bool{}
	g.eachEdge(func(idx int) {
		if idx < 0 || idx >= len(g.lanes) || seen[idx] {
			t.Fatalf("lane index %d out of range or duplicated", idx)
		}
		seen[idx] = true
	})
	if len(seen) != len(g.lanes) {
		t.Fatalf("enumerated %d lanes, slab has %d", len(seen), len(g.lanes))
	}
}

func TestDragonflyShape(t *testing.T) {
	n := dragonfly(3, 4, 2, 2, RouteStatic)
	g := n.g
	if want := 3*4*4 + 3*3*2; len(g.lanes) != want {
		t.Fatalf("lanes: %d, want %d", len(g.lanes), want)
	}
	if n.Planes() != 2 {
		t.Fatalf("Planes=%d, want 2", n.Planes())
	}
	if n.SwitchOf(9) != 4 || n.CrossSwitch(8, 9) || !n.CrossSwitch(7, 8) {
		t.Fatalf("router assignment wrong")
	}
}

func TestRouteAllPairs(t *testing.T) {
	nets := map[string]*Net{
		"tree-static":    threeTier(16, 2, 2, RouteStatic),
		"tree-adaptive":  threeTier(16, 2, 2, RouteAdaptive),
		"tree-narrow":    threeTier(6, 1, 3, RouteStatic),
		"tree-two-level": NewFatTree(sim.Microsecond, 16, 2, testRate),
		"df-static":      dragonfly(3, 4, 2, 2, RouteStatic),
		"df-adaptive":    dragonfly(3, 4, 2, 2, RouteAdaptive),
		"df-single-link": dragonfly(2, 3, 1, 1, RouteStatic),
	}
	for name, n := range nets {
		t.Run(name, func(t *testing.T) {
			nodes := n.g.switchCount() // any upper bound on node count works
			if n.g.kind == gDragonfly {
				nodes = n.g.groups * n.g.routers * n.g.nodesPer
			} else {
				nodes = n.g.leaves * n.g.nodesPer
			}
			for src := 0; src < nodes; src++ {
				for dst := 0; dst < nodes; dst++ {
					for key := uint64(0); key < 3; key++ {
						checkRoute(t, n, src, dst, key*0x1234567+11)
					}
				}
			}
		})
	}
}

// TestBookPathRecurrence pins the per-hop charge: on an idle fabric a
// cross-pod transfer's last byte pays one trunk serialization (cut-through
// pipelining overlaps the rest) plus 4 hop latencies on top of the
// incoming (first, last) — the cut-through trunk recurrence, per hop.
func TestBookPathRecurrence(t *testing.T) {
	n := threeTier(16, 2, 2, RouteStatic)
	wire := int64(3000) // 1µs at testRate
	hopLat := n.OneWay()
	xfer := sim.TransferTime(wire, testRate)
	_, last := n.BookPath(0, 15, 99, 10*sim.Microsecond, 10*sim.Microsecond, wire, hopLat)
	want := 10*sim.Microsecond + xfer + 4*hopLat
	if last != want {
		t.Fatalf("cross-pod last = %v, want %v", last, want)
	}
	// Same-leaf pairs never touch the trunks.
	f2, l2 := n.BookPath(0, 1, 99, sim.Microsecond, 2*sim.Microsecond, wire, hopLat)
	if f2 != sim.Microsecond || l2 != 2*sim.Microsecond {
		t.Fatalf("same-leaf path charged trunks: %v %v", f2, l2)
	}
}

// TestAdaptiveSpreadsLoad books a burst of same-flow-key-free transfers
// between the same leaf pair and checks adaptive selection spreads them
// over both spine planes while static keeps each key pinned.
func TestAdaptiveSpreadsLoad(t *testing.T) {
	n := threeTier(8, 2, 2, RouteAdaptive)
	g := n.g
	wire := int64(1 << 20)
	for i := 0; i < 8; i++ {
		n.BookPath(0, 2, uint64(i), 0, 0, wire, n.OneWay())
	}
	up0 := g.lanes[g.laneUpLS(0, 0)].Items()
	up1 := g.lanes[g.laneUpLS(0, 1)].Items()
	if up0 != 4 || up1 != 4 {
		t.Fatalf("adaptive spread %d/%d over the two spine uplinks, want 4/4", up0, up1)
	}
}

// TestAdaptiveRateAwareTieBreak is the Lane.SetRate × adaptive regression:
// two candidate lanes with identical FreeAt frontiers, one degraded via
// SetRate. Its booked backlog drains at the old speed — FreeAt alone
// cannot tell them apart — but the rate-aware finish metric must send
// every new booking to the healthy lane.
func TestAdaptiveRateAwareTieBreak(t *testing.T) {
	wire := int64(1 << 20)
	for key := uint64(0); key < 16; key++ {
		n := threeTier(8, 2, 2, RouteAdaptive)
		g := n.g
		// Equal backlog on both spine-0/spine-1 uplinks of leaf 0: the
		// FreeAt frontiers tie exactly, so a FreeAt-only metric would
		// fall through to the hashed tie-break and send about half the
		// keys to the degraded lane.
		g.lanes[g.laneUpLS(0, 0)].Send(0, wire, 0)
		g.lanes[g.laneUpLS(0, 1)].Send(0, wire, 0)
		if g.lanes[g.laneUpLS(0, 0)].FreeAt() != g.lanes[g.laneUpLS(0, 1)].FreeAt() {
			t.Fatalf("setup: FreeAt frontiers differ")
		}
		// Degrade plane 0 after the backlog is booked: SetRate keeps the
		// booked departure times, so FreeAt still ties — only the rate
		// differs.
		n.DegradePlane(0, 0.25)
		n.BookPath(0, 2, key, 0, 0, wire, n.OneWay())
		if got := g.lanes[g.laneUpLS(0, 0)].Items(); got != 1 {
			t.Fatalf("key %d: degraded lane won the tie (items=%d, want the setup booking only)", key, got)
		}
		// Restore: the plane competes again at full rate.
		n.RestorePlane(0)
		if g.lanes[g.laneUpLS(0, 0)].Rate != testRate {
			t.Fatalf("RestorePlane left rate %g", g.lanes[g.laneUpLS(0, 0)].Rate)
		}
	}
}

func TestDegradePlaneScopes(t *testing.T) {
	n := threeTier(16, 2, 2, RouteStatic)
	g := n.g
	n.DegradePlane(1, 0.5)
	if r := g.lanes[g.laneUpLS(3, 1)].Rate; r != testRate/2 {
		t.Fatalf("plane-1 leaf uplink rate %g, want %g", r, testRate/2)
	}
	if r := g.lanes[g.laneUpLS(3, 0)].Rate; r != testRate {
		t.Fatalf("plane-0 leaf uplink touched: %g", r)
	}
	if r := g.lanes[g.laneUpSC(2, 1, 0)].Rate; r != testRate/2 {
		t.Fatalf("spine-1 core uplink rate %g", r)
	}
	if r := g.lanes[g.laneUpSC(2, 0, 1)].Rate; r != testRate/2 {
		t.Fatalf("core-1 feed lane rate %g", r)
	}
	if r := g.lanes[g.laneUpSC(2, 0, 0)].Rate; r != testRate {
		t.Fatalf("plane-0 core lane touched: %g", r)
	}
	n.RestorePlane(1)
	if r := g.lanes[g.laneUpSC(2, 1, 0)].Rate; r != testRate {
		t.Fatalf("restore missed a lane: %g", r)
	}

	// The single switch has no planes: both calls are no-ops.
	flat := NewSingleSwitch(sim.Microsecond)
	flat.DegradePlane(0, 0.5)
	flat.RestorePlane(0)
	if flat.Planes() != 0 {
		t.Fatalf("flat fabric reports planes")
	}
	// The two-level tree's single spine is plane 0: every trunk slows.
	tree2 := NewFatTree(sim.Microsecond, 8, 2, testRate)
	if tree2.Planes() != 1 {
		t.Fatalf("two-level Planes=%d, want 1", tree2.Planes())
	}
	tree2.DegradePlane(0, 0.5)
	for leaf := 0; leaf < 4; leaf++ {
		if u, d := tree2.Uplink(leaf).Rate, tree2.Downlink(leaf).Rate; u != testRate/2 || d != testRate/2 {
			t.Fatalf("two-level leaf %d trunks %g/%g, want %g", leaf, u, d, testRate/2)
		}
	}
	tree2.RestorePlane(0)
	if r := tree2.Uplink(3).Rate; r != testRate {
		t.Fatalf("two-level restore left rate %g", r)
	}
}

func TestPlaneStats(t *testing.T) {
	n := dragonfly(2, 2, 1, 2, RouteStatic)
	g := n.g
	wire := int64(4096)
	for i := 0; i < 6; i++ {
		n.BookPath(0, 3, uint64(i)*13+1, 0, 0, wire, n.OneWay())
	}
	i0, b0 := n.PlaneStats(0)
	i1, b1 := n.PlaneStats(1)
	var globalItems int64
	for g1 := 0; g1 < 2; g1++ {
		for g2 := 0; g2 < 2; g2++ {
			if g1 == g2 {
				continue
			}
			for j := 0; j < 2; j++ {
				globalItems += g.lanes[g.laneGlobal(g1, g2, j)].Items()
			}
		}
	}
	if i0+i1 != globalItems || i0+i1 != 6 {
		t.Fatalf("plane stats %d+%d, global bookings %d", i0, i1, globalItems)
	}
	if b0+b1 != 6*wire {
		t.Fatalf("plane bytes %d+%d, want %d", b0, b1, 6*wire)
	}
}

// FuzzRouteTable drives random topologies and flow triples through the
// walk and validates each against the flat BFS reference: the route
// reaches the destination, meets the shortest-path tier bound, static
// selection is pure, and no up/down (or l-g-l) rule is violated. Trees are
// three-tier, or two-level (NewFatTree) when bit 2 of d is set.
func FuzzRouteTable(f *testing.F) {
	f.Add(uint64(1), false, uint8(2), uint8(2), uint8(2), uint8(2), uint16(0), uint16(5), uint64(42))
	f.Add(uint64(2), true, uint8(3), uint8(4), uint8(2), uint8(2), uint16(1), uint16(20), uint64(7))
	f.Add(uint64(3), false, uint8(1), uint8(3), uint8(1), uint8(1), uint16(2), uint16(2), uint64(0))
	f.Add(uint64(4), true, uint8(4), uint8(1), uint8(3), uint8(4), uint16(9), uint16(0), uint64(99))
	f.Add(uint64(5), false, uint8(1), uint8(0), uint8(9), uint8(4), uint16(1), uint16(7), uint64(3))
	f.Fuzz(func(t *testing.T, seed uint64, df bool, a, b, c, d uint8, src, dst uint16, key uint64) {
		mode := RouteStatic
		if seed&1 == 1 {
			mode = RouteAdaptive
		}
		var n *Net
		var nodes int
		if df {
			groups := int(a%4) + 1
			routers := int(b%4) + 1
			npr := int(c%3) + 1
			glinks := int(d%4) + 1
			n = NewDragonfly(sim.Microsecond, groups, routers, npr, glinks, testRate, mode, seed)
			nodes = groups * routers * npr
		} else if d&4 != 0 {
			npl := int(a%3) + 1
			nodes = int(c)%24 + 2
			n = NewFatTree(sim.Microsecond, nodes, npl, testRate)
		} else {
			npl := int(a%3) + 1
			spines := int(b%4) + 1
			nodes = int(c)%24 + 2
			n = NewThreeTier(sim.Microsecond, nodes, npl, spines, testRate, mode, seed)
		}
		s, e := int(src)%nodes, int(dst)%nodes
		hops := checkRoute(t, n, s, e, key)
		// Booking the route must not break later checks of the same
		// triple (adaptive may legally re-route; static must not).
		n.BookPath(s, e, key, 0, 0, 1<<16, n.OneWay())
		checkRoute(t, n, e, s, key^0xdead)
		_ = hops
	})
}
