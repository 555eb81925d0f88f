package mpi

import (
	"testing"

	"ib12x/internal/core"
	"ib12x/internal/sim"
)

// Fat-tree fabric behaviour through the full MPI stack.

func fatCfg(nodes, perLeaf int, trunk float64) Config {
	c := cfg(nodes, 1, 4, core.EPC)
	c.NodesPerSwitch = perLeaf
	c.TrunkRate = trunk
	return c
}

func TestFatTreeSameLeafMatchesSingleSwitch(t *testing.T) {
	lat := func(c Config) sim.Time {
		var el sim.Time
		mustRun(t, c, func(cm *Comm) {
			// Ranks 0 and 1 are on nodes 0 and 1: same leaf with perLeaf=2.
			if cm.Rank() == 0 {
				t0 := cm.Time()
				for i := 0; i < 10; i++ {
					cm.SendN(1, 0, nil, 4096)
					cm.RecvN(1, 0, nil, 4096)
				}
				el = cm.Time() - t0
			} else if cm.Rank() == 1 {
				for i := 0; i < 10; i++ {
					cm.RecvN(0, 0, nil, 4096)
					cm.SendN(0, 0, nil, 4096)
				}
			}
		})
		return el
	}
	flat := lat(cfg(2, 1, 4, core.EPC))
	tree := lat(fatCfg(2, 2, 0))
	if flat != tree {
		t.Errorf("same-leaf traffic must not pay spine hops: flat %v vs tree %v", flat, tree)
	}
}

func TestFatTreeCrossSwitchAddsHops(t *testing.T) {
	lat := func(c Config, peer int) sim.Time {
		var el sim.Time
		mustRun(t, c, func(cm *Comm) {
			if cm.Rank() == 0 {
				t0 := cm.Time()
				for i := 0; i < 10; i++ {
					cm.SendN(peer, 0, nil, 64)
					cm.RecvN(peer, 0, nil, 64)
				}
				el = cm.Time() - t0
			} else if cm.Rank() == peer {
				for i := 0; i < 10; i++ {
					cm.RecvN(0, 0, nil, 64)
					cm.SendN(0, 0, nil, 64)
				}
			}
		})
		return el
	}
	same := lat(fatCfg(4, 2, 0), 1)  // leaf 0 ↔ leaf 0
	cross := lat(fatCfg(4, 2, 0), 2) // leaf 0 ↔ leaf 1
	// Each one-way crossing adds two hops of wire latency.
	minExtra := sim.Time(10) * 2 * 2 * (600 * sim.Nanosecond) * 9 / 10
	if cross-same < minExtra {
		t.Errorf("cross-leaf extra = %v, want ≥ ~%v", cross-same, minExtra)
	}
}

func TestFatTreeOversubscriptionThrottles(t *testing.T) {
	// 4 nodes per leaf all streaming cross-leaf: a 1:1 trunk carries one
	// link's worth; a quarter-rate trunk cuts aggregate ~4x.
	run := func(trunk float64) sim.Time {
		c := fatCfg(8, 4, trunk)
		var worst sim.Time
		mustRun(t, c, func(cm *Comm) {
			peer := (cm.Rank() + 4) % 8 // every pair crosses the spine
			var reqs []*Request
			if cm.Rank() < 4 {
				for i := 0; i < 4; i++ {
					reqs = append(reqs, cm.IsendN(peer, i, nil, 1<<20))
				}
			} else {
				for i := 0; i < 4; i++ {
					reqs = append(reqs, cm.IrecvN(peer, i, nil, 1<<20))
				}
			}
			cm.Waitall(reqs)
			el := []int64{int64(cm.Time())}
			cm.AllreduceInt64(el, Max)
			if cm.Rank() == 0 {
				worst = sim.Time(el[0])
			}
		})
		return worst
	}
	full := run(0)       // 1:1 per-leaf trunk (3 GB/s)
	quarter := run(75e7) // 4:1 oversubscription
	if quarter < 3*full {
		t.Errorf("4:1 oversubscription: %v not ≳ 3x the 1:1 time %v", quarter, full)
	}
}

func TestFatTreeCollectivesCorrect(t *testing.T) {
	c := fatCfg(8, 2, 1e9)
	mustRun(t, c, func(cm *Comm) {
		v := []int64{int64(cm.Rank())}
		cm.AllreduceInt64(v, Sum)
		if v[0] != 28 {
			t.Errorf("allreduce over the tree = %d, want 28", v[0])
		}
		buf := make([]byte, 32*1024)
		if cm.Rank() == 3 {
			for i := range buf {
				buf[i] = byte(i)
			}
		}
		cm.Bcast(3, buf)
		for i := range buf {
			if buf[i] != byte(i) {
				t.Fatalf("bcast over the tree corrupted at %d", i)
			}
		}
	})
}
