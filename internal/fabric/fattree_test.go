package fabric

import (
	"testing"

	"ib12x/internal/sim"
)

func TestSingleSwitchLeafTopology(t *testing.T) {
	n := NewSingleSwitch(600 * sim.Nanosecond)
	if n.SwitchOf(0) != 0 || n.SwitchOf(7) != 0 {
		t.Error("single switch: every node on leaf 0")
	}
	if n.CrossSwitch(0, 7) {
		t.Error("single switch has no cross-leaf pairs")
	}
}

func TestFatTreeLeafAssignment(t *testing.T) {
	n := NewFatTree(600*sim.Nanosecond, 8, 4, 3e9)
	cases := []struct{ node, leaf int }{{0, 0}, {3, 0}, {4, 1}, {7, 1}}
	for _, c := range cases {
		if got := n.SwitchOf(c.node); got != c.leaf {
			t.Errorf("SwitchOf(%d) = %d, want %d", c.node, got, c.leaf)
		}
	}
	if n.CrossSwitch(0, 3) || !n.CrossSwitch(3, 4) {
		t.Error("cross-leaf classification wrong")
	}
}

func TestFatTreeZeroGroupIsSingleSwitch(t *testing.T) {
	n := NewFatTree(600*sim.Nanosecond, 8, 0, 3e9)
	if n.CrossSwitch(0, 7) {
		t.Error("nodesPerLeaf=0 must degrade to a single switch")
	}
}

func TestTrunkLanesIndependent(t *testing.T) {
	n := NewFatTree(600*sim.Nanosecond, 8, 2, 1e9)
	// Booking leaf 0's uplink leaves leaf 1's untouched.
	n.Uplink(0).Send(0, 10000, 0)
	if n.Uplink(1).FreeAt() != 0 {
		t.Error("trunks must be per-leaf")
	}
	if n.Uplink(0).FreeAt() != 10*sim.Microsecond {
		t.Errorf("uplink 0 freeAt = %v", n.Uplink(0).FreeAt())
	}
	if n.Downlink(0).FreeAt() != 0 {
		t.Error("up and down trunks are separate lanes")
	}
}
