package topo

import (
	"testing"

	"ib12x/internal/fabric"
	"ib12x/internal/model"
)

func TestSpecValidateRoutedShapes(t *testing.T) {
	base := Spec{Nodes: 8, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1}
	good := []func(*Spec){
		func(s *Spec) { s.Tiers = 3; s.NodesPerSwitch = 2; s.SpinesPerPod = 2 },
		func(s *Spec) { s.Tiers = 2; s.NodesPerSwitch = 2 },
		func(s *Spec) { s.Dragonfly = Dragonfly{Groups: 2, RoutersPerGroup: 4, GlobalLinks: 1} },
		func(s *Spec) {
			s.NodesPerSwitch = 2
			s.Dragonfly = Dragonfly{Groups: 2, RoutersPerGroup: 2, GlobalLinks: 2}
		},
		func(s *Spec) { s.Dragonfly = Dragonfly{Groups: 1, RoutersPerGroup: 8} }, // local-only group
	}
	for i, set := range good {
		s := base
		set(&s)
		if err := s.Validate(); err != nil {
			t.Errorf("good[%d]: %v", i, err)
		}
	}
	bad := []func(*Spec){
		func(s *Spec) { s.Tiers = 1 },
		func(s *Spec) { s.Tiers = 4 },
		func(s *Spec) { s.Tiers = 3 },                       // no NodesPerSwitch
		func(s *Spec) { s.Tiers = 3; s.NodesPerSwitch = 2 }, // no SpinesPerPod
		func(s *Spec) {
			s.Tiers = 3
			s.NodesPerSwitch = 2
			s.SpinesPerPod = 2
			s.Dragonfly = Dragonfly{Groups: 2, RoutersPerGroup: 2, GlobalLinks: 1}
		}, // mutually exclusive
		func(s *Spec) { s.Dragonfly = Dragonfly{Groups: 2} },                                     // no routers
		func(s *Spec) { s.Dragonfly = Dragonfly{Groups: 2, RoutersPerGroup: 4} },                 // no global links
		func(s *Spec) { s.Dragonfly = Dragonfly{Groups: 2, RoutersPerGroup: 2, GlobalLinks: 1} }, // capacity 4 < 8 nodes
	}
	for i, set := range bad {
		s := base
		set(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("bad[%d]: Validate accepted %+v", i, s)
		}
	}
}

func TestBuildRoutedShapes(t *testing.T) {
	m := model.Default()
	tree := Build(Spec{Nodes: 8, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1,
		Tiers: 3, NodesPerSwitch: 2, SpinesPerPod: 2, Routing: fabric.RouteAdaptive}, m)
	if !tree.Net.Routed() || tree.Net.Planes() != 2 {
		t.Fatalf("three-tier build: Routed=%v Planes=%d", tree.Net.Routed(), tree.Net.Planes())
	}
	if tree.Net.CrossSwitch(0, 1) || !tree.Net.CrossSwitch(1, 2) {
		t.Fatalf("three-tier switch assignment wrong")
	}
	df := Build(Spec{Nodes: 8, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1,
		NodesPerSwitch: 2, Dragonfly: Dragonfly{Groups: 2, RoutersPerGroup: 2, GlobalLinks: 2}}, m)
	if !df.Net.Routed() || df.Net.Planes() != 2 {
		t.Fatalf("dragonfly build: Routed=%v Planes=%d", df.Net.Routed(), df.Net.Planes())
	}
	// Legacy shapes stay non-routed.
	legacy := Build(Spec{Nodes: 8, ProcsPerNode: 1, HCAsPerNode: 1, PortsPerHCA: 1, QPsPerPort: 1,
		NodesPerSwitch: 2}, m)
	if legacy.Net.Routed() || !legacy.Net.CrossLeaf(1, 2) {
		t.Fatalf("legacy fat tree changed shape")
	}
}
