package slb

import (
	"testing"

	"vigil/internal/stats"
	"vigil/internal/topology"
)

func newSLB(t testing.TB) (*SLB, *topology.Topology) {
	t.Helper()
	topo, err := topology.New(topology.TestClusterConfig)
	if err != nil {
		t.Fatal(err)
	}
	return New(topo, stats.NewRNG(1)), topo
}

func TestConnectAssignsFromPool(t *testing.T) {
	s, topo := newSLB(t)
	backends := []topology.HostID{topo.HostAt(0, 5, 0), topo.HostAt(0, 5, 1), topo.HostAt(0, 6, 0)}
	vip := VIP(1)
	if err := s.RegisterVIP(vip, backends); err != nil {
		t.Fatal(err)
	}
	inPool := map[topology.HostID]bool{}
	for _, b := range backends {
		inPool[b] = true
	}
	seen := map[topology.HostID]bool{}
	for port := uint16(40000); port < 40200; port++ {
		dip, err := s.Connect(topo.HostAt(0, 0, 0), port, vip, 443)
		if err != nil {
			t.Fatal(err)
		}
		if !inPool[dip] {
			t.Fatalf("assigned DIP %d outside the pool", dip)
		}
		seen[dip] = true
	}
	if len(seen) != len(backends) {
		t.Fatalf("only %d/%d backends used", len(seen), len(backends))
	}
}

func TestConnectUnknownVIP(t *testing.T) {
	s, topo := newSLB(t)
	if _, err := s.Connect(topo.HostAt(0, 0, 0), 40000, VIP(9), 443); err == nil {
		t.Fatal("unknown VIP accepted")
	}
}

func TestRegisterValidation(t *testing.T) {
	s, topo := newSLB(t)
	if err := s.RegisterVIP(topo.Hosts[0].IP, []topology.HostID{1}); err == nil {
		t.Fatal("VIP colliding with a host address accepted")
	}
	if err := s.RegisterVIP(VIP(1), nil); err == nil {
		t.Fatal("empty backend pool accepted")
	}
}

// The SLB keeps a connection's assignment for the connection's life and
// past its teardown, which the source vSwitch does not: the paper's reason
// to query the SLB (§4.2). The model has no teardown, so the lookup holds.
func TestQuerySLBSurvivesConnTeardown(t *testing.T) {
	s, topo := newSLB(t)
	vip := VIP(2)
	if err := s.RegisterVIP(vip, []topology.HostID{topo.HostAt(0, 7, 0)}); err != nil {
		t.Fatal(err)
	}
	src := topo.HostAt(0, 0, 1)
	dip, err := s.Connect(src, 41000, vip, 443)
	if err != nil {
		t.Fatal(err)
	}
	key := FlowKey{SrcIP: topo.Hosts[src].IP, SrcPort: 41000, VIP: vip, VIPPort: 443}
	if got, ok := s.QuerySLB(key); !ok || got != dip {
		t.Fatal("SLB lookup failed")
	}
}

func TestQueryFailureInjection(t *testing.T) {
	s, topo := newSLB(t)
	vip := VIP(3)
	if err := s.RegisterVIP(vip, []topology.HostID{topo.HostAt(0, 8, 0)}); err != nil {
		t.Fatal(err)
	}
	src := topo.HostAt(0, 1, 0)
	if _, err := s.Connect(src, 42000, vip, 443); err != nil {
		t.Fatal(err)
	}
	key := FlowKey{SrcIP: topo.Hosts[src].IP, SrcPort: 42000, VIP: vip, VIPPort: 443}
	s.QueryFailRate = 1.0
	if _, ok := s.QuerySLB(key); ok {
		t.Fatal("query succeeded despite 100% failure injection")
	}
	s.QueryFailRate = 0
	if _, ok := s.QuerySLB(key); !ok {
		t.Fatal("query failed with injection off")
	}
	if s.Queries != 2 {
		t.Fatalf("query counter = %d", s.Queries)
	}
}

func TestIsVIP(t *testing.T) {
	s, topo := newSLB(t)
	vip := VIP(4)
	if s.IsVIP(vip) {
		t.Fatal("unregistered VIP recognized")
	}
	if err := s.RegisterVIP(vip, []topology.HostID{0}); err != nil {
		t.Fatal(err)
	}
	if !s.IsVIP(vip) || s.IsVIP(topo.Hosts[0].IP) {
		t.Fatal("IsVIP wrong")
	}
}

func TestStickyAssignment(t *testing.T) {
	s, topo := newSLB(t)
	vip := VIP(5)
	backends := []topology.HostID{topo.HostAt(0, 5, 2), topo.HostAt(0, 6, 2)}
	if err := s.RegisterVIP(vip, backends); err != nil {
		t.Fatal(err)
	}
	src := topo.HostAt(0, 2, 0)
	a, _ := s.Connect(src, 43000, vip, 443)
	b, _ := s.Connect(src, 43000, vip, 443) // same five-tuple: same DIP
	if a != b {
		t.Fatal("assignment not deterministic per flow key")
	}
}
