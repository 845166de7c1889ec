package everflow

import (
	"testing"

	"vigil/internal/ecmp"
	"vigil/internal/fabric"
	"vigil/internal/topology"
	"vigil/internal/wire"
)

func tup(srcIP uint32) ecmp.FiveTuple {
	return ecmp.FiveTuple{SrcIP: srcIP, DstIP: 99, SrcPort: 1000, DstPort: 443, Proto: ecmp.ProtoTCP}
}

func ev(t ecmp.FiveTuple, seq uint32, egress topology.LinkID, dropped bool) fabric.TapEvent {
	return fabric.TapEvent{
		IP:      wire.IPv4{Src: t.SrcIP, Dst: t.DstIP, Protocol: t.Proto},
		SrcPort: t.SrcPort, DstPort: t.DstPort,
		Seq: seq, Egress: egress, Dropped: dropped,
	}
}

func testTopo(t *testing.T) *topology.Topology {
	topo, err := topology.New(topology.TestClusterConfig)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestPathReconstruction(t *testing.T) {
	topo := testTopo(t)
	c := New(topo, nil)
	tap := c.Tap()
	flow := tup(topo.Hosts[0].IP)
	// Packet 0 observed at three switches.
	tap(ev(flow, 0, 200, false))
	tap(ev(flow, 0, 201, false))
	tap(ev(flow, 0, 202, false))
	path, ok := c.PathOf(flow)
	if !ok {
		t.Fatal("path not found")
	}
	want := []topology.LinkID{topo.Hosts[0].Uplink, 200, 201, 202}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

// A retransmitted packet re-walks the same path; the chain must not
// duplicate, and a dropped first attempt must be completed by the retry.
func TestPathSurvivesRetransmission(t *testing.T) {
	topo := testTopo(t)
	c := New(topo, nil)
	tap := c.Tap()
	flow := tup(topo.Hosts[0].IP)
	// First attempt dies after one hop.
	tap(ev(flow, 0, 300, false))
	tap(ev(flow, 0, 301, true))
	// Retransmission completes.
	tap(ev(flow, 0, 300, false))
	tap(ev(flow, 0, 301, false))
	tap(ev(flow, 0, 302, false))
	path, ok := c.PathOf(flow)
	if !ok || len(path) != 4 {
		t.Fatalf("path = %v (ok=%v), want 4 links", path, ok)
	}
}

func TestDropSiteAndCulprit(t *testing.T) {
	topo := testTopo(t)
	c := New(topo, nil)
	tap := c.Tap()
	flow := tup(topo.Hosts[1].IP)
	tap(ev(flow, 5, 400, true))
	tap(ev(flow, 6, 400, true))
	tap(ev(flow, 7, 410, true))
	if l, ok := c.dropped[PacketKey{Tuple: flow, Seq: 5}]; !ok || l != 400 {
		t.Fatalf("drop site of seq 5 = %v/%v", l, ok)
	}
	if _, ok := c.dropped[PacketKey{Tuple: flow, Seq: 99}]; ok {
		t.Fatal("phantom drop found")
	}
	culprit, ok := c.Culprit(flow)
	if !ok || culprit != 400 {
		t.Fatalf("Culprit = %v/%v, want 400", culprit, ok)
	}
	drops := c.DropsByLink(flow)
	if drops[400] != 2 || drops[410] != 1 {
		t.Fatalf("DropsByLink = %v", drops)
	}
}

func TestSourceHostFilter(t *testing.T) {
	topo := testTopo(t)
	filter := SourceHostFilter(topo, []topology.HostID{2})
	c := New(topo, filter)
	tap := c.Tap()
	tap(ev(tup(topo.Hosts[2].IP), 0, 100, false)) // mirrored
	tap(ev(tup(topo.Hosts[3].IP), 0, 100, false)) // filtered out
	if c.Observations != 1 {
		t.Fatalf("observations = %d, want 1", c.Observations)
	}
	if _, ok := c.PathOf(tup(topo.Hosts[3].IP)); ok {
		t.Fatal("unmirrored flow has a path")
	}
}

func TestProbesNotMirrored(t *testing.T) {
	topo := testTopo(t)
	c := New(topo, nil)
	tap := c.Tap()
	e := ev(tup(topo.Hosts[0].IP), 0, 100, false)
	e.IP.ID = 3 // 007 probe: TTL echoed in IP ID
	tap(e)
	if c.Observations != 0 {
		t.Fatal("probe was mirrored")
	}
}
