package cluster

import (
	"slices"
	"testing"

	"vigil/internal/des"
	"vigil/internal/ecmp"
	"vigil/internal/slb"
	"vigil/internal/topology"
	"vigil/internal/vote"
)

// stepChecked is Step with checkHeldTuplesDistinct run at the epoch's last
// instant, before the agents roll.
func stepChecked(t testing.TB, cl *Cluster, emit func(vote.Report)) EpochFrame {
	cl.Sched.Post(cl.epochStart+epochLength+2*des.Second, heldCheck{t, cl}, 0, 0, nil)
	return cl.Step(emit)
}

// heldCheck runs checkHeldTuplesDistinct as a DES event.
type heldCheck struct {
	t  testing.TB
	cl *Cluster
}

func (k heldCheck) HandleEvent(int32, int64, any) { checkHeldTuplesDistinct(k.t, k.cl) }

// checkHeldTuplesDistinct fails t unless every open life's tuples are
// held by its host and no two lives of one host held in the agent's epoch
// share an app tuple or a wire tuple: the agent tells connections apart by
// their tuples. A host holds each life's app and wire tuple as a pair.
func checkHeldTuplesDistinct(t testing.TB, cl *Cluster) {
	t.Helper()
	for _, c := range cl.connTab {
		if c.host == nil || c.Done || c.Failed {
			continue
		}
		if !slices.Contains(lives(c.host), [2]ecmp.FiveTuple{c.appTuple, c.WireTuple}) {
			t.Fatalf("open life %#x on %v is not held by its host", c.tag, c.appTuple)
		}
	}
	for _, h := range cl.Hosts {
		held := lives(h)
		for i, a := range held {
			for _, b := range held[i+1:] {
				if a[0] == b[0] || a[1] == b[1] {
					t.Fatalf("host %d holds two lives on %v (wire %v) and %v (wire %v) in one epoch", h.id, a[0], a[1], b[0], b[1])
				}
			}
		}
	}
}

// lives pairs a host's held tuples up, one app and wire pair per life.
func lives(h *Host) [][2]ecmp.FiveTuple {
	var held [][2]ecmp.FiveTuple
	for i := 0; i < len(h.held); i += 2 {
		held = append(held, [2]ecmp.FiveTuple{h.held[i], h.held[i+1]})
	}
	return held
}

// Two flows of one host draw one tuple, the second opening while the first
// still sends, and both lose data: to the agent they are two connections,
// so each triggers its own path discovery and its own report.
func TestOverlappingLivesTracedApart(t *testing.T) {
	cl := testCluster(t, 1)
	src, dst := cl.Topo.HostAt(0, 0, 0), cl.Topo.HostAt(0, 5, 1)
	if err := cl.InjectFailure(cl.Topo.Hosts[dst].Downlink, 0.1); err != nil {
		t.Fatal(err)
	}
	f := pairFlow(cl.Topo, src, dst, 60)
	cl.StartFlow(f, 0)
	cl.StartFlow(f, 30*des.Microsecond)
	first, second := cl.Flows()[0], cl.Flows()[1]
	fr := stepChecked(t, cl, nil)
	if first.Retransmits == 0 || second.Retransmits == 0 {
		t.Fatalf("retransmissions %d and %d: the fixture exercises nothing", first.Retransmits, second.Retransmits)
	}
	if first.appTuple == second.appTuple {
		t.Fatalf("both lives opened on %v", first.appTuple)
	}
	reports := map[int64]int{}
	for _, r := range fr.Reports {
		reports[r.FlowID]++
	}
	if reports[first.ID] != 1 || reports[second.ID] != 1 || cl.Hosts[src].Agent.Traces != 2 {
		t.Fatalf("%d and %d reports from %d traces, want one each from two", reports[first.ID], reports[second.ID], cl.Hosts[src].Agent.Traces)
	}
}

// VIP flows that draw a live flow's tuple move port when they open: the
// first clashes with a direct flow on its wire tuple alone, the second
// draws the first one's port as well. Each VIP flow's DIP and the SLB's
// table follow its final port, so path discovery resolves it through
// QuerySLB and traces it to its own DIP.
func TestVIPFlowMovedOffClashTraced(t *testing.T) {
	cl := testCluster(t, 7)
	topo := cl.Topo
	vip := slb.VIP(1)
	backends := []topology.HostID{topo.HostAt(0, 5, 0), topo.HostAt(0, 6, 1)}
	if err := cl.SLB.RegisterVIP(vip, backends); err != nil {
		t.Fatal(err)
	}
	for _, b := range backends {
		if err := cl.InjectFailure(topo.Hosts[b].Downlink, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	src := topo.HostAt(0, 0, 0)
	draw := *cl.rng
	port := uint16(draw.IntRange(32768, 65535)) // the VIP flows' draw
	draw = *cl.rng
	dip, _ := cl.SLB.Pick(src, port, vip, 443)
	direct := pairFlow(topo, src, dip, 60)
	direct.Tuple.SrcPort = port
	cl.StartFlow(direct, 0)
	for i := range 2 {
		*cl.rng = draw
		if err := cl.StartVIPFlow(src, vip, 443, 60, des.Time(i+1)*30*des.Microsecond); err != nil {
			t.Fatal(err)
		}
	}
	fr := stepChecked(t, cl, nil)
	for i, c := range cl.Flows() {
		if c.Retransmits == 0 {
			t.Fatalf("flow %d did not retransmit: the fixture exercises nothing", i)
		}
		j := slices.IndexFunc(fr.Reports, func(r vote.Report) bool { return r.FlowID == c.ID })
		if j < 0 || fr.Reports[j].Partial || fr.Reports[j].Dst != c.peer {
			t.Fatalf("flow %d (peer %d) has no complete report to its peer: %+v", i, c.peer, fr.Reports)
		}
		if i == 0 {
			continue
		}
		if c.appTuple.SrcPort == port {
			t.Fatalf("VIP flow %d opened on the direct flow's port %d", i, port)
		}
		dip, ok := cl.SLB.QuerySLB(slb.FlowKey{SrcIP: c.appTuple.SrcIP, SrcPort: c.appTuple.SrcPort, VIP: vip, VIPPort: 443})
		if !ok || dip != c.peer || c.WireTuple.DstIP != topo.Hosts[dip].IP || c.WireTuple.SrcPort != c.appTuple.SrcPort {
			t.Fatalf("VIP flow %d on %v, wire %v, peer %d: the SLB assigns %d (%v)", i, c.appTuple, c.WireTuple, c.peer, dip, ok)
		}
	}
	if p1, p2 := cl.Flows()[1].appTuple.SrcPort, cl.Flows()[2].appTuple.SrcPort; p1 == p2 {
		t.Fatalf("both VIP flows opened on port %d", p1)
	}
	if n := cl.Hosts[src].Agent.SLBFailures; n != 0 {
		t.Fatalf("%d SLB lookups failed", n)
	}
}

// A life still open at the epoch roll holds its tuple into the next
// epoch: a flow that draws the tuple right after the roll moves port.
func TestOpenLifeHeldAcrossRoll(t *testing.T) {
	cl := testCluster(t, 1)
	f := pairFlow(cl.Topo, cl.Topo.HostAt(0, 0, 0), cl.Topo.HostAt(0, 5, 1), 2000)
	cl.StartFlow(f, epochLength+2*des.Second-des.Millisecond)
	first := cl.Flows()[0]
	stepChecked(t, cl, nil)
	if first.host == nil || first.Done {
		t.Fatalf("the first flow is not open at the roll (opened %v, Done %v)", first.host != nil, first.Done)
	}
	cl.StartFlow(f, cl.epochStart)
	second := cl.Flows()[0]
	stepChecked(t, cl, nil)
	if !first.Done || !second.Done {
		t.Fatalf("Done %v and %v, want both", first.Done, second.Done)
	}
	if second.appTuple.SrcPort == f.Tuple.SrcPort {
		t.Fatalf("the second flow opened on port %d, which the first still held", f.Tuple.SrcPort)
	}
}

// A VIP's pool can change while a connection to it lives. A flow that
// draws the live one's app tuple after the change moves port although the
// SLB sends it to another DIP: the agent knows both by the app tuple.
func TestAppTupleClashMovesPort(t *testing.T) {
	cl := testCluster(t, 7)
	topo := cl.Topo
	vip := slb.VIP(1)
	before, after := topo.HostAt(0, 5, 0), topo.HostAt(0, 6, 1)
	if err := cl.SLB.RegisterVIP(vip, []topology.HostID{before}); err != nil {
		t.Fatal(err)
	}
	src := topo.HostAt(0, 0, 0)
	draw := *cl.rng
	if err := cl.StartVIPFlow(src, vip, 443, 2000, 0); err != nil {
		t.Fatal(err)
	}
	cl.Sched.At(50*des.Microsecond, func() {
		if err := cl.SLB.RegisterVIP(vip, []topology.HostID{after}); err != nil {
			t.Fatal(err)
		}
	})
	*cl.rng = draw // the second flow draws the first one's port
	if err := cl.StartVIPFlow(src, vip, 443, 60, 100*des.Microsecond); err != nil {
		t.Fatal(err)
	}
	first, second := cl.Flows()[0], cl.Flows()[1]
	stepChecked(t, cl, nil)
	if first.peer != before || second.peer != after || !first.Done || !second.Done {
		t.Fatalf("peers %d and %d, Done %v and %v: want %d and %d, both Done", first.peer, second.peer, first.Done, second.Done, before, after)
	}
	if first.appTuple.SrcPort == second.appTuple.SrcPort {
		t.Fatalf("both flows opened on %v", first.appTuple)
	}
}
