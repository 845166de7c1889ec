package cluster

import (
	"runtime"
	"slices"
	"testing"

	"vigil/internal/des"
	"vigil/internal/ecmp"
	"vigil/internal/stats"
	"vigil/internal/topology"
	"vigil/internal/traffic"
	"vigil/internal/vote"
	"vigil/internal/wire"
)

// pairFlow is a flow of packets from src to dst on a fixed wire tuple.
func pairFlow(topo *topology.Topology, src, dst topology.HostID, packets int) traffic.Flow {
	return traffic.Flow{
		Src: src, Dst: dst, Packets: packets,
		Tuple: ecmp.FiveTuple{SrcIP: topo.Hosts[src].IP, DstIP: topo.Hosts[dst].IP, SrcPort: 40001, DstPort: 443, Proto: ecmp.ProtoTCP},
	}
}

// Two flows of one host draw one wire tuple. The second, opened in the
// same epoch after the first finished, moves to another port: the agent's
// epoch still holds the first one's tuple. In the next epoch a third flow
// on that tuple keeps it, on a reused Conn, and starts fresh: it sends and
// has acknowledged all of its own packets, rather than inheriting an
// earlier life's next expected seq and closing on an ACK for data it never
// sent.
func TestReusedTupleStartsFresh(t *testing.T) {
	cl := testCluster(t, 1)
	f := pairFlow(cl.Topo, cl.Topo.HostAt(0, 0, 0), cl.Topo.HostAt(0, 5, 1), 50)
	done := func(name string, c *Conn) {
		t.Helper()
		if !c.Done || c.nextSend != 50 || c.acked != 50 {
			t.Fatalf("%s flow: Done %v after sending %d and having %d acknowledged, want Done at 50 and 50", name, c.Done, c.nextSend, c.acked)
		}
	}
	cl.StartFlow(f, 0)
	cl.StartFlow(f, des.Second)
	first, second := cl.Flows()[0], cl.Flows()[1]
	stepChecked(t, cl, nil)
	done("first", first)
	done("second", second)
	if first.appTuple.SrcPort != f.Tuple.SrcPort || second.appTuple.SrcPort == f.Tuple.SrcPort {
		t.Fatalf("drawn port %d: the flows opened on %d and %d, want the first on it and the second moved off", f.Tuple.SrcPort, first.appTuple.SrcPort, second.appTuple.SrcPort)
	}
	cl.StartFlow(f, cl.epochStart)
	third := cl.Flows()[0]
	if third != first && third != second {
		t.Fatal("the next epoch's flow did not reuse a Conn")
	}
	stepChecked(t, cl, nil)
	done("third", third)
	if third.appTuple.SrcPort != f.Tuple.SrcPort {
		t.Fatalf("the next epoch's flow moved to port %d off a tuple no open life holds", third.appTuple.SrcPort)
	}
}

// The straggler fixture: an RTO below the round trip retransmits segments
// still in flight, the lossy link fails connections by RTO, and the slow
// one holds segments for seconds. Flows start in waves through each
// epoch, not only between epochs, so a Conn that closes inside an epoch is
// taken from the pool by a later wave while segments of its earlier life
// are still arriving; two flows draw one wire tuple, and the second,
// opened while the first still sends, moves to another port. Every
// segment of a life that is over is dropped without an answer, and no ACK
// acknowledges more than its connection has sent.
func TestStragglersOfFinishedLivesDropped(t *testing.T) {
	topo, err := topology.New(quadPodQuickTopo)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(Config{Topo: topo, Seed: 19, RTO: 40 * des.Microsecond, MaxRetries: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.InjectFailure(topo.LinksOfClass(topology.L1Down)[1], 0.4); err != nil {
		t.Fatal(err)
	}
	if err := cl.Net.SetExtraDelay(topo.LinksOfClass(topology.L2Down)[0], 3*des.Second); err != nil {
		t.Fatal(err)
	}
	var overData, overAcks, acks int
	for _, h := range cl.Hosts {
		uplink := topo.Hosts[h.id].Uplink
		cl.Net.OnHostPacket(h.id, func(data []byte, tag uint64) {
			var ip wire.IPv4
			payload, err := wire.DecodeIPv4(data, &ip)
			if err != nil || ip.Protocol != wire.ProtoTCP || tag == 0 {
				h.receive(data, tag) // ICMP and probes carry no tag
				return
			}
			var tcp wire.TCP
			if _, err := wire.DecodeTCP(payload, &tcp); err != nil {
				t.Fatal(err)
			}
			c := cl.conn(tag)
			switch {
			case c == nil && tcp.Flags&wire.FlagPSH != 0:
				overData++
				sent := cl.Net.LinkForwarded[uplink] + cl.Net.LinkDropped[uplink]
				h.receive(data, tag)
				if cl.Net.LinkForwarded[uplink]+cl.Net.LinkDropped[uplink] != sent {
					t.Fatalf("host %d answered seq %d of a finished life (tag %#x)", h.id, tcp.Seq, tag)
				}
				return
			case c == nil:
				overAcks++
			case tcp.Flags&wire.FlagPSH == 0:
				acks++
				if tcp.Ack > c.nextSend {
					t.Fatalf("ACK %d on a connection that has sent %d of %d packets", tcp.Ack, c.nextSend, c.total)
				}
			}
			h.receive(data, tag)
		})
	}
	reports := 0
	emit := func(vote.Report) { reports++ }
	pair := pairFlow(topo, topo.HostAt(0, 0, 0), topo.HostAt(2, 1, 1), 60)
	cl.StartFlow(pair, 0)
	cl.StartFlow(pair, 30*des.Microsecond)
	first, second := cl.Flows()[0], cl.Flows()[1]
	w := traffic.Workload{
		Pattern:        traffic.Uniform{},
		ConnsPerHost:   traffic.IntRange{Lo: 6, Hi: 6},
		PacketsPerFlow: traffic.IntRange{Lo: 40, Hi: 80},
	}
	const waves = 5
	rng := stats.NewRNG(19)
	var gen []traffic.Flow
	for e := range 4 {
		for k := range waves {
			cl.Sched.At(cl.epochStart+des.Time(k)*epochLength/waves, func() {
				gen = w.GenerateInto(gen[:0], rng, topo)
				now := cl.Sched.Now()
				for _, f := range gen {
					cl.StartFlow(f, now+des.Time(rng.Intn(int(des.Second))))
				}
			})
		}
		stepChecked(t, cl, emit)
		if e == 0 && second.appTuple.SrcPort == first.appTuple.SrcPort {
			t.Fatalf("the second flow opened on the live first one's port %d", first.appTuple.SrcPort)
		}
	}
	// Every Conn is in the pool, among the flows, or a recycled life still
	// open, which returns itself to the pool when it closes.
	for _, c := range cl.connTab {
		places := 0
		for _, in := range []bool{slices.Contains(cl.connPool, c), slices.Contains(cl.flows, c), c.ID < 0 && !c.Done && !c.Failed} {
			if in {
				places++
			}
		}
		if places != 1 {
			t.Fatalf("Conn %#x (flow %d, Done %v, Failed %v) is in %d places, want 1", c.tag, c.ID, c.Done, c.Failed, places)
		}
	}
	t.Logf("%d reports, %d ACKs checked; segments of finished lives: %d data, %d ACKs", reports, acks, overData, overAcks)
	// Seed 19 reaches 49 data segments of finished lives; seeds 1–6 reach
	// 32–60.
	if reports == 0 || acks == 0 || overData < 20 {
		t.Fatalf("%d reports, %d ACKs, %d data segments of finished lives (want 20 or more): the fixture exercises too little", reports, acks, overData)
	}
}

// Receiver state lives on the connection, so it is recycled with it: over
// 200 light epochs, each opening 160 connections on fresh tuples, the live
// heap stays where it was after the first 20.
func TestReceiverStateBounded(t *testing.T) {
	cl := testCluster(t, 3)
	w := traffic.Workload{
		Pattern:        traffic.Uniform{},
		ConnsPerHost:   traffic.IntRange{Lo: 4, Hi: 4},
		PacketsPerFlow: traffic.IntRange{Lo: 2, Hi: 2},
	}
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	var base int64
	for e := range 220 {
		cl.StartWorkload(w, des.Millisecond)
		cl.Step(nil)
		if e == 19 {
			base = liveHeap()
		}
	}
	grew := liveHeap() - base
	t.Logf("live heap grew %d B over 200 epochs; %d Conns in the table", grew, len(cl.connTab))
	if grew > 128<<10 {
		t.Fatalf("live heap grew %d B over 200 epochs of 160 connections each", grew)
	}
}
