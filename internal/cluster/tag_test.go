package cluster

import (
	"fmt"
	"strings"
	"testing"

	"vigil/internal/analysis"
	"vigil/internal/des"
	"vigil/internal/ecmp"
	"vigil/internal/topology"
	"vigil/internal/traffic"
	"vigil/internal/vote"
	"vigil/internal/wire"
)

// tagMisses counts the segments whose tag did not lead to their state, by
// the receive path's own conditions: a data segment whose tagged Conn is
// not this tuple's on this host (a straggler from a recycled Conn's earlier
// life), an ACK whose tagged Conn is not the tuple's current entry (closed
// or displaced). The tag path falls back to the maps for exactly these.
type tagMisses struct{ data, ack int }

func (m *tagMisses) count(h *Host, data []byte, tag uint64) {
	var ip wire.IPv4
	payload, err := wire.DecodeIPv4(data, &ip)
	if err != nil || ip.Protocol != wire.ProtoTCP || tag == 0 {
		return
	}
	var tcp wire.TCP
	if _, err := wire.DecodeTCP(payload, &tcp); err != nil {
		return
	}
	tuple := ecmp.FiveTuple{SrcIP: ip.Src, DstIP: ip.Dst, SrcPort: tcp.SrcPort, DstPort: tcp.DstPort, Proto: ecmp.ProtoTCP}
	c := h.cl.connTab[tag-1]
	switch {
	case tcp.Flags&wire.FlagPSH != 0:
		if c.peer != h || c.wireTuple != tuple {
			m.data++
		}
	case !c.indexed || c.host != h || c.wireTuple != tuple.Reverse():
		m.ack++
	}
}

// runTagCase runs a seeded multi-epoch emulation and logs everything it
// produced: every report in emission order, each epoch's frame and
// detections, the per-link counters and the scheduler's event count. With
// mapOnly every host is handed tag 0, so every segment goes through the
// tuple maps.
func runTagCase(t *testing.T, mapOnly bool) (string, tagMisses) {
	t.Helper()
	topo, err := topology.New(quadPodQuickTopo)
	if err != nil {
		t.Fatal(err)
	}
	// An RTO below the round trip retransmits segments still in flight, the
	// lossy link fails connections by RTO, and the slow one holds segments
	// for longer than an epoch's grace period: Conns close and are recycled,
	// across epoch boundaries and within an epoch, with their segments still
	// arriving.
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
	var misses tagMisses
	for _, h := range cl.Hosts {
		cl.Net.OnHostPacket(h.id, func(data []byte, tag uint64) {
			if mapOnly {
				tag = 0
			}
			misses.count(h, data, tag)
			h.receive(data, tag)
		})
	}
	var log strings.Builder
	emit := func(r vote.Report) { fmt.Fprintf(&log, "r %+v\n", r) }
	// Two flows on one wire tuple, the second opened while the first still
	// sends: it displaces the first from conns.
	src, dst := topo.HostAt(0, 0, 0), topo.HostAt(2, 1, 1)
	pair := traffic.Flow{
		Src: src, Dst: dst, Packets: 60,
		Tuple: ecmp.FiveTuple{SrcIP: topo.Hosts[src].IP, DstIP: topo.Hosts[dst].IP, SrcPort: 40001, DstPort: 443, Proto: ecmp.ProtoTCP},
	}
	cl.StartFlow(pair, 0)
	cl.StartFlow(pair, 30*des.Microsecond)
	w := traffic.Workload{
		Pattern:        traffic.Uniform{},
		ConnsPerHost:   traffic.IntRange{Lo: 6, Hi: 6},
		PacketsPerFlow: traffic.IntRange{Lo: 40, Hi: 80},
	}
	for e := 0; e < 4; e++ {
		cl.StartWorkload(w, 3*des.Second)
		fr := cl.Step(emit)
		res := analysis.Analyze(fr.Reports, paperAnalysis)
		fr.Reports = nil // logged above, in emission order
		fmt.Fprintf(&log, "epoch %+v detected=%v fwd=%x drp=%x events=%d\n", fr, res.Detected,
			hashInt64s(cl.Net.LinkForwarded), hashInt64s(cl.Net.LinkDropped), cl.Sched.Executed())
	}
	return log.String(), misses
}

// The tag path is the map path without the hashing: the same seed run with
// every host handed tag 0 produces the same reports, frames, link counters
// and scheduler events — with stragglers reaching recycled Conns and two
// flows sharing one tuple.
func TestHostTagFallbackMatchesMapPath(t *testing.T) {
	tagged, misses := runTagCase(t, false)
	mapped, _ := runTagCase(t, true)
	if tagged != mapped {
		t.Fatalf("tagged run diverged from the map path:\n%s", firstDiff("map", mapped, "tag", tagged))
	}
	reports := strings.Count(tagged, "r {")
	t.Logf("%d reports; tag misses: %d data segments, %d ACKs", reports, misses.data, misses.ack)
	if reports == 0 || misses.data == 0 || misses.ack == 0 {
		t.Fatalf("%d reports, %d data and %d ACK tag misses: the case does not exercise the fallback", reports, misses.data, misses.ack)
	}
}
