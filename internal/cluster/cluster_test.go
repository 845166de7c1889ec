package cluster

import (
	"slices"
	"testing"

	"vigil/internal/des"
	"vigil/internal/ecmp"
	"vigil/internal/everflow"
	"vigil/internal/metrics"
	"vigil/internal/schedule"
	"vigil/internal/slb"
	"vigil/internal/stats"
	"vigil/internal/topology"
	"vigil/internal/traffic"
	"vigil/internal/vote"
)

func testCluster(t testing.TB, seed uint64) *Cluster {
	t.Helper()
	topo, err := topology.New(topology.TestClusterConfig)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(Config{Topo: topo, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestLosslessTransferCompletes(t *testing.T) {
	cl := testCluster(t, 1)
	f := traffic.Flow{
		Src: cl.Topo.HostAt(0, 0, 0), Dst: cl.Topo.HostAt(0, 5, 1),
		Tuple: ecmp.FiveTuple{
			SrcIP:   cl.Topo.Hosts[cl.Topo.HostAt(0, 0, 0)].IP,
			DstIP:   cl.Topo.Hosts[cl.Topo.HostAt(0, 5, 1)].IP,
			SrcPort: 40000, DstPort: 443, Proto: ecmp.ProtoTCP,
		},
		Packets: 200,
	}
	cl.StartFlow(f, 0)
	res := cl.RunEpoch()
	conn := cl.Flows()[0].Conn()
	if conn == nil || !conn.Done || conn.Failed {
		t.Fatalf("transfer did not complete: %+v", conn)
	}
	if conn.Retransmits != 0 {
		t.Fatalf("%d retransmits on a clean fabric", conn.Retransmits)
	}
	if len(res.Ranking) != 0 {
		t.Fatalf("votes cast on a clean fabric: %+v", res.Ranking)
	}
}

// A lossy link must cause genuine retransmissions, traceroutes that follow
// the data path exactly, and a tally in which the bad link leads.
func TestLossyLinkLocalizedEndToEnd(t *testing.T) {
	cl := testCluster(t, 2)
	topo := cl.Topo
	// The §7.3 scenario: induce drops on a T1→ToR link.
	bad := topo.LinksOfClass(topology.L1Down)[7]
	cl.InjectFailure(bad, 0.03)

	rng := stats.NewRNG(3)
	w := traffic.Workload{
		Pattern:        traffic.Uniform{},
		ConnsPerHost:   traffic.IntRange{Lo: 6, Hi: 6},
		PacketsPerFlow: traffic.IntRange{Lo: 60, Hi: 60},
	}
	for _, f := range w.GenerateInto(nil, rng, topo) {
		cl.StartFlow(f, des.Time(rng.Intn(int(10*des.Second))))
	}
	res := cl.RunEpoch()
	if len(res.Verdicts) == 0 {
		t.Fatal("no reports reached the analysis agent")
	}
	if len(res.Ranking) == 0 || res.Ranking[0].Link != bad {
		t.Fatalf("top-ranked = %v (%s), want %s",
			res.Ranking[0].Link, topo.LinkName(res.Ranking[0].Link), topo.LinkName(bad))
	}
	found := false
	for _, l := range res.Detected {
		if l == bad {
			found = true
		}
	}
	if !found {
		t.Fatalf("Algorithm 1 missed the bad link: %v", res.Detected)
	}
	// Per-flow verdicts score well against tap-harvested ground truth.
	score := metrics.ScoreVerdicts(res.Verdicts, cl.LastEpoch().Truth)
	if score.Considered == 0 {
		t.Fatal("no scored flows")
	}
	if acc := score.Accuracy(); acc < 0.8 {
		t.Fatalf("per-flow accuracy = %v", acc)
	}
}

// The traceroute's discovered path must equal the path the data packets
// actually took — EverFlow cross-validation, §8.2 ("each path recorded by
// 007 matches exactly the path taken by that flow's packets").
func TestTraceroutePathMatchesEverFlow(t *testing.T) {
	cl := testCluster(t, 4)
	topo := cl.Topo
	ef := everflow.New(topo, nil)
	cl.Net.AddTap(ef.Tap())
	bad := topo.LinksOfClass(topology.L1Up)[3]
	cl.InjectFailure(bad, 0.05)

	rng := stats.NewRNG(5)
	w := traffic.Workload{
		Pattern:        traffic.Uniform{},
		ConnsPerHost:   traffic.IntRange{Lo: 4, Hi: 4},
		PacketsPerFlow: traffic.IntRange{Lo: 50, Hi: 50},
	}
	for _, f := range w.GenerateInto(nil, rng, topo) {
		cl.StartFlow(f, des.Time(rng.Intn(int(5*des.Second))))
	}
	reports := cl.Step(nil).Reports
	if len(reports) == 0 {
		t.Fatal("no traceroute reports")
	}
	checked := 0
	for _, r := range reports {
		if r.Partial {
			continue
		}
		var rec *flowRecord
		for _, fr := range cl.Flows() {
			if fr.id == r.FlowID {
				rec = fr
				break
			}
		}
		if rec == nil {
			t.Fatalf("report for unknown flow %d", r.FlowID)
		}
		want, ok := ef.PathOf(rec.wireTuple)
		if !ok {
			continue // flow's packets all died before the first mirror
		}
		if len(want) != len(r.Path) {
			t.Fatalf("flow %d: 007 found %d links, EverFlow %d", r.FlowID, len(r.Path), len(want))
		}
		for i := range want {
			if want[i] != r.Path[i] {
				t.Fatalf("flow %d: path mismatch at hop %d: 007=%s everflow=%s",
					r.FlowID, i, topo.LinkName(r.Path[i]), topo.LinkName(want[i]))
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no complete traceroutes to validate")
	}
}

// A near-dead link kills the traceroute too; the agent must produce a
// partial report whose prefix still points at the failure (§4.2:
// "traceroute itself may fail... this actually helps us").
func TestPartialTraceroute(t *testing.T) {
	cl := testCluster(t, 6)
	topo := cl.Topo
	src := topo.HostAt(0, 0, 0)
	dst := topo.HostAt(0, 9, 3)
	// Kill every uplink of the source ToR beyond the first hop.
	tor := topo.Hosts[src].ToR
	for _, up := range topo.Switches[tor].Uplinks {
		cl.InjectFailure(up, 1.0)
	}
	cl.StartFlow(traffic.Flow{
		Src: src, Dst: dst,
		Tuple: ecmp.FiveTuple{
			SrcIP: topo.Hosts[src].IP, DstIP: topo.Hosts[dst].IP,
			SrcPort: 41000, DstPort: 443, Proto: ecmp.ProtoTCP,
		},
		Packets: 20,
	}, 0)
	reports := cl.Step(nil).Reports
	if len(reports) == 0 {
		t.Fatal("no report for a blackholed flow")
	}
	r := reports[0]
	if !r.Partial {
		t.Fatal("blackholed traceroute not marked partial")
	}
	// The prefix must reach exactly the ToR (host uplink only).
	if len(r.Path) != 1 || r.Path[0] != topo.Hosts[src].Uplink {
		t.Fatalf("partial path = %v", r.Path)
	}
}

// VIP flows: ETW sees the VIP, the wire carries the DIP, and path
// discovery must translate through the SLB before probing.
func TestVIPFlowTracedViaSLB(t *testing.T) {
	cl := testCluster(t, 7)
	topo := cl.Topo
	vip := slb.VIP(1)
	backends := []topology.HostID{topo.HostAt(0, 5, 0), topo.HostAt(0, 6, 1)}
	if err := cl.SLB.RegisterVIP(vip, backends); err != nil {
		t.Fatal(err)
	}
	// Fail a T1→ToR link into a backend rack so VIP data paths cross it.
	bad, ok := topo.LinkBetween(
		topology.SwitchNode(topo.T1(0, 2)), topology.SwitchNode(topo.ToR(0, 5)))
	if !ok {
		t.Fatal("no T1→ToR link")
	}
	cl.InjectFailure(bad, 0.08)

	rng := stats.NewRNG(8)
	for i := 0; i < 120; i++ {
		src := topology.HostID(rng.Intn(len(topo.Hosts)))
		if err := cl.StartVIPFlow(src, vip, 443, 60, des.Time(rng.Intn(int(5*des.Second)))); err != nil {
			t.Fatal(err)
		}
	}
	reports := cl.Step(nil).Reports
	if len(reports) == 0 {
		t.Fatal("no reports for VIP traffic")
	}
	// Every complete report must end at a backend, not at the VIP.
	for _, r := range reports {
		if r.Partial {
			continue
		}
		if r.Dst != backends[0] && r.Dst != backends[1] {
			t.Fatalf("trace ended at host %d, not a backend", r.Dst)
		}
	}
	if cl.SLB.Queries == 0 {
		t.Fatal("path discovery never queried the SLB")
	}
}

// When the SLB query fails, no traceroute may be sent (§4.2).
func TestSLBFailureSuppressesTraceroute(t *testing.T) {
	cl := testCluster(t, 9)
	topo := cl.Topo
	vip := slb.VIP(1)
	if err := cl.SLB.RegisterVIP(vip, []topology.HostID{topo.HostAt(0, 5, 0)}); err != nil {
		t.Fatal(err)
	}
	cl.SLB.QueryFailRate = 1.0
	cl.InjectFailure(topo.LinksOfClass(topology.L1Up)[0], 0.3)
	rng := stats.NewRNG(10)
	for i := 0; i < 60; i++ {
		src := topology.HostID(rng.Intn(len(topo.Hosts)))
		if err := cl.StartVIPFlow(src, vip, 443, 40, des.Time(rng.Intn(int(3*des.Second)))); err != nil {
			t.Fatal(err)
		}
	}
	if reports := cl.Step(nil).Reports; len(reports) != 0 {
		t.Fatalf("%d traceroutes sent despite SLB failures", len(reports))
	}
	var skipped int64
	for _, h := range cl.Hosts {
		skipped += h.Agent.SLBFailures
	}
	if skipped == 0 {
		t.Fatal("no SLB failures recorded")
	}
}

// The host Ct budget must bound traceroutes per host per second
// (Theorem 1's host-side enforcement).
func TestHostTracerouteBudget(t *testing.T) {
	topo, err := topology.New(topology.TestClusterConfig)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(Config{Topo: topo, Seed: 11, Ct: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Every link lossy: every flow retransmits.
	for id := range topo.Links {
		cl.InjectFailure(topology.LinkID(id), 0.3)
	}
	rng := stats.NewRNG(12)
	src := topo.HostAt(0, 0, 0)
	for i := 0; i < 40; i++ {
		dst := traffic.Uniform{}.Pick(rng, topo, src)
		cl.StartFlow(traffic.Flow{
			Src: src, Dst: dst,
			Tuple: ecmp.FiveTuple{
				SrcIP: topo.Hosts[src].IP, DstIP: topo.Hosts[dst].IP,
				SrcPort: uint16(42000 + i), DstPort: 443, Proto: ecmp.ProtoTCP,
			},
			Packets: 30,
		}, des.Time(i)*100*des.Millisecond) // 40 flows over 4 seconds
	}
	cl.RunEpoch()
	h := cl.Hosts[src]
	if h.Agent.RateLimited == 0 {
		t.Fatal("budget never engaged")
	}
	// 2/s over ~32 seconds of epoch: traces well below flow count.
	if h.Agent.Traces > 2*34 {
		t.Fatalf("traces = %d exceed the Ct budget envelope", h.Agent.Traces)
	}
}

// Connections that exhaust their retries fail — the paper's VM-reboot
// signal — and 007 must explain them.
func TestConnFailuresDiagnosed(t *testing.T) {
	cl := testCluster(t, 15)
	topo := cl.Topo
	bad := topo.Hosts[topo.HostAt(0, 3, 0)].Downlink // ToR→host, §8.3's top cause
	cl.InjectFailure(bad, 0.9)
	rng := stats.NewRNG(16)
	for i := 0; i < 10; i++ {
		src := topology.HostID(rng.Intn(len(topo.Hosts)))
		if topo.Hosts[src].ToR == topo.Hosts[topo.HostAt(0, 3, 0)].ToR {
			continue
		}
		cl.StartFlow(traffic.Flow{
			Src: src, Dst: topo.HostAt(0, 3, 0),
			Tuple: ecmp.FiveTuple{
				SrcIP: topo.Hosts[src].IP, DstIP: topo.Hosts[topo.HostAt(0, 3, 0)].IP,
				SrcPort: uint16(43000 + i), DstPort: 443, Proto: ecmp.ProtoTCP,
			},
			Packets: 50,
		}, des.Time(i)*des.Second)
	}
	res := cl.RunEpoch()
	failed := 0
	for _, rec := range cl.flows {
		if rec.conn != nil && rec.conn.Failed {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no connection failed through a 90% loss link")
	}
	if len(res.Ranking) == 0 || res.Ranking[0].Link != bad {
		t.Fatalf("failed-connection cause not localized: %+v", res.Ranking)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int, float64) {
		cl := testCluster(t, 42)
		topo := cl.Topo
		cl.InjectFailure(topo.LinksOfClass(topology.L1Up)[1], 0.05)
		rng := stats.NewRNG(43)
		w := traffic.Workload{
			Pattern:        traffic.Uniform{},
			ConnsPerHost:   traffic.IntRange{Lo: 2, Hi: 2},
			PacketsPerFlow: traffic.IntRange{Lo: 30, Hi: 30},
		}
		for _, f := range w.GenerateInto(nil, rng, topo) {
			cl.StartFlow(f, des.Time(rng.Intn(int(3*des.Second))))
		}
		res := cl.RunEpoch()
		return len(res.Verdicts), voteMass(res.Ranking)
	}
	f1, t1 := run()
	f2, t2 := run()
	if f1 != f2 || t1 != t2 {
		t.Fatalf("same seed diverged: %d/%v vs %d/%v", f1, t1, f2, t2)
	}
}

// The §9.2 latency extension: a link with injected delay (no drops at all)
// must be localized through RTT-threshold-triggered voting.
func TestLatencyDiagnosis(t *testing.T) {
	topo, err := topology.New(topology.TestClusterConfig)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(Config{Topo: topo, Seed: 31, RTTThresholdMicros: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// 3ms of extra one-way delay on one T1→ToR link; nothing drops.
	slow := topo.LinksOfClass(topology.L1Down)[11]
	if err := cl.Net.SetExtraDelay(slow, 3*des.Millisecond); err != nil {
		t.Fatal(err)
	}

	rng := stats.NewRNG(32)
	w := traffic.Workload{
		Pattern:        traffic.Uniform{},
		ConnsPerHost:   traffic.IntRange{Lo: 6, Hi: 6},
		PacketsPerFlow: traffic.IntRange{Lo: 40, Hi: 40},
	}
	for _, f := range w.GenerateInto(nil, rng, topo) {
		cl.StartFlow(f, des.Time(rng.Intn(int(10*des.Second))))
	}
	res := cl.RunEpoch()
	if len(res.Verdicts) == 0 {
		t.Fatal("no latency-triggered reports")
	}
	if len(res.Ranking) == 0 || res.Ranking[0].Link != slow {
		t.Fatalf("top-ranked %s, want the slow link %s",
			topo.LinkName(res.Ranking[0].Link), topo.LinkName(slow))
	}
	// And no retransmissions happened: this is purely latency signal.
	for _, f := range cl.Flows() {
		if c := f.Conn(); c != nil && c.Retransmits > 0 {
			t.Fatal("delay-only fault caused retransmissions")
		}
	}
}

// Without a threshold configured, RTT samples must not trigger anything.
func TestLatencyDisabledByDefault(t *testing.T) {
	cl := testCluster(t, 33)
	topo := cl.Topo
	if err := cl.Net.SetExtraDelay(topo.LinksOfClass(topology.L1Down)[2], 5*des.Millisecond); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(34)
	w := traffic.Workload{
		Pattern:        traffic.Uniform{},
		ConnsPerHost:   traffic.IntRange{Lo: 2, Hi: 2},
		PacketsPerFlow: traffic.IntRange{Lo: 20, Hi: 20},
	}
	for _, f := range w.GenerateInto(nil, rng, topo) {
		cl.StartFlow(f, des.Time(rng.Intn(int(5*des.Second))))
	}
	res := cl.RunEpoch()
	if len(res.Verdicts) != 0 {
		t.Fatalf("delay-only fault produced %d reports with latency diagnosis off", len(res.Verdicts))
	}
}

// InjectFailure and ClearFailure must validate their inputs (the fabric
// got validated setters; the cluster surfaces them).
func TestInjectFailureValidation(t *testing.T) {
	cl := testCluster(t, 20)
	nlinks := len(cl.Topo.Links)
	good := cl.Topo.LinksOfClass(topology.L1Up)[0]
	for _, l := range []topology.LinkID{-1, topology.LinkID(nlinks)} {
		if err := cl.InjectFailure(l, 0.1); err == nil {
			t.Fatalf("InjectFailure accepted link %d", l)
		}
		if err := cl.ClearFailure(l); err == nil {
			t.Fatalf("ClearFailure accepted link %d", l)
		}
	}
	for _, rate := range []float64{-0.1, 1.5} {
		if err := cl.InjectFailure(good, rate); err == nil {
			t.Fatalf("InjectFailure accepted rate %v", rate)
		}
	}
	if err := cl.InjectFailure(good, 0.1); err != nil {
		t.Fatal(err)
	}
	if got := cl.FailedLinks(); len(got) != 1 || got[0] != good {
		t.Fatalf("FailedLinks = %v", got)
	}
	// A rejected injection must not enter the failure set.
	if err := cl.InjectFailure(cl.Topo.LinksOfClass(topology.L1Up)[1], 2.0); err == nil {
		t.Fatal("bad rate accepted")
	}
	if got := cl.FailedLinks(); len(got) != 1 {
		t.Fatalf("rejected injection leaked into FailedLinks: %v", got)
	}
	if err := cl.ClearFailure(good); err != nil {
		t.Fatal(err)
	}
	if got := cl.FailedLinks(); len(got) != 0 {
		t.Fatalf("FailedLinks = %v after clear", got)
	}
}

// A scheduled link must rotate with the epochs: failed (and dropping)
// during its scripted window, healthy outside it, with the per-epoch frame
// recording exactly the settled set.
func TestScheduledFailureRotatesAcrossEpochs(t *testing.T) {
	cl := testCluster(t, 21)
	topo := cl.Topo
	bad := topo.LinksOfClass(topology.L1Down)[3]
	if err := cl.ScheduleFailure(bad, schedule.Window{Rate: 0.05, Start: 1, End: 2}); err != nil {
		t.Fatal(err)
	}
	w := traffic.Workload{
		Pattern:        traffic.Uniform{},
		ConnsPerHost:   traffic.IntRange{Lo: 4, Hi: 4},
		PacketsPerFlow: traffic.IntRange{Lo: 60, Hi: 60},
	}
	for e := 0; e < 3; e++ {
		if got := cl.EpochIndex(); got != e {
			t.Fatalf("EpochIndex = %d before epoch %d", got, e)
		}
		cl.StartWorkload(w, 10*des.Second)
		res := cl.RunEpoch()
		fr := cl.LastEpoch()
		if fr.Index != e {
			t.Fatalf("frame index = %d, want %d", fr.Index, e)
		}
		if fr.Flows == 0 {
			t.Fatalf("epoch %d: no flows recorded", e)
		}
		active := e == 1
		if active {
			if len(fr.FailedLinks) != 1 || fr.FailedLinks[0] != bad {
				t.Fatalf("epoch %d: frame FailedLinks = %v, want [%v]", e, fr.FailedLinks, bad)
			}
			if fr.Drops == 0 || fr.FailedFlows == 0 || len(fr.Truth) != fr.FailedFlows {
				t.Fatalf("epoch %d: no drop signal in frame: %+v", e, fr)
			}
			if len(res.Ranking) == 0 || res.Ranking[0].Link != bad {
				t.Fatalf("epoch %d: scheduled link not top-ranked", e)
			}
			crossed := false
			for _, tr := range fr.Truth {
				if tr.CrossedFailure {
					crossed = true
				}
			}
			if !crossed {
				t.Fatalf("epoch %d: no truth entry crossed the scheduled failure", e)
			}
		} else if len(fr.FailedLinks) != 0 {
			t.Fatalf("epoch %d: frame FailedLinks = %v, want none", e, fr.FailedLinks)
		}
	}
	cl.ClearSchedules()
	if got := cl.FailedLinks(); len(got) != 0 {
		t.Fatalf("ClearSchedules left failures: %v", got)
	}
}

// ScheduleFailure must validate its inputs like the flow plane does.
func TestScheduleFailureValidation(t *testing.T) {
	cl := testCluster(t, 23)
	good := cl.Topo.LinksOfClass(topology.L1Up)[0]
	if err := cl.ScheduleFailure(-1, schedule.ConstantRate{Rate: 0.1}); err == nil {
		t.Fatal("unknown link accepted")
	}
	if err := cl.ScheduleFailure(good, nil); err == nil {
		t.Fatal("nil schedule accepted")
	}
	if err := cl.ScheduleFailure(good, schedule.ConstantRate{Rate: 1.5}); err == nil {
		t.Fatal("out-of-range rate accepted")
	}
	if err := cl.ScheduleFailure(good, schedule.ConstantRate{Rate: 0.1}); err != nil {
		t.Fatal(err)
	}
}

// badRate is a custom schedule that turns out-of-range at epoch 1.
type badRate struct{}

func (badRate) RateAt(epoch int) (float64, bool) { return 0.1 + 2*float64(epoch), true }

// The failure set drives the fabric's rates: each RunEpoch settles active
// scheduled links at their scripted rate and inactive ones at their noise
// baseline before traffic flies; a custom schedule gone out of range
// panics before any rate moves; ClearSchedules restores the baselines.
func TestScheduleSettlesFabricRates(t *testing.T) {
	topo, err := topology.New(topology.TestClusterConfig)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(Config{Topo: topo, Seed: 25, NoiseLo: 1e-7, NoiseHi: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	a, b := topo.LinksOfClass(topology.L1Up)[0], topo.LinksOfClass(topology.L1Up)[1]
	baseA, baseB := cl.Net.DropRate(a), cl.Net.DropRate(b)
	if err := cl.ScheduleFailure(a, schedule.Window{Rate: 0.2, Start: 0, End: 1}); err != nil {
		t.Fatal(err)
	}
	if err := cl.ScheduleFailure(b, schedule.Flap{Rate: 0.3, Period: 2, On: 1, Phase: 1}); err != nil {
		t.Fatal(err)
	}
	for e, want := range [][2]float64{{0.2, baseB}, {baseA, 0.3}} {
		cl.RunEpoch()
		if got := [2]float64{cl.Net.DropRate(a), cl.Net.DropRate(b)}; got != want {
			t.Fatalf("epoch %d: rates %v, want %v", e, got, want)
		}
	}
	c := topo.LinksOfClass(topology.L1Up)[2]
	baseC := cl.Net.DropRate(c)
	if err := cl.ScheduleFailure(c, badRate{}); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("an out-of-range custom rate settled without a panic")
			}
		}()
		cl.RunEpoch() // epoch 2: b would be restored, c is out of range
	}()
	if cl.Net.DropRate(b) != 0.3 || cl.Net.DropRate(c) != baseC {
		t.Fatal("the failed settle moved rates")
	}
	cl.ClearSchedules()
	if cl.Net.DropRate(a) != baseA || cl.Net.DropRate(b) != baseB || len(cl.FailedLinks()) != 0 {
		t.Fatalf("ClearSchedules left rates %v/%v, failed %v", cl.Net.DropRate(a), cl.Net.DropRate(b), cl.FailedLinks())
	}
}

// Configured noise must surface as a baseline: failures cleared on a noisy
// link return to the drawn noise rate, not to zero, and bad ranges error.
func TestClusterNoiseBaseline(t *testing.T) {
	topo, err := topology.New(topology.TestClusterConfig)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Topo: topo, Seed: 24, NoiseLo: 0.5, NoiseHi: 0.1}); err == nil {
		t.Fatal("inverted noise range accepted")
	}
	cl, err := New(Config{Topo: topo, Seed: 24, NoiseLo: 1e-7, NoiseHi: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	l := topo.LinksOfClass(topology.L1Up)[2]
	base := cl.Net.DropRate(l)
	if base < 1e-7 || base >= 1e-6 {
		t.Fatalf("noise baseline %v outside [1e-7, 1e-6)", base)
	}
	if err := cl.InjectFailure(l, 0.2); err != nil {
		t.Fatal(err)
	}
	if err := cl.ClearFailure(l); err != nil {
		t.Fatal(err)
	}
	if got := cl.Net.DropRate(l); got != base {
		t.Fatalf("cleared link at %v, want its noise baseline %v", got, base)
	}
}

// Flows recycle once an epoch has closed, before the next one touches flow
// state. Until then Flows() and each record's Conn() describe the epoch
// just run; the next epoch's first flow start recycles those records; an
// epoch that starts nothing frames nothing; a flow scheduled past its
// epoch's end is framed once, by the epoch that started it, and carried
// into the next; and flow state never outgrows one epoch's flows plus
// those carried in.
func TestFlowsRecycleOnceAnEpochCloses(t *testing.T) {
	cl := testCluster(t, 51)
	topo := cl.Topo
	if err := cl.InjectFailure(topo.LinksOfClass(topology.L1Down)[4], 0.05); err != nil {
		t.Fatal(err)
	}
	w := traffic.Workload{
		Pattern:        traffic.Uniform{},
		ConnsPerHost:   traffic.IntRange{Lo: 1, Hi: 1},
		PacketsPerFlow: traffic.IntRange{Lo: 20, Hi: 40},
	}
	src, dst := topo.HostAt(0, 0, 0), topo.HostAt(0, 9, 3)
	late := traffic.Flow{Src: src, Dst: dst, Packets: 20, Tuple: ecmp.FiveTuple{
		SrcIP: topo.Hosts[src].IP, DstIP: topo.Hosts[dst].IP, SrcPort: 45000, DstPort: 443, Proto: ecmp.ProtoTCP,
	}}
	var carried []*flowRecord
	failed, lates := 0, 0
	for e := 0; e < 50; e++ {
		if e%10 == 9 {
			// No flow starts: the closed epoch recycles at Step.
			fr := cl.Step(nil)
			if fr.Flows != 0 || fr.FailedFlows != 0 || len(fr.Truth) != 0 {
				t.Fatalf("epoch %d started no flow but framed %d flows, %d failed, truth %v", e, fr.Flows, fr.FailedFlows, fr.Truth)
			}
			if got := cl.Flows(); !slices.Equal(got, carried) {
				t.Fatalf("epoch %d: %d flow records after an epoch that started none, want the %d carried in", e, len(got), len(carried))
			}
			carried = nil
			continue
		}
		prev := slices.Clone(cl.Flows())
		cl.StartWorkload(w, 10*des.Second)
		flows := cl.Flows()
		if !slices.Equal(flows[:len(carried)], carried) {
			t.Fatalf("epoch %d: the flows carried in are not at the head of Flows()", e)
		}
		for _, rec := range flows[len(carried):] {
			if e%10 != 0 && !slices.Contains(prev, rec) {
				t.Fatalf("epoch %d: flow %d has a fresh record, not a recycled one", e, rec.ID())
			}
			if rec.Conn() != nil {
				t.Fatalf("epoch %d: recycled record of flow %d kept a connection", e, rec.ID())
			}
		}
		var lateRec *flowRecord
		if e%7 == 3 {
			cl.StartFlow(late, cl.epochStart+epochLength+5*des.Second)
			lateRec = cl.Flows()[len(cl.Flows())-1]
			lates++
		}
		fr := cl.Step(nil)
		flows = cl.Flows()
		if len(flows) != fr.Flows+len(carried) {
			t.Fatalf("epoch %d: %d flow records, want the %d framed plus %d carried in", e, len(flows), fr.Flows, len(carried))
		}
		for _, rec := range flows {
			if c := rec.Conn(); (c == nil) != (rec == lateRec) {
				t.Fatalf("epoch %d: flow %d connection %v after the epoch closed", e, rec.ID(), c)
			}
		}
		framed := map[int64]bool{}
		for _, rec := range flows[len(carried):] {
			framed[rec.ID()] = true
		}
		for id := range fr.Truth {
			if !framed[id] {
				t.Fatalf("epoch %d: truth for flow %d, which another epoch framed", e, id)
			}
		}
		failed += fr.FailedFlows
		carried = nil
		if lateRec != nil {
			carried = []*flowRecord{lateRec}
		}
	}
	if failed == 0 || lates == 0 {
		t.Fatalf("%d failed flows, %d late starts: the case exercises nothing", failed, lates)
	}
}

// The steady-state packet-plane epoch must be (near) allocation-free: a
// warmed cluster runs whole no-failure epochs — every data packet, ACK and
// epoch roll — reusing pooled state and recycled flows. This mirrors the
// flow plane's TestSteadyStateEpochAllocs budget.
func TestClusterEpochAllocs(t *testing.T) {
	topo, err := topology.New(topology.TestClusterConfig)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(Config{Topo: topo, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	w := traffic.Workload{
		Pattern:        traffic.Uniform{},
		ConnsPerHost:   traffic.IntRange{Lo: 10, Hi: 10},
		PacketsPerFlow: traffic.IntRange{Lo: 75, Hi: 150},
	}
	epoch := func() {
		cl.StartWorkload(w, 20*des.Second)
		res := cl.RunEpoch()
		if cl.LastEpoch().Flows == 0 {
			t.Fatal("no flows")
		}
		if res == nil {
			t.Fatal("no result")
		}
	}
	// Warm every pool: packet buffers, scheduler lanes, conns, records,
	// tuple maps, the analysis inbox.
	for i := 0; i < 2; i++ {
		epoch()
	}
	flows := cl.LastEpoch().Flows
	if flows < 300 {
		t.Fatalf("want a full workload epoch, got %d flows", flows)
	}
	avg := testing.AllocsPerRun(5, epoch)
	// ~400 connections and ~90k emulated packets per epoch settle around
	// 28 allocations — the fixed per-epoch cost (frame, analysis, map
	// growth remnants). The budget leaves slack for runtime
	// variation but pins per-flow cost to zero.
	if avg > 120 {
		t.Fatalf("steady-state cluster epoch allocates %.0f times for %d flows", avg, flows)
	}
}

// voteMass is the sum of a ranking's votes: one per report with a path.
func voteMass(ranking []vote.LinkVotes) float64 {
	var sum float64
	for _, lv := range ranking {
		sum += lv.Votes
	}
	return sum
}
