package cluster

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"vigil/internal/analysis"
	"vigil/internal/des"
	"vigil/internal/fabric"
	"vigil/internal/topology"
	"vigil/internal/traffic"
	"vigil/internal/vote"
)

// quadPodQuickTopo is a small multi-pod Clos with every link class present.
var quadPodQuickTopo = topology.Config{Pods: 4, ToRsPerPod: 3, T1PerPod: 3, T2: 2, HostsPerToR: 2}

// twoPodQuickTopo mirrors the scenario package's packet quick topology
// (which cluster tests cannot import — the scenario package imports the
// engine, which imports this package).
var twoPodQuickTopo = topology.Config{Pods: 2, ToRsPerPod: 4, T1PerPod: 3, T2: 2, HostsPerToR: 2}

// cutCase is one differential scenario: a seeded cluster, a workload with a
// start spread (zero piles every flow onto one microsecond), failures set
// before the first epoch and a script of link changes posted as DES events
// so that they execute while packets are in the air.
type cutCase struct {
	name    string
	topo    topology.Config
	seed    uint64
	cfg     func(*Config)
	pattern func(*topology.Topology) traffic.Pattern
	conns   int
	packets int
	spread  des.Time
	epochs  int
	setup   func(t *testing.T, cl *Cluster)
	script  []cutOp
	// wantRemat asserts that the cut-through run pulled packets out of
	// flight: the case exists to exercise rematerialization.
	wantRemat bool
}

// cutOp is one scripted change to a link, executed as a DES event at epoch
// start + at.
type cutOp struct {
	epoch int
	at    des.Time
	link  func(*topology.Topology) topology.LinkID
	do    func(cl *Cluster, l topology.LinkID) error
}

type cutOpEvent struct {
	cl *Cluster
	l  topology.LinkID
	do func(cl *Cluster, l topology.LinkID) error
}

func (o *cutOpEvent) HandleEvent(int32, int64, any) {
	if err := o.do(o.cl, o.l); err != nil {
		panic(err)
	}
}

// cutRun is what one run of a case produced: the log the two modes are
// compared on, and the fabric's hop counters (which differ by design).
type cutRun struct {
	log                   string
	fused, stepped, remat int64
	events                uint64
}

func hashInt64s(v []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// runCutCase runs c with or without the no-op mirror tap that turns
// cut-through off, and serializes everything the epochs produced: every
// report field in emission order, the epoch frame, RunEpoch's detections
// and the fabric's counters, as sums and as a hash of the whole per-link
// and per-switch vectors.
func runCutCase(t *testing.T, c cutCase, perHop bool) cutRun {
	t.Helper()
	topo, err := topology.New(c.topo)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Topo: topo, Seed: c.seed}
	if c.cfg != nil {
		c.cfg(&cfg)
	}
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if perHop {
		cl.Net.AddTap(func(fabric.TapEvent) {})
	}
	var log strings.Builder
	emit := func(r vote.Report) {
		fmt.Fprintf(&log, "r src=%d ep=%d seq=%d flow=%d path=%v retx=%d partial=%v\n",
			r.Src, r.Epoch, r.Seq, r.FlowID, r.Path, r.Retx, r.Partial)
	}
	if c.setup != nil {
		c.setup(t, cl)
	}
	var pattern traffic.Pattern = traffic.Uniform{}
	if c.pattern != nil {
		pattern = c.pattern(topo)
	}
	w := traffic.Workload{
		Pattern:        pattern,
		ConnsPerHost:   traffic.IntRange{Lo: c.conns, Hi: c.conns},
		PacketsPerFlow: traffic.IntRange{Lo: c.packets, Hi: c.packets},
	}
	var out cutRun
	for e := 0; e < c.epochs; e++ {
		for _, op := range c.script {
			if op.epoch != e {
				continue
			}
			l := op.link(topo)
			// Posted, not tied, the change sorts ahead of the tick's deliveries in both modes.
			cl.Sched.Post(cl.Sched.Now()+op.at, &cutOpEvent{cl: cl, l: l, do: op.do}, 0, 0, nil)
		}
		cl.StartWorkload(w, c.spread)
		fr := cl.Step(emit)
		res := analysis.Analyze(fr.Reports, paperAnalysis)
		var fwd, drp, icmp, supp int64
		for _, v := range cl.Net.LinkForwarded {
			fwd += v
		}
		for _, v := range cl.Net.LinkDropped {
			drp += v
		}
		for _, v := range cl.Net.ICMPSent {
			icmp += v
		}
		for _, v := range cl.Net.ICMPSuppressed {
			supp += v
		}
		fmt.Fprintf(&log, "epoch %d: flows=%d failed=%d drops=%d detected=%v truth=%d fwd=%d drp=%d icmp=%d supp=%d vec=%x/%x/%x/%x\n",
			e, fr.Flows, fr.FailedFlows, fr.Drops, res.Detected, len(fr.Truth), fwd, drp, icmp, supp,
			hashInt64s(cl.Net.LinkForwarded), hashInt64s(cl.Net.LinkDropped),
			hashInt64s(cl.Net.ICMPSent), hashInt64s(cl.Net.ICMPSuppressed))
	}
	out.log = log.String()
	out.fused, out.stepped, out.remat = cl.Net.HopsFused(), cl.Net.HopsStepped(), cl.Net.Rematerialized()
	out.events = cl.Sched.Executed()
	return out
}

// compareCutCase holds the cut-through run of c to its reference, the same
// run stepping every hop (a no-op tap is installed), and returns the
// cut-through run.
func compareCutCase(t *testing.T, c cutCase) cutRun {
	t.Helper()
	cut := runCutCase(t, c, false)
	ref := runCutCase(t, c, true)
	if len(ref.log) == 0 {
		t.Fatal("empty reference log")
	}
	if ref.fused != 0 || ref.remat != 0 {
		t.Fatalf("the tapped reference fused %d hops and rematerialized %d packets", ref.fused, ref.remat)
	}
	if cut.log != ref.log {
		t.Fatalf("cut-through diverged from per-hop (fused %d, stepped %d, rematerialized %d):\n%s",
			cut.fused, cut.stepped, cut.remat, firstDiff("per-hop", ref.log, "cut-through", cut.log))
	}
	t.Logf("events %d per-hop → %d cut-through; hops fused %d, stepped %d; packets rematerialized %d",
		ref.events, cut.events, cut.fused, cut.stepped, cut.remat)
	if cut.fused+cut.stepped != ref.stepped {
		t.Fatalf("hops: cut-through fused %d + stepped %d, per-hop stepped %d", cut.fused, cut.stepped, ref.stepped)
	}
	return cut
}

// firstDiff renders the first line on which two logs differ.
func firstDiff(aName, a, bName, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y {
			return fmt.Sprintf("line %d\n  %s: %s\n  %s: %s", i+1, aName, x, bName, y)
		}
	}
	return "logs are equal"
}

func linkOf(class topology.LinkClass, i int) func(*topology.Topology) topology.LinkID {
	return func(topo *topology.Topology) topology.LinkID { return topo.LinksOfClass(class)[i] }
}

func inject(class topology.LinkClass, i int, rate float64) func(*testing.T, *Cluster) {
	return func(t *testing.T, cl *Cluster) {
		if err := cl.InjectFailure(cl.Topo.LinksOfClass(class)[i], rate); err != nil {
			t.Fatal(err)
		}
	}
}

func hotSink(topo *topology.Topology) traffic.Pattern {
	return traffic.HotToR{Sink: topo.ToR(0, 1), Frac: 0.8}
}

func setDelay(d des.Time) func(*Cluster, topology.LinkID) error {
	return func(cl *Cluster, l topology.LinkID) error { return cl.Net.SetExtraDelay(l, d) }
}

func setRate(r float64) func(*Cluster, topology.LinkID) error {
	return func(cl *Cluster, l topology.LinkID) error { return cl.Net.SetDropRate(l, r) }
}

func cutCases() []cutCase {
	var cases []cutCase
	// Tie storms: every flow starts on the same microsecond (or within a
	// few), most of them into one rack, so deliveries collide on links by
	// the dozen and the serial tie-break decides their order.
	for _, spread := range []des.Time{0, 1, 50} {
		for _, topo := range []topology.Config{topology.TestClusterConfig, quadPodQuickTopo} {
			cases = append(cases, cutCase{
				name: fmt.Sprintf("tie-storm/spread=%d/pods=%d", spread, topo.Pods),
				topo: topo, seed: 6, pattern: hotSink, conns: 6, packets: 40, spread: spread, epochs: 2,
				setup: inject(topology.L1Down, 1, 0.08),
			})
		}
	}
	cases = append(cases,
		cutCase{
			name: "multi-failure", topo: quadPodQuickTopo, seed: 7, conns: 6, packets: 60, spread: 10 * des.Second, epochs: 3,
			setup: func(t *testing.T, cl *Cluster) {
				inject(topology.L1Down, 1, 0.08)(t, cl)
				inject(topology.L2Up, 2, 0.03)(t, cl)
				inject(topology.HostUp, 5, 0.2)(t, cl)
			},
		},
		cutCase{
			name: "blackhole", topo: quadPodQuickTopo, seed: 8, conns: 4, packets: 30, spread: 5 * des.Second, epochs: 2,
			setup: inject(topology.L2Down, 3, 1),
		},
		// With noise every link has a positive rate and every crossing takes
		// a draw: walks cross on the verified-forward run of counters, and a
		// hop-by-hop crossing near a dropping counter pulls them back.
		cutCase{
			name: "noise", topo: quadPodQuickTopo, seed: 10, conns: 6, packets: 60, spread: 20 * des.Millisecond, epochs: 3,
			cfg:   func(c *Config) { c.NoiseLo, c.NoiseHi = 1e-4, 4e-3 },
			setup: inject(topology.L1Down, 1, 0.05), wantRemat: true,
		},
		cutCase{
			name: "noise-default", topo: twoPodQuickTopo, seed: 11, conns: 6, packets: 60, spread: 10 * des.Second, epochs: 2,
			cfg:   func(c *Config) { c.NoiseHi = 1e-6 },
			setup: inject(topology.L1Down, 1, 0.01),
		},
		cutCase{
			name: "rtt-probes", topo: quadPodQuickTopo, seed: 12, conns: 4, packets: 40, spread: 5 * des.Second, epochs: 2,
			cfg: func(c *Config) { c.RTTThresholdMicros = 200 },
			setup: func(t *testing.T, cl *Cluster) {
				if err := cl.Net.SetExtraDelay(cl.Topo.LinksOfClass(topology.L1Down)[4], 300*des.Microsecond); err != nil {
					t.Fatal(err)
				}
			},
		},
		// Link changes as DES events in the middle of a dense burst: every
		// packet in flight across the changed link is rematerialized.
		cutCase{
			name: "mid-epoch-delay", topo: quadPodQuickTopo, seed: 13, conns: 6, packets: 60, spread: 300, epochs: 3,
			setup: inject(topology.L1Down, 1, 0.08), wantRemat: true,
			script: []cutOp{
				{epoch: 0, at: 501, link: linkOf(topology.L2Up, 1), do: setDelay(400)},
				{epoch: 1, at: 401, link: linkOf(topology.L2Up, 1), do: setDelay(20)},
				{epoch: 1, at: 903, link: linkOf(topology.HostDown, 2), do: setDelay(33)},
				{epoch: 2, at: 350, link: linkOf(topology.L2Up, 1), do: setDelay(0)},
			},
		},
		cutCase{
			name: "mid-epoch-blackhole", topo: quadPodQuickTopo, seed: 14, conns: 6, packets: 60, spread: 300, epochs: 2,
			wantRemat: true,
			script: []cutOp{
				{epoch: 0, at: 452, link: linkOf(topology.L1Up, 3), do: setRate(1)},
				{epoch: 1, at: 377, link: linkOf(topology.L1Up, 3), do: setRate(0)},
				{epoch: 1, at: 612, link: linkOf(topology.L2Down, 0), do: setRate(0.5)},
			},
		},
		cutCase{
			name: "mid-epoch-tap", topo: quadPodQuickTopo, seed: 15, conns: 6, packets: 60, spread: 300, epochs: 2,
			setup: inject(topology.L1Down, 1, 0.08), wantRemat: true,
			script: []cutOp{
				{epoch: 0, at: 433, link: linkOf(topology.HostUp, 0), do: func(cl *Cluster, _ topology.LinkID) error {
					cl.Net.AddTap(func(fabric.TapEvent) {})
					return nil
				}},
			},
		},
	)
	return cases
}

// The cut-through contract: folding a packet's certain hops into one
// delivery changes the number of scheduler events and nothing else.
func TestCutThroughMatchesPerHop(t *testing.T) {
	for _, c := range cutCases() {
		t.Run(c.name, func(t *testing.T) {
			cut := compareCutCase(t, c)
			if cut.fused == 0 {
				t.Fatalf("cut-through fused nothing (stepped %d)", cut.stepped)
			}
			if c.wantRemat && cut.remat == 0 {
				t.Fatalf("no packet was rematerialized (fused %d, stepped %d)", cut.fused, cut.stepped)
			}
		})
	}
}

// SetExtraDelay churned mid-epoch on an inter-pod hop (L2Up[1], T1 → T2),
// on both multi-pod quick topologies: the hop grows to 400 µs three seconds
// into epoch 0, shrinks to 20 µs in epoch 1 and is cleared in epoch 2. The
// churn must rematerialize packets in flight, and the epochs must be
// bit-identical between cut-through and per-hop, and across a repeat of the
// same seed.
func TestClusterBitIdenticalUnderExtraDelayChurn(t *testing.T) {
	churn := func(epoch int, extra des.Time) cutOp {
		return cutOp{epoch: epoch, at: 3 * des.Second, link: linkOf(topology.L2Up, 1), do: setDelay(extra)}
	}
	for _, topo := range []topology.Config{twoPodQuickTopo, quadPodQuickTopo} {
		c := cutCase{
			name: "extra-delay-churn", topo: topo, seed: 6, conns: 6, packets: 60, spread: 10 * des.Second, epochs: 3,
			setup:  inject(topology.L1Down, 1, 0.08),
			script: []cutOp{churn(0, 400*des.Microsecond), churn(1, 20*des.Microsecond), churn(2, 0)},
		}
		cut := compareCutCase(t, c)
		if cut.remat == 0 {
			t.Fatalf("pods=%d: the churn pulled no packet out of flight", topo.Pods)
		}
		if again := runCutCase(t, c, false); again.log != cut.log {
			t.Fatalf("pods=%d: same seed diverged under extra-delay churn:\n%s",
				topo.Pods, firstDiff("first", cut.log, "repeat", again.log))
		}
	}
}

// fuzzCutCase decodes a fuzz input into a differential scenario on a small
// Clos: dims picks the fabric's shape (and whether noise and RTT probing are
// on), failures is (link, kind) pairs set before the first epoch, script is
// (time, link, op) triples posted as DES events into the first epoch's
// burst.
func fuzzCutCase(seed uint64, dims uint16, failures []byte, spread uint16, script []byte) cutCase {
	c := cutCase{
		name: "fuzz", seed: seed, conns: 3, packets: 20, epochs: 2, spread: des.Time(spread),
		topo: topology.Config{
			Pods:        1 + int(dims&3)%3,
			ToRsPerPod:  2 + int(dims>>2&1),
			T1PerPod:    1 + int(dims>>3&3)%3,
			T2:          1 + int(dims>>5&1),
			HostsPerToR: 1 + int(dims>>6&3)%3,
		},
	}
	noise, rtt := dims>>8&1 == 1, dims>>9&1 == 1
	c.cfg = func(cfg *Config) {
		if noise {
			cfg.NoiseHi = 5e-3
		}
		if rtt {
			cfg.RTTThresholdMicros = 60
		}
	}
	if len(failures) > 8 {
		failures = failures[:8]
	}
	c.setup = func(t *testing.T, cl *Cluster) {
		for i := 0; i+1 < len(failures); i += 2 {
			l := topology.LinkID(int(failures[i]) % len(cl.Topo.Links))
			var err error
			switch kind := failures[i+1] % 6; kind {
			case 5:
				err = cl.Net.SetExtraDelay(l, des.Time(failures[i+1]))
			default:
				err = cl.InjectFailure(l, []float64{0.01, 0.05, 0.3, 1, 0.4}[kind])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(script) > 18 {
		script = script[:18]
	}
	for i := 0; i+2 < len(script); i += 3 {
		at, link, op := des.Time(script[i])*3, int(script[i+1]), script[i+2]
		var do func(*Cluster, topology.LinkID) error
		switch op % 4 {
		case 0:
			do = setDelay(des.Time(op) * 2)
		case 1:
			do = setDelay(0)
		case 2:
			do = setRate([]float64{0, 0.3, 1}[int(op>>2)%3])
		case 3:
			do = func(cl *Cluster, l topology.LinkID) error { return cl.Net.ResetDropRate(l) }
		}
		c.script = append(c.script, cutOp{
			epoch: int(op>>7) & 1, at: at, do: do,
			link: func(topo *topology.Topology) topology.LinkID { return topology.LinkID(link % len(topo.Links)) },
		})
	}
	return c
}

// FuzzCutThroughMatchesPerHop is the differential test over generated
// scenarios: whatever the fabric's shape, failure set, start spread and
// mid-run link changes, cut-through and per-hop runs agree.
func FuzzCutThroughMatchesPerHop(f *testing.F) {
	f.Add(uint64(1), uint16(0x0d6), []byte{3, 1, 17, 2}, uint16(0), []byte{10, 5, 0, 40, 9, 2})
	f.Add(uint64(2), uint16(0x1ff), []byte{9, 3, 40, 4}, uint16(1), []byte{})
	f.Add(uint64(3), uint16(0x2aa), []byte{0, 5, 21, 0}, uint16(50), []byte{30, 2, 6, 31, 2, 129, 90, 7, 3})
	f.Add(uint64(4), uint16(0x3e5), []byte{}, uint16(2000), []byte{1, 1, 10, 2, 1, 1})
	f.Fuzz(func(t *testing.T, seed uint64, dims uint16, failures []byte, spread uint16, script []byte) {
		compareCutCase(t, fuzzCutCase(seed, dims, failures, spread, script))
	})
}

// A spread of zero (or less) used to die in the RNG's Intn; it now means
// "every flow at the epoch's first instant", and a positive spread draws
// exactly as before.
func TestStartWorkloadZeroSpread(t *testing.T) {
	w := traffic.Workload{
		Pattern:        traffic.Uniform{},
		ConnsPerHost:   traffic.IntRange{Lo: 2, Hi: 2},
		PacketsPerFlow: traffic.IntRange{Lo: 20, Hi: 20},
	}
	for _, spread := range []des.Time{0, -5} {
		cl := testCluster(t, 3)
		cl.StartWorkload(w, spread)
		cl.RunEpoch()
		fr := cl.LastEpoch()
		if want := 2 * len(cl.Topo.Hosts); fr.Flows != want {
			t.Fatalf("spread %d: %d flows started, want %d", spread, fr.Flows, want)
		}
		for _, c := range cl.Flows() {
			if !c.Done {
				t.Fatalf("spread %d: flow %d did not complete", spread, c.ID)
			}
		}
	}
}
