package traffic

import (
	"math"
	"reflect"
	"testing"

	"vigil/internal/stats"
	"vigil/internal/topology"
)

func topo(t testing.TB) *topology.Topology {
	t.Helper()
	tp, err := topology.New(topology.Config{Pods: 2, ToRsPerPod: 4, T1PerPod: 2, T2: 2, HostsPerToR: 4})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestUniformNeverSameToR(t *testing.T) {
	tp := topo(t)
	rng := stats.NewRNG(1)
	for i := 0; i < 2000; i++ {
		src := topology.HostID(rng.Intn(len(tp.Hosts)))
		dst := Uniform{}.Pick(rng, tp, src)
		if tp.Hosts[src].ToR == tp.Hosts[dst].ToR {
			t.Fatal("uniform pattern picked a destination in the source rack")
		}
	}
}

func TestUniformToRDistribution(t *testing.T) {
	tp := topo(t)
	rng := stats.NewRNG(2)
	src := tp.HostAt(0, 0, 0)
	counts := map[topology.SwitchID]int{}
	const n = 35000
	for i := 0; i < n; i++ {
		dst := Uniform{}.Pick(rng, tp, src)
		counts[tp.Hosts[dst].ToR]++
	}
	nToRs := tp.Cfg.Pods*tp.Cfg.ToRsPerPod - 1 // all but the source rack
	if len(counts) != nToRs {
		t.Fatalf("covered %d ToRs, want %d", len(counts), nToRs)
	}
	want := float64(n) / float64(nToRs)
	for tor, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("ToR %d got %d flows, want ~%v", tor, c, want)
		}
	}
}

func TestSkewedToRs(t *testing.T) {
	tp := topo(t)
	rng := stats.NewRNG(3)
	hot := []topology.SwitchID{tp.ToR(0, 1), tp.ToR(1, 2)}
	p := SkewedToRs{Hot: hot, Frac: 0.8}
	src := tp.HostAt(0, 0, 0)
	inHot := 0
	const n = 20000
	for i := 0; i < n; i++ {
		dst := p.Pick(rng, tp, src)
		if tp.Hosts[src].ToR == tp.Hosts[dst].ToR {
			t.Fatal("skewed pattern picked the source rack")
		}
		for _, h := range hot {
			if tp.Hosts[dst].ToR == h {
				inHot++
				break
			}
		}
	}
	frac := float64(inHot) / n
	// 80% targeted plus the uniform remainder's occasional hot picks.
	if frac < 0.78 || frac > 0.90 {
		t.Fatalf("hot fraction = %v, want ~0.8-0.85", frac)
	}
}

func TestHotToR(t *testing.T) {
	tp := topo(t)
	rng := stats.NewRNG(4)
	sink := tp.ToR(1, 3)
	p := HotToR{Sink: sink, Frac: 0.5}
	inSink := 0
	const n = 20000
	for i := 0; i < n; i++ {
		src := topology.HostID(rng.Intn(len(tp.Hosts)))
		dst := p.Pick(rng, tp, src)
		if tp.Hosts[src].ToR == tp.Hosts[dst].ToR {
			t.Fatal("hot-tor pattern picked the source rack")
		}
		if tp.Hosts[dst].ToR == sink {
			inSink++
		}
	}
	frac := float64(inSink) / n
	if frac < 0.48 || frac > 0.60 {
		t.Fatalf("sink fraction = %v, want ~0.5-0.56", frac)
	}
}

func TestRandomToRsDistinct(t *testing.T) {
	tp := topo(t)
	rng := stats.NewRNG(5)
	tors := RandomToRs(rng, tp, 5)
	if len(tors) != 5 {
		t.Fatalf("%d ToRs", len(tors))
	}
	seen := map[topology.SwitchID]bool{}
	for _, tor := range tors {
		if seen[tor] {
			t.Fatal("duplicate ToR")
		}
		seen[tor] = true
		if tp.Switches[tor].Tier != topology.TierToR {
			t.Fatal("non-ToR switch in hot set")
		}
	}
	// Request more than exist: clamps.
	all := RandomToRs(rng, tp, 100)
	if len(all) != tp.Cfg.Pods*tp.Cfg.ToRsPerPod {
		t.Fatalf("clamp failed: %d", len(all))
	}
}

func TestWorkloadGenerate(t *testing.T) {
	tp := topo(t)
	rng := stats.NewRNG(6)
	w := Workload{
		Pattern:        Uniform{},
		ConnsPerHost:   IntRange{10, 60},
		PacketsPerFlow: IntRange{100, 100},
	}
	flows := w.GenerateInto(nil, rng, tp)
	perHost := map[topology.HostID]int{}
	for _, f := range flows {
		if f.Packets != 100 {
			t.Fatalf("packets = %d", f.Packets)
		}
		if f.Tuple.SrcIP != tp.Hosts[f.Src].IP || f.Tuple.DstIP != tp.Hosts[f.Dst].IP {
			t.Fatal("tuple addresses mismatch endpoints")
		}
		if f.Tuple.SrcPort < 32768 {
			t.Fatalf("non-ephemeral source port %d", f.Tuple.SrcPort)
		}
		perHost[f.Src]++
	}
	if len(perHost) != len(tp.Hosts) {
		t.Fatalf("only %d/%d hosts generated traffic", len(perHost), len(tp.Hosts))
	}
	for h, n := range perHost {
		if n < 10 || n > 60 {
			t.Fatalf("host %d generated %d conns, want [10,60]", h, n)
		}
	}
}

func TestWorkloadRestrictedHosts(t *testing.T) {
	tp := topo(t)
	rng := stats.NewRNG(7)
	only := []topology.HostID{0, 5}
	w := Workload{Pattern: Uniform{}, ConnsPerHost: IntRange{3, 3}, PacketsPerFlow: IntRange{1, 1}, Hosts: only}
	flows := w.GenerateInto(nil, rng, tp)
	if len(flows) != 6 {
		t.Fatalf("%d flows, want 6", len(flows))
	}
	for _, f := range flows {
		if f.Src != 0 && f.Src != 5 {
			t.Fatalf("unexpected source %d", f.Src)
		}
	}
}

func TestIntRange(t *testing.T) {
	rng := stats.NewRNG(8)
	if (IntRange{7, 7}).Sample(rng) != 7 {
		t.Fatal("constant range broken")
	}
	for i := 0; i < 100; i++ {
		v := (IntRange{3, 9}).Sample(rng)
		if v < 3 || v > 9 {
			t.Fatalf("sample %d out of range", v)
		}
	}
}

// The per-source streams must respect the workload knobs exactly as the
// single-stream generator does.
func TestAppendFlowsOfRespectsKnobs(t *testing.T) {
	tp := topo(t)
	w := Workload{
		Pattern:        Uniform{},
		ConnsPerHost:   IntRange{Lo: 5, Hi: 15},
		PacketsPerFlow: IntRange{Lo: 10, Hi: 20},
		Hosts:          []topology.HostID{0, 3, 9},
	}
	var flows []Flow
	var rng stats.RNG
	for si, src := range w.Hosts {
		flows = w.AppendFlowsOf(flows, &rng, 9, si, tp, src)
	}
	perSrc := map[topology.HostID]int{}
	for _, f := range flows {
		perSrc[f.Src]++
		if f.Packets < 10 || f.Packets > 20 {
			t.Fatalf("flow packets %d out of range", f.Packets)
		}
		if tp.Hosts[f.Src].ToR == tp.Hosts[f.Dst].ToR {
			t.Fatal("destination under the source rack")
		}
	}
	if len(perSrc) != 3 {
		t.Fatalf("flows from %d sources, want the 3 restricted hosts", len(perSrc))
	}
	for src, n := range perSrc {
		if n < 5 || n > 15 {
			t.Fatalf("source %d generated %d conns, want 5..15", src, n)
		}
	}
}

// FlowsOf and AppendFlowsOf are the counting and generating halves of the
// fused epoch pipeline: FlowsOf must predict each source's contribution
// without consuming any generation draw, and a source's flows must not
// depend on which sources were generated before it.
func TestFlowsOfPredictsAppendFlowsOf(t *testing.T) {
	tp := topo(t)
	for _, w := range []Workload{
		{Pattern: Uniform{}, ConnsPerHost: IntRange{Lo: 10, Hi: 30}, PacketsPerFlow: IntRange{Lo: 50, Hi: 100}},
		{Pattern: Uniform{}, ConnsPerHost: IntRange{Lo: 20, Hi: 20}, PacketsPerFlow: IntRange{Lo: 100, Hi: 100}},
	} {
		const seed = 321
		var got []Flow
		var rng stats.RNG
		for si := 0; si < len(tp.Hosts); si++ {
			n := w.FlowsOf(seed, si)
			before := len(got)
			got = w.AppendFlowsOf(got, &rng, seed, si, tp, topology.HostID(si))
			if len(got)-before != n {
				t.Fatalf("source %d: FlowsOf predicted %d flows, AppendFlowsOf produced %d", si, n, len(got)-before)
			}
			alone := w.AppendFlowsOf(nil, &rng, seed, si, tp, topology.HostID(si))
			if !reflect.DeepEqual(alone, got[before:]) {
				t.Fatalf("source %d: flows depend on the sources generated before it", si)
			}
		}
		if w.ConstantConns() != (w.ConnsPerHost.Lo == w.ConnsPerHost.Hi) {
			t.Fatalf("ConstantConns misreports %+v", w.ConnsPerHost)
		}
	}
}

// A warmed buffer must serve steady-state epochs without allocating: the
// generation path is the epoch hot path of both planes.
func TestAppendFlowsOfReusesBuffer(t *testing.T) {
	tp := topo(t)
	w := Workload{
		Pattern:        Uniform{},
		ConnsPerHost:   IntRange{Lo: 8, Hi: 8},
		PacketsPerFlow: IntRange{Lo: 100, Hi: 100},
	}
	var rng stats.RNG
	gen := func(buf []Flow, seed uint64) []Flow {
		buf = buf[:0]
		for si := range tp.Hosts {
			buf = w.AppendFlowsOf(buf, &rng, seed, si, tp, topology.HostID(si))
		}
		return buf
	}
	buf := gen(nil, 1) // warm the buffer
	if avg := testing.AllocsPerRun(10, func() { buf = gen(buf, 2) }); avg != 0 {
		t.Fatalf("warmed generation allocates %.1f times per epoch, want 0", avg)
	}
}
