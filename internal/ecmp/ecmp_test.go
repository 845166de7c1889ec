package ecmp

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"vigil/internal/stats"
	"vigil/internal/topology"
)

func buildRouter(t testing.TB, cfg topology.Config, seed uint64) *Router {
	t.Helper()
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewRouter(topo, NewSeeds(topo, stats.NewRNG(seed)))
}

// route resolves src→dst into a fresh PathBuf and copies its links out.
func route(r *Router, src, dst topology.HostID, t FiveTuple) ([]topology.LinkID, error) {
	var buf PathBuf
	err := r.PathInto(src, dst, t, &buf)
	return slices.Clone(buf.Links()), err
}

func randomTuple(rng *stats.RNG, topo *topology.Topology, src, dst topology.HostID) FiveTuple {
	return FiveTuple{
		SrcIP:   topo.Hosts[src].IP,
		DstIP:   topo.Hosts[dst].IP,
		SrcPort: uint16(rng.IntRange(1024, 65535)),
		DstPort: 443,
		Proto:   ProtoTCP,
	}
}

func TestPathDeterminism(t *testing.T) {
	r := buildRouter(t, topology.DefaultSimConfig, 1)
	rng := stats.NewRNG(2)
	for i := 0; i < 200; i++ {
		src := topology.HostID(rng.Intn(len(r.topo.Hosts)))
		dst := topology.HostID(rng.Intn(len(r.topo.Hosts)))
		if r.topo.Hosts[src].ToR == r.topo.Hosts[dst].ToR {
			continue
		}
		tuple := randomTuple(rng, r.topo, src, dst)
		p1, err := route(r, src, dst, tuple)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := route(r, src, dst, tuple)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(p1, p2) {
			t.Fatal("same tuple resolved to different paths")
		}
	}
}

func TestPathStructure(t *testing.T) {
	r := buildRouter(t, topology.DefaultSimConfig, 3)
	topo := r.topo
	rng := stats.NewRNG(4)
	for i := 0; i < 500; i++ {
		src := topology.HostID(rng.Intn(len(topo.Hosts)))
		dst := topology.HostID(rng.Intn(len(topo.Hosts)))
		if topo.Hosts[src].ToR == topo.Hosts[dst].ToR {
			continue
		}
		p, err := route(r, src, dst, randomTuple(rng, topo, src, dst))
		if err != nil {
			t.Fatal(err)
		}
		// Same pod: host,L1up,L1down,host = 4 links / 3 switches.
		// Cross pod: 6 links / 5 switches (the paper's "hop count of 5").
		wantLinks := 6
		if topo.Hosts[src].Pod == topo.Hosts[dst].Pod {
			wantLinks = 4
		}
		if len(p) != wantLinks {
			t.Fatalf("path %d→%d: %d links, want %d", src, dst, len(p), wantLinks)
		}
		// Contiguity: each link starts where the previous ended.
		if topo.Links[p[0]].From != topology.HostNode(src) {
			t.Fatal("path does not start at src")
		}
		for k := 1; k < len(p); k++ {
			if topo.Links[p[k]].From != topo.Links[p[k-1]].To {
				t.Fatal("path links not contiguous")
			}
		}
		if topo.Links[p[len(p)-1]].To != topology.HostNode(dst) {
			t.Fatal("path does not end at dst")
		}
		// Every link but the last ends at a switch, and at no switch twice.
		seen := map[topology.Node]bool{}
		for _, l := range p[:len(p)-1] {
			sw := topo.Links[l].To
			if sw.Kind != topology.NodeSwitch || seen[sw] {
				t.Fatalf("path %d→%d visits %+v twice or not as a switch", src, dst, sw)
			}
			seen[sw] = true
		}
	}
}

func TestPathSameHostRejected(t *testing.T) {
	r := buildRouter(t, topology.TestClusterConfig, 5)
	if _, err := route(r, 0, 0, FiveTuple{}); err == nil {
		t.Fatal("PathInto(src=dst) should fail")
	}
}

func TestHashUniformity(t *testing.T) {
	// Chi-square over 10 buckets for random tuples under one seed.
	rng := stats.NewRNG(9)
	const buckets, n = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		tuple := FiveTuple{
			SrcIP: uint32(rng.Uint64()), DstIP: uint32(rng.Uint64()),
			SrcPort: uint16(rng.Uint64()), DstPort: uint16(rng.Uint64()),
			Proto: ProtoTCP,
		}
		counts[Hash(tuple, 12345)%buckets]++
	}
	want := float64(n) / buckets
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - want
		chi2 += d * d / want
	}
	// 9 degrees of freedom; 99.9th percentile ~ 27.9.
	if chi2 > 27.9 {
		t.Fatalf("hash not uniform: chi2 = %v, counts %v", chi2, counts)
	}
}

func TestHashSensitivity(t *testing.T) {
	base := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	h := Hash(base, 7)
	variants := []FiveTuple{
		{SrcIP: 2, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6},
		{SrcIP: 1, DstIP: 3, SrcPort: 3, DstPort: 4, Proto: 6},
		{SrcIP: 1, DstIP: 2, SrcPort: 4, DstPort: 4, Proto: 6},
		{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 5, Proto: 6},
		{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17},
	}
	for i, v := range variants {
		if Hash(v, 7) == h {
			t.Errorf("variant %d hashed identically", i)
		}
	}
	if Hash(base, 8) == h {
		t.Error("different seed hashed identically")
	}
}

func TestECMPChoiceUniformity(t *testing.T) {
	r := buildRouter(t, topology.DefaultSimConfig, 13)
	topo := r.topo
	rng := stats.NewRNG(14)
	src := topo.HostAt(0, 0, 0)
	dst := topo.HostAt(1, 0, 0)
	n1 := topo.Cfg.T1PerPod
	counts := make(map[topology.LinkID]int)
	const n = 20000
	for i := 0; i < n; i++ {
		tuple := randomTuple(rng, topo, src, dst)
		p, err := route(r, src, dst, tuple)
		if err != nil {
			t.Fatal(err)
		}
		counts[p[1]]++
	}
	if len(counts) != n1 {
		t.Fatalf("used %d uplinks, want %d", len(counts), n1)
	}
	want := float64(n) / float64(n1)
	for link, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("uplink %d used %d times, want ~%v", link, c, want)
		}
	}
}

func TestReverseTuple(t *testing.T) {
	f := func(a, b uint32, sp, dp uint16) bool {
		tu := FiveTuple{SrcIP: a, DstIP: b, SrcPort: sp, DstPort: dp, Proto: ProtoTCP}
		return tu.Reverse().Reverse() == tu
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCondProbMatchesMonteCarlo validates the closed-form conditional
// on-path probabilities against direct simulation.
func TestCondProbMatchesMonteCarlo(t *testing.T) {
	cfg := topology.Config{Pods: 2, ToRsPerPod: 4, T1PerPod: 3, T2: 4, HostsPerToR: 3}
	r := buildRouter(t, cfg, 21)
	topo := r.topo
	rng := stats.NewRNG(22)

	// Pick a few probe links of each class.
	probes := []topology.LinkID{
		topo.LinksOfClass(topology.HostUp)[2],
		topo.LinksOfClass(topology.HostDown)[5],
		topo.LinksOfClass(topology.L1Up)[3],
		topo.LinksOfClass(topology.L1Down)[7],
		topo.LinksOfClass(topology.L2Up)[1],
		topo.LinksOfClass(topology.L2Down)[4],
	}

	// Monte Carlo: sample uniform flows per the paper's model.
	const samples = 300000
	hosts := len(topo.Hosts)
	onA := make([]int, len(probes))
	onBoth := make([][]int, len(probes))
	for i := range onBoth {
		onBoth[i] = make([]int, len(probes))
	}
	for s := 0; s < samples; s++ {
		src := topology.HostID(rng.Intn(hosts))
		dst := topology.HostID(rng.Intn(hosts))
		if topo.Hosts[src].ToR == topo.Hosts[dst].ToR {
			continue
		}
		p, err := route(r, src, dst, randomTuple(rng, topo, src, dst))
		if err != nil {
			t.Fatal(err)
		}
		on := map[topology.LinkID]bool{}
		for _, l := range p {
			on[l] = true
		}
		for i, a := range probes {
			if !on[a] {
				continue
			}
			onA[i]++
			for j, b := range probes {
				if on[b] {
					onBoth[i][j]++
				}
			}
		}
	}

	for i, a := range probes {
		calc := NewCondCalc(topo, a)
		if onA[i] < 200 {
			t.Fatalf("probe %d saw too few conditioned samples (%d)", i, onA[i])
		}
		for j, b := range probes {
			want := float64(onBoth[i][j]) / float64(onA[i])
			got := calc.Cond(b)
			se := math.Sqrt(want*(1-want)/float64(onA[i])) + 0.01
			if math.Abs(got-want) > 4*se {
				t.Errorf("Cond(%s | %s) = %v, Monte Carlo %v (n=%d)",
					topo.LinkName(b), topo.LinkName(a), got, want, onA[i])
			}
		}
	}
}

func TestCondSelf(t *testing.T) {
	topo, err := topology.New(topology.DefaultSimConfig)
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []topology.LinkClass{topology.HostUp, topology.L1Up, topology.L2Down} {
		a := topo.LinksOfClass(class)[0]
		if got := NewCondCalc(topo, a).Cond(a); got != 1 {
			t.Fatalf("Cond(a|a) = %v for class %v", got, class)
		}
	}
}

func TestCondDisjointLinks(t *testing.T) {
	topo, err := topology.New(topology.DefaultSimConfig)
	if err != nil {
		t.Fatal(err)
	}
	// Two different uplinks of the same ToR can never share a flow.
	tor := topo.Switches[topo.ToR(0, 0)]
	calc := NewCondCalc(topo, tor.Uplinks[0])
	if got := calc.Cond(tor.Uplinks[1]); got != 0 {
		t.Fatalf("Cond over mutually exclusive uplinks = %v", got)
	}
	// Host uplinks of two different hosts can never share a flow.
	calc = NewCondCalc(topo, topo.Hosts[0].Uplink)
	if got := calc.Cond(topo.Hosts[1].Uplink); got != 0 {
		t.Fatalf("Cond over two src host links = %v", got)
	}
}

func TestOnPathProbSumsToPathLength(t *testing.T) {
	// Sum over all links of P(link on path) equals E[path length].
	cfg := topology.Config{Pods: 2, ToRsPerPod: 3, T1PerPod: 2, T2: 2, HostsPerToR: 2}
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// P(link on path) is a CondCalc's pa over the ordered ToR pairs.
	nTor := float64(cfg.Pods * cfg.ToRsPerPod)
	var sum float64
	for id := range topo.Links {
		sum += NewCondCalc(topo, topology.LinkID(id)).pa / (nTor * (nTor - 1))
	}
	// E[len] = 4*P(same pod) + 6*P(cross pod).
	pSame := float64(cfg.ToRsPerPod-1) / (nTor - 1)
	want := 4*pSame + 6*(1-pSame)
	if math.Abs(sum-want) > 1e-9 {
		t.Fatalf("sum of on-path probs = %v, want %v", sum, want)
	}
}

func BenchmarkCondCalc(b *testing.B) {
	topo, _ := topology.New(topology.DefaultSimConfig)
	a := topo.LinksOfClass(topology.L1Up)[0]
	k := topo.LinksOfClass(topology.L2Up)[0]
	calc := NewCondCalc(topo, a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		calc.Cond(k)
	}
}
