package experiments

import (
	"fmt"
	"math"
	"slices"

	"vigil/internal/cluster"
	"vigil/internal/des"
	"vigil/internal/ecmp"
	"vigil/internal/everflow"
	"vigil/internal/metrics"
	"vigil/internal/report"
	"vigil/internal/slb"
	"vigil/internal/stats"
	"vigil/internal/theory"
	"vigil/internal/topology"
	"vigil/internal/traffic"
	"vigil/internal/vote"
)

func init() {
	register("table1", "Table 1: ICMP messages per second per switch", runTable1)
	register("theorem1", "Theorem 1: Ct bound vs observed switch ICMP load", runTheorem1)
	register("fig13", "Figure 13: vote gap between the bad link and the best good link", runFig13)
	register("cluster2", "Section 7.2: per-connection attribution with two unequal failures", runCluster2)
	register("cluster3", "Section 7.3: rank placement with two close failures", runCluster3)
	register("prod-everflow", "Section 8.2: EverFlow cross-validation of paths and blame", runProdEverflow)
	register("prod-reboots", "Section 8.3 + Figure 14: VM reboot diagnosis", runProdReboots)
}

func clusterEpochs(o Options) int {
	if o.Scale == Quick {
		return 2
	}
	return 8
}

// newTestCluster builds the §7 test-cluster emulation.
func newTestCluster(seed uint64) (*cluster.Cluster, error) {
	topo, err := topology.New(topology.TestClusterConfig)
	if err != nil {
		return nil, err
	}
	return cluster.New(cluster.Config{Topo: topo, Seed: seed})
}

// rankOf is link's 0-based place in a ranking; a link without votes ranks
// below every link in it.
func rankOf(ranking []vote.LinkVotes, link topology.LinkID) int {
	for i, lv := range ranking {
		if lv.Link == link {
			return i
		}
	}
	return math.MaxInt
}

func runClusterWorkload(cl *cluster.Cluster, rng *stats.RNG, conns, packets int) {
	w := traffic.Workload{
		Pattern:        traffic.Uniform{},
		ConnsPerHost:   traffic.IntRange{Lo: conns, Hi: conns},
		PacketsPerFlow: traffic.IntRange{Lo: packets / 2, Hi: packets},
	}
	cl.StartWorkload(w, 20*des.Second)
}

// runTable1 drives the packet plane with a lossy link (so traceroutes
// fire) and tabulates the per-switch per-second ICMP distribution.
func runTable1(opts Options) (*Result, error) {
	cl, err := newTestCluster(opts.Seed + 1)
	if err != nil {
		return nil, err
	}
	topo := cl.Topo
	rng := stats.NewRNG(opts.Seed + 2)
	bad := topo.LinksOfClass(topology.L1Down)[3]
	cl.InjectFailure(bad, 0.05)
	epochs := clusterEpochs(opts)
	for e := 0; e < epochs; e++ {
		runClusterWorkload(cl, rng, 10, 150)
		cl.RunEpoch()
	}
	seconds := int64(cl.Sched.Now() / des.Second)
	zero, low, high, peak := cl.Net.ICMPSecondStats(seconds)
	t := &report.Table{
		Title:   "Table 1: distribution of ICMP/s per switch (T)",
		Columns: []string{"T = 0", "0 < T <= 3", "T > 3", "max(T)"},
	}
	t.AddRow(fmt.Sprintf("%.1f%%", zero*100), fmt.Sprintf("%.2f%%", low*100),
		fmt.Sprintf("%.3f%%", high*100), peak)
	if float64(peak) > 100 {
		t.Title += "  [VIOLATION: max exceeded Tmax]"
	}
	return &Result{ID: "table1", Title: "Table 1", Tables: []*report.Table{t},
		Notes: []string{"Paper: 69% zero, 30.98% in (0,3], 0.02% above 3, max 11 — always below Tmax=100."}}, nil
}

// runTheorem1 prints the Ct bound for both topologies and checks the
// emulated switches never exceeded Tmax even under traceroute storms.
func runTheorem1(opts Options) (*Result, error) {
	t := &report.Table{
		Title:   "Theorem 1: host traceroute budget Ct (Tmax=100)",
		Columns: []string{"topology", "n0", "n1", "n2", "pods", "H", "Ct bound (/s)"},
	}
	for _, c := range []struct {
		name string
		cfg  topology.Config
	}{
		{"paper simulator", topology.DefaultSimConfig},
		{"test cluster", topology.TestClusterConfig},
	} {
		t.AddRow(c.name, c.cfg.ToRsPerPod, c.cfg.T1PerPod, c.cfg.T2, c.cfg.Pods,
			c.cfg.HostsPerToR, theory.CtBound(c.cfg, 100))
	}

	// Stress the emulation: every link lossy, every flow traced.
	cl, err := newTestCluster(opts.Seed + 3)
	if err != nil {
		return nil, err
	}
	for id := range cl.Topo.Links {
		cl.InjectFailure(topology.LinkID(id), 0.05)
	}
	rng := stats.NewRNG(opts.Seed + 4)
	runClusterWorkload(cl, rng, 6, 60)
	cl.RunEpoch()
	_, _, _, maxPerSec := cl.Net.ICMPSecondStats(int64(cl.Sched.Now() / des.Second))
	te := &report.Table{
		Title:   "Empirical check under a traceroute storm",
		Columns: []string{"max ICMP in any switch-second", "Tmax", "within bound"},
	}
	te.AddRow(maxPerSec, 100, maxPerSec <= 100)
	return &Result{ID: "theorem1", Title: "Theorem 1", Tables: []*report.Table{t, te},
		Notes: []string{"The switch-side token bucket and host-side Ct keep every switch-second at or below Tmax."}}, nil
}

// runFig13 reproduces the vote-gap experiment: induce one drop rate on a
// T1→ToR link and record, per epoch, bad-link votes minus the highest
// good-link votes.
func runFig13(opts Options) (*Result, error) {
	t := &report.Table{
		Title:   "Fig 13: [bad link votes] - [max good link votes], per epoch",
		Columns: []string{"drop rate", "epochs", "median gap", "p10 gap", "bad is top (%)", "bad in top-2 (%)"},
	}
	rates := []float64{0.0005, 0.005, 0.01}
	epochs := clusterEpochs(opts) * 2
	for _, rate := range rates {
		cl, err := newTestCluster(opts.Seed + uint64(rate*1e6))
		if err != nil {
			return nil, err
		}
		topo := cl.Topo
		bad := topo.LinksOfClass(topology.L1Down)[5]
		cl.InjectFailure(bad, rate)
		rng := stats.NewRNG(opts.Seed + 31)
		var gaps stats.ECDF
		top1, top2 := 0, 0
		for e := 0; e < epochs; e++ {
			runClusterWorkload(cl, rng, 15, 200)
			res := cl.RunEpoch()
			var badV, bestGood float64
			for _, lv := range res.Ranking {
				if lv.Link == bad {
					badV = lv.Votes
				} else if lv.Votes > bestGood {
					bestGood = lv.Votes
				}
			}
			gaps.Add(badV - bestGood)
			if r := rankOf(res.Ranking, bad); r < 2 {
				top2++
				if r == 0 {
					top1++
				}
			}
		}
		t.AddRow(fmt.Sprintf("%.2f%%", rate*100), epochs,
			gaps.Quantile(0.5), gaps.Quantile(0.1),
			100*float64(top1)/float64(epochs), 100*float64(top2)/float64(epochs))
	}
	return &Result{ID: "fig13", Title: "Figure 13", Tables: []*report.Table{t},
		Notes: []string{"Paper: gap grows with the drop rate; at 0.05% the bad link tops the tally 88.89% of epochs",
			"and is always within the top 2; at 0.1%+ it is always first."}}, nil
}

// runCluster2 is §7.2: two failures at 0.2% and 0.05%; among flows through
// at least one of them, how often is the blamed link the true (heavier)
// culprit?
func runCluster2(opts Options) (*Result, error) {
	cl, err := newTestCluster(opts.Seed + 41)
	if err != nil {
		return nil, err
	}
	topo := cl.Topo
	l1 := topo.LinksOfClass(topology.L1Down)[1]
	l2 := topo.LinksOfClass(topology.L1Down)[18]
	cl.InjectFailure(l1, 0.002)
	cl.InjectFailure(l2, 0.0005)
	rng := stats.NewRNG(opts.Seed + 42)
	correct, considered := 0, 0
	for e := 0; e < clusterEpochs(opts)*2; e++ {
		runClusterWorkload(cl, rng, 15, 200)
		res := cl.RunEpoch()
		s := metrics.ScoreVerdicts(res.Verdicts, cl.LastEpoch().Truth)
		correct += s.Correct
		considered += s.Considered
	}
	t := &report.Table{
		Title:   "Sec 7.2: attribution among flows crossing a failed link (0.2% vs 0.05%)",
		Columns: []string{"flows considered", "correctly attributed", "accuracy"},
	}
	acc := 0.0
	if considered > 0 {
		acc = float64(correct) / float64(considered)
	}
	t.AddRow(considered, correct, acc)
	return &Result{ID: "cluster2", Title: "Section 7.2", Tables: []*report.Table{t},
		Notes: []string{"Paper: 90.47% of such flows attributed to the correct (higher-rate) link."}}, nil
}

// runCluster3 is §7.3's multi-failure rank experiment: 0.2% and 0.1%
// links; where do they land in the ranking across epochs?
func runCluster3(opts Options) (*Result, error) {
	cl, err := newTestCluster(opts.Seed + 51)
	if err != nil {
		return nil, err
	}
	topo := cl.Topo
	hi := topo.LinksOfClass(topology.L1Down)[9]
	lo := topo.LinksOfClass(topology.L1Down)[30]
	cl.InjectFailure(hi, 0.002)
	cl.InjectFailure(lo, 0.001)
	rng := stats.NewRNG(opts.Seed + 52)
	epochs := clusterEpochs(opts) * 2
	hiTop, loTop2, loTop5 := 0, 0, 0
	for e := 0; e < epochs; e++ {
		runClusterWorkload(cl, rng, 15, 200)
		res := cl.RunEpoch()
		if rankOf(res.Ranking, hi) == 0 {
			hiTop++
		}
		if r := rankOf(res.Ranking, lo); r < 5 {
			loTop5++
			if r < 2 {
				loTop2++
			}
		}
	}
	t := &report.Table{
		Title:   "Sec 7.3: rank placement over epochs (0.2% and 0.1% links)",
		Columns: []string{"epochs", "0.2% link ranked #1 (%)", "0.1% link in top 2 (%)", "0.1% link in top 5 (%)"},
	}
	t.AddRow(epochs, 100*float64(hiTop)/float64(epochs),
		100*float64(loTop2)/float64(epochs), 100*float64(loTop5)/float64(epochs))
	return &Result{ID: "cluster3", Title: "Section 7.3", Tables: []*report.Table{t},
		Notes: []string{"Paper: higher-rate link first 100% of the time; the second stays within the top 5 always",
			"(top 2 47% of the time)."}}, nil
}

// runProdEverflow is §8.2: mirror a few source hosts with EverFlow and
// check 007's discovered paths and per-flow blame against it.
func runProdEverflow(opts Options) (*Result, error) {
	cl, err := newTestCluster(opts.Seed + 61)
	if err != nil {
		return nil, err
	}
	topo := cl.Topo
	rng := stats.NewRNG(opts.Seed + 62)
	// Sample 9 hosts, as the paper did.
	sampled := make([]topology.HostID, 0, 9)
	for _, i := range rng.Perm(len(topo.Hosts))[:9] {
		sampled = append(sampled, topology.HostID(i))
	}
	ef := everflow.New(topo, everflow.SourceHostFilter(topo, sampled))
	cl.Net.AddTap(ef.Tap())
	bad := topo.LinksOfClass(topology.L1Down)[12]
	cl.InjectFailure(bad, 0.02)

	pathsChecked, pathsMatched := 0, 0
	blameChecked, blameMatched := 0, 0
	for e := 0; e < clusterEpochs(opts); e++ {
		runClusterWorkload(cl, rng, 15, 200)
		res := cl.RunEpoch()
		tuples := make(map[int64]ecmp.FiveTuple, len(cl.Flows()))
		for _, f := range cl.Flows() {
			tuples[f.ID()] = f.WireTuple()
		}
		for i, r := range cl.LastEpoch().Reports {
			if r.Partial || !slices.Contains(sampled, r.Src) {
				continue
			}
			tuple, ok := tuples[r.FlowID]
			if !ok {
				continue
			}
			want, ok := ef.PathOf(tuple)
			if !ok {
				continue
			}
			pathsChecked++
			if slices.Equal(want, r.Path) {
				pathsMatched++
			}
			// Blame check: EverFlow's drop site vs 007's verdict in the
			// report's own epoch.
			if culprit, ok := ef.Culprit(tuple); ok {
				if blame := res.Verdicts[i].Link; blame != topology.NoLink {
					blameChecked++
					if blame == culprit {
						blameMatched++
					}
				}
			}
		}
	}
	t := &report.Table{
		Title:   "Sec 8.2: EverFlow cross-validation (9 mirrored hosts)",
		Columns: []string{"paths checked", "paths matched", "blames checked", "blames matched", "mirror volume"},
	}
	t.AddRow(pathsChecked, pathsMatched, blameChecked, blameMatched, ef.Observations)
	notes := []string{"Paper: every checked flow matched on both path and drop location."}
	if pathsChecked > 0 && pathsMatched != pathsChecked {
		notes = append(notes, "MISMATCH: some paths diverged — investigate re-routing during traces.")
	}
	return &Result{ID: "prod-everflow", Title: "Section 8.2", Tables: []*report.Table{t}, Notes: notes}, nil
}

// runProdReboots reproduces the §8.3 / Figure 14 scenario: storage-service
// connections (VIP-fronted) whose failure reboots a VM; 007 names a cause
// for each reboot, dominated by host-ToR links.
func runProdReboots(opts Options) (*Result, error) {
	cl, err := newTestCluster(opts.Seed + 71)
	if err != nil {
		return nil, err
	}
	topo := cl.Topo
	rng := stats.NewRNG(opts.Seed + 72)
	// Storage service: one VIP over four backends.
	vip := slb.VIP(1)
	backends := []topology.HostID{
		topo.HostAt(0, 8, 0), topo.HostAt(0, 8, 1), topo.HostAt(0, 9, 0), topo.HostAt(0, 9, 1),
	}
	if err := cl.SLB.RegisterVIP(vip, backends); err != nil {
		return nil, err
	}
	// Failure mix per §8.3: mostly transient host-ToR drops, some ToR
	// downlinks, a flapping T1 link.
	hostLinks := []topology.LinkID{
		topo.Hosts[backends[0]].Downlink,
		topo.Hosts[backends[2]].Downlink,
	}
	flap := topo.LinksOfClass(topology.L1Down)[16]

	epochs := clusterEpochs(opts) * 2
	type reboot struct {
		epoch int
		cause topology.LinkID
		noise bool
	}
	var reboots []reboot
	for e := 0; e < epochs; e++ {
		// Transient failures come and go, like the paper's config updates
		// and flaps.
		for _, l := range hostLinks {
			if rng.Bool(0.6) {
				cl.InjectFailure(l, rng.Uniform(0.3, 0.8))
			} else {
				cl.ClearFailure(l)
			}
		}
		if e%3 == 0 {
			cl.InjectFailure(flap, 0.85)
		} else {
			cl.ClearFailure(flap)
		}
		for i := 0; i < 40; i++ {
			src := topology.HostID(rng.Intn(len(topo.Hosts)))
			if err := cl.StartVIPFlow(src, vip, 443, 60, des.Time(rng.Intn(int(20*des.Second)))); err != nil {
				return nil, err
			}
		}
		res := cl.RunEpoch()
		// Every failed connection is a "VM reboot"; ask 007 for its cause.
		byFlow := make(map[int64]vote.Verdict, len(res.Verdicts))
		for _, v := range res.Verdicts {
			byFlow[v.FlowID] = v
		}
		for _, f := range cl.Flows() {
			c := f.Conn()
			if c == nil || !c.Failed {
				continue
			}
			if v, ok := byFlow[f.ID()]; ok {
				reboots = append(reboots, reboot{epoch: e, cause: v.Link, noise: v.Noise})
			}
		}
	}
	// Classify causes by link class, the paper's §8.3 breakdown.
	classCount := map[string]int{}
	explained := 0
	for _, rb := range reboots {
		if rb.cause == topology.NoLink {
			classCount["unexplained"]++
			continue
		}
		explained++
		classCount[topo.Links[rb.cause].Class.String()]++
	}
	t := &report.Table{
		Title:   "Sec 8.3: causes 007 assigned to failed storage connections (\"VM reboots\")",
		Columns: []string{"cause class", "count", "share"},
	}
	for _, class := range []string{"ToR-host", "host-ToR", "T1-ToR", "ToR-T1", "T2-T1", "T1-T2", "unexplained"} {
		if n := classCount[class]; n > 0 {
			t.AddRow(class, n, fmt.Sprintf("%.0f%%", 100*float64(n)/float64(len(reboots))))
		}
	}
	t2 := &report.Table{
		Title:   "Fig 14: reboot events per epoch",
		Columns: []string{"epoch", "reboots"},
	}
	perEpoch := make([]int, epochs)
	for _, rb := range reboots {
		perEpoch[rb.epoch]++
	}
	for e, n := range perEpoch {
		t2.AddRow(e, n)
	}
	notes := []string{
		fmt.Sprintf("007 assigned a cause to %d of %d reboot events.", explained, len(reboots)),
		"Paper: every one of 281 unexplained reboots got a cause; most traced to host-ToR links,",
		"some to ToR drops, configuration updates and link flaps.",
	}
	return &Result{ID: "prod-reboots", Title: "Section 8.3 / Figure 14",
		Tables: []*report.Table{t, t2}, Notes: notes}, nil
}

func init() {
	register("ext-latency", "Extension (§9.2): latency diagnosis via RTT thresholds", runExtLatency)
}

// runExtLatency exercises the paper's §9.2 extension: a link with injected
// delay and zero drops is localized by thresholding TCP's smoothed RTT.
func runExtLatency(opts Options) (*Result, error) {
	t := &report.Table{
		Title:   "Extension: RTT-threshold localization of a slow (non-dropping) link",
		Columns: []string{"extra one-way delay", "epochs", "slow link top-1 (%)", "reports/epoch"},
	}
	epochs := clusterEpochs(opts)
	for _, extra := range []des.Time{1 * des.Millisecond, 3 * des.Millisecond} {
		topo, err := topology.New(topology.TestClusterConfig)
		if err != nil {
			return nil, err
		}
		cl, err := cluster.New(cluster.Config{Topo: topo, Seed: opts.Seed + 81, RTTThresholdMicros: 800})
		if err != nil {
			return nil, err
		}
		slow := topo.LinksOfClass(topology.L1Down)[7]
		if err := cl.Net.SetExtraDelay(slow, extra); err != nil {
			return nil, err
		}
		rng := stats.NewRNG(opts.Seed + 82)
		top1, reports := 0, 0
		for e := 0; e < epochs; e++ {
			runClusterWorkload(cl, rng, 8, 60)
			res := cl.RunEpoch()
			reports += len(res.Verdicts)
			if rankOf(res.Ranking, slow) == 0 {
				top1++
			}
		}
		t.AddRow(fmt.Sprintf("%dms", extra/des.Millisecond), epochs,
			100*float64(top1)/float64(epochs), reports/epochs)
	}
	return &Result{ID: "ext-latency", Title: "Latency extension", Tables: []*report.Table{t},
		Notes: []string{"§9.2: thresholding ETW's smoothed RTT turns 007 into a latency localizer with no new machinery;",
			"the slow link wins the vote despite dropping nothing."}}, nil
}
