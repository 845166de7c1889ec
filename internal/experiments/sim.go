package experiments

import (
	"fmt"

	"vigil/internal/par"
	"vigil/internal/report"
	"vigil/internal/stats"
	"vigil/internal/theory"
	"vigil/internal/topology"
	"vigil/internal/traffic"
	"vigil/internal/vote"
)

// §6's figures are values: a figure is panels, a panel is a sweep (one
// point per row) and columns (one score per cell), and figure renders every
// panel through sweepPoint. fig1, fig9, fig11 and theorem2 stay loops: fig9
// and fig11 are two-dimensional grids, and fig1 and theorem2 do not seed
// through sweepPoint.

// column is one scored column of a panel: its header and the cell it makes
// from a sweep point's repetitions.
type column struct {
	name string
	cell func([]simOutcome) any
}

// meanCI is a column of one score's mean ± 95% CI over the repetitions.
func meanCI(name string, score func(simOutcome) float64) column {
	return column{name, func(outs []simOutcome) any { return fmtMeanCI(mean(outs, score)) }}
}

var (
	accuracy007  = meanCI("007 accuracy", func(o simOutcome) float64 { return o.acc007 })
	accuracyInt  = meanCI("integer opt accuracy", func(o simOutcome) float64 { return o.accInt })
	precision007 = meanCI("007 prec", func(o simOutcome) float64 { return o.det007.Precision })
	recall007    = meanCI("007 recall", func(o simOutcome) float64 { return o.det007.Recall })
	precisionInt = meanCI("int prec", func(o simOutcome) float64 { return o.detInt.Precision })
	recallInt    = meanCI("int recall", func(o simOutcome) float64 { return o.detInt.Recall })
	precisionBin = meanCI("bin prec", func(o simOutcome) float64 { return o.detBin.Precision })
	recallBin    = meanCI("bin recall", func(o simOutcome) float64 { return o.detBin.Recall })
)

// point is one row of a panel: its label in the x column and the condition
// it simulates.
type point struct {
	label any
	spec  simSpec
}

// panel is one table of a figure, its first column headed x.
type panel struct {
	title string
	x     string
	sweep func(Options) []point
	cols  []column
}

// figure registers a runner that renders each panel: Seeds repetitions per
// point through sweepPoint, one row per point.
func figure(id, title, short string, notes []string, panels ...panel) {
	register(id, title, func(opts Options) (*Result, error) {
		res := &Result{ID: id, Title: short, Notes: notes}
		for _, p := range panels {
			t := &report.Table{Title: p.title, Columns: []string{p.x}}
			for _, c := range p.cols {
				t.Columns = append(t.Columns, c.name)
			}
			for _, pt := range p.sweep(opts) {
				outs, err := sweepPoint(pt.spec, opts)
				if err != nil {
					return nil, err
				}
				row := []any{pt.label}
				for _, c := range p.cols {
					row = append(row, c.cell(outs))
				}
				t.AddRow(row...)
			}
			res.Tables = append(res.Tables, t)
		}
		return res, nil
	})
}

// ---- bases: the traffic a sweep varies its parameter under ----

// uniform is §6's default: uniform traffic at the scale's connection count.
func uniform(o Options) simSpec {
	return simSpec{topo: o.topoConfig(), workload: traffic.Workload{ConnsPerHost: traffic.IntRange{Lo: o.conns(), Hi: o.conns()}}}
}

// varied draws each host's connection count from U(10, 60) (Fig. 7).
func varied(o Options) simSpec {
	return simSpec{topo: o.topoConfig(), workload: traffic.Workload{ConnsPerHost: traffic.IntRange{Lo: 10, Hi: 60}}}
}

// skewed sends 80% of the flows to a quarter of the ToRs (Fig. 8). The hot
// set is drawn once per Options.Seed, like the paper's "we pick 10 ToRs at
// random", so every repetition and point of a sweep shares it.
func skewed(o Options) simSpec {
	s := uniform(o)
	s.pattern = func(topo *topology.Topology) traffic.Pattern {
		hot := traffic.RandomToRs(stats.NewRNG(o.Seed+77), topo, topo.Cfg.Pods*topo.Cfg.ToRsPerPod/4)
		return traffic.SkewedToRs{Hot: hot, Frac: 0.8}
	}
	return s
}

// ---- sweeps ----

func failCounts(o Options) []int {
	if o.Scale == Quick {
		return []int{2, 6}
	}
	return []int{2, 6, 10, 14} // the paper's x-axis
}

func rateSweep(o Options) []float64 {
	if o.Scale == Quick {
		return []float64{0.001, 0.01}
	}
	return []float64{0.0005, 0.001, 0.002, 0.004, 0.006, 0.008, 0.01}
}

// byFailures sweeps the failure count, rates U(lo, hi).
func byFailures(lo, hi float64, base func(Options) simSpec) func(Options) []point {
	return func(o Options) []point {
		var pts []point
		for _, k := range failCounts(o) {
			s := base(o)
			s.failures = uniformFailures(k, lo, hi)
			pts = append(pts, point{k, s})
		}
		return pts
	}
}

// byRate sweeps one failure's drop rate.
func byRate(base func(Options) simSpec) func(Options) []point {
	return func(o Options) []point {
		var pts []point
		for _, rate := range rateSweep(o) {
			s := base(o)
			s.failures = singleFailure(rate)
			pts = append(pts, point{fmt.Sprintf("%.2f%%", rate*100), s})
		}
		return pts
	}
}

// byNoise sweeps the good links' noise ceiling under uniform traffic.
func byNoise(failures failurePick) func(Options) []point {
	return func(o Options) []point {
		noises := []float64{1e-6, 2e-6, 5e-6, 1e-5}
		if o.Scale == Quick {
			noises = []float64{1e-6, 1e-5}
		}
		var pts []point
		for _, hi := range noises {
			s := uniform(o)
			s.noiseHi, s.failures = hi, failures
			pts = append(pts, point{report.FormatFloat(hi), s})
		}
		return pts
	}
}

// severeAmongWeak sweeps the failure count with one severe failure,
// U(10%,100%), among weak ones, U(0.01%,0.1%) (Fig. 12).
func severeAmongWeak(o Options) []point {
	var pts []point
	for _, k := range failCounts(o) {
		s := uniform(o)
		s.failures = func(rng *stats.RNG, topo *topology.Topology) map[topology.LinkID]float64 {
			out := make(map[topology.LinkID]float64, k)
			for i, l := range randomLinks(rng, topo, k) {
				if i == 0 {
					out[l] = rng.Uniform(0.1, 1.0)
				} else {
					out[l] = rng.Uniform(0.0001, 0.001)
				}
			}
			return out
		}
		pts = append(pts, point{k, s})
	}
	return pts
}

// byPods sweeps the pod count with one 0.5% failure (§6.7).
func byPods(o Options) []point {
	pods := []int{1, 2, 3, 4}
	if o.Scale == Quick {
		pods = []int{1, 2}
	}
	var pts []point
	for _, p := range pods {
		s := uniform(o)
		s.topo.Pods = p
		s.failures = singleFailure(0.005)
		pts = append(pts, point{p, s})
	}
	return pts
}

// thirtyFailures is §6.7's ">=30 failures" spot check, at full scale only.
func thirtyFailures(o Options) []point {
	if o.Scale != Full {
		return nil
	}
	s := uniform(o)
	s.failures = uniformFailures(30, 0.0005, 0.01)
	return []point{{30, s}}
}

// The sweeps two figures share: fig3 and fig4 print different columns of
// one, fig5a and fig10 of the other.
var (
	theorem2Regime = byFailures(0.0005, 0.01, uniform)
	singleUniform  = byRate(uniform)
)

func init() {
	register("fig1", "Figure 1: drops are spread across many flows", runFig1)
	figure("fig3", "Figure 3: per-flow accuracy vs number of failed links (Theorem 2 regime)", "Figure 3",
		[]string{"Paper: 007 average accuracy >96% in almost all cases, at or above the integer optimization."},
		panel{"Fig 3: per-flow accuracy, drop rates U(0.05%,1%)", "failed links", theorem2Regime, []column{accuracy007, accuracyInt,
			{"failure flows", func(outs []simOutcome) any {
				return int(mean(outs, func(o simOutcome) float64 { return float64(o.failFlows) }).Mean)
			}}}})
	figure("fig4", "Figure 4: Algorithm 1 precision/recall vs number of failed links", "Figure 4",
		[]string{"Paper: 007 keeps high recall and precision across k; the binary program trails under noise."},
		panel{"Fig 4: Algorithm 1 precision/recall, drop rates U(0.05%,1%)", "failed links", theorem2Regime,
			[]column{precision007, recall007, precisionInt, recallInt, precisionBin, recallBin}})
	figure("fig5", "Figure 5: accuracy for varying drop rates", "Figure 5",
		[]string{"Paper: 007 stays accurate even below the Theorem 2 bounds and with disparate rates."},
		panel{"Fig 5a: single failure, accuracy vs drop rate", "drop rate", singleUniform, []column{accuracy007, accuracyInt}},
		panel{"Fig 5b: multiple failures, rates U(0.01%,1%)", "failed links", byFailures(0.0001, 0.01, uniform), []column{accuracy007, accuracyInt}})
	figure("fig6", "Figure 6: accuracy for varying noise levels", "Figure 6",
		[]string{"Paper: noise barely moves 007; the optimization grows large confidence intervals."},
		panel{"Fig 6a: single failure (0.5%), rising noise", "noise hi", byNoise(singleFailure(0.005)), []column{accuracy007, accuracyInt}},
		panel{"Fig 6b: 5 failures U(0.05%,1%), rising noise", "noise hi", byNoise(uniformFailures(5, 0.0005, 0.01)), []column{accuracy007, accuracyInt}})
	figure("fig7", "Figure 7: accuracy for varying number of connections", "Figure 7",
		[]string{"Paper: fewer connections starve the optimization of constraints; 007 keeps its accuracy."},
		panel{"Fig 7a: single failure, conns/host U(10,60)", "drop rate", byRate(varied), []column{accuracy007, accuracyInt}},
		panel{"Fig 7b: multiple failures, conns/host U(10,60)", "failed links", byFailures(0.0005, 0.01, varied), []column{accuracy007, accuracyInt}})
	figure("fig8", "Figure 8: accuracy under skewed traffic", "Figure 8",
		[]string{"Paper: skew hits the optimization much harder; 007 keeps >=85% accuracy above 0.1% drop rates."},
		panel{"Fig 8a: single failure under 80/25 skew", "drop rate", byRate(skewed), []column{accuracy007, accuracyInt}},
		panel{"Fig 8b: multiple failures under 80/25 skew", "failed links", byFailures(0.0005, 0.01, skewed), []column{accuracy007, accuracyInt}})
	register("fig9", "Figure 9: impact of a hot ToR", runFig9)
	figure("fig10", "Figure 10: Algorithm 1 with a single failure", "Figure 10",
		[]string{"Paper: 007 beats the optimizations, which lack constraints to pin the failure; binary over-blames."},
		panel{"Fig 10: Algorithm 1, single failure", "drop rate", singleUniform,
			[]column{precision007, recall007, precisionInt, recallInt, precisionBin, recallBin}})
	register("fig11", "Figure 11: impact of failed-link location", runFig11)
	figure("fig12", "Figure 12: Algorithm 1 with heavily skewed multi-failure drop rates", "Figure 12",
		[]string{
			"Paper: precision >90% through 7 failures; recall decays with k because the severe link",
			"inflates everyone's votes and with them the 1% cutoff.",
		},
		panel{"Fig 12: Algorithm 1, one severe failure (10-100%) among weak ones (0.01-0.1%)", "failed links", severeAmongWeak,
			[]column{precision007, recall007, precisionInt, recallInt}})
	figure("netsize", "Section 6.7: effects of network size", "Section 6.7",
		[]string{"Paper: 98/92/91/90% accuracy for 1-4 pods vs 94/72/79/77% for the optimization;",
			"per-flow accuracy stays ~98% even at 30 failures."},
		panel{"Sec 6.7: single-failure accuracy and detection vs pod count", "pods", byPods,
			[]column{accuracy007, {"int accuracy", accuracyInt.cell}, precision007, recall007}},
		panel{"Sec 6.7: 30 simultaneous failures", "failed links", thirtyFailures, []column{accuracy007, recall007}})
	register("theorem2", "Theorem 2: bounds and empirical error decay", runTheorem2)
	register("abl-adjust", "Ablation: Algorithm 1 vote adjustment strategy", runAblAdjust)
	register("abl-threshold", "Ablation: Algorithm 1 detection threshold sweep", runAblThreshold)
	register("abl-votevalue", "Ablation: 1/h votes vs unit votes", runAblVoteValue)
	register("abl-ratelimit", "Ablation: traceroute rate cap vs accuracy", runAblRateLimit)
}

// runFig1 reproduces the motivation figure: condition epochs on the total
// number of drops and report how many flows share them and the largest
// per-flow share.
func runFig1(opts Options) (*Result, error) {
	spec := uniform(opts)
	spec.noiseLo, spec.noiseHi = 1e-7, 2e-6 // occasional lone drops
	sim, err := newSim(spec, opts.Seed+11, opts.parallelism())
	if err != nil {
		return nil, err
	}
	topo := sim.Topology()
	// A rotating population of low-rate failures produces the production
	// mix of quiet and lossy intervals.
	rng := stats.NewRNG(opts.Seed + 12)
	epochs := 40
	if opts.Scale == Quick {
		epochs = 10
	}
	type obs struct {
		totalDrops int
		flows      int
		maxShare   float64
	}
	var all []obs
	for e := 0; e < epochs; e++ {
		sim.ClearAllFailures()
		if rng.Bool(0.7) {
			for _, l := range randomLinks(rng, topo, rng.IntRange(1, 3)) {
				sim.InjectFailure(l, rng.Uniform(0.00005, 0.001))
			}
		}
		ep := sim.RunEpoch()
		o := obs{totalDrops: ep.TotalDrops, flows: len(ep.Failed)}
		for _, f := range ep.Failed {
			if share := float64(f.Drops) / float64(ep.TotalDrops); share > o.maxShare {
				o.maxShare = share
			}
		}
		all = append(all, o)
	}
	t1 := &report.Table{
		Title:   "Fig 1a: flows sharing the epoch's drops, conditioned on total drops",
		Columns: []string{"condition", "epochs", "median flows", "p5 flows", "frac with >=3 flows"},
	}
	t2 := &report.Table{
		Title:   "Fig 1b: largest fraction of an epoch's drops on any single flow",
		Columns: []string{"condition", "epochs", "median max-share", "p80 max-share"},
	}
	for _, minDrops := range []int{1, 2, 10, 30, 50} {
		var flows, shares stats.ECDF
		n, atLeast3 := 0, 0
		for _, o := range all {
			if o.totalDrops < minDrops {
				continue
			}
			n++
			flows.Add(float64(o.flows))
			shares.Add(o.maxShare)
			if o.flows >= 3 {
				atLeast3++
			}
		}
		cond := fmt.Sprintf(">=%d drops", minDrops)
		if n == 0 {
			t1.AddRow(cond, 0, "-", "-", "-")
			t2.AddRow(cond, 0, "-", "-")
			continue
		}
		t1.AddRow(cond, n, flows.Quantile(0.5), flows.Quantile(0.05), float64(atLeast3)/float64(n))
		t2.AddRow(cond, n, shares.Quantile(0.5), shares.Quantile(0.8))
	}
	return &Result{
		ID: "fig1", Title: "Figure 1", Tables: []*report.Table{t1, t2},
		Notes: []string{
			"Paper: conditioned on >=10 drops, at least 3 flows see drops 95% of the time,",
			"and in >=80% of cases no flow holds more than ~34% of the drops.",
		},
	}, nil
}

func runFig9(opts Options) (*Result, error) {
	t := &report.Table{
		Title:   "Fig 9: accuracy with a hot ToR sink",
		Columns: []string{"skew", "k=0", "k=5", "k=10", "k=15"},
	}
	skews := []float64{0.1, 0.3, 0.5, 0.7}
	ks := []int{0, 5, 10, 15}
	if opts.Scale == Quick {
		skews = []float64{0.3, 0.7}
		ks = []int{0, 5}
		t.Columns = []string{"skew", "k=0", "k=5"}
	}
	for _, skew := range skews {
		row := []any{fmt.Sprintf("%.0f%%", skew*100)}
		for _, k := range ks {
			spec := uniform(opts)
			spec.failures = uniformFailures(k, 0.0005, 0.01)
			spec.pattern = func(topo *topology.Topology) traffic.Pattern {
				return traffic.HotToR{Sink: topo.ToR(0, 0), Frac: skew}
			}
			outs, err := sweepPoint(spec, opts)
			if err != nil {
				return nil, err
			}
			if k == 0 {
				// No failures: accuracy over failure flows is trivially 1;
				// report noise misclassifications instead.
				row = append(row, fmtMeanCI(mean(outs, func(o simOutcome) float64 { return 1 - float64(o.noiseErrs)/float64(max(1, o.flows)) })))
			} else {
				row = append(row, accuracy007.cell(outs))
			}
		}
		t.AddRow(row...)
	}
	return &Result{ID: "fig9", Title: "Figure 9", Tables: []*report.Table{t},
		Notes: []string{"Paper: up to 50% skew is tolerated with negligible degradation; above that, accuracy drops when failures are many (>=10)."}}, nil
}

func runFig11(opts Options) (*Result, error) {
	t := &report.Table{
		Title:   "Fig 11: Algorithm 1 vs failed-link location (rate sweep)",
		Columns: []string{"drop rate", "ToR-T1 p/r", "T1-T2 p/r", "T2-T1 p/r", "T1-ToR p/r"},
	}
	classes := []topology.LinkClass{topology.L1Up, topology.L2Up, topology.L2Down, topology.L1Down}
	for _, rate := range rateSweep(opts) {
		row := []any{fmt.Sprintf("%.2f%%", rate*100)}
		for _, class := range classes {
			spec := uniform(opts)
			spec.failures = func(rng *stats.RNG, topo *topology.Topology) map[topology.LinkID]float64 {
				links := topo.LinksOfClass(class)
				return map[topology.LinkID]float64{links[rng.Intn(len(links))]: rate}
			}
			outs, err := sweepPoint(spec, opts)
			if err != nil {
				return nil, err
			}
			p := mean(outs, func(o simOutcome) float64 { return o.det007.Precision })
			r := mean(outs, func(o simOutcome) float64 { return o.det007.Recall })
			row = append(row, fmt.Sprintf("%.2f/%.2f", p.Mean, r.Mean))
		}
		t.AddRow(row...)
	}
	return &Result{ID: "fig11", Title: "Figure 11", Tables: []*report.Table{t},
		Notes: []string{"Paper: all locations detectable; deeper (level-2) links carry fewer flows per link and need slightly higher rates."}}, nil
}

func runTheorem2(opts Options) (*Result, error) {
	cfg := opts.topoConfig()
	t := &report.Table{
		Title:   "Theorem 2: alpha and tolerable noise vs failure count (pb=0.05%, 100-packet flows)",
		Columns: []string{"k", "alpha", "max pg", "conditions hold"},
	}
	for _, k := range []int{1, 2, 5, 10, 14} {
		ok, _ := theory.Conditions(cfg, k)
		t.AddRow(k, theory.Alpha(cfg, k), theory.PgBound(cfg, k, 0.0005, 10, 100), ok)
	}
	// Empirical decay of ranking errors with N (eq. 9): run growing
	// connection counts and measure how often any good link outranks the
	// bad one.
	te := &report.Table{
		Title:   "Theorem 2: empirical misranking rate vs connections per host",
		Columns: []string{"conns/host", "misrank rate", "epsilon bound (per-link)"},
	}
	conns := []int{5, 15, 40}
	if opts.Scale == Quick {
		conns = []int{5, 20}
	}
	for _, c := range conns {
		spec := uniform(opts)
		spec.workload.ConnsPerHost = traffic.IntRange{Lo: c, Hi: c}
		trials := opts.seeds() * 4
		missed := make([]bool, trials)
		inner := opts.innerParallelism(trials)
		err := par.ForEachErr(trials, opts.parallelism(), func(s int) error {
			sim, err := newSim(spec, opts.Seed+uint64(1000*c+s), inner)
			if err != nil {
				return err
			}
			bad := randomLinks(stats.NewRNG(uint64(s)+3), sim.Topology(), 1)[0]
			sim.InjectFailure(bad, 0.005)
			tl := vote.NewTally()
			tl.AddAll(sim.RunEpoch().Reports)
			missed[s] = rankOf(tl.Ranking(), bad) != 0
			return nil
		})
		if err != nil {
			return nil, err
		}
		miss := 0
		for _, m := range missed {
			if m {
				miss++
			}
		}
		n := cfg.Hosts() * c
		vb, vg := theory.VoteProbBounds(cfg, theory.RetxProb(0.005, 100), theory.RetxProb(1e-6, 100), 1)
		te.AddRow(c, float64(miss)/float64(trials), theory.EpsilonBound(n, vg, vb, 0))
	}
	return &Result{ID: "theorem2", Title: "Theorem 2", Tables: []*report.Table{t, te},
		Notes: []string{"Misranking probability decays with N as the large-deviation bound predicts (the bound is per good link and conservative)."}}, nil
}
