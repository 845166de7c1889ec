package analysis_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"vigil/internal/analysis"
	"vigil/internal/ecmp"
	"vigil/internal/stats"
	"vigil/internal/topology"
	"vigil/internal/vote"
)

// requireMatchesOracle holds one Analyze call to the dense reference: the
// outputs DeepEqual, and the ranking holds the dense tally's every link.
func requireMatchesOracle(t testing.TB, reports []vote.Report, opts analysis.Options) {
	t.Helper()
	want := denseAnalyze(reports, opts)
	got := analysis.Analyze(reports, opts)
	if !reflect.DeepEqual(got.Ranking, want.ranking) {
		t.Fatalf("ranking differs from the dense oracle:\n got %v\nwant %v", head(got.Ranking), head(want.ranking))
	}
	if !reflect.DeepEqual(got.Detected, want.detected) {
		t.Fatalf("detected %v, dense oracle %v", got.Detected, want.detected)
	}
	if !reflect.DeepEqual(got.Verdicts, want.verdicts) {
		for i := range want.verdicts {
			if got.Verdicts[i] != want.verdicts[i] {
				t.Fatalf("verdict %d (path %v): got %+v, dense oracle %+v", i, reports[i].Path, got.Verdicts[i], want.verdicts[i])
			}
		}
		t.Fatalf("verdicts differ in shape: %d vs %d", len(got.Verdicts), len(want.verdicts))
	}
	// The ranking is the tally: every voted link once, with its votes.
	if len(got.Verdicts) != want.tally.flows || len(got.Ranking) != want.tally.voted {
		t.Fatalf("%d verdicts on %d ranked links, dense oracle %d flows on %d",
			len(got.Verdicts), len(got.Ranking), want.tally.flows, want.tally.voted)
	}
	for _, lv := range got.Ranking {
		if w := want.tally.at(lv.Link); lv.Votes != w {
			t.Fatalf("link %d ranked with %v votes, dense oracle %v", lv.Link, lv.Votes, w)
		}
	}
}

func head(r []vote.LinkVotes) []vote.LinkVotes { return r[:min(len(r), 8)] }

// routedReports draws n reports with real ECMP paths on topo. Half come
// from three hot hosts, so a few links collect most votes, their co-path
// links collect spill-over and the long tail ties at a handful of values.
// About one report in eight is then bent into an edge case: an empty path,
// a NoLink placeholder, a link repeated within the path, or a Partial
// prefix.
func routedReports(t testing.TB, topo *topology.Topology, rng *stats.RNG, n int) []vote.Report {
	t.Helper()
	router := ecmp.NewRouter(topo, ecmp.NewSeeds(topo, rng))
	hosts := len(topo.Hosts)
	hot := [3]int{rng.Intn(hosts), rng.Intn(hosts), rng.Intn(hosts)}
	reports := make([]vote.Report, 0, n)
	for len(reports) < n {
		src := rng.Intn(hosts)
		if rng.Bool(0.5) {
			src = hot[rng.Intn(len(hot))]
		}
		dst := rng.Intn(hosts)
		if dst == src {
			continue
		}
		i := len(reports)
		var p ecmp.PathBuf
		if err := router.PathInto(topology.HostID(src), topology.HostID(dst), ecmp.FiveTuple{
			SrcIP: uint32(src), DstIP: uint32(dst), SrcPort: uint16(rng.Intn(1 << 16)), DstPort: 443, Proto: 6,
		}, &p); err != nil {
			t.Fatal(err)
		}
		r := vote.Report{FlowID: int64(i), Src: topology.HostID(src), Dst: topology.HostID(dst), Path: slices.Clone(p.Links()), Retx: 1 + rng.Intn(3), Seq: int32(i)}
		switch rng.Intn(32) {
		case 0:
			r.Path = nil
		case 1:
			r.Path[rng.Intn(len(r.Path))] = topology.NoLink
		case 2:
			r.Path = append(r.Path, r.Path[rng.Intn(len(r.Path))])
		case 3:
			r.Path, r.Partial = r.Path[:1+rng.Intn(len(r.Path))], true
		}
		reports = append(reports, r)
	}
	return reports
}

// oracleEpoch is one of the dense-oracle suite's epochs: n routed reports
// on a fabric.
type oracleEpoch struct {
	fabric  string
	topo    *topology.Topology
	n       int
	reports []vote.Report
}

// oracleEpochs are the suite's epochs: report counts on both sides of
// 2,048, where float tallies were once summed in chunks, on ids that span
// a small and (unless -short) a datacenter fabric.
func oracleEpochs(t testing.TB) []oracleEpoch {
	fabrics := []struct {
		name string
		cfg  topology.Config
	}{
		{"small", topology.Config{Pods: 2, ToRsPerPod: 4, T1PerPod: 4, T2: 2, HostsPerToR: 4}},
		{"datacenter", topology.DatacenterSimConfig.Flatten()},
	}
	var out []oracleEpoch
	for fi, fabric := range fabrics {
		if fabric.name == "datacenter" && testing.Short() {
			continue
		}
		topo, err := topology.New(fabric.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for ni, n := range []int{0, 1, 2047, 2048, 2049, 10_000} {
			out = append(out, oracleEpoch{fabric.name, topo, n, routedReports(t, topo, stats.NewRNG(uint64(100*fi+ni+1)), n)})
		}
	}
	return out
}

// The sparse pipeline must reproduce the dense one bit for bit on the
// suite's epochs, under every adjuster kind and a threshold low enough
// that B grows long.
func TestAnalyzeMatchesDenseOracle(t *testing.T) {
	for _, ep := range oracleEpochs(t) {
		type adjuster struct {
			name string
			opts vote.DetectOptions
		}
		adjusters := []adjuster{
			{"observed", vote.DetectOptions{ThresholdFrac: 0.01}},
			{"observed-maxlinks", vote.DetectOptions{ThresholdFrac: 0.001}}, // named for the cap B once had
			{"none", vote.DetectOptions{ThresholdFrac: 0.02, Adjuster: vote.NoAdjuster{}}},
		}
		if ep.fabric == "small" {
			// One analytic Fraction costs O(ToRs²): out of reach on the
			// datacenter fabric, for the oracle and the pipeline alike.
			adjusters = append(adjusters, adjuster{"analytic", vote.DetectOptions{ThresholdFrac: 0.01, Adjuster: &vote.AnalyticAdjuster{Topo: ep.topo}}})
		}
		for _, adj := range adjusters {
			t.Run(fmt.Sprintf("%s/n=%d/%s", ep.fabric, ep.n, adj.name), func(t *testing.T) {
				requireMatchesOracle(t, ep.reports, analysis.Options{Detect: adj.opts})
			})
		}
	}
}

// floatVotes is the tally the oracle computed before votes were exact: 1/h
// per path link summed as floats, in 2,048-report chunks merged in chunk
// order, over the reports that still vote.
func floatVotes(reports []vote.Report) map[topology.LinkID]float64 {
	total := map[topology.LinkID]float64{}
	for lo := 0; lo < len(reports); lo += 2048 {
		chunk := map[topology.LinkID]float64{}
		for _, r := range reports[lo:min(lo+2048, len(reports))] {
			for _, l := range r.Path {
				if l >= 0 && castsVotes(r) {
					chunk[l] += 1 / float64(len(r.Path))
				}
			}
		}
		for l, v := range chunk {
			total[l] += v
		}
	}
	return total
}

// The oracle's switch from float sums to units changes the specification
// by rounding alone: on the suite's epochs each exact vote is within as
// many ulps of the old float sum as the link has path entries, and some
// votes do move.
func TestExactVotesAreTheFloatSumsRounded(t *testing.T) {
	moved := 0
	for _, ep := range oracleEpochs(t) {
		exact, old := denseAnalyze(ep.reports, analysis.Options{}).tally, floatVotes(ep.reports)
		entries := map[topology.LinkID]int64{}
		for _, r := range ep.reports {
			for _, l := range r.Path {
				if l >= 0 && castsVotes(r) {
					entries[l]++
				}
			}
		}
		if len(old) != exact.voted {
			t.Fatalf("%s/n=%d: %d links voted as floats, %d in units", ep.fabric, ep.n, len(old), exact.voted)
		}
		for l, v := range old {
			ulps := int64(math.Float64bits(exact.at(l))) - int64(math.Float64bits(v))
			if ulps < -entries[l] || ulps > entries[l] {
				t.Fatalf("%s/n=%d: link %d votes %v exactly, %v as floats: %d ulps apart over %d path entries",
					ep.fabric, ep.n, l, exact.at(l), v, ulps, entries[l])
			}
			if ulps != 0 {
				moved++
			}
		}
	}
	t.Logf("%d votes moved by rounding", moved)
	if moved == 0 {
		t.Fatal("no vote differs from its float sum: the comparison shows nothing")
	}
}

// Exact vote ties must break toward the lower LinkID in the ranking, in
// Algorithm 1's pick and in the per-flow blame, as they do in the oracle.
func TestAnalyzeTiesMatchDenseOracle(t *testing.T) {
	var reports []vote.Report
	for i := 0; i < 40; i++ {
		// Every link of a path gets the same 1/4, and links 90..93 and
		// 50..53 end up exactly level.
		base := topology.LinkID(90)
		if i%2 == 1 {
			base = 50
		}
		reports = append(reports, vote.Report{FlowID: int64(i), Path: []topology.LinkID{base + 3, base, base + 2, base + 1}})
	}
	for _, opts := range []vote.DetectOptions{
		{ThresholdFrac: 0.01},
		{ThresholdFrac: 0.01, Adjuster: vote.NoAdjuster{}},
	} {
		requireMatchesOracle(t, reports, analysis.Options{Detect: opts})
	}
	got := analysis.Analyze(reports, analysis.Options{Detect: vote.DetectOptions{ThresholdFrac: 0.01, Adjuster: vote.NoAdjuster{}}})
	if got.Detected[0] != 50 || got.Ranking[0].Link != 50 || got.Verdicts[0].Link != 90 {
		t.Fatalf("ties not broken toward the lower LinkID: detected %v, top %v, verdict %v", got.Detected, got.Ranking[0], got.Verdicts[0])
	}
}

// fuzzReports decodes bytes into reports: a header byte's low bit picks the
// adjuster, then each report is a length byte followed by one
// u16 per path entry. Link ids fold into a small range so paths collide;
// 0xffff is a NoLink placeholder.
func fuzzReports(data []byte) ([]vote.Report, vote.DetectOptions) {
	opts := vote.DetectOptions{ThresholdFrac: 0.01}
	if len(data) > 0 {
		if data[0]&1 != 0 {
			opts.Adjuster = vote.NoAdjuster{}
		}
		data = data[1:]
	}
	var reports []vote.Report
	for len(data) > 0 {
		h := int(data[0] & 7)
		data = data[1:]
		r := vote.Report{FlowID: int64(len(reports)), Partial: h == 7}
		for ; h > 0 && len(data) >= 2; h-- {
			l := topology.LinkID(binary.LittleEndian.Uint16(data) % 97)
			if data[0] == 0xff && data[1] == 0xff {
				l = topology.NoLink
			}
			r.Path = append(r.Path, l)
			data = data[2:]
		}
		reports = append(reports, r)
	}
	return reports, opts
}

func FuzzAnalyzeMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 2, 1, 0, 2, 0, 2, 1, 0, 3, 0, 1, 1, 0})
	f.Add([]byte{1, 3, 5, 0, 5, 0, 0xff, 0xff, 0})
	f.Add([]byte{6, 7, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 1, 1, 0, 1, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		reports, opts := fuzzReports(data)
		requireMatchesOracle(t, reports, analysis.Options{Detect: opts})
	})
}

// One well-framed report can name any int32 link. The analysis may spend
// memory on the path entries it is given, never on the size of an id: the
// dense tally allocated 8 bytes × id, three times over, for this input.
func TestAnalyzeHostileLinkIDStaysSmall(t *testing.T) {
	reports := []vote.Report{
		{FlowID: 1, Path: []topology.LinkID{3, 1 << 30, 4}},
		{FlowID: 2, Path: []topology.LinkID{math.MaxInt32}},
		{FlowID: 3, Path: []topology.LinkID{3, 5}},
	}
	opts := analysis.Options{Detect: vote.DetectOptions{ThresholdFrac: 0.01}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := analysis.Analyze(reports, opts)
	runtime.ReadMemStats(&after)
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 1<<20 {
		t.Fatalf("analyzing three reports allocated %d bytes", spent)
	}
	votes := make(map[topology.LinkID]float64, len(res.Ranking))
	for _, lv := range res.Ranking {
		votes[lv.Link] = lv.Votes
	}
	if votes[1<<30] != 1.0/3 || votes[math.MaxInt32] != 1 || len(res.Ranking) != 5 {
		t.Fatalf("hostile ids mis-tallied: %v", res.Ranking)
	}
	if res.Ranking[0].Link != math.MaxInt32 || res.Verdicts[1].Link != math.MaxInt32 {
		t.Fatalf("ranking %v, verdicts %v", res.Ranking, res.Verdicts)
	}
}

// After one warm-up call an Analyze call allocates its outputs and nothing
// else, and what it allocates follows the reports, not the ids in them: the
// same reports cost the same bytes whether their links are numbered as on
// the §6 fabric or spread over the 142,848 links of the datacenter one.
//
// Each regime runs on a stream of its own, so nothing an earlier test left
// changes what it measures: fresh builds (two epochs with no flow in
// common, alternating) and patches (one epoch repeated). A call's count is
// the median of the measured calls', and a patch allocates no more than a
// fresh build. That a repeated epoch patches is vote's to see: its tests
// read the stream's patched flag, which this package cannot
// (vote.TestPatchCostFollowsDelta).
func TestAnalyzeSteadyStateAllocs(t *testing.T) {
	paper, opts := paperEpoch(t)
	// Spread the ids order-preservingly over the datacenter fabric's range.
	small, err := topology.New(topology.DefaultSimConfig)
	if err != nil {
		t.Fatal(err)
	}
	stride := topology.LinkID(topology.DatacenterSimConfig.Flatten().DirectedLinks() / len(small.Links))
	if stride < 30 {
		t.Fatalf("datacenter fabric only %d× the paper one", stride)
	}
	spread := make([]vote.Report, len(paper))
	for i, r := range paper {
		spread[i] = r
		spread[i].Path = make([]topology.LinkID, len(r.Path))
		for j, l := range r.Path {
			spread[i].Path[j] = l * stride
		}
	}
	// other is reports with every FlowID moved past the epoch's own.
	other := func(reports []vote.Report) []vote.Report {
		out := slices.Clone(reports)
		for i := range out {
			out[i].FlowID += 1 << 40
		}
		return out
	}
	// measure returns the median allocations and bytes of 21 calls after
	// one warm-up call.
	measure := func(epochs ...[]vote.Report) (allocs, bytes float64) {
		stream := analysis.Options{Detect: vote.Streaming(opts.Detect)}
		analysis.Analyze(epochs[0], stream)
		const runs = 21
		var counts, sizes [runs]float64
		var before, after runtime.MemStats
		for i := range runs {
			runtime.ReadMemStats(&before)
			analysis.Analyze(epochs[(i+1)%len(epochs)], stream)
			runtime.ReadMemStats(&after)
			counts[i], sizes[i] = float64(after.Mallocs-before.Mallocs), float64(after.TotalAlloc-before.TotalAlloc)
		}
		slices.Sort(counts[:])
		slices.Sort(sizes[:])
		return counts[runs/2], sizes[runs/2]
	}
	var freshAllocs, freshBytes float64
	// Pinned at the measured counts: the Result, its ranking, B (grown by
	// append) and verdicts, and the observed adjuster. A per-call copy of
	// the tally (three allocations) or of any other array fails this.
	for _, regime := range []struct {
		name          string
		paper, spread [][]vote.Report
		allocs        float64
	}{
		{"fresh", [][]vote.Report{paper, other(paper)}, [][]vote.Report{spread, other(spread)}, 8},
		{"patched", [][]vote.Report{paper}, [][]vote.Report{spread}, 8},
	} {
		pa, pb := measure(regime.paper...)
		da, db := measure(regime.spread...)
		t.Logf("%s: paper ids %.0f allocs, %.0f B per call; datacenter ids %.0f allocs, %.0f B per call", regime.name, pa, pb, da, db)
		if max(pa, da) > regime.allocs {
			t.Errorf("%s: Analyze allocates %.0f / %.0f times per call in steady state, want <= %.0f", regime.name, pa, da, regime.allocs)
		}
		if regime.name == "fresh" {
			freshAllocs, freshBytes = max(pa, da), max(pb, db)
		} else if max(pa, da) > freshAllocs || max(pb, db) > freshBytes {
			t.Errorf("a patch allocates %.0f times and %.0f B per call, a fresh build %.0f and %.0f", max(pa, da), max(pb, db), freshAllocs, freshBytes)
		}
		if math.Abs(pb-db) > 0.1*pb {
			t.Errorf("%s: bytes per call depend on the ids: %.0f on paper ids, %.0f on datacenter ids", regime.name, pb, db)
		}
	}
}
