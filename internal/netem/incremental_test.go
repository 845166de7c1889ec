package netem

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"vigil/internal/ecmp"
	"vigil/internal/par"
	"vigil/internal/schedule"
	"vigil/internal/stats"
	"vigil/internal/topology"
	"vigil/internal/traffic"
)

// incrementalSim builds an incremental simulator on the parallel-test
// topology with a traceroute cap, so delta epochs exercise the budget
// overlay too.
func incrementalSim(t testing.TB, seed uint64, workers int, shape ...func(*Config)) *Sim {
	t.Helper()
	topo, err := topology.New(topology.Config{Pods: 2, ToRsPerPod: 6, T1PerPod: 4, T2: 4, HostsPerToR: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Topo:    topo,
		NoiseLo: 0, NoiseHi: 1e-6,
		Workload: traffic.Workload{
			Pattern:        traffic.Uniform{},
			ConnsPerHost:   traffic.IntRange{Lo: 40, Hi: 40},
			PacketsPerFlow: traffic.IntRange{Lo: 80, Hi: 120},
		},
		TracerouteCap: 4,
		Seed:          seed,
		Parallelism:   workers,
		Incremental:   true,
	}
	for _, f := range shape {
		f(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// churn applies the same evolving failure scenario to a sim: a flapping
// scheduled link, an injection that appears mid-run and is later cleared,
// and a rate change on an already-failed link.
func churn(s *Sim, epoch int) {
	topo := s.Topology()
	l1 := topo.LinksOfClass(topology.L1Up)[2]
	l2 := topo.LinksOfClass(topology.L2Down)[1]
	switch epoch {
	case 0:
		s.Schedule(l2, schedule.Flap{Rate: 0.05, Period: 2, On: 1})
		s.InjectFailure(l1, 0.02)
	case 2:
		s.InjectFailure(l1, 0.06) // rate change on a failed link
	case 3:
		s.ClearFailure(l1)
	}
}

// The exact-equivalence contract of incremental mode: every delta epoch is
// bit-identical to re-scoring the whole frozen workload from scratch
// (rescoreAll before each epoch forces the full pipeline on the same frozen
// seed).
func TestIncrementalMatchesFullRescore(t *testing.T) {
	delta := incrementalSim(t, 7, 3)
	full := incrementalSim(t, 7, 3)
	for e := 0; e < 6; e++ {
		churn(delta, e)
		churn(full, e)
		full.rescoreAll()
		de, fe := delta.RunEpoch(), full.RunEpoch()
		if !reflect.DeepEqual(de, fe) {
			t.Fatalf("epoch %d: delta diverged from full rescore: drops %d/%d, failed %d/%d, reports %d/%d",
				e, de.TotalDrops, fe.TotalDrops, len(de.Failed), len(fe.Failed), len(de.Reports), len(fe.Reports))
		}
	}
}

// Incremental runs keep the parallelism determinism contract: bit-identical
// results at every worker count, through the fanned-out full epoch that
// builds the cache and the delta epochs re-scored and merged after it.
func TestIncrementalBitIdenticalAcrossParallelism(t *testing.T) {
	base := incrementalSim(t, 11, 1)
	var want []*Epoch
	for e := 0; e < 5; e++ {
		churn(base, e)
		want = append(want, base.RunEpoch())
	}
	for _, workers := range []int{2, 3, 4, 16} {
		s := incrementalSim(t, 11, workers)
		for e := 0; e < 5; e++ {
			churn(s, e)
			if got := s.RunEpoch(); !reflect.DeepEqual(want[e], got) {
				t.Fatalf("epoch %d diverged at Parallelism=%d", e, workers)
			}
		}
	}
}

// The cache build's parallel counting sort leaves the link→flows CSR a
// sequential counting sort over the flows' cached paths would: the same
// offsets, the same rows, each row ascending, and no entry for a host
// uplink. Three workloads at 1, 2, 3 and 7 workers: the full one, a few
// sources whose flows leave most links uncrossed (empty rows between full
// ones), and fewer flows than workers. <0.01 s.
func TestLinkFlowsTransposeMatchesSequential(t *testing.T) {
	few := func(hosts ...topology.HostID) func(*Config) {
		return func(cfg *Config) {
			cfg.Workload.Hosts = hosts
			cfg.Workload.ConnsPerHost = traffic.IntRange{Lo: 2, Hi: 2}
		}
	}
	for _, tc := range []struct {
		name  string
		shape func(*Config)
	}{
		{"full", func(*Config) {}},
		{"sparse", few(0, 9, 50, 77)},
		{"fewer-flows-than-workers", few(3)},
	} {
		for _, workers := range []int{1, 2, 3, 7} {
			s := incrementalSim(t, 5, workers, tc.shape)
			s.RunEpoch()
			inc := &s.inc
			nflows, nlinks := len(inc.packets), len(s.topo.Links)
			var buf ecmp.PathBuf
			path := func(f int) []topology.LinkID {
				_, links := s.path(int64(f), &buf)
				return links[1:]
			}
			off := make([]int32, nlinks+1)
			for f := range nflows {
				for _, l := range path(f) {
					off[l+1]++
				}
			}
			empty := 0
			for l := range nlinks {
				if off[l+1] == 0 {
					empty++
				}
				off[l+1] += off[l]
			}
			rows := make([]int32, off[nlinks])
			next := slices.Clone(off)
			for f := range nflows {
				for _, l := range path(f) {
					rows[next[l]] = int32(f)
					next[l]++
				}
			}
			if !slices.Equal(inc.linkOff, off) || !slices.Equal(inc.linkFlows, rows) {
				t.Fatalf("%s at %d workers: link→flows CSR differs from the sequential counting sort", tc.name, workers)
			}
			for l := range nlinks {
				if row := inc.linkFlows[off[l]:off[l+1]]; !slices.IsSorted(row) {
					t.Fatalf("%s at %d workers: link %d row %v not ascending", tc.name, workers, l, row)
				}
			}
			switch {
			case tc.name == "sparse" && (empty == 0 || nflows < workers):
				t.Fatalf("sparse: %d flows, %d uncrossed links", nflows, empty)
			case tc.name == "fewer-flows-than-workers" && workers == 7 && nflows >= workers:
				t.Fatalf("fewer-flows-than-workers: %d flows", nflows)
			}
		}
	}
}

// A delta epoch re-scores its flows on the caller's goroutine whatever
// Parallelism says: it allocates the same at 1 and 4 workers (a worker
// fan-out adds its closure, WaitGroup and panic channel) and returns the
// same epochs, those a full re-score returns. Two flapping uplinks put 153
// flows into every delta, enough for a fan-out of 64-flow chunks to start
// three workers, and their link→flows rows interleave, so the affected
// list must be sorted before the merge. ≈0.05 s.
func TestDeltaEpochIndependentOfParallelism(t *testing.T) {
	run := func(workers int, rescore bool) (float64, []*Epoch) {
		s := incrementalSim(t, 23, workers)
		up := s.Topology().LinksOfClass(topology.L1Up)[:2]
		eps := make([]*Epoch, 0, 32)
		epoch := func() {
			for _, l := range up {
				s.InjectFailure(l, 0.02+0.01*float64(len(eps)%2))
			}
			if rescore {
				s.rescoreAll()
			}
			eps = append(eps, s.RunEpoch())
		}
		for e := 0; e < 3; e++ {
			epoch() // the full epoch, then deltas that size the reusable buffers
		}
		return testing.AllocsPerRun(20, epoch), eps
	}
	inline, want := run(1, false)
	fanned, got := run(4, false)
	if inline != fanned {
		t.Fatalf("a delta epoch allocates %.0f times at Parallelism 1 but %.0f at 4", inline, fanned)
	}
	t.Logf("a delta epoch allocates %.0f times at Parallelism 1 and 4", inline)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("delta epochs differ between Parallelism 1 and 4")
	}
	if _, full := run(1, true); !reflect.DeepEqual(want, full) {
		t.Fatal("delta epochs differ from a full re-score of the same epochs")
	}
	if n := len(want[len(want)-1].Failed); n == 0 {
		t.Fatal("the measured delta epochs lost no packets")
	}
}

// stripEpochStamp zeroes the report identity epoch — the one field that
// legitimately differs when the same epoch content is reproduced at a
// different epoch index (reports are stamped with the epoch they are
// emitted in). Everything else, sequence numbers included, must still
// match bit for bit.
func stripEpochStamp(ep *Epoch) {
	for i := range ep.Reports {
		ep.Reports[i].Epoch = 0
	}
}

// With a frozen workload and no rate changes, every delta epoch must
// reproduce the first epoch's ground truth exactly — the carried-forward
// cache IS the result.
func TestIncrementalSteadyStateRepeats(t *testing.T) {
	s := incrementalSim(t, 3, 2)
	bad := s.Topology().LinksOfClass(topology.L1Up)[0]
	s.InjectFailure(bad, 0.03)
	first := s.RunEpoch()
	stripEpochStamp(first)
	for e := 0; e < 3; e++ {
		got := s.RunEpoch()
		stripEpochStamp(got)
		if !reflect.DeepEqual(first, got) {
			t.Fatalf("steady-state delta epoch %d diverged from the frozen first epoch", e)
		}
	}
}

// Clearing the only failure must walk the carried counters all the way back
// to the baseline epoch: subtract-old/add-new cannot leak drops.
func TestIncrementalClearRestoresBaseline(t *testing.T) {
	s := incrementalSim(t, 5, 2)
	baseline := s.RunEpoch() // epoch of pure noise, builds the cache
	bad := s.Topology().LinksOfClass(topology.L2Up)[3]
	s.InjectFailure(bad, 0.04)
	failedEp := s.RunEpoch()
	if failedEp.TotalDrops <= baseline.TotalDrops {
		t.Fatalf("injection did not raise drops (%d -> %d)", baseline.TotalDrops, failedEp.TotalDrops)
	}
	s.ClearFailure(bad)
	restored := s.RunEpoch()
	stripEpochStamp(baseline)
	stripEpochStamp(restored)
	if !reflect.DeepEqual(baseline, restored) {
		t.Fatalf("clearing the failure did not restore the baseline epoch: drops %d vs %d, failed %d vs %d",
			baseline.TotalDrops, restored.TotalDrops, len(baseline.Failed), len(restored.Failed))
	}
}

// The short-mode datacenter epoch: a scaled-down multi-cluster fabric
// through the same NewDatacenter constructor and the same fused + delta
// code paths, small enough for `go test -race -short` to exercise the
// parallel shard loop and the delta re-score under the race detector.
func TestDatacenterEpochShort(t *testing.T) {
	topo, err := topology.NewDatacenter(topology.DatacenterConfig{
		Clusters: 3, PodsPerCluster: 2, ToRsPerPod: 6, T1PerPod: 4, T2: 6, HostsPerToR: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(incremental bool) *Sim {
		s, err := New(Config{
			Topo:    topo,
			NoiseLo: 0, NoiseHi: 1e-6,
			Workload: traffic.Workload{
				Pattern:        traffic.Uniform{},
				ConnsPerHost:   traffic.IntRange{Lo: 10, Hi: 10},
				PacketsPerFlow: traffic.IntRange{Lo: 100, Hi: 100},
			},
			TracerouteCap: 3,
			Seed:          19,
			Parallelism:   4,
			Incremental:   incremental,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	delta, full := mk(true), mk(true)
	l := topo.LinksOfClass(topology.L2Down)[5]
	for _, s := range []*Sim{delta, full} {
		s.Schedule(l, schedule.Flap{Rate: 0.05, Period: 2, On: 1})
	}
	for e := 0; e < 3; e++ {
		full.rescoreAll()
		de, fe := delta.RunEpoch(), full.RunEpoch()
		if !reflect.DeepEqual(de, fe) {
			t.Fatalf("datacenter epoch %d: delta diverged from full rescore", e)
		}
		if de.TotalFlows != topo.Cfg.Hosts()*10 {
			t.Fatalf("epoch %d: %d flows, want %d", e, de.TotalFlows, topo.Cfg.Hosts()*10)
		}
	}
}

// The delta cache keeps only what a re-score reads: per flow, a 2-byte
// packet count, a 4-byte destination and three ECMP choice bytes, and the
// flow's entries in the link→flows index but its host uplink's. Every
// slice field of incState counts, at its capacity, after a full epoch and
// a delta epoch on the §6 fabric, whose two pods keep most paths at four
// links. It measures 25.6 B per flow; a fixed-stride path table back in
// the cache (25 B more per flow) breaks the 27 B bound. <0.1 s.
func TestDeltaCacheBytesPerFlow(t *testing.T) {
	topo, err := topology.New(topology.DefaultSimConfig)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Topo: topo, NoiseHi: 1e-6, TracerouteCap: 10, Seed: 1, Parallelism: 2, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	s.RunEpoch()
	s.InjectFailure(topo.LinksOfClass(topology.L1Up)[7], 0.01)
	if ep := s.RunEpoch(); len(ep.Failed) == 0 {
		t.Fatal("the delta epoch lost no packets")
	}
	bytes := 0
	v := reflect.ValueOf(s.inc)
	for i := range v.NumField() {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			bytes += f.Cap() * int(f.Type().Elem().Size())
		}
	}
	nflows := len(s.inc.packets)
	perFlow := float64(bytes) / float64(nflows)
	t.Logf("delta cache: %d B over %d flows, %.1f B per flow", bytes, nflows, perFlow)
	if limit := 27.0; perFlow > limit {
		t.Fatalf("the delta cache keeps %.1f B per flow, want at most %.0f", perFlow, limit)
	}
}

// Every flow's cached path, laid out again from its destination, its ECMP
// choices and the source its index names, is the route PathInto resolves
// for the flow as the workload generates it, on the datacenter reference
// fabric: 2.07M flows, checked on two goroutines. ≈0.5 s on 2 CPUs, the
// full epoch that fills the cache included.
func TestCachedPathsMatchPathInto(t *testing.T) {
	if testing.Short() {
		t.Skip("the 2M-flow fabric is too slow under the race detector")
	}
	topo, err := topology.NewDatacenter(topology.DatacenterSimConfig)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Topo: topo, NoiseHi: 1e-6, Seed: 1, Parallelism: 2, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	s.RunEpoch()
	srcs := s.sources()
	const workers = 2
	checked := make([]int, workers)
	par.ForEach(workers, workers, func(w int) {
		var (
			rng       stats.RNG
			flows     []traffic.Flow
			want, got ecmp.PathBuf
		)
		for si := w * len(srcs) / workers; si < (w+1)*len(srcs)/workers; si++ {
			flows = s.cfg.Workload.AppendFlowsOf(flows[:0], &rng, s.inc.epochSeed, si, topo, srcs[si])
			for j, f := range flows {
				fi := int64(s.flowBase[si]) + int64(j)
				if err := s.router.PathInto(f.Src, f.Dst, f.Tuple, &want); err != nil {
					t.Error(err)
					return
				}
				gotSrc, links := s.path(fi, &got)
				if gotSrc != f.Src || s.inc.dst[fi] != f.Dst || !slices.Equal(links, want.Links()) {
					t.Errorf("flow %d: cached %d→%d %v, PathInto %d→%d %v", fi, gotSrc, s.inc.dst[fi], links, f.Src, f.Dst, want.Links())
					return
				}
				checked[w]++
			}
		}
	})
	if n := checked[0] + checked[1]; n != len(s.inc.packets) || n < 2_000_000 {
		t.Fatalf("checked %d flows of %d", n, len(s.inc.packets))
	}
}

// A path handed out in an epoch's result is never written again. Epoch 1
// is a delta epoch; its Failed and Reports paths, kept across 200 more
// delta epochs that inject, change and clear failures on links they cross,
// still read what they read when it returned. Another goroutine reads them
// all the while, so under -race a rewrite of a held slot fails the test
// even with equal bytes. ≈0.1 s (≈1 s under -race).
func TestHandedOutPathsStayPut(t *testing.T) {
	s := incrementalSim(t, 29, 2)
	topo := s.Topology()
	links := []topology.LinkID{
		topo.LinksOfClass(topology.L1Up)[2], topo.LinksOfClass(topology.L1Up)[9],
		topo.LinksOfClass(topology.L2Down)[1], topo.Hosts[9].Uplink,
	}
	flip := func(e int) *Epoch {
		for i, l := range links {
			switch (e + i) % 3 {
			case 0:
				s.ClearFailure(l)
			case 1:
				s.InjectFailure(l, 0.02)
			case 2:
				s.InjectFailure(l, 0.05)
			}
		}
		return s.RunEpoch()
	}
	flip(0) // the full epoch
	ep := flip(1)
	var held [][]topology.LinkID
	for _, f := range ep.Failed {
		held = append(held, f.Path)
	}
	for _, r := range ep.Reports {
		held = append(held, r.Path)
	}
	want := make([][]topology.LinkID, len(held))
	for i, p := range held {
		want[i] = slices.Clone(p)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for sum := 0; ; {
			select {
			case <-done:
				return
			default:
			}
			for _, p := range held {
				for _, l := range p {
					sum += int(l)
				}
			}
		}
	}()
	rescored := 0
	for e := 2; e < 202; e++ {
		for _, f := range flip(e).Failed {
			if slices.ContainsFunc(f.Path, func(l topology.LinkID) bool { return slices.Contains(links, l) }) {
				rescored++
			}
		}
	}
	close(done)
	wg.Wait()
	if len(ep.Failed) == 0 || rescored == 0 {
		t.Fatalf("epoch 1 failed %d flows, later epochs %d over the flipped links", len(ep.Failed), rescored)
	}
	for i := range held {
		if !slices.Equal(held[i], want[i]) {
			t.Fatalf("path %d of epoch 1 reads %v after 200 delta epochs, was %v", i, held[i], want[i])
		}
	}
}

// A host uplink has no row in the link→flows index: a source's flows
// are one contiguous flow-index range. A change on one still re-scores
// every flow the host sources, whether every host is a source or
// Workload.Hosts lists a few, the host twice. ≈0.02 s.
func TestDirtyHostUplinkRescoresItsFlows(t *testing.T) {
	const host = 9
	for _, hosts := range [][]topology.HostID{nil, {host, 3, host, 50}} {
		shape := func(cfg *Config) { cfg.Workload.Hosts = hosts }
		delta, full := incrementalSim(t, 31, 2, shape), incrementalSim(t, 31, 2, shape)
		up := delta.Topology().Hosts[host].Uplink
		for e, rate := range []float64{0, 0.05, 0.02, 0, 0.05} {
			for _, s := range []*Sim{delta, full} {
				if rate == 0 {
					s.ClearFailure(up)
				} else {
					s.InjectFailure(up, rate)
				}
			}
			full.rescoreAll()
			de, fe := delta.RunEpoch(), full.RunEpoch()
			if !reflect.DeepEqual(de, fe) {
				t.Fatalf("hosts %v, epoch %d: delta diverged from full rescore: failed %d/%d", hosts, e, len(de.Failed), len(fe.Failed))
			}
			crossed := slices.ContainsFunc(de.Failed, func(f FlowOutcome) bool { return f.Src == host && f.CrossedFailure })
			if crossed != (rate > 0) {
				t.Fatalf("hosts %v, epoch %d: rate %g, a flow of host %d crossed the failure: %v", hosts, e, rate, host, crossed)
			}
		}
	}
}

// rescoreAll on a non-incremental sim is a harmless no-op.
func TestRescoreAllNonIncremental(t *testing.T) {
	s := parallelSim(t, 13, 2)
	a := s.RunEpoch()
	s.rescoreAll()
	b := s.RunEpoch()
	if a.TotalFlows != b.TotalFlows {
		t.Fatalf("flow count changed across rescoreAll: %d -> %d", a.TotalFlows, b.TotalFlows)
	}
}

// linkDropsTotal sums the derived per-link ground truth.
func linkDropsTotal(ep *Epoch) int {
	sum := 0
	for _, d := range ep.linkDrops() {
		sum += int(d)
	}
	return sum
}

// Per-link ground truth is derived from the failed flows, so it must account
// for every dropped packet and be the same vector however the epoch was
// computed: delta or full re-score, at any worker count.
func TestLinkDropsDerived(t *testing.T) {
	var want []map[topology.LinkID]int64
	for _, workers := range []int{1, 2, 8} {
		delta := incrementalSim(t, 17, workers)
		full := incrementalSim(t, 17, workers)
		for e := 0; e < 5; e++ {
			churn(delta, e)
			churn(full, e)
			full.rescoreAll()
			de, fe := delta.RunEpoch(), full.RunEpoch()
			got := de.linkDrops()
			if sum := linkDropsTotal(de); sum != de.TotalDrops || sum == 0 {
				t.Fatalf("workers=%d epoch %d: derived link drops sum to %d, epoch total %d", workers, e, sum, de.TotalDrops)
			}
			if !reflect.DeepEqual(got, fe.linkDrops()) {
				t.Fatalf("workers=%d epoch %d: delta and full re-score derive different link drops", workers, e)
			}
			if workers == 1 {
				want = append(want, got)
			} else if !reflect.DeepEqual(got, want[e]) {
				t.Fatalf("epoch %d: link drops at Parallelism=%d differ from Parallelism=1", e, workers)
			}
		}
	}
}

// deltaEpochBytes warms an incremental simulation of the benchmark's shape
// (five lossy L1Up links, one of them changing rate every epoch) and returns
// what one delta epoch allocates.
func deltaEpochBytes(t *testing.T, topo *topology.Topology, hosts []topology.HostID) uint64 {
	t.Helper()
	w := traffic.DefaultWorkload()
	w.Hosts = hosts
	s, err := New(Config{Topo: topo, Workload: w, TracerouteCap: 10, Seed: 1, Parallelism: 2, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	up := topo.LinksOfClass(topology.L1Up)
	for i := 0; i < 5; i++ {
		s.InjectFailure(up[i], 0.003)
	}
	var ep *Epoch
	flip := func(e int) {
		s.InjectFailure(up[0], 0.003+0.002*float64(e%2))
		ep = s.RunEpoch()
	}
	for e := 0; e < 4; e++ {
		flip(e) // the full epoch, then deltas that size the reusable buffers
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	flip(4)
	runtime.ReadMemStats(&after)
	if len(ep.Failed) == 0 || linkDropsTotal(ep) != ep.TotalDrops {
		t.Fatalf("measured delta epoch: %d failed flows, derived drops %d of %d", len(ep.Failed), linkDropsTotal(ep), ep.TotalDrops)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// A delta epoch's cost follows the delta: what it allocates is its own
// failed-flow and report lists, nothing sized by the fabric.
func TestDeltaEpochCostFollowsDelta(t *testing.T) {
	build := func(cfg topology.DatacenterConfig) *topology.Topology {
		topo, err := topology.NewDatacenter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	// The same sources and the same lossy links (all in pod 0) on a fabric
	// and on one with four times the pods, and so four times the links.
	small := topology.DatacenterConfig{Clusters: 2, PodsPerCluster: 2, ToRsPerPod: 24, T1PerPod: 8, T2: 24, HostsPerToR: 10}
	large := small
	large.Clusters *= 4
	pod0 := make([]topology.HostID, small.ToRsPerPod*small.HostsPerToR)
	for i := range pod0 {
		pod0[i] = topology.HostID(i)
	}
	st, lt := build(small), build(large)
	if len(lt.Links) < 4*len(st.Links) {
		t.Fatalf("large fabric has %d links, small %d", len(lt.Links), len(st.Links))
	}
	sb, lb := deltaEpochBytes(t, st, pod0), deltaEpochBytes(t, lt, pod0)
	t.Logf("delta epoch: %d B on %d links, %d B on %d links", sb, len(st.Links), lb, len(lt.Links))
	if lb > sb+sb/2 {
		t.Fatalf("a delta epoch allocated %d B on %d links but %d B on %d links: its cost follows the fabric", sb, len(st.Links), lb, len(lt.Links))
	}
	if testing.Short() {
		return // the 2M-flow fabric below is too slow under the race detector
	}
	dc := build(topology.DatacenterSimConfig)
	b := deltaEpochBytes(t, dc, nil)
	t.Logf("datacenter delta epoch: %d B on %d links", b, len(dc.Links))
	if b > 300<<10 {
		t.Fatalf("a datacenter delta epoch allocated %d B, want at most 300 kB", b)
	}
}
