package netem

import (
	"reflect"
	"runtime"
	"testing"

	"vigil/internal/schedule"
	"vigil/internal/topology"
	"vigil/internal/traffic"
)

// incrementalSim builds an incremental simulator on the parallel-test
// topology with a traceroute cap, so delta epochs exercise the budget
// overlay too.
func incrementalSim(t testing.TB, seed uint64, workers int) *Sim {
	t.Helper()
	topo, err := topology.New(topology.Config{Pods: 2, ToRsPerPod: 6, T1PerPod: 4, T2: 4, HostsPerToR: 8})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
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
	})
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
	for _, workers := range []int{2, 4, 16} {
		s := incrementalSim(t, 11, workers)
		for e := 0; e < 5; e++ {
			churn(s, e)
			if got := s.RunEpoch(); !reflect.DeepEqual(want[e], got) {
				t.Fatalf("epoch %d diverged at Parallelism=%d", e, workers)
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
