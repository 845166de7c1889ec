package netem

import (
	"reflect"
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
// (RescoreAll before each epoch forces the full pipeline on the same frozen
// seed).
func TestIncrementalMatchesFullRescore(t *testing.T) {
	delta := incrementalSim(t, 7, 3)
	full := incrementalSim(t, 7, 3)
	for e := 0; e < 6; e++ {
		churn(delta, e)
		churn(full, e)
		full.RescoreAll()
		de, fe := delta.RunEpoch(), full.RunEpoch()
		if !reflect.DeepEqual(de, fe) {
			t.Fatalf("epoch %d: delta diverged from full rescore: drops %d/%d, failed %d/%d, reports %d/%d",
				e, de.TotalDrops, fe.TotalDrops, len(de.Failed), len(fe.Failed), len(de.Reports), len(fe.Reports))
		}
	}
}

// Delta epochs keep the parallelism determinism contract: bit-identical
// results at every worker count, including the parallel re-score fan-out
// and the merge.
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
// parallel shard loop, the parallel dense-counter merge and the delta
// re-score under the race detector.
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
		full.RescoreAll()
		de, fe := delta.RunEpoch(), full.RunEpoch()
		if !reflect.DeepEqual(de, fe) {
			t.Fatalf("datacenter epoch %d: delta diverged from full rescore", e)
		}
		if de.TotalFlows != topo.Cfg.Hosts()*10 {
			t.Fatalf("epoch %d: %d flows, want %d", e, de.TotalFlows, topo.Cfg.Hosts()*10)
		}
	}
}

// RescoreAll on a non-incremental sim is a harmless no-op.
func TestRescoreAllNonIncremental(t *testing.T) {
	s := parallelSim(t, 13, 2)
	a := s.RunEpoch()
	s.RescoreAll()
	b := s.RunEpoch()
	if a.TotalFlows != b.TotalFlows {
		t.Fatalf("flow count changed across RescoreAll: %d -> %d", a.TotalFlows, b.TotalFlows)
	}
}
