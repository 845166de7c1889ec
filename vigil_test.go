package vigil_test

import (
	"math"
	"reflect"
	"testing"

	"vigil"
)

// The determinism contract of the parallel epoch engine, end to end: a
// seeded epoch's full 007 output — ranking, detections, verdicts and ground
// truth — must be bit-identical at every Parallelism setting.
func TestEpochDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallelism int) *vigil.EpochReport {
		sim, err := vigil.NewSimulation(vigil.SimConfig{
			Topology: vigil.TopologyConfig{
				Pods: 2, ToRsPerPod: 8, T1PerPod: 6, T2: 4, HostsPerToR: 8,
			},
			Seed:        99,
			Parallelism: parallelism,
		})
		if err != nil {
			t.Fatal(err)
		}
		topo := sim.Topology()
		sim.InjectFailure(topo.LinksOfClass(vigil.L1Up)[4], 0.01)
		sim.InjectFailure(topo.LinksOfClass(vigil.L2Down)[2], 0.004)
		return sim.RunEpoch()
	}
	want := run(1)
	if want.TotalDrops == 0 || len(want.Ranking) == 0 {
		t.Fatal("epoch produced no signal to compare")
	}
	for _, parallelism := range []int{2, 8} {
		got := run(parallelism)
		if !reflect.DeepEqual(want.Ranking, got.Ranking) {
			t.Fatalf("Parallelism %d changed the ranking", parallelism)
		}
		if !reflect.DeepEqual(want.Detected, got.Detected) {
			t.Fatalf("Parallelism %d changed detections: %v vs %v", parallelism, want.Detected, got.Detected)
		}
		if !reflect.DeepEqual(want.Verdicts, got.Verdicts) {
			t.Fatalf("Parallelism %d changed verdicts", parallelism)
		}
		if want.TotalDrops != got.TotalDrops {
			t.Fatalf("Parallelism %d changed TotalDrops: %d vs %d", parallelism, want.TotalDrops, got.TotalDrops)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("Parallelism %d changed the epoch report", parallelism)
		}
	}
}

func TestSimulationDefaults(t *testing.T) {
	sim, err := vigil.NewSimulation(vigil.SimConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sim.Topology().Links); got != 4160 {
		t.Fatalf("default topology has %d links, want the paper's 4160", got)
	}
}

func TestEmulationFacade(t *testing.T) {
	topo, err := vigil.NewTopology(vigil.TestClusterTopology)
	if err != nil {
		t.Fatal(err)
	}
	em, err := vigil.NewEmulation(vigil.EmulationConfig{Topo: topo, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	vip := vigil.ServiceVIP(1)
	if err := vigil.RegisterVIP(em, vip, []vigil.HostID{topo.HostAt(0, 5, 0)}); err != nil {
		t.Fatal(err)
	}
	bad := topo.LinksOfClass(vigil.L1Down)[4]
	em.InjectFailure(bad, 0.05)
	em.StartWorkload(vigil.Workload{
		Pattern:        vigil.UniformTraffic(),
		ConnsPerHost:   vigil.IntRange{Lo: 10, Hi: 10},
		PacketsPerFlow: vigil.IntRange{Lo: 80, Hi: 80},
	}, 20*vigil.Second)
	res := em.RunEpoch()
	if len(res.Verdicts) == 0 {
		t.Fatal("no reports in emulation")
	}
	if res.Ranking[0].Link != bad {
		t.Fatalf("emulation top-ranked %v, want %v", res.Ranking[0].Link, bad)
	}
}

func TestTrafficPatternConstructors(t *testing.T) {
	topo, err := vigil.NewTopology(vigil.TestClusterTopology)
	if err != nil {
		t.Fatal(err)
	}
	if vigil.UniformTraffic() == nil {
		t.Fatal("nil uniform pattern")
	}
	if vigil.HotToRTraffic(topo.ToR(0, 0), 0.5) == nil {
		t.Fatal("nil hot pattern")
	}
	if vigil.SkewedTraffic([]vigil.SwitchID{topo.ToR(0, 1)}, 0.8) == nil {
		t.Fatal("nil skewed pattern")
	}
}

func TestTracerouteBudgetFacade(t *testing.T) {
	if got := vigil.TracerouteBudget(vigil.DefaultSimTopology, 100); got != 3.25 {
		t.Fatalf("TracerouteBudget = %v, want 3.25", got)
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := vigil.RunExperiment("not-an-experiment", vigil.ExperimentOptions{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if len(vigil.Experiments()) < 20 {
		t.Fatalf("only %d experiments exposed", len(vigil.Experiments()))
	}
}

// Error paths of the public API: every invalid input must come back as an
// error, not a panic or a silently corrupted simulation.
func TestPublicAPIErrorPaths(t *testing.T) {
	t.Run("NewSimulation", func(t *testing.T) {
		cases := []struct {
			name string
			topo vigil.TopologyConfig
		}{
			{"negative pods", vigil.TopologyConfig{Pods: -1, ToRsPerPod: 4, T1PerPod: 3, T2: 2, HostsPerToR: 4}},
			{"zero tors", vigil.TopologyConfig{Pods: 2, ToRsPerPod: 0, T1PerPod: 3, T2: 2, HostsPerToR: 4}},
			{"tors out of range", vigil.TopologyConfig{Pods: 2, ToRsPerPod: 300, T1PerPod: 3, T2: 2, HostsPerToR: 4}},
			{"multi-pod without T2", vigil.TopologyConfig{Pods: 2, ToRsPerPod: 4, T1PerPod: 3, T2: 0, HostsPerToR: 4}},
			{"hosts out of range", vigil.TopologyConfig{Pods: 2, ToRsPerPod: 4, T1PerPod: 3, T2: 2, HostsPerToR: 255}},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				if _, err := vigil.NewSimulation(vigil.SimConfig{Topology: tc.topo}); err == nil {
					t.Fatalf("invalid topology %+v accepted", tc.topo)
				}
			})
		}
	})

	t.Run("InjectFailure", func(t *testing.T) {
		sim, err := vigil.NewSimulation(vigil.SimConfig{
			Topology: vigil.TopologyConfig{Pods: 1, ToRsPerPod: 2, T1PerPod: 2, T2: 0, HostsPerToR: 2},
			Seed:     1,
		})
		if err != nil {
			t.Fatal(err)
		}
		nlinks := len(sim.Topology().Links)
		good := sim.Topology().LinksOfClass(vigil.L1Up)[0]
		cases := []struct {
			name    string
			link    vigil.LinkID
			rate    float64
			wantErr bool
		}{
			{"valid", good, 0.05, false},
			{"rate zero", good, 0, false},
			{"rate one", good, 1, false},
			{"negative rate", good, -0.1, true},
			{"rate above one", good, 1.5, true},
			{"NaN rate", good, math.NaN(), true},
			{"negative link", -1, 0.05, true},
			{"link out of range", vigil.LinkID(nlinks), 0.05, true},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				err := sim.InjectFailure(tc.link, tc.rate)
				if (err != nil) != tc.wantErr {
					t.Fatalf("InjectFailure(%d, %v) error = %v, wantErr %v", tc.link, tc.rate, err, tc.wantErr)
				}
			})
		}
		// Clearing one link leaves the others failed; clearing all, none.
		other := sim.Topology().LinksOfClass(vigil.L1Down)[0]
		sim.InjectFailure(other, 0.05)
		sim.ClearFailure(good)
		if rep := sim.RunEpoch(); !reflect.DeepEqual(rep.FailedLinks, []vigil.LinkID{other}) {
			t.Fatalf("after ClearFailure, FailedLinks = %v, want [%v]", rep.FailedLinks, other)
		}
		sim.ClearAllFailures()
		if rep := sim.RunEpoch(); len(rep.FailedLinks) != 0 {
			t.Fatalf("after ClearAllFailures, FailedLinks = %v", rep.FailedLinks)
		}
	})

	t.Run("ScheduleFailure", func(t *testing.T) {
		sim, err := vigil.NewSimulation(vigil.SimConfig{
			Topology: vigil.TopologyConfig{Pods: 1, ToRsPerPod: 2, T1PerPod: 2, T2: 0, HostsPerToR: 2},
			Seed:     1,
		})
		if err != nil {
			t.Fatal(err)
		}
		good := sim.Topology().LinksOfClass(vigil.L1Up)[0]
		if err := sim.ScheduleFailure(-1, vigil.ConstantRate{Rate: 0.1}); err == nil {
			t.Fatal("unknown link accepted")
		}
		if err := sim.ScheduleFailure(good, nil); err == nil {
			t.Fatal("nil schedule accepted")
		}
		for _, sched := range []vigil.RateSchedule{
			vigil.ConstantRate{Rate: 1.5},
			vigil.Window{Rate: -0.1, Start: 0, End: 2},
			vigil.Flap{Rate: math.NaN(), Period: 2, On: 1},
			vigil.Intermittent{Rate: 2, Prob: 0.5},
		} {
			if err := sim.ScheduleFailure(good, sched); err == nil {
				t.Fatalf("out-of-range rate accepted in %T", sched)
			}
		}
		if err := sim.ScheduleFailure(good, vigil.Flap{Rate: 0.1, Period: 2, On: 1}); err != nil {
			t.Fatal(err)
		}
		sim.ClearSchedules()
	})

	t.Run("RunIDs", func(t *testing.T) {
		cases := []struct {
			name string
			run  func() error
		}{
			{"unknown experiment", func() error {
				_, err := vigil.RunExperiment("fig99", vigil.ExperimentOptions{})
				return err
			}},
			{"empty experiment id", func() error {
				_, err := vigil.RunExperiment("", vigil.ExperimentOptions{})
				return err
			}},
			{"unknown scenario", func() error {
				_, err := vigil.RunScenario("not-a-scenario", vigil.ScenarioConfig{Seed: 1})
				return err
			}},
			{"empty scenario name", func() error {
				_, err := vigil.RunScenario("", vigil.ScenarioConfig{Seed: 1})
				return err
			}},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				if tc.run() == nil {
					t.Fatal("invalid ID accepted")
				}
			})
		}
	})
}

// The scenario facade: named scenarios list, run, score, and follow the
// determinism contract end to end through the public API.
func TestScenarioFacade(t *testing.T) {
	infos := vigil.Scenarios()
	if len(infos) < 5 {
		t.Fatalf("only %d scenarios exposed", len(infos))
	}
	for _, info := range infos {
		if info.Name == "" || info.Title == "" {
			t.Fatalf("unnamed scenario in listing: %+v", info)
		}
	}
	run := func(p int) *vigil.ScenarioResult {
		res, err := vigil.RunScenario("link-flap", vigil.ScenarioConfig{Seed: 11, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	if want.ActiveEpochs == 0 || len(want.Epochs) == 0 {
		t.Fatalf("scenario run produced no scored epochs: %+v", want)
	}
	if want.Recall < 0.9 {
		t.Fatalf("link-flap recall = %v, want >= 0.9", want.Recall)
	}
	if got := run(4); !reflect.DeepEqual(want, got) {
		t.Fatal("Parallelism changed the scenario result through the facade")
	}
}

// The plane-agnostic facade: the same named scenario runs on the packet
// plane through RunScenario with OnPacketPlane.
func TestRunScenarioOnPacketPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-plane DES run; skipped in -short mode")
	}
	res, err := vigil.RunScenario("link-flap", vigil.ScenarioConfig{
		Seed:   5,
		Epochs: 4,
		Plane:  vigil.OnPacketPlane,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plane != vigil.OnPacketPlane {
		t.Fatalf("result plane = %q", res.Plane)
	}
	if len(res.Epochs) != 4 || res.ActiveEpochs == 0 {
		t.Fatalf("packet scenario produced no scored activity: %+v", res)
	}
	if _, err := vigil.RunScenario("link-flap", vigil.ScenarioConfig{Plane: "quantum"}); err == nil {
		t.Fatal("unknown plane accepted")
	}
}

// Emulation.ScheduleFailure: epoch-settled dynamics on the packet plane
// through the public facade, with the same validation as the simulator.
func TestEmulationScheduleFailureFacade(t *testing.T) {
	topo, err := vigil.NewTopology(vigil.TestClusterTopology)
	if err != nil {
		t.Fatal(err)
	}
	em, err := vigil.NewEmulation(vigil.EmulationConfig{Topo: topo, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	bad := topo.LinksOfClass(vigil.L1Down)[2]
	if err := em.ScheduleFailure(-1, vigil.ConstantRate{Rate: 0.1}); err == nil {
		t.Fatal("unknown link accepted")
	}
	if err := em.ScheduleFailure(bad, nil); err == nil {
		t.Fatal("nil schedule accepted")
	}
	if err := em.ScheduleFailure(bad, vigil.Flap{Rate: 1.5, Period: 2, On: 1}); err == nil {
		t.Fatal("out-of-range rate accepted")
	}
	if err := em.ScheduleFailure(bad, vigil.Window{Rate: 0.08, Start: 1, End: 2}); err != nil {
		t.Fatal(err)
	}
	workload := vigil.Workload{
		Pattern:        vigil.UniformTraffic(),
		ConnsPerHost:   vigil.IntRange{Lo: 4, Hi: 4},
		PacketsPerFlow: vigil.IntRange{Lo: 60, Hi: 60},
	}
	for e := 0; e < 3; e++ {
		em.StartWorkload(workload, 10*vigil.Second)
		res := em.RunEpoch()
		fr := em.LastEpoch()
		if e == 1 {
			if len(fr.FailedLinks) != 1 || fr.FailedLinks[0] != bad {
				t.Fatalf("epoch %d: FailedLinks = %v, want [%v]", e, fr.FailedLinks, bad)
			}
			if len(res.Ranking) == 0 || res.Ranking[0].Link != bad {
				t.Fatalf("epoch %d: scheduled link not localized", e)
			}
		} else if len(fr.FailedLinks) != 0 {
			t.Fatalf("epoch %d: FailedLinks = %v, want none", e, fr.FailedLinks)
		}
	}
	// Manual injection validation through the facade.
	if err := em.InjectFailure(bad, 1.5); err == nil {
		t.Fatal("out-of-range manual rate accepted")
	}
}

// Custom dynamics through the facade: a scheduled link must raise drops
// only during its scripted epochs.
func TestScheduleFailureFacade(t *testing.T) {
	sim, err := vigil.NewSimulation(vigil.SimConfig{
		Topology: vigil.TopologyConfig{Pods: 2, ToRsPerPod: 4, T1PerPod: 3, T2: 4, HostsPerToR: 4},
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := sim.Topology().LinksOfClass(vigil.L1Up)[1]
	if err := sim.ScheduleFailure(bad, vigil.Window{Rate: 0.05, Start: 1, End: 2}); err != nil {
		t.Fatal(err)
	}
	quiet := sim.RunEpoch()
	if len(quiet.FailedLinks) != 0 {
		t.Fatalf("epoch 0 should be quiet, FailedLinks = %v", quiet.FailedLinks)
	}
	active := sim.RunEpoch()
	if len(active.FailedLinks) != 1 || active.FailedLinks[0] != bad {
		t.Fatalf("epoch 1 FailedLinks = %v, want [%v]", active.FailedLinks, bad)
	}
	if active.Detection.Recall != 1 {
		t.Fatalf("active epoch recall = %v", active.Detection.Recall)
	}
}
