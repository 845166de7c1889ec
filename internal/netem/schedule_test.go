package netem

import (
	"math"
	"reflect"
	"testing"

	"vigil/internal/schedule"
	"vigil/internal/topology"
)

func TestScheduleShapes(t *testing.T) {
	cases := []struct {
		name  string
		sched schedule.RateSchedule
		// active[i] is the wanted activity flag for epoch i.
		active []bool
	}{
		{"constant", schedule.ConstantRate{Rate: 0.1}, []bool{true, true, true, true}},
		{"window", schedule.Window{Rate: 0.1, Start: 1, End: 3}, []bool{false, true, true, false, false}},
		{"flap-50", schedule.Flap{Rate: 0.1, Period: 4, On: 2}, []bool{true, true, false, false, true, true, false, false}},
		{"flap-phase", schedule.Flap{Rate: 0.1, Period: 4, On: 2, Phase: 3}, []bool{false, true, true, false, false, true}},
		{"flap-degenerate-period", schedule.Flap{Rate: 0.1, Period: 0, On: 1}, []bool{false, false}},
		{"flap-degenerate-on", schedule.Flap{Rate: 0.1, Period: 4, On: 0}, []bool{false, false}},
		{"intermittent-always", schedule.Intermittent{Rate: 0.1, Prob: 1, Seed: 9}, []bool{true, true, true}},
		{"intermittent-never", schedule.Intermittent{Rate: 0.1, Prob: 0, Seed: 9}, []bool{false, false, false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for e, want := range tc.active {
				rate, active := tc.sched.RateAt(e)
				if active != want {
					t.Fatalf("epoch %d: active = %v, want %v", e, active, want)
				}
				if rate != 0.1 {
					t.Fatalf("epoch %d: rate = %v, want 0.1", e, rate)
				}
			}
		})
	}
}

// Intermittent epochs must be a pure function of (Seed, epoch): re-querying
// in any order yields the same membership, and the empirical on-fraction
// tracks Prob.
func TestIntermittentIsPureAndCalibrated(t *testing.T) {
	s := schedule.Intermittent{Rate: 0.01, Prob: 0.3, Seed: 42}
	const n = 10000
	on := 0
	for e := n - 1; e >= 0; e-- { // reverse order on purpose
		_, a1 := s.RateAt(e)
		_, a2 := s.RateAt(e)
		if a1 != a2 {
			t.Fatalf("epoch %d: RateAt not pure", e)
		}
		if a1 {
			on++
		}
	}
	frac := float64(on) / n
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("on-fraction %v far from Prob 0.3", frac)
	}
}

// A scheduled epoch sequence must follow the script: the link appears in
// FailedLinks and drops packets exactly during its active epochs.
func TestScheduledEpochsFollowScript(t *testing.T) {
	s := smallSim(t, 11)
	bad := s.Topology().LinksOfClass(topology.L1Up)[1]
	s.Schedule(bad, schedule.Window{Rate: 0.2, Start: 1, End: 3})
	for e := 0; e < 5; e++ {
		if got := s.EpochIndex(); got != e {
			t.Fatalf("EpochIndex = %d before epoch %d", got, e)
		}
		ep := s.RunEpoch()
		active := e >= 1 && e < 3
		if active {
			if len(ep.FailedLinks) != 1 || ep.FailedLinks[0] != bad {
				t.Fatalf("epoch %d: FailedLinks = %v, want [%v]", e, ep.FailedLinks, bad)
			}
			if ep.linkDrops()[bad] == 0 {
				t.Fatalf("epoch %d: active scheduled link dropped nothing at 20%%", e)
			}
		} else {
			if len(ep.FailedLinks) != 0 {
				t.Fatalf("epoch %d: FailedLinks = %v, want none", e, ep.FailedLinks)
			}
		}
	}
}

// A schedule owns its link: manual injections on a scheduled link are
// overridden at the next epoch, and ClearSchedules restores the noise rate.
func TestScheduleOwnsLink(t *testing.T) {
	s := smallSim(t, 12)
	bad := s.Topology().LinksOfClass(topology.L1Down)[0]
	s.Schedule(bad, schedule.Window{Rate: 0.1, Start: 10, End: 11}) // inactive for epochs 0..9
	s.InjectFailure(bad, 0.5)                                       // manual injection, overridden
	ep := s.RunEpoch()
	if len(ep.FailedLinks) != 0 {
		t.Fatalf("inactive schedule kept manual injection: %v", ep.FailedLinks)
	}
	s.ClearSchedules()
	if got := s.fails.Sorted(); len(got) != 0 {
		t.Fatalf("ClearSchedules left failures: %v", got)
	}
	// After clearing, manual control works again.
	s.InjectFailure(bad, 0.5)
	ep = s.RunEpoch()
	if len(ep.FailedLinks) != 1 || ep.FailedLinks[0] != bad {
		t.Fatalf("manual injection after ClearSchedules: FailedLinks = %v", ep.FailedLinks)
	}
}

// The last of two schedules on the same link wins.
func TestScheduleLastRegistrationWins(t *testing.T) {
	s := smallSim(t, 13)
	bad := s.Topology().LinksOfClass(topology.L1Up)[3]
	s.Schedule(bad, schedule.ConstantRate{Rate: 0.3})
	s.Schedule(bad, schedule.Window{Rate: 0.3, Start: 5, End: 6}) // inactive now
	ep := s.RunEpoch()
	if len(ep.FailedLinks) != 0 {
		t.Fatalf("earlier schedule won: FailedLinks = %v", ep.FailedLinks)
	}
}

// badSchedule returns an out-of-range rate from epoch 1 on.
type badSchedule struct{ rate float64 }

func (b badSchedule) RateAt(epoch int) (float64, bool) { return b.rate, epoch >= 1 }

// A schedule emitting a rate outside [0, 1] must fail loudly when applied,
// not corrupt the survival-gate terms.
func TestScheduleBadRatePanics(t *testing.T) {
	for _, rate := range []float64{-0.1, 1.5, math.NaN()} {
		s := smallSim(t, 14)
		s.Schedule(s.Topology().LinksOfClass(topology.L1Up)[0], badSchedule{rate: rate})
		s.RunEpoch() // epoch 0: inactive, fine
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("rate %v applied without panic", rate)
				}
			}()
			s.RunEpoch()
		}()
	}
}

// A steady schedule (same rate, still active) must not re-dirty the cached
// failure snapshot: consecutive epochs share the same backing array.
func TestSteadyScheduleKeepsSnapshotCache(t *testing.T) {
	s := smallSim(t, 15)
	s.Schedule(s.Topology().LinksOfClass(topology.L1Up)[0], schedule.ConstantRate{Rate: 0.05})
	ep1 := s.RunEpoch()
	ep2 := s.RunEpoch()
	if len(ep1.FailedLinks) != 1 || len(ep2.FailedLinks) != 1 {
		t.Fatalf("FailedLinks = %v / %v", ep1.FailedLinks, ep2.FailedLinks)
	}
	if &ep1.FailedLinks[0] != &ep2.FailedLinks[0] {
		t.Fatal("steady schedule rebuilt the failure snapshot between epochs")
	}
}

// A scheduled multi-epoch run must be bit-identical at every Parallelism:
// the dynamic layer only moves rates between epochs and must not interact
// with the fan-out.
func TestScheduledEpochSequenceBitIdenticalAcrossParallelism(t *testing.T) {
	run := func(parallelism int) []*Epoch {
		topo, err := topology.New(topology.Config{Pods: 2, ToRsPerPod: 4, T1PerPod: 3, T2: 4, HostsPerToR: 4})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Topo: topo, NoiseLo: 0, NoiseHi: 1e-6, Seed: 77, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		s.Schedule(topo.LinksOfClass(topology.L1Up)[2], schedule.Flap{Rate: 0.02, Period: 3, On: 1})
		s.Schedule(topo.LinksOfClass(topology.L2Down)[1], schedule.Intermittent{Rate: 0.01, Prob: 0.5, Seed: 5})
		var eps []*Epoch
		for e := 0; e < 6; e++ {
			eps = append(eps, s.RunEpoch())
		}
		return eps
	}
	want := run(1)
	signal := 0
	for _, ep := range want {
		signal += ep.TotalDrops
	}
	if signal == 0 {
		t.Fatal("scheduled run produced no drops to compare")
	}
	for _, p := range []int{2, 8} {
		if got := run(p); !reflect.DeepEqual(want, got) {
			t.Fatalf("Parallelism %d changed the scheduled epoch sequence", p)
		}
	}
}
