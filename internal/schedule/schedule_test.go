package schedule

import (
	"math"
	"testing"
)

func TestShapeActivity(t *testing.T) {
	cases := []struct {
		name  string
		sched RateSchedule
		// active[i] is the wanted activity flag for epoch i.
		active []bool
	}{
		{"constant", ConstantRate{Rate: 0.1}, []bool{true, true, true}},
		{"window", Window{Rate: 0.1, Start: 1, End: 3}, []bool{false, true, true, false}},
		{"flap-50", Flap{Rate: 0.1, Period: 4, On: 2}, []bool{true, true, false, false, true}},
		{"flap-phase", Flap{Rate: 0.1, Period: 4, On: 2, Phase: 3}, []bool{false, true, true, false}},
		{"flap-degenerate-period", Flap{Rate: 0.1, Period: 0, On: 1}, []bool{false, false}},
		{"flap-degenerate-on", Flap{Rate: 0.1, Period: 4, On: 0}, []bool{false, false}},
		{"intermittent-always", Intermittent{Rate: 0.1, Prob: 1, Seed: 9}, []bool{true, true}},
		{"intermittent-never", Intermittent{Rate: 0.1, Prob: 0, Seed: 9}, []bool{false, false}},
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

// A negative epoch (e.g. a Phase pushing the cycle position below zero)
// must still resolve to a sane duty-cycle slot.
func TestFlapNegativePosition(t *testing.T) {
	f := Flap{Rate: 0.1, Period: 4, On: 2, Phase: -1}
	if _, active := f.RateAt(0); active {
		t.Fatal("position -1 reported active in a 2-of-4 duty cycle")
	}
	if _, active := f.RateAt(1); !active {
		t.Fatal("position 0 reported inactive")
	}
}

// Intermittent membership is a pure function of (Seed, epoch) and its
// empirical on-fraction tracks Prob.
func TestIntermittentPureAndCalibrated(t *testing.T) {
	s := Intermittent{Rate: 0.01, Prob: 0.3, Seed: 42}
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

func TestValidRate(t *testing.T) {
	for _, rate := range []float64{0, 0.5, 1} {
		if !ValidRate(rate) {
			t.Fatalf("ValidRate(%v) = false", rate)
		}
	}
	for _, rate := range []float64{-0.001, 1.001, math.NaN(), math.Inf(1)} {
		if ValidRate(rate) {
			t.Fatalf("ValidRate(%v) = true", rate)
		}
	}
}

// customSched stands in for a user-defined shape checkRate cannot see into.
type customSched struct{ rate float64 }

func (c customSched) RateAt(int) (float64, bool) { return c.rate, true }

func TestCheckRate(t *testing.T) {
	for _, sched := range []RateSchedule{
		ConstantRate{Rate: 0.1},
		Window{Rate: 1},
		Flap{Rate: 0},
		Intermittent{Rate: 0.5},
		customSched{rate: 99}, // opaque: validated per-epoch, not here
	} {
		if err := checkRate(sched); err != nil {
			t.Fatalf("checkRate(%T) = %v", sched, err)
		}
	}
	for _, sched := range []RateSchedule{
		ConstantRate{Rate: -0.1},
		Window{Rate: 1.5},
		Flap{Rate: math.NaN()},
		Intermittent{Rate: 2},
	} {
		if err := checkRate(sched); err == nil {
			t.Fatalf("checkRate(%T) accepted an out-of-range rate", sched)
		}
	}
}

func TestProbe(t *testing.T) {
	if err := Probe(Window{Rate: 0.2, Start: 0, End: 4}, 10); err != nil {
		t.Fatal(err)
	}
	// An out-of-range rate in an inactive epoch is unreachable and passes.
	if err := Probe(Window{Rate: 7, Start: 20, End: 30}, 10); err != nil {
		t.Fatal(err)
	}
	if err := Probe(customSched{rate: 1.5}, 10); err == nil {
		t.Fatal("Probe accepted an out-of-range active rate")
	}
}
