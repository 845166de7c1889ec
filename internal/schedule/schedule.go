// Package schedule holds the epoch-indexed rate schedules shared by both
// evaluation planes: the flow-level simulator (internal/netem, the paper's
// §6 plane) and the packet-level fabric emulation (internal/fabric +
// internal/cluster, the §7/§8 plane). A RateSchedule scripts one link's
// drop rate as a function of the epoch index; the scenario engine
// (internal/scenario) composes them into link flaps, intermittent low-rate
// drops, rolling failure waves and congestion bursts that run unmodified
// on either plane.
//
// Schedules are pure functions of the epoch index: RateAt(e) must be
// identical however many times and in whatever order it is called. Both
// planes rely on this — they settle every scheduled link's rate at the top
// of an epoch, before any randomness is drawn, so dynamics never perturb
// the planes' determinism contracts (DESIGN.md).
//
// Failures is the failure set both planes keep: injected links, their
// sorted snapshot and the schedules, over two plane callbacks.
package schedule

import (
	"fmt"
	"math"

	"vigil/internal/stats"
)

// RateSchedule gives a link's drop rate for each epoch.
//
// RateAt returns the rate the link drops at during the given epoch and
// whether the link counts as *failed* (injected, part of detection ground
// truth) that epoch. When active is false the rate is ignored and the link
// runs at its baseline (noise) rate. Implementations must be pure
// functions of the epoch index.
type RateSchedule interface {
	RateAt(epoch int) (rate float64, active bool)
}

// ConstantRate fails the link at Rate in every epoch — the static injection
// of InjectFailure in schedule form.
type ConstantRate struct {
	// Public API: Rate is set through vigil.ConstantRate.
	Rate float64
}

// Public API: RateAt implements RateSchedule for a library user's
// vigil.ConstantRate.
func (c ConstantRate) RateAt(int) (float64, bool) { return c.Rate, true }

// Window fails the link at Rate during epochs [Start, End) and leaves it
// healthy outside. Staggered windows across links compose into rolling
// failure waves.
type Window struct {
	Rate       float64
	Start, End int
}

// RateAt implements RateSchedule.
func (w Window) RateAt(epoch int) (float64, bool) {
	return w.Rate, epoch >= w.Start && epoch < w.End
}

// Flap cycles the link through an on/off duty cycle: within each Period-long
// cycle the link is failed at Rate for the first On epochs (shifted by
// Phase). Flap{Rate, Period: 4, On: 2} is a 50% duty-cycle flap; a nonzero
// Phase staggers several flapping links against each other.
type Flap struct {
	Rate              float64
	Period, On, Phase int
}

// RateAt implements RateSchedule.
func (f Flap) RateAt(epoch int) (float64, bool) {
	if f.Period <= 0 || f.On <= 0 {
		return f.Rate, false
	}
	p := (epoch + f.Phase) % f.Period
	if p < 0 {
		p += f.Period
	}
	return f.Rate, p < f.On
}

// Intermittent fails the link at Rate in a random Prob fraction of epochs.
// Epoch membership is a counter-based draw on (Seed, epoch) — deterministic,
// order-free and independent of every other RNG stream in the simulator, so
// an intermittent link neither consumes simulator randomness nor changes any
// other link's draws.
type Intermittent struct {
	Rate float64
	Prob float64
	Seed uint64
}

// RateAt implements RateSchedule.
func (i Intermittent) RateAt(epoch int) (float64, bool) {
	return i.Rate, stats.DeriveUniform(i.Seed, uint64(epoch)) < i.Prob
}

// ValidRate reports whether rate is a probability.
func ValidRate(rate float64) bool {
	return !math.IsNaN(rate) && rate >= 0 && rate <= 1
}

// checkRate validates the rate of the built-in schedule shapes up front.
// Custom RateSchedule implementations are opaque here and pass; Apply
// validates their rates epoch by epoch.
func checkRate(sched RateSchedule) error {
	var rate float64
	switch sc := sched.(type) {
	case ConstantRate:
		rate = sc.Rate
	case Window:
		rate = sc.Rate
	case Flap:
		rate = sc.Rate
	case Intermittent:
		rate = sc.Rate
	default:
		return nil
	}
	if !ValidRate(rate) {
		return fmt.Errorf("schedule: drop rate %v outside [0, 1]", rate)
	}
	return nil
}

// Probe evaluates the schedule over epochs [0, epochs) and returns an error
// on the first active epoch whose rate is not a probability. RateSchedules
// are pure, so probing a whole scripted horizon costs nothing but
// arithmetic — the scenario engine runs this before committing a script to
// either plane.
func Probe(sched RateSchedule, epochs int) error {
	for e := 0; e < epochs; e++ {
		rate, active := sched.RateAt(e)
		if active && !ValidRate(rate) {
			return fmt.Errorf("schedule: epoch %d: drop rate %v outside [0, 1]", e, rate)
		}
	}
	return nil
}
