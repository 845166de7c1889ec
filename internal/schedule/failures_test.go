package schedule

import (
	"math"
	"slices"
	"testing"

	"vigil/internal/topology"
)

// rig is a failure set over a small Clos whose callbacks write a rate
// vector the way a plane's would: set applies the injected rate, reset the
// link's baseline.
type rig struct {
	f    *Failures
	rate []float64
	base []float64
	sets int // callback calls, set and reset alike
}

func newRig(t *testing.T) *rig {
	t.Helper()
	topo, err := topology.New(topology.Config{Pods: 1, ToRsPerPod: 2, T1PerPod: 2, HostsPerToR: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{rate: make([]float64, len(topo.Links)), base: make([]float64, len(topo.Links))}
	for l := range r.base {
		r.base[l] = 1e-6 * float64(l)
		r.rate[l] = r.base[l]
	}
	r.f = NewFailures(topo,
		func(l topology.LinkID, rate float64) { r.rate[l] = rate; r.sets++ },
		func(l topology.LinkID) { r.rate[l] = r.base[l]; r.sets++ })
	return r
}

// epochSchedule flips between custom rates to exercise the non-shape
// validation path.
type epochSchedule struct{ rates []float64 }

func (s epochSchedule) RateAt(epoch int) (float64, bool) {
	if epoch >= len(s.rates) {
		return 0, false
	}
	return s.rates[epoch], true
}

// Links out of range, non-probability rates, nil schedules and built-in
// shapes with a bad rate are errors, and none of them touches a rate.
func TestFailuresValidation(t *testing.T) {
	r := newRig(t)
	nlinks := len(r.rate)
	for _, l := range []topology.LinkID{-1, topology.LinkID(nlinks)} {
		if err := r.f.Inject(l, 0.1); err == nil {
			t.Fatalf("Inject accepted link %d", l)
		}
		if err := r.f.Clear(l); err == nil {
			t.Fatalf("Clear accepted link %d", l)
		}
		if err := r.f.Schedule(l, ConstantRate{Rate: 0.1}); err == nil {
			t.Fatalf("Schedule accepted link %d", l)
		}
	}
	good := topology.LinkID(0)
	for _, rate := range []float64{-0.1, 1.0000001, math.NaN()} {
		if err := r.f.Inject(good, rate); err == nil {
			t.Fatalf("Inject accepted rate %v", rate)
		}
		if err := r.f.Schedule(good, ConstantRate{Rate: rate}); err == nil {
			t.Fatalf("Schedule accepted shape rate %v", rate)
		}
	}
	if err := r.f.Schedule(good, nil); err == nil {
		t.Fatal("Schedule accepted a nil schedule")
	}
	if r.sets != 0 || len(r.f.Sorted()) != 0 {
		t.Fatalf("rejected calls changed state: %d callbacks, failed %v", r.sets, r.f.Sorted())
	}
	for _, rate := range []float64{0, 1} {
		if err := r.f.Inject(good, rate); err != nil {
			t.Fatalf("boundary rate %v rejected: %v", rate, err)
		}
	}
}

// Apply settles scheduled links per epoch: active epochs apply the scripted
// rate, inactive epochs restore the baseline, and a custom schedule
// emitting an out-of-range rate errors before any rate changes.
// ClearSchedules restores every scheduled link's baseline.
func TestFailuresApply(t *testing.T) {
	r := newRig(t)
	a, b := topology.LinkID(1), topology.LinkID(2)
	if err := r.f.Schedule(a, Window{Rate: 0.2, Start: 0, End: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.f.Schedule(b, Flap{Rate: 0.3, Period: 2, On: 1, Phase: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.f.Apply(0); err != nil {
		t.Fatal(err)
	}
	if r.rate[a] != 0.2 || r.rate[b] != r.base[b] || !slices.Equal(r.f.Sorted(), []topology.LinkID{a}) {
		t.Fatalf("epoch 0: rates %v/%v, failed %v", r.rate[a], r.rate[b], r.f.Sorted())
	}
	if err := r.f.Apply(1); err != nil {
		t.Fatal(err)
	}
	if r.rate[a] != r.base[a] || r.rate[b] != 0.3 || !slices.Equal(r.f.Sorted(), []topology.LinkID{b}) {
		t.Fatalf("epoch 1: rates %v/%v, failed %v", r.rate[a], r.rate[b], r.f.Sorted())
	}
	// A broken custom schedule must error with no rate half-applied: a's
	// schedule, first in order, would restore its baseline at epoch 2.
	if err := r.f.Inject(a, 0.4); err != nil {
		t.Fatal(err)
	}
	if err := r.f.Schedule(b, epochSchedule{rates: []float64{0.1, 0.1, 1.7}}); err != nil {
		t.Fatal(err)
	}
	sets := r.sets
	if err := r.f.Apply(2); err == nil {
		t.Fatal("out-of-range custom rate accepted")
	}
	if r.sets != sets || r.rate[a] != 0.4 {
		t.Fatal("failed Apply changed rates")
	}
	r.f.ClearSchedules()
	if r.rate[a] != r.base[a] || r.rate[b] != r.base[b] || len(r.f.Sorted()) != 0 {
		t.Fatalf("ClearSchedules left rates %v/%v, failed %v", r.rate[a], r.rate[b], r.f.Sorted())
	}
	if err := r.f.Apply(1); err != nil || r.rate[b] != r.base[b] {
		t.Fatalf("a cleared schedule still applied: %v, rate %v", err, r.rate[b])
	}
}

// A link scheduled twice follows the later registration, active or not,
// and a schedule overrides a manual injection on its link.
func TestFailuresLaterScheduleWins(t *testing.T) {
	r := newRig(t)
	l := topology.LinkID(3)
	if err := r.f.Inject(l, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := r.f.Schedule(l, ConstantRate{Rate: 0.3}); err != nil {
		t.Fatal(err)
	}
	if err := r.f.Schedule(l, Window{Rate: 0.3, Start: 5, End: 6}); err != nil {
		t.Fatal(err)
	}
	if err := r.f.Apply(0); err != nil {
		t.Fatal(err)
	}
	if r.rate[l] != r.base[l] || len(r.f.Sorted()) != 0 {
		t.Fatalf("earlier schedule won: rate %v, failed %v", r.rate[l], r.f.Sorted())
	}
	if err := r.f.Apply(5); err != nil {
		t.Fatal(err)
	}
	if r.rate[l] != 0.3 || !slices.Equal(r.f.Sorted(), []topology.LinkID{l}) {
		t.Fatalf("epoch 5: rate %v, failed %v", r.rate[l], r.f.Sorted())
	}
}

// The sorted snapshot is rebuilt only when membership changes, so a steady
// schedule keeps handing out the same backing array; ClearAll restores
// every failed link, scheduled or not, in link order.
func TestFailuresSnapshotAndClearAll(t *testing.T) {
	r := newRig(t)
	for _, l := range []topology.LinkID{7, 2, 5} {
		if err := r.f.Inject(l, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.f.Schedule(4, ConstantRate{Rate: 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := r.f.Apply(0); err != nil {
		t.Fatal(err)
	}
	snap := r.f.Sorted()
	if !slices.Equal(snap, []topology.LinkID{2, 4, 5, 7}) {
		t.Fatalf("Sorted = %v", snap)
	}
	if err := r.f.Apply(1); err != nil {
		t.Fatal(err)
	}
	if err := r.f.Inject(5, 0.3); err != nil { // a new rate, same membership
		t.Fatal(err)
	}
	if got := r.f.Sorted(); &got[0] != &snap[0] {
		t.Fatal("an unchanged membership rebuilt the snapshot")
	}
	if err := r.f.Clear(5); err != nil {
		t.Fatal(err)
	}
	if got := r.f.Sorted(); !slices.Equal(got, []topology.LinkID{2, 4, 7}) || !slices.Equal(snap, []topology.LinkID{2, 4, 5, 7}) {
		t.Fatalf("after Clear: Sorted = %v, earlier snapshot %v", got, snap)
	}
	r.f.ClearAll()
	if len(r.f.Sorted()) != 0 {
		t.Fatalf("ClearAll left %v", r.f.Sorted())
	}
	for l := range r.rate {
		if r.rate[l] != r.base[l] {
			t.Fatalf("link %d at %v after ClearAll, baseline %v", l, r.rate[l], r.base[l])
		}
	}
	if err := r.f.Apply(2); err != nil || !slices.Equal(r.f.Sorted(), []topology.LinkID{4}) {
		t.Fatalf("the schedule did not fail its link again: %v, %v", err, r.f.Sorted())
	}
}
