package schedule

import (
	"fmt"
	"slices"

	"vigil/internal/topology"
)

// Failures is one plane's failure set: the links running at an injected
// rate, their sorted snapshot, and the rate schedules that own some of
// them. Both planes keep theirs here, so an injection, a clear and a
// scripted epoch mean the same thing on either, and this is the only place
// a link, a rate or a schedule is validated.
//
// The plane supplies two callbacks: set(l, rate) makes link l drop at an
// injected rate, reset(l) returns it to its baseline (noise) rate.
type Failures struct {
	topo  *topology.Topology
	set   func(topology.LinkID, float64)
	reset func(topology.LinkID)

	rates map[topology.LinkID]float64
	// sorted caches Sorted's snapshot; nil means membership changed since.
	// A rebuild allocates a fresh slice, so a returned snapshot is never
	// mutated under a caller.
	sorted []topology.LinkID
	scheds []linkSchedule
}

// linkSchedule pairs a scheduled link with its script.
type linkSchedule struct {
	link  topology.LinkID
	sched RateSchedule
}

// NewFailures builds an empty failure set over topo's links.
func NewFailures(topo *topology.Topology, set func(topology.LinkID, float64), reset func(topology.LinkID)) *Failures {
	return &Failures{topo: topo, set: set, reset: reset, rates: make(map[topology.LinkID]float64)}
}

// Inject fails link l at rate, replacing its baseline rate.
func (f *Failures) Inject(l topology.LinkID, rate float64) error {
	if err := f.topo.CheckLink(l); err != nil {
		return err
	}
	if !ValidRate(rate) {
		return fmt.Errorf("schedule: drop rate %v outside [0, 1]", rate)
	}
	f.inject(l, rate)
	return nil
}

func (f *Failures) inject(l topology.LinkID, rate float64) {
	if _, ok := f.rates[l]; !ok {
		f.sorted = nil
	}
	f.rates[l] = rate
	f.set(l, rate)
}

// Clear restores link l to its baseline rate.
func (f *Failures) Clear(l topology.LinkID) error {
	if err := f.topo.CheckLink(l); err != nil {
		return err
	}
	f.clear(l)
	return nil
}

func (f *Failures) clear(l topology.LinkID) {
	if _, ok := f.rates[l]; ok {
		delete(f.rates, l)
		f.sorted = nil
	}
	f.reset(l)
}

// ClearAll restores every failed link to its baseline rate, in link order.
// A scheduled link fails again at the next Apply that finds it active.
func (f *Failures) ClearAll() {
	for _, l := range f.Sorted() {
		f.clear(l)
	}
}

// Sorted returns the failed links in ascending order. The snapshot is
// cached until the membership changes; callers must not mutate it.
func (f *Failures) Sorted() []topology.LinkID {
	if f.sorted == nil {
		f.sorted = make([]topology.LinkID, 0, len(f.rates))
		for l := range f.rates {
			f.sorted = append(f.sorted, l)
		}
		slices.Sort(f.sorted)
	}
	return f.sorted
}

// Schedule attaches sched to link l from the next Apply on. A scheduled
// link is owned by its schedule: every Apply fails it at the scripted rate
// (active) or restores its baseline (inactive), overriding a manual
// Inject or Clear on the same link. If a link is scheduled twice the later
// registration wins: it is applied last. The built-in shapes' rates are
// checked here; a custom schedule's are checked epoch by epoch by Apply.
func (f *Failures) Schedule(l topology.LinkID, sched RateSchedule) error {
	if err := f.topo.CheckLink(l); err != nil {
		return err
	}
	if sched == nil {
		return fmt.Errorf("schedule: nil RateSchedule")
	}
	if err := checkRate(sched); err != nil {
		return err
	}
	f.scheds = append(f.scheds, linkSchedule{link: l, sched: sched})
	return nil
}

// ClearSchedules detaches every schedule and restores the scheduled links
// to their baseline rates. Failures injected on unscheduled links stay.
func (f *Failures) ClearSchedules() {
	for _, ls := range f.scheds {
		f.clear(ls.link)
	}
	f.scheds = nil
}

// Apply settles every scheduled link for the given epoch, in registration
// order. It checks every scheduled rate first, so a schedule that returns
// a rate outside [0, 1] is an error with no rate half-applied. Every
// scheduled link is applied every epoch, changed or not: the planes' set
// and reset decide what an unchanged rate costs.
func (f *Failures) Apply(epoch int) error {
	for _, ls := range f.scheds {
		if rate, active := ls.sched.RateAt(epoch); active && !ValidRate(rate) {
			return fmt.Errorf("schedule: link %d: epoch %d: drop rate %v outside [0, 1]", ls.link, epoch, rate)
		}
	}
	for _, ls := range f.scheds {
		if rate, active := ls.sched.RateAt(epoch); active {
			f.inject(ls.link, rate)
		} else {
			f.clear(ls.link)
		}
	}
	return nil
}
