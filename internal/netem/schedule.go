// Dynamic-failure layer of the flow-level simulator: epoch-indexed rate
// schedules, shared with the packet plane through internal/schedule.
//
// The shapes (ConstantRate, Window, Flap, Intermittent) live in package
// schedule so both planes script dynamics from one vocabulary. Schedules
// are applied sequentially at the top of RunEpoch, before any parallel
// fan-out, so they add nothing to the survival-gated hot path and cannot
// perturb the cross-parallelism determinism contract: by the time workers
// start, the per-link rate/logq/isFailed vectors are fixed for the epoch.
package netem

import (
	"fmt"

	"vigil/internal/schedule"
	"vigil/internal/topology"
)

// linkSchedule pairs a scheduled link with its script.
type linkSchedule struct {
	link  topology.LinkID
	sched schedule.RateSchedule
}

// Schedule attaches sched to link l, to be applied at the start of every
// subsequent epoch. A scheduled link is owned by its schedule: each epoch it
// is re-injected (active) or restored to its noise rate (inactive),
// overriding any manual InjectFailure/ClearFailure on the same link. If a
// link is scheduled twice the later registration wins (it is applied last).
func (s *Sim) Schedule(l topology.LinkID, sched schedule.RateSchedule) {
	s.schedules = append(s.schedules, linkSchedule{link: l, sched: sched})
}

// ClearSchedules detaches every schedule and restores the scheduled links to
// their noise rates. Manually injected failures on unscheduled links are
// untouched.
func (s *Sim) ClearSchedules() {
	for _, ls := range s.schedules {
		if s.isFailed[ls.link] {
			s.ClearFailure(ls.link)
		}
	}
	s.schedules = nil
}

// EpochIndex returns the index the next RunEpoch call will simulate (the
// number of epochs run so far).
func (s *Sim) EpochIndex() int { return s.epochIdx }

// applySchedules moves every scheduled link to its scripted state for epoch
// s.epochIdx. It runs sequentially before the epoch's parallel fan-out;
// rate/logq/isFailed and the failure snapshot are all settled through the
// ordinary Inject/Clear paths, so the hot path sees a fixed rate vector.
// Re-injection is skipped when the link already runs at the scripted rate,
// so a steady schedule (ConstantRate, a Window's interior) does not
// invalidate the cached sorted failure snapshot every epoch.
//
// A schedule returning a rate outside [0, 1] is a broken script — there is
// no epoch result to attach an error to, and feeding it to log1p would
// silently corrupt every later draw — so it panics, loudly, here.
func (s *Sim) applySchedules() {
	for _, ls := range s.schedules {
		rate, active := ls.sched.RateAt(s.epochIdx)
		switch {
		case !active:
			if s.isFailed[ls.link] {
				s.ClearFailure(ls.link)
			}
		case !schedule.ValidRate(rate):
			panic(fmt.Sprintf("netem: schedule on link %d returned drop rate %v outside [0, 1] for epoch %d", ls.link, rate, s.epochIdx))
		case !s.isFailed[ls.link] || s.failures[ls.link] != rate:
			s.InjectFailure(ls.link, rate)
		}
	}
}
