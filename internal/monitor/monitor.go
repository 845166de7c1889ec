// Package monitor implements 007's TCP monitoring agent (§3): it consumes
// retransmission events from the host's tracing bus (ETW/eBPF, package
// etw), counts retransmissions per flow per epoch, and triggers path
// discovery at most once per flow per epoch — the paper's first line of
// defence for the traceroute budget.
package monitor

import (
	"vigil/internal/ecmp"
	"vigil/internal/etw"
)

// Agent is one host's monitoring agent.
type Agent struct {
	trigger func(flow ecmp.FiveTuple)

	// RTTThresholdMicros, when positive, extends 007 to latency diagnosis
	// (§9.2): a flow whose smoothed RTT crosses the threshold is treated
	// as failed and triggers path discovery, so the voting scheme ranks
	// the links responsible for the delay.
	RTTThresholdMicros int64

	// The per-epoch maps are cleared — not reallocated — on epoch roll, so
	// the agent's memory is bounded by its busiest epoch rather than
	// growing with every flow the host ever carried.
	triggered map[ecmp.FiveTuple]bool // flows already traced this epoch
	retx      map[ecmp.FiveTuple]int  // flow → retransmissions this epoch
}

// New builds an agent; trigger is invoked (synchronously) the first time a
// flow retransmits in an epoch — normally wired to the path discovery
// agent.
func New(trigger func(flow ecmp.FiveTuple)) *Agent {
	return &Agent{
		trigger:   trigger,
		triggered: make(map[ecmp.FiveTuple]bool),
		retx:      make(map[ecmp.FiveTuple]int),
	}
}

// Attach subscribes the agent to a host event bus and returns the
// matching detach — the idle-host teardown path: a detached agent stops
// consuming bus events without tearing down the bus's other subscribers.
func (a *Agent) Attach(bus *etw.Bus) (detach func()) {
	return bus.Subscribe(a.OnEvent)
}

// OnEvent handles one tracing event.
func (a *Agent) OnEvent(e etw.Event) {
	switch e.Kind {
	case etw.Retransmit:
		a.retx[e.Flow]++
	case etw.RTTSample:
		if a.RTTThresholdMicros <= 0 || e.SRTTMicros < a.RTTThresholdMicros {
			return
		}
	default:
		return
	}
	if a.triggered[e.Flow] {
		return // already traced this epoch
	}
	a.triggered[e.Flow] = true
	if a.trigger != nil {
		a.trigger(e.Flow)
	}
}

// Retx returns the number of retransmissions the flow has suffered in the
// current epoch.
func (a *Agent) Retx(flow ecmp.FiveTuple) int { return a.retx[flow] }

// NewEpoch rolls the epoch: retransmission counts reset and every flow may
// trigger one more path discovery.
func (a *Agent) NewEpoch() {
	clear(a.triggered)
	clear(a.retx)
}
