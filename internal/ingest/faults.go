// Fault injection on the agent→collector path.
//
// Every fault decision is a pure function of the report's identity (agent,
// epoch, seq, attempt) and the fault seed, drawn through stats.DeriveRNG's
// counter-based streams. No fault state lives anywhere: two runs with the
// same seed inject byte-for-byte the same chaos however the pipeline's
// goroutines interleave, and a report's fate can be recomputed after the
// fact — which is how the chaos tests assert that the collector's observed
// counters agree exactly with what was injected.
package ingest

import (
	"vigil/internal/stats"
	"vigil/internal/topology"
	"vigil/internal/vote"
)

// FaultConfig describes the chaos injected on the agent→collector path.
// All probabilities are per original report unless noted; the zero value
// injects nothing (the fault-free mode whose settled epochs are
// bit-identical to the batch engine).
type FaultConfig struct {
	// Seed drives every fault draw; runs with equal seeds inject identical
	// chaos.
	Seed uint64
	// Drop is the probability a transmission is lost outright. It applies
	// to every attempt, retries included.
	Drop float64
	// Duplicate is the probability a surviving on-time transmission is
	// delivered twice (back to back, preserving per-agent FIFO order).
	// Delayed transmissions never duplicate, which keeps each observed
	// counter the image of exactly one injected counter.
	Duplicate float64
	// Delay is the probability a surviving first transmission is held back;
	// held reports release 1..DelayMax epochs later (reordering them past
	// everything their agent sends in between).
	Delay float64
	// DelayMax bounds the holdback in epochs; 0 with Delay > 0 means 1.
	DelayMax int
	// Burst is the per-(agent, epoch) probability of a burst-loss window:
	// burstLen consecutive sequence numbers vanish.
	Burst float64
	// Crash is the per-(agent, epoch) probability the agent crashes
	// mid-epoch: every report from a uniformly drawn sequence point to the
	// end of the epoch is lost. The agent restarts at the next epoch.
	Crash float64
}

// enabled reports whether any fault can fire.
func (f FaultConfig) enabled() bool {
	return f.Drop > 0 || f.Duplicate > 0 || f.Delay > 0 || f.Burst > 0 || f.Crash > 0
}

// delayMax returns the effective holdback bound.
func (f FaultConfig) delayMax() int {
	if f.Delay <= 0 {
		return 0
	}
	if f.DelayMax <= 0 {
		return 1
	}
	return f.DelayMax
}

// Domain separators for the fault streams, mixed into the stream index so
// per-report and per-(agent, epoch) draws never collide.
const (
	faultDomainReport = 0x9e3779b97f4a7c15
	faultDomainAgent  = 0xc2b2ae3d27d4eb4f
	crashSpan         = 64 // crash points draw uniformly over [0, crashSpan)
	burstSpan         = 64 // burst windows start uniformly in [0, burstSpan)
	burstLen          = 8  // sequence numbers a burst window covers
)

// reportStream indexes the per-transmission fault stream. Attempt is part
// of the identity: a retried transmission re-rolls its fate.
func reportStream(agent topology.HostID, epoch, seq int32, attempt int) uint64 {
	x := uint64(uint32(agent))<<40 ^ uint64(uint32(epoch))<<20 ^ uint64(uint32(seq))
	return x<<6 ^ uint64(uint8(attempt)) ^ faultDomainReport
}

// agentStream indexes the per-(agent, epoch) fault stream (crash and burst
// draws, shared by every report of the pair).
func agentStream(agent topology.HostID, epoch int32) uint64 {
	return uint64(uint32(agent))<<32 ^ uint64(uint32(epoch)) ^ faultDomainAgent
}

// fate is one transmission's injected outcome.
type fate struct {
	dropped   bool // lost outright (Drop roll)
	crashed   bool // lost to the agent-epoch crash tail
	burst     bool // lost to the agent-epoch burst window
	duplicate bool // delivered twice
	delay     int  // epochs of holdback; 0 = on time
}

// reportFate draws one transmission's fate. The draw order within each
// stream is fixed (drop, delay, duplicate), so fates are stable functions
// of identity. Crash and burst apply only to first transmissions: a
// retransmission happens after the agent restarted, and re-requests are
// unicast rather than part of the sequenced burst.
func (f FaultConfig) reportFate(r vote.Report, attempt int) fate {
	var ft fate
	if !f.enabled() {
		return ft
	}
	if attempt == 0 && (f.Crash > 0 || f.Burst > 0) {
		var arng stats.RNG
		arng.Derive(f.Seed, agentStream(r.Src, r.Epoch))
		if f.Crash > 0 && arng.Bool(f.Crash) {
			if point := int32(arng.Intn(crashSpan)); r.Seq >= point {
				ft.crashed = true
			}
		} else if f.Crash > 0 {
			arng.Intn(crashSpan) // keep the stream position fixed either way
		}
		if f.Burst > 0 && arng.Bool(f.Burst) {
			start := int32(arng.Intn(burstSpan))
			if r.Seq >= start && r.Seq < start+burstLen {
				ft.burst = true
			}
		}
		if ft.crashed || ft.burst {
			return ft
		}
	}
	var rng stats.RNG
	rng.Derive(f.Seed, reportStream(r.Src, r.Epoch, r.Seq, attempt))
	if f.Drop > 0 && rng.Bool(f.Drop) {
		ft.dropped = true
		return ft
	}
	if f.Delay > 0 && attempt == 0 && rng.Bool(f.Delay) {
		ft.delay = 1 + rng.Intn(f.delayMax())
		return ft
	}
	if f.Duplicate > 0 && rng.Bool(f.Duplicate) {
		ft.duplicate = true
	}
	return ft
}
