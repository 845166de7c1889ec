package main

import (
	"errors"
	"sync/atomic"
	"time"

	"vigil/internal/analysis"
	"vigil/internal/engine"
	"vigil/internal/schedule"
	"vigil/internal/topology"
	"vigil/internal/vote"
)

// errRecorded is what the replay engine answers to every attempt to change
// its inputs: they were recorded in set-up and are served as they are.
var errRecorded = errors.New("bench: replay engine serves recorded epochs; inject before recording")

// replayEngine is the load generator of the service workloads: an
// engine.Engine that serves a short recorded trace cyclically, restamped
// with the running epoch index. It removes the simulator's cost from the
// cycle so that transport, ingest and analysis do all the measured work.
type replayEngine struct {
	topo  *topology.Topology
	an    analysis.Options
	trace []*engine.EpochResult // Step results of the recorded engine
	next  int
	// buildNs is how long the last Step spent building its result, before
	// the first report was emitted: the load generator's own cost.
	buildNs int64
}

// recordTrace runs n epochs of eng through the Step seam and returns a
// replay engine over them.
func recordTrace(eng engine.Engine, n int) *replayEngine {
	r := &replayEngine{topo: eng.Topology(), an: eng.Analysis()}
	for i := 0; i < n; i++ {
		r.trace = append(r.trace, eng.Step(nil))
	}
	return r
}

// epochReports returns the reports the replay engine emits for epoch e.
func (r *replayEngine) epochReports(e int) []vote.Report {
	src := r.trace[e%len(r.trace)].Reports
	out := make([]vote.Report, len(src))
	copy(out, src)
	for i := range out {
		out[i].Epoch = int32(e)
	}
	return out
}

func (r *replayEngine) Plane() engine.Plane          { return engine.Flow }
func (r *replayEngine) Topology() *topology.Topology { return r.topo }
func (r *replayEngine) EpochIndex() int              { return r.next }
func (r *replayEngine) Analysis() analysis.Options   { return r.an }
func (r *replayEngine) ClearAllFailures()            {}
func (r *replayEngine) ClearSchedules()              {}

func (r *replayEngine) InjectFailure(topology.LinkID, float64) error { return errRecorded }
func (r *replayEngine) ClearFailure(topology.LinkID) error           { return errRecorded }
func (r *replayEngine) Schedule(topology.LinkID, schedule.RateSchedule) error {
	return errRecorded
}

func (r *replayEngine) Step(emit func(vote.Report)) *engine.EpochResult {
	start := time.Now()
	src := r.trace[r.next%len(r.trace)]
	res := &engine.EpochResult{
		Epoch:       r.next,
		FailedLinks: src.FailedLinks,
		Reports:     r.epochReports(r.next),
		Truth:       src.Truth,
		TotalFlows:  src.TotalFlows,
		FailedFlows: src.FailedFlows,
		TotalDrops:  src.TotalDrops,
	}
	r.next++
	r.buildNs = int64(time.Since(start))
	if emit != nil {
		for _, rep := range res.Reports {
			emit(rep)
		}
	}
	return res
}

func (r *replayEngine) RunEpoch() *engine.EpochResult {
	res := r.Step(nil)
	an := analysis.Analyze(res.Reports, r.an)
	res.Ranking, res.Detected, res.Verdicts = an.Ranking, an.Detected, an.Verdicts
	return res
}

// timedEngine stamps every Step from the outside. The stamps are the
// benchmark's clock: the measured window opens and closes on Step entries,
// and a verdict's latency runs from a Step return to a Sink call.
type timedEngine struct {
	engine.Engine
	// onEnter runs before each Step with the index of the epoch about to
	// run; the slice uses it to mark the edges of the measured window.
	onEnter func(epoch int)
	rec     *recorder // nil on untraced slices
	parent  int32     // span under which the steps are recorded

	enter, ret []time.Duration // Step entry and return, by epoch
	// self is the engine's own time in each Step: what the emit callbacks
	// spent shipping reports is not the engine's. Only the replay engine
	// is ever given a callback, and it clocks its own share.
	self    []time.Duration
	reports []int // reports per epoch
	flows   []int // flows per epoch
	drops   []int // packet drops per epoch
	// lastRet publishes the newest Step return to the sink goroutine, which
	// starts its settle span there on traced slices.
	lastRet atomic.Int64
}

func (t *timedEngine) Step(emit func(vote.Report)) *engine.EpochResult {
	epoch := t.Engine.EpochIndex()
	if t.onEnter != nil {
		t.onEnter(epoch)
	}
	start := since()
	res := t.Engine.Step(emit)
	end := since()
	t.enter = append(t.enter, start)
	t.ret = append(t.ret, end)
	t.reports = append(t.reports, len(res.Reports))
	t.flows = append(t.flows, res.TotalFlows)
	t.drops = append(t.drops, res.TotalDrops)
	t.lastRet.Store(int64(end))
	self := end - start
	id := t.rec.add("engine.step", t.parent, epoch, start, end)
	if r, ok := t.Engine.(*replayEngine); ok {
		self = time.Duration(r.buildNs)
		t.rec.add("agent.emit", id, epoch, start+self, end)
	}
	t.self = append(t.self, self)
	return res
}
