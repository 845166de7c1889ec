// Package analysis implements 007's centralized analysis agent (§3, §5):
// it gathers the per-flow reports that host agents produce during an epoch,
// tallies votes, ranks links, runs Algorithm 1 to pick out problematic
// links, and issues a verdict for every failed flow.
//
// The per-epoch pipeline is vote.Localize: one sparse index over the links
// the epoch's reports touch, which the tally, Algorithm 1 and the verdicts
// all read. Its cost follows the reports' path entries, not the fabric.
package analysis

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"vigil/internal/topology"
	"vigil/internal/vote"
)

// Options configures an analysis pass.
type Options struct {
	Detect vote.DetectOptions
	// Parallelism is accepted for the engines, collectors and benchmarks
	// that pass it along, and fans nothing out: no stage of an epoch's
	// analysis is large enough for a fan-out to pay, measured up to 16k
	// reports (DESIGN.md, "Parallelism knobs").
	Parallelism int
}

// Result is the outcome of analyzing one epoch.
type Result struct {
	// Tally is the raw vote tally (before Algorithm 1's adjustments).
	Tally *vote.Tally
	// Ranking is the link heat-map: descending vote order.
	Ranking []vote.LinkVotes
	// Detected is Algorithm 1's problematic-link set B, in blame order.
	Detected []topology.LinkID
	// Verdicts holds 007's per-flow conclusions, one per report.
	Verdicts []vote.Verdict
}

// Analyze runs the full per-epoch pipeline over the collected reports.
//
// Because this agent receives the flow reports themselves (it needs them
// for per-flow verdicts), Algorithm 1's vote adjustment defaults to the
// exact observed-path overlap rather than the topology-based ECMP estimate.
// The estimate remains available via Options.Detect.Adjuster for
// deployments that ship only vote tallies to the center, and the two are
// compared by the abl-adjust ablation benchmark.
func Analyze(reports []vote.Report, opts Options) *Result {
	t, detected, verdicts := vote.Localize(reports, opts.Detect)
	return &Result{
		Tally:    t,
		Ranking:  t.Ranking(),
		Detected: detected,
		Verdicts: verdicts,
	}
}

// Agent is the long-running form of the analysis service: hosts stream
// reports in (concurrently, in the multi-node emulation), and the epoch is
// closed at the 30-second tick. The zero value is not ready; use NewAgent.
//
// The inbox is sharded: submissions take a sequence number from one atomic
// counter and land in per-shard mutex-guarded slices, so concurrent Submit
// calls from many emulated hosts contend on a shard each instead of
// serializing behind one lock. CloseEpoch drains every shard and restores
// global submission order by sequence number, so a single-threaded
// submit/close cycle behaves exactly like the old single-inbox agent.
type Agent struct {
	opts Options

	seq    atomic.Uint64
	shards []inboxShard

	// mu serializes the inbox drain and epoch increment only; the Analyze
	// call itself runs outside the lock, so concurrent CloseEpoch calls
	// analyze disjoint report batches in parallel. That is safe with the
	// default (nil) Adjuster, which Analyze builds fresh per call — a
	// caller-supplied stateful Adjuster in Options.Detect would be shared
	// across those concurrent analyses and must be safe for concurrent use
	// (the stock ObservedAdjuster/AnalyticAdjuster are not).
	mu    sync.Mutex
	epoch int64
}

// sequenced is a report stamped with its global submission order.
type sequenced struct {
	seq uint64
	r   vote.Report
}

// inboxShard is one slice of the agent's inbox, padded so shards on
// adjacent cache lines don't false-share under concurrent Submit.
type inboxShard struct {
	mu      sync.Mutex
	reports []sequenced
	_       [96]byte
}

// NewAgent returns an Agent that analyzes with opts, with one inbox shard
// per CPU.
func NewAgent(opts Options) *Agent {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return &Agent{opts: opts, shards: make([]inboxShard, n)}
}

// Epoch returns the current epoch index.
func (a *Agent) Epoch() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

// Submit adds a report to the current epoch. Safe for concurrent use; only
// the submitter's shard lock is taken.
func (a *Agent) Submit(r vote.Report) {
	seq := a.seq.Add(1)
	sh := &a.shards[seq%uint64(len(a.shards))]
	sh.mu.Lock()
	sh.reports = append(sh.reports, sequenced{seq: seq, r: r})
	sh.mu.Unlock()
}

// Pending returns the number of reports waiting in the current epoch.
func (a *Agent) Pending() int {
	n := 0
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		n += len(sh.reports)
		sh.mu.Unlock()
	}
	return n
}

// CloseEpoch drains the sharded inbox, restores submission order, advances
// the epoch counter and returns the analysis. Reports submitted
// concurrently with the close land in either the closing epoch or the next
// one — the same guarantee the single-inbox agent gave.
func (a *Agent) CloseEpoch() *Result {
	a.mu.Lock()
	var drained []sequenced
	for i := range a.shards {
		sh := &a.shards[i]
		sh.mu.Lock()
		drained = append(drained, sh.reports...)
		sh.reports = nil
		sh.mu.Unlock()
	}
	a.epoch++
	a.mu.Unlock()

	sort.Slice(drained, func(i, j int) bool { return drained[i].seq < drained[j].seq })
	reports := make([]vote.Report, len(drained))
	for i, s := range drained {
		reports[i] = s.r
	}
	return Analyze(reports, a.opts)
}
