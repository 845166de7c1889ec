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
	"vigil/internal/topology"
	"vigil/internal/vote"
)

// Options configures an analysis pass. No stage of an epoch's analysis is
// large enough for a fan-out to pay, measured up to 16k reports (DESIGN.md,
// "Parallelism knobs"), so there is no parallelism option.
type Options struct {
	Detect vote.DetectOptions
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
	t, ranking, detected, verdicts := vote.Localize(reports, opts.Detect)
	return &Result{
		Tally:    t,
		Ranking:  ranking,
		Detected: detected,
		Verdicts: verdicts,
	}
}
