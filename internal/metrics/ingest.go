package metrics

import (
	"io"
	"sync/atomic"
)

// IngestCounters is the observable state of a streaming ingest service
// (internal/ingest): what arrived, what the robustness machinery did about
// it, and what the fault injector claims it did. All fields are atomics so
// the ingest pipeline's goroutines update them without locks and a metrics
// endpoint can render them mid-run.
//
// What the settle core throws away is counted in one ledger, Discards, by
// reason (see Discard), rendered as vigil_ingest_discards_total{kind,reason};
// each older series is the sum of its reasons (rejected = report malformed +
// far_epoch). A report is accepted, a duplicate or discarded: Received ==
// Accepted + Duplicates + the report-kind discards. Duplicates stays a
// field: dedup working is no discard rule, and the benchmark reads it.
//
// The paired design — observed counters next to injected counters — is the
// service's self-check: with retries disabled, every injected fault is
// observable (`Duplicates == InjDuplicates`, `Late == InjLateInGrace`,
// report settled discards `== InjLatePastGrace`, `Lost == InjDrops +
// InjBurstDrops + InjCrashDrops + InjLatePastGrace` — a report past the
// grace window is lost to its epoch even though it physically arrived),
// and the chaos tests assert exactly that.
type IngestCounters struct {
	// Observed at the collector.
	Received      atomic.Int64 // reports that reached the collector (incl. duplicates)
	Accepted      atomic.Int64 // reports admitted into a not-yet-settled epoch
	Duplicates    atomic.Int64 // suppressed as already-seen (agent, epoch, seq)
	Late          atomic.Int64 // accepted inside the grace window after their epoch closed
	Discards      Discards     // what the settle core threw away, by reason
	Lost          atomic.Int64 // expected but missing when their epoch settled
	Retries       atomic.Int64 // re-requests issued for detected sequence gaps
	Recovered     atomic.Int64 // gap reports recovered by a retry before settle
	SettledEpochs atomic.Int64 // epochs settled and emitted
	DetectedLinks atomic.Int64 // links named by Algorithm 1 across settled epochs
	Verdicts      atomic.Int64 // per-flow verdicts issued across settled epochs

	// Gauges.
	WatermarkLag atomic.Int64 // current epoch minus newest settled epoch
	OpenEpochs   atomic.Int64 // epochs accepted but not yet settled

	// Injected by the fault layer (ground truth for the observed side).
	InjDrops         atomic.Int64 // reports dropped outright
	InjDuplicates    atomic.Int64 // reports delivered twice
	InjLateInGrace   atomic.Int64 // reports delayed but within the grace window
	InjLatePastGrace atomic.Int64 // reports delayed past the grace window
	InjBurstDrops    atomic.Int64 // reports lost to burst-loss windows
	InjCrashDrops    atomic.Int64 // reports lost to agent crashes
}

var ingestMetrics = []series[IngestCounters]{
	{"vigil_ingest_received_total", "Reports that reached the collector, duplicates included.", false, func(c *IngestCounters) int64 { return c.Received.Load() }},
	{"vigil_ingest_accepted_total", "Reports admitted into a not-yet-settled epoch.", false, func(c *IngestCounters) int64 { return c.Accepted.Load() }},
	{"vigil_ingest_duplicates_total", "Reports suppressed as duplicates of an already-seen identity.", false, func(c *IngestCounters) int64 { return c.Duplicates.Load() }},
	{"vigil_ingest_late_total", "Reports accepted inside the grace window after their epoch closed.", false, func(c *IngestCounters) int64 { return c.Late.Load() }},
	{"vigil_ingest_late_dropped_total", "Reports discarded because their epoch had already settled.", false, func(c *IngestCounters) int64 { return c.Discards[ReportSettled].Load() }},
	{"vigil_ingest_rejected_total", "Reports discarded for a malformed identity or path (negative or out-of-range sequence, negative epoch, more links than any ECMP path) or for an epoch no source can have reached: more than grace+2 past the newest settled one.", false, func(c *IngestCounters) int64 {
		return c.Discards[ReportMalformed].Load() + c.Discards[ReportFarEpoch].Load()
	}},
	{"vigil_ingest_excess_total", "Reports discarded because their sequence was at or past their agent's expected count.", false, func(c *IngestCounters) int64 { return c.Discards[ReportExcess].Load() }},
	{"vigil_ingest_dropped_counts_total", "Token counts dropped: out of range, or a second count for the same agent and epoch.", false, func(c *IngestCounters) int64 {
		return c.Discards[CountOutOfRange].Load() + c.Discards[CountRepeat].Load()
	}},
	{"vigil_ingest_discards_total", "Reports, token counts and tokens the settle core discarded, by kind and reason.", false, func(c *IngestCounters) (*Discards, bool) { return &c.Discards, false }},
	{"vigil_ingest_lost_total", "Reports still missing when their epoch settled.", false, func(c *IngestCounters) int64 { return c.Lost.Load() }},
	{"vigil_ingest_retries_total", "Gap re-requests issued to agents.", false, func(c *IngestCounters) int64 { return c.Retries.Load() }},
	{"vigil_ingest_recovered_total", "Gap reports recovered by a retry before settle.", false, func(c *IngestCounters) int64 { return c.Recovered.Load() }},
	{"vigil_ingest_settled_epochs_total", "Epochs settled and emitted.", false, func(c *IngestCounters) int64 { return c.SettledEpochs.Load() }},
	{"vigil_ingest_detected_links_total", "Links named by Algorithm 1 across settled epochs.", false, func(c *IngestCounters) int64 { return c.DetectedLinks.Load() }},
	{"vigil_ingest_verdicts_total", "Per-flow verdicts issued across settled epochs.", false, func(c *IngestCounters) int64 { return c.Verdicts.Load() }},
	{"vigil_ingest_watermark_lag_epochs", "Current epoch minus newest settled epoch.", true, func(c *IngestCounters) int64 { return c.WatermarkLag.Load() }},
	{"vigil_ingest_open_epochs", "Epochs accepted but not yet settled.", true, func(c *IngestCounters) int64 { return c.OpenEpochs.Load() }},
	{"vigil_ingest_fault_drops_total", "Reports the fault injector dropped outright.", false, func(c *IngestCounters) int64 { return c.InjDrops.Load() }},
	{"vigil_ingest_fault_duplicates_total", "Reports the fault injector delivered twice.", false, func(c *IngestCounters) int64 { return c.InjDuplicates.Load() }},
	{"vigil_ingest_fault_late_in_grace_total", "Reports the fault injector delayed within the grace window.", false, func(c *IngestCounters) int64 { return c.InjLateInGrace.Load() }},
	{"vigil_ingest_fault_late_past_grace_total", "Reports the fault injector delayed past the grace window.", false, func(c *IngestCounters) int64 { return c.InjLatePastGrace.Load() }},
	{"vigil_ingest_fault_burst_drops_total", "Reports the fault injector lost to burst windows.", false, func(c *IngestCounters) int64 { return c.InjBurstDrops.Load() }},
	{"vigil_ingest_fault_crash_drops_total", "Reports the fault injector lost to agent crashes.", false, func(c *IngestCounters) int64 { return c.InjCrashDrops.Load() }},
}

// WritePrometheus renders the counters in the Prometheus text exposition
// format.
func (c *IngestCounters) WritePrometheus(w io.Writer) error { return writeSeries(w, c, ingestMetrics) }
