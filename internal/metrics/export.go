package metrics

import (
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// RankedLink is one entry of a settled epoch's vote ranking, resolved to a
// printable link name by the caller (this package deliberately knows
// nothing about fabrics or engines).
type RankedLink struct {
	Link     string
	Votes    float64
	Detected bool // named by Algorithm 1's detected set
}

// EpochSnapshot is the last settled epoch's detection state, swapped in
// whole so a scrape never sees half an epoch.
type EpochSnapshot struct {
	Epoch    int64
	TopLinks []RankedLink // highest votes first, capped at the exporter's K
}

// scenarioScore accumulates one scenario's conformance: the newest
// epoch's precision/recall (gauges) plus cumulative confusion counters
// (monotone, so dashboards can rate() them).
type scenarioScore struct {
	last     Detection
	epochs   int64
	truePos  int64
	falsePos int64
	falseNeg int64
}

// EpochExporter publishes what the ingest counters cannot: the last
// settled epoch's top-K ranked links and per-scenario conformance, in
// Prometheus text format. Writers (the ingest sink goroutine) and readers
// (HTTP scrapes) never block each other: the epoch snapshot is an atomic
// pointer swap, and the scenario map takes a mutex only long enough to
// copy.
type EpochExporter struct {
	topK int
	snap atomic.Pointer[EpochSnapshot]

	mu   sync.Mutex
	scen map[string]*scenarioScore
}

// NewEpochExporter returns an exporter keeping the top k ranked links per
// epoch (k <= 0 defaults to 10).
func NewEpochExporter(k int) *EpochExporter {
	if k <= 0 {
		k = 10
	}
	return &EpochExporter{topK: k, scen: make(map[string]*scenarioScore)}
}

// TopK returns how many ranked links ObserveEpoch keeps, so a caller can
// resolve that many and no more.
func (e *EpochExporter) TopK() int { return e.topK }

// ObserveEpoch records a settled epoch's ranking, highest votes first.
// The slice is copied and truncated to the exporter's K; callers may
// reuse their backing array.
func (e *EpochExporter) ObserveEpoch(epoch int64, ranked []RankedLink) {
	if len(ranked) > e.topK {
		ranked = ranked[:e.topK]
	}
	s := &EpochSnapshot{Epoch: epoch, TopLinks: append([]RankedLink(nil), ranked...)}
	e.snap.Store(s)
}

// ObserveConformance folds one epoch's detection score into the named
// scenario's gauges and cumulative confusion counters.
func (e *EpochExporter) ObserveConformance(scenario string, d Detection) {
	e.mu.Lock()
	defer e.mu.Unlock()
	sc := e.scen[scenario]
	if sc == nil {
		sc = &scenarioScore{}
		e.scen[scenario] = sc
	}
	sc.last = d
	sc.epochs++
	sc.truePos += int64(d.TruePos)
	sc.falsePos += int64(d.FalsePos)
	sc.falseNeg += int64(d.FalseNeg)
}

// WritePrometheus renders the epoch and scenario series. Scenario order
// is sorted so scrapes are stable.
func (e *EpochExporter) WritePrometheus(w io.Writer) error {
	p := promWriter{w: w}
	if s := e.snap.Load(); s != nil {
		p.family("vigil_epoch_last_settled", "Newest epoch with a settled detection result.", true)
		p.sample(s.Epoch)
		p.family("vigil_epoch_top_link_votes", "Vote mass of the last settled epoch's top-ranked links.", true)
		for i, l := range s.TopLinks {
			p.sample(l.Votes, "rank", strconv.Itoa(i+1), "link", l.Link)
		}
		p.family("vigil_epoch_top_link_detected", "Whether the ranked link is in Algorithm 1's detected set.", true)
		for i, l := range s.TopLinks {
			v := 0
			if l.Detected {
				v = 1
			}
			p.sample(v, "rank", strconv.Itoa(i+1), "link", l.Link)
		}
	}
	type scenEntry struct {
		name string
		sc   scenarioScore
	}
	e.mu.Lock()
	entries := make([]scenEntry, 0, len(e.scen))
	for name, sc := range e.scen {
		entries = append(entries, scenEntry{name, *sc})
	}
	e.mu.Unlock()
	if len(entries) == 0 {
		return p.err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	for _, m := range []struct {
		name, help string
		gauge      bool
		load       func(sc *scenarioScore) any
	}{
		{"vigil_scenario_precision", "Detection precision of the scenario's newest settled epoch.", true,
			func(sc *scenarioScore) any { return sc.last.Precision }},
		{"vigil_scenario_recall", "Detection recall of the scenario's newest settled epoch.", true,
			func(sc *scenarioScore) any { return sc.last.Recall }},
		{"vigil_scenario_epochs_total", "Epochs scored against this scenario.", false,
			func(sc *scenarioScore) any { return sc.epochs }},
		{"vigil_scenario_true_positives_total", "Cumulative correctly detected failed links.", false,
			func(sc *scenarioScore) any { return sc.truePos }},
		{"vigil_scenario_false_positives_total", "Cumulative links detected that had not failed.", false,
			func(sc *scenarioScore) any { return sc.falsePos }},
		{"vigil_scenario_false_negatives_total", "Cumulative failed links that went undetected.", false,
			func(sc *scenarioScore) any { return sc.falseNeg }},
	} {
		p.family(m.name, m.help, m.gauge)
		for i := range entries {
			p.sample(m.load(&entries[i].sc), "scenario", entries[i].name)
		}
	}
	return p.err
}
