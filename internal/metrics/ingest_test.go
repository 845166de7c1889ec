package metrics

import (
	"strings"
	"testing"
)

// WritePrometheus must render every series exactly once, with the right
// TYPE kind and the live counter value — the format a Prometheus scraper
// (and vigild's /metrics endpoint) consumes.
func TestWritePrometheus(t *testing.T) {
	var c IngestCounters
	c.Received.Store(123)
	c.Lost.Store(7)
	c.Rejected.Store(3)

	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, m := range ingestMetrics {
		if got := strings.Count(out, "# HELP "+m.name+" "); got != 1 {
			t.Errorf("series %s: %d HELP lines, want 1", m.name, got)
		}
		kind := "counter"
		if m.gauge {
			kind = "gauge"
		}
		if !strings.Contains(out, "# TYPE "+m.name+" "+kind+"\n") {
			t.Errorf("series %s: missing TYPE %s line", m.name, kind)
		}
	}
	for _, want := range []string{
		"vigil_ingest_received_total 123\n",
		"vigil_ingest_lost_total 7\n",
		"vigil_ingest_rejected_total 3\n",
		"vigil_ingest_accepted_total 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// Every series name must be unique and carry the vigil_ingest_ prefix;
// counters end in _total, gauges do not.
func TestIngestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, m := range ingestMetrics {
		if seen[m.name] {
			t.Errorf("duplicate series name %s", m.name)
		}
		seen[m.name] = true
		if !strings.HasPrefix(m.name, "vigil_ingest_") {
			t.Errorf("series %s: missing vigil_ingest_ prefix", m.name)
		}
		if m.gauge == strings.HasSuffix(m.name, "_total") {
			t.Errorf("series %s: _total suffix must match counter kind", m.name)
		}
	}
}
