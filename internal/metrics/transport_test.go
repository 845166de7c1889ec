package metrics

import (
	"strings"
	"testing"
)

// The transport renderer emits every series once with its live value; the
// write counter is what shows the wire batching (frames sent / writes).
func TestTransportWritePrometheus(t *testing.T) {
	var c TransportCounters
	c.FramesSent.Store(1463)
	c.Writes.Store(6)
	c.Checkpoints.Store(4)
	c.CheckpointCommitNanos.Store(500_000) // four commits of 0.125 ms
	var b strings.Builder
	if err := c.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, m := range transportMetrics {
		if got := strings.Count(out, "# HELP "+m.name+" "); got != 1 {
			t.Errorf("series %s: %d HELP lines, want 1", m.name, got)
		}
	}
	for _, want := range []string{
		"# TYPE vigil_transport_writes_total counter\nvigil_transport_writes_total 6\n",
		"vigil_transport_frames_sent_total 1463\n",
		"vigil_transport_checkpoint_age_seconds -1\n",
		"vigil_transport_checkpoints_total 4\n" +
			"# HELP vigil_transport_checkpoint_commit_seconds_total Time spent writing those checkpoints and making them durable; over checkpoints_total, the mean commit cost.\n" +
			"# TYPE vigil_transport_checkpoint_commit_seconds_total counter\n" +
			"vigil_transport_checkpoint_commit_seconds_total 0.0005\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}
