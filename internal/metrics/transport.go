package metrics

import (
	"io"
	"sync/atomic"
	"time"
)

// TransportCounters is the observable state of the networked ingest
// transport (internal/transport): what the resumable agent sessions did on
// the wire and what the collector's durability machinery did about it. One
// struct serves both ends — an agent process leaves the server-side fields
// at zero and vice versa — so a single /metrics endpoint can render
// whichever role the process plays.
//
// Like the ingest counters, these are designed to be checked against the
// fault injector: the wire-level chaos proxy counts what it injected, and
// the chaos tests assert that (for example) every injected connection cut
// maps to exactly one successful session resume.
type TransportCounters struct {
	// Client side (resumable agent sessions).
	Dials        atomic.Int64 // TCP dial attempts, successful or not
	DialFailures atomic.Int64 // dial attempts that failed (e.g. during a partition)
	Reconnects   atomic.Int64 // re-established TCP connections after a session loss
	Resumes      atomic.Int64 // completed resume handshakes after a session loss
	FramesSent   atomic.Int64 // sequenced frames sent for the first time
	FramesResent atomic.Int64 // sequenced frames replayed after a resume
	Writes       atomic.Int64 // socket writes that carried sequenced frames: one per flushed burst or resume replay
	TokenResends atomic.Int64 // cycle tokens re-sent while waiting on a lost cycle-end
	Pings        atomic.Int64 // liveness probes sent while waiting on the collector

	// Server side (collector).
	FramesReceived atomic.Int64 // sequenced frames that reached the collector
	AcksSent       atomic.Int64 // durable acknowledgement frames sent
	CycleEndsSent  atomic.Int64 // cycle-end frames sent (including re-sends)
	AcceptRetries  atomic.Int64 // transient accept-loop errors survived with backoff
	Discards       Discards     // frames thrown away, by reason (the frame kind): stale and duplicate ones are one, as the watermark cannot tell them apart
	Checkpoints    atomic.Int64 // collector state checkpoints written
	// CheckpointCommitNanos is the time spent in those commits — encode,
	// pwrite, fdatasync — so its ratio to Checkpoints is the mean commit cost.
	CheckpointCommitNanos atomic.Int64

	// Gauges.
	SessionsConnected atomic.Int64 // sessions with a live connection right now
	// CheckpointUnixNano is the wall-clock stamp of the newest checkpoint
	// (0 = never); the exporter renders it as an age in seconds.
	CheckpointUnixNano atomic.Int64
}

// CheckpointAgeSeconds returns the age of the newest checkpoint, or -1 if
// none has ever been written.
func (c *TransportCounters) CheckpointAgeSeconds() int64 {
	stamp := c.CheckpointUnixNano.Load()
	if stamp == 0 {
		return -1
	}
	age := (time.Now().UnixNano() - stamp) / int64(time.Second)
	if age < 0 {
		age = 0
	}
	return age
}

var transportMetrics = []series[TransportCounters]{
	{"vigil_transport_dials_total", "TCP dial attempts by agent sessions.", false, func(c *TransportCounters) int64 { return c.Dials.Load() }},
	{"vigil_transport_dial_failures_total", "Dial attempts that failed (connection refused, timeout, partition).", false, func(c *TransportCounters) int64 { return c.DialFailures.Load() }},
	{"vigil_transport_reconnects_total", "TCP connections re-established after a session loss.", false, func(c *TransportCounters) int64 { return c.Reconnects.Load() }},
	{"vigil_transport_resumes_total", "Resume handshakes completed after a session loss.", false, func(c *TransportCounters) int64 { return c.Resumes.Load() }},
	{"vigil_transport_frames_sent_total", "Sequenced frames sent for the first time.", false, func(c *TransportCounters) int64 { return c.FramesSent.Load() }},
	{"vigil_transport_frames_resent_total", "Sequenced frames replayed after a resume.", false, func(c *TransportCounters) int64 { return c.FramesResent.Load() }},
	{"vigil_transport_writes_total", "Socket writes that carried sequenced frames (one per flushed burst or resume replay).", false, func(c *TransportCounters) int64 { return c.Writes.Load() }},
	{"vigil_transport_token_resends_total", "Cycle tokens re-sent while waiting on a lost cycle-end.", false, func(c *TransportCounters) int64 { return c.TokenResends.Load() }},
	{"vigil_transport_pings_total", "Liveness probes sent while waiting on the collector.", false, func(c *TransportCounters) int64 { return c.Pings.Load() }},
	{"vigil_transport_frames_received_total", "Sequenced frames that reached the collector.", false, func(c *TransportCounters) int64 { return c.FramesReceived.Load() }},
	{"vigil_transport_frames_dropped_total", "Stale or duplicate frames dropped by the session watermark.", false, func(c *TransportCounters) int64 { return c.Discards[FrameStale].Load() }},
	{"vigil_transport_acks_total", "Durable acknowledgement frames sent to agents.", false, func(c *TransportCounters) int64 { return c.AcksSent.Load() }},
	{"vigil_transport_cycle_ends_total", "Cycle-end frames sent to agents, re-sends included.", false, func(c *TransportCounters) int64 { return c.CycleEndsSent.Load() }},
	{"vigil_transport_send_window_drops_total", "Outbound frames shed because a connection's bounded send window was full.", false, func(c *TransportCounters) int64 { return c.Discards[FrameSendWindow].Load() }},
	{"vigil_transport_discards_total", "Frames the collector discarded, by kind and reason: stale or duplicate, shed by a full send window, or unusable (the connection is closed on it).", false, func(c *TransportCounters) (*Discards, bool) { return &c.Discards, true }},
	{"vigil_transport_accept_retries_total", "Transient accept-loop errors survived with backoff.", false, func(c *TransportCounters) int64 { return c.AcceptRetries.Load() }},
	{"vigil_transport_checkpoints_total", "Collector state checkpoints written.", false, func(c *TransportCounters) int64 { return c.Checkpoints.Load() }},
	{"vigil_transport_checkpoint_commit_seconds_total", "Time spent writing those checkpoints and making them durable; over checkpoints_total, the mean commit cost.", false, func(c *TransportCounters) float64 { return time.Duration(c.CheckpointCommitNanos.Load()).Seconds() }},
	{"vigil_transport_sessions_connected", "Sessions with a live connection.", true, func(c *TransportCounters) int64 { return c.SessionsConnected.Load() }},
	{"vigil_transport_checkpoint_age_seconds", "Seconds since the newest checkpoint (-1 = never written).", true, func(c *TransportCounters) int64 { return c.CheckpointAgeSeconds() }},
}

// WritePrometheus renders the counters in the Prometheus text exposition
// format.
func (c *TransportCounters) WritePrometheus(w io.Writer) error {
	return writeSeries(w, c, transportMetrics)
}
