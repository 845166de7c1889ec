package metrics

import "sync/atomic"

// Discard is one reason vigild throws something away, of one kind: a
// report, an agent's count in a token, a token or a frame. A new rule is a
// new value and label row, never a new counter field. The transport page
// renders the frame kind, the ingest page the rest, in any declared order.
type Discard uint8

const (
	ReportMalformed Discard = iota // an identity or path no agent can produce: a bad sequence or epoch, or a path past ecmp.MaxPathLinks
	ReportFarEpoch                 // an epoch no source can have reached: more than grace+2 past the newest settled one
	ReportSettled                  // its epoch settled before it arrived, past the grace window
	ReportExcess                   // at or past its agent's expected count
	CountOutOfRange                // a count below 0 or above the sequence bound
	CountRepeat                    // a second count for the same agent and epoch
	TokenSettled                   // a token for a cycle at or below the newest settled epoch
	TokenFarEpoch                  // a token for a cycle no source can have reached
	FrameStale                     // a sequenced frame at or below its session's watermark: stale or a duplicate
	FrameSendWindow                // an outbound frame shed because its connection's send window was full
	FrameMalformed                 // a frame the server closed the connection on: a bad length, Hello or type, or an undecodable body
	numDiscards
)

var discardLabels = [numDiscards][2]string{
	ReportMalformed: {"report", "malformed"},
	ReportFarEpoch:  {"report", "far_epoch"},
	ReportSettled:   {"report", "settled"},
	ReportExcess:    {"report", "excess"},
	CountOutOfRange: {"count", "out_of_range"},
	CountRepeat:     {"count", "repeat"},
	TokenSettled:    {"token", "settled"},
	TokenFarEpoch:   {"token", "far_epoch"},
	FrameStale:      {"frame", "stale"},
	FrameSendWindow: {"frame", "send_window"},
	FrameMalformed:  {"frame", "malformed"},
}

// Labels returns the kind and reason labels the discard families render.
func (d Discard) Labels() (kind, reason string) { return discardLabels[d][0], discardLabels[d][1] }

// Discards counts what was thrown away: one atomic counter per reason.
type Discards [numDiscards]atomic.Int64
