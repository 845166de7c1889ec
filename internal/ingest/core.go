package ingest

import (
	"cmp"
	"slices"

	"vigil/internal/metrics"
	"vigil/internal/topology"
	"vigil/internal/transport"
	"vigil/internal/vote"
)

// This file is the one place where host-agent reports become a settled
// epoch: a pure state machine both collectors drive. Reports and cycle
// tokens go in; completed cycles come out as values. It starts no
// goroutine and touches no clock, socket, lock or file, so everything it
// decides is a function of the event order alone — which is what lets
// core_test.go check it against a ten-line model with no sleep in sight.

// agentEpoch tracks one (agent, epoch) pair at the collector: which
// sequence numbers have been seen (duplicate suppression) and how many the
// agent's token said to expect (gap detection).
type agentEpoch struct {
	expected int32    // -1 until the epoch's token arrives
	seen     []uint64 // bitset by seq
}

func (a *agentEpoch) mark(seq int32) (dup bool) {
	w, b := int(seq)>>6, uint(seq)&63
	for len(a.seen) <= w {
		a.seen = append(a.seen, 0)
	}
	if a.seen[w]&(1<<b) != 0 {
		return true
	}
	a.seen[w] |= 1 << b
	return false
}

func (a *agentEpoch) has(seq int32) bool {
	w, b := int(seq)>>6, uint(seq)&63
	return w < len(a.seen) && a.seen[w]&(1<<b) != 0
}

// maxAgentSeq bounds one agent's report sequence within an epoch. mark
// grows a bitset by sequence, so without a bound a single well-framed
// report with Seq = MaxInt32 costs 256 MiB per (agent, epoch); at the bound
// the bitset tops out at 128 KiB. A host's real count is its failed flows
// in one epoch — hundreds at datacenter scale.
const maxAgentSeq = 1 << 20

// malformed reports whether r's identity is one no agent can produce.
// Sequences and epochs count up from zero and mark indexes a bitset by
// sequence, so a negative or absurdly large one is dropped (and counted
// Rejected) before it reaches any per-epoch state.
func malformed(r vote.Report) bool { return r.Seq < 0 || r.Seq >= maxAgentSeq || r.Epoch < 0 }

// epochState is one open (not yet settled) epoch.
type epochState struct {
	epoch    int32
	agents   map[topology.HostID]*agentEpoch
	accepted []vote.Report
	// missing is the identity set gap detection is chasing, nil while there
	// is no gap; attempts counts re-request rounds issued, nextRetry the
	// cycle the next round is due.
	missing   map[vote.ReportID]struct{}
	attempts  int
	nextRetry int32
	expected  int64 // total expected reports (sum of token counts)
}

// agent returns (creating if needed) the epoch's state for one agent.
func (eps *epochState) agent(id topology.HostID) *agentEpoch {
	ag := eps.agents[id]
	if ag == nil {
		ag = &agentEpoch{expected: -1}
		eps.agents[id] = ag
	}
	return ag
}

// admitRun is the (epoch, agent) the last admitted report belonged to, with
// the state looked up for it. Both the wire and the lanes deliver one
// agent's reports of an epoch in runs, so a run pays report's map
// operations once.
type admitRun struct {
	epoch int32
	src   topology.HostID
	eps   *epochState
	ag    *agentEpoch
}

// cycleDone is what a completed cycle hands its adapter.
type cycleDone struct {
	cycle int32
	// retries are the re-requests due now across every open epoch, in
	// (epoch, agent, seq) order.
	retries []transport.RetryReq
	// settled says an epoch — epoch, which is cycle minus the grace window —
	// crossed the watermark and is closed for good. live is false when that
	// epoch belongs to a drain cycle, where nothing was ever expected;
	// otherwise accepted holds its reports in canonical order and lost
	// counts the expected ones that never came.
	settled, live bool
	epoch         int32
	accepted      []vote.Report
	lost          int
}

// settleCore is the settle state machine: duplicate suppression, late
// accounting and gap bookkeeping per (agent, epoch), bounded re-requests,
// and the watermark — epoch x settles when every source's token for cycle
// x+grace is in. All of its state is keyed by (agent, epoch), so how the
// sources' events interleave cannot change any outcome.
type settleCore struct {
	sources    int   // tokens that complete a cycle: lanes, or sessions
	grace      int32 // watermark lag, in cycles
	maxRetries int
	backoff    int
	ctr        *metrics.IngestCounters

	open        map[int32]*epochState
	tokens      map[int32]int // sources heard, per cycle not yet complete
	lastSettled int32         // newest settled epoch; -1 before the first
	lastSize    int           // reports the newest settled epoch accepted: the next one's size hint
	maxLive     int32         // newest cycle that ran an engine epoch
	nextEnd     int32         // the cycle whose completion is next
	run         admitRun
}

// newSettleCore builds a core. restored is the watermark a previous
// incarnation made durable (-1 for none): epochs up to it stay settled, and
// tokens replayed for the cycles that settled them rebuild the open epochs
// without completing those cycles a second time.
func newSettleCore(sources, grace, maxRetries, backoff int, ctr *metrics.IngestCounters, restored int32) *settleCore {
	c := &settleCore{
		sources: sources, grace: int32(grace), maxRetries: maxRetries, backoff: backoff, ctr: ctr,
		open: make(map[int32]*epochState), tokens: make(map[int32]int),
		lastSettled: restored, maxLive: restored,
	}
	if restored >= 0 {
		c.nextEnd = restored + c.grace + 1
	}
	return c
}

// openEpoch returns (creating if needed) the open state for epoch e.
func (c *settleCore) openEpoch(e int32) *epochState {
	eps := c.open[e]
	if eps == nil {
		eps = &epochState{epoch: e, agents: make(map[topology.HostID]*agentEpoch), accepted: make([]vote.Report, 0, c.lastSize)}
		c.open[e] = eps
	}
	return eps
}

// report admits one arriving transmission. attempt is the re-request round
// it answers (0 for a first transmission); delayed marks one held back past
// its own cycle.
func (c *settleCore) report(r vote.Report, attempt uint8, delayed bool) {
	c.ctr.Received.Add(1)
	if malformed(r) {
		c.ctr.Rejected.Add(1)
		return
	}
	if r.Epoch <= c.lastSettled {
		// Its epoch settled before it arrived: past the grace window.
		c.ctr.LateDropped.Add(1)
		return
	}
	run := &c.run
	if run.ag == nil || run.src != r.Src || run.epoch != r.Epoch {
		run.epoch, run.src = r.Epoch, r.Src
		run.eps = c.openEpoch(r.Epoch)
		run.ag = run.eps.agent(r.Src)
	}
	if run.ag.mark(r.Seq) {
		c.ctr.Duplicates.Add(1)
		return
	}
	c.ctr.Accepted.Add(1)
	if delayed {
		c.ctr.Late.Add(1)
	}
	eps := run.eps
	if eps.missing != nil {
		id := r.ID()
		if _, was := eps.missing[id]; was {
			delete(eps.missing, id)
			if attempt > 0 {
				c.ctr.Recovered.Add(1)
			}
		}
	}
	eps.accepted = append(eps.accepted, r)
}

// token merges one source's token for a cycle: the expected counts of the
// source's agents for the cycle's epoch, and whether the cycle ran an
// engine epoch at all. Call next afterwards until it reports false.
func (c *settleCore) token(cycle int32, live bool, counts []transport.AgentCount) {
	if cycle <= c.lastSettled {
		return
	}
	if len(counts) > 0 {
		eps := c.openEpoch(cycle)
		for _, ac := range counts {
			eps.agent(ac.Agent).expected = ac.N
			eps.expected += int64(ac.N)
		}
	}
	if live && cycle > c.maxLive {
		c.maxLive = cycle
	}
	c.tokens[cycle]++
	if cycle < c.nextEnd && c.tokens[cycle] == c.sources {
		// Replayed after a restart: the cycle completed in the previous
		// incarnation and must not complete again, but its epoch is still
		// open and its counts are whole again — so its gaps are known again,
		// and the next cycle to complete re-requests them.
		delete(c.tokens, cycle)
		if eps := c.open[cycle]; eps != nil {
			eps.seal()
		}
	}
}

// next completes the next cycle, strictly in cycle order, if every source's
// token for it is in: the cycle's own epoch is sealed (its expected counts
// are now complete, so its gaps are known), due re-requests are collected
// from every open epoch, and the epoch crossing the watermark settles.
func (c *settleCore) next() (cycleDone, bool) {
	cycle := c.nextEnd
	if c.tokens[cycle] < c.sources {
		return cycleDone{}, false
	}
	delete(c.tokens, cycle)
	c.nextEnd++
	done := cycleDone{cycle: cycle}
	if eps := c.open[cycle]; eps != nil {
		eps.seal()
	}
	for _, eps := range c.open {
		done.retries = c.dueRetries(eps, cycle, done.retries)
	}
	// Deterministic retransmission order across the map iteration.
	slices.SortFunc(done.retries, func(a, b transport.RetryReq) int {
		return cmp.Or(cmp.Compare(a.Epoch, b.Epoch), cmp.Compare(a.Agent, b.Agent), cmp.Compare(a.Seq, b.Seq))
	})
	if e := cycle - c.grace; e > c.lastSettled {
		c.settle(e, &done)
	}
	c.ctr.OpenEpochs.Store(int64(len(c.open)))
	c.ctr.WatermarkLag.Store(int64(cycle - c.lastSettled))
	return done, true
}

// seal computes the epoch's missing set from the now complete expected
// counts — the sequence-gap detection the dense per-agent numbering exists
// for — and makes the first re-request round due at once.
func (eps *epochState) seal() {
	for agent, ag := range eps.agents {
		for seq := int32(0); seq < ag.expected; seq++ {
			if ag.has(seq) {
				continue
			}
			if eps.missing == nil {
				eps.missing = make(map[vote.ReportID]struct{})
			}
			eps.missing[vote.ReportID{Agent: agent, Epoch: eps.epoch, Seq: seq}] = struct{}{}
		}
	}
	eps.nextRetry = eps.epoch
}

// dueRetries appends the epoch's due re-requests: one round per cycle at
// most, maxRetries rounds in all, linear backoff between rounds, every
// still-missing identity re-requested in the round.
func (c *settleCore) dueRetries(eps *epochState, cycle int32, out []transport.RetryReq) []transport.RetryReq {
	if len(eps.missing) == 0 || eps.attempts >= c.maxRetries || cycle < eps.nextRetry {
		return out
	}
	eps.attempts++
	eps.nextRetry = cycle + 1 + int32((eps.attempts-1)*c.backoff)
	for id := range eps.missing {
		out = append(out, transport.RetryReq{Agent: id.Agent, Epoch: id.Epoch, Seq: id.Seq, Attempt: uint8(eps.attempts)})
	}
	c.ctr.Retries.Add(int64(len(eps.missing)))
	return out
}

// settle closes epoch e, once: whatever is still missing is lost, and the
// accepted reports leave in canonical order. Every live cycle settles,
// reports or not, so quiet epochs flow downstream exactly as the batch
// engine emits them.
func (c *settleCore) settle(e int32, done *cycleDone) {
	eps := c.open[e]
	delete(c.open, e)
	c.lastSettled = e
	c.run = admitRun{} // it may point into the epoch that just closed
	done.settled, done.epoch, done.live = true, e, e <= c.maxLive
	if !done.live || eps == nil {
		return
	}
	// Conservation: every expected report is accounted for exactly once, as
	// accepted or as lost. Holds under every fault mix because duplicates
	// are suppressed, post-settle stragglers stay in missing, and shedding
	// strips paths, never votes.
	if int64(len(eps.accepted)+len(eps.missing)) != eps.expected {
		panic("ingest: epoch conservation violated (accepted + lost != expected)")
	}
	done.lost = len(eps.missing)
	c.ctr.Lost.Add(int64(done.lost))
	vote.SortCanonical(eps.accepted)
	done.accepted = eps.accepted
	c.lastSize = len(eps.accepted)
}
