package ingest

import (
	"math/bits"
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
// sequence numbers have been seen and how many the agent's token said to
// expect. The bitset is the pair's whole state: duplicates, gaps and — at
// settle — every report's rank among its agent's are read off it.
type agentEpoch struct {
	id       topology.HostID
	expected int32    // -1 until the epoch's token arrives
	seen     []uint64 // bitset by seq
	rankOff  int32    // at settle: where the agent's words start in epochState.ranks
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

// below is the mask of a word's first n bits (all of them from 64 up).
func below(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(n) - 1
}

// holes counts the agent's expected sequences not seen yet.
func (a *agentEpoch) holes() int {
	n := max(int(a.expected), 0)
	h := n
	for w := 0; w < len(a.seen) && w<<6 < n; w++ {
		h -= bits.OnesCount64(a.seen[w] & below(n-w<<6))
	}
	return h
}

// expect sets the agent's expected count and returns what that does to its
// number of holes.
func (a *agentEpoch) expect(n int32) int {
	before := a.holes()
	a.expected = n
	return a.holes() - before
}

// maxAgentSeq bounds one agent's report sequence within an epoch. mark
// grows a bitset by sequence, so without a bound a single well-framed
// report with Seq = MaxInt32 costs 256 MiB per (agent, epoch); at the bound
// the bitset tops out at 128 KiB. A host's real count is its failed flows
// in one epoch — hundreds at datacenter scale.
const maxAgentSeq = 1 << 20

// keptWords is the largest bitset, in words, a recycled epoch keeps for its
// next occupant (1,024 sequences). A bigger one — a hostile sequence near
// maxAgentSeq — is dropped at settle rather than pinned in the free list.
const keptWords = 16

// malformed reports whether r's identity is one no agent can produce.
// Sequences and epochs count up from zero and mark indexes a bitset by
// sequence, so a negative or absurdly large one is dropped (and counted
// Rejected) before it reaches any per-epoch state.
func malformed(r vote.Report) bool { return r.Seq < 0 || r.Seq >= maxAgentSeq || r.Epoch < 0 }

// epochState is one open (not yet settled) epoch. Its agents live in a
// slab, found by id through index; settled states are recycled whole.
type epochState struct {
	epoch  int32
	agents []agentEpoch
	index  map[topology.HostID]int32 // agent → slab index
	// arrivals are the accepted reports in arrival order, owner their
	// agents' slab indices; disordered records whether arrival order has
	// ever left canonical order.
	arrivals   []vote.Report
	owner      []int32
	disordered bool
	// holes counts expected sequences not seen: the gap set, which the
	// bitsets hold. Once sealed — every token of the epoch's cycle is in —
	// re-requests chase it: attempts counts the rounds issued, nextRetry
	// the cycle the next one is due.
	holes     int
	sealed    bool
	attempts  int
	nextRetry int32
	expected  int64 // total expected reports (sum of token counts)

	order []uint64 // byID's result: (id, slab index) keys, ascending
	ranks []int32  // place's per-word canonical positions

	// placed holds the accepted reports of an epoch reported final (sealed,
	// no holes), placed then; its settle hands them over.
	placed []vote.Report
}

// agent returns the slab index of the epoch's state for one agent, creating
// it (over a recycled slot's bitset when there is one) if needed.
func (eps *epochState) agent(id topology.HostID) int32 {
	if k, ok := eps.index[id]; ok {
		return k
	}
	k := int32(len(eps.agents))
	eps.agents = slices.Grow(eps.agents, 1)[:k+1]
	ag := &eps.agents[k]
	ag.id, ag.expected, ag.seen = id, -1, ag.seen[:0]
	eps.index[id] = k
	return k
}

// byID returns the agents in ascending id order, as keys whose low 32 bits
// are slab indices. The sign bit is flipped so that unsigned order is the
// signed order canonical order compares ids in.
func (eps *epochState) byID() []uint64 {
	if len(eps.order) != len(eps.agents) {
		eps.order = eps.order[:0]
		for k := range eps.agents {
			eps.order = append(eps.order, uint64(uint32(eps.agents[k].id)^1<<31)<<32|uint64(k))
		}
		slices.Sort(eps.order)
	}
	return eps.order
}

// place returns the accepted reports in canonical order, in a slice the
// epoch no longer owns, and empties the arrival buffer. Arrivals that never
// left canonical order are that slice. Otherwise every report is written
// straight to its position: its agent's offset in id order plus the popcount
// of the agent's seen bits below its seq — O(reports), no comparison.
func (eps *epochState) place() []vote.Report {
	if !eps.disordered {
		out := eps.arrivals
		eps.arrivals = nil
		return out
	}
	pos := int32(0)
	for _, k := range eps.byID() {
		ag := &eps.agents[uint32(k)]
		ag.rankOff = int32(len(eps.ranks))
		for _, w := range ag.seen {
			eps.ranks = append(eps.ranks, pos)
			pos += int32(bits.OnesCount64(w))
		}
	}
	out := make([]vote.Report, len(eps.arrivals))
	for i := range eps.arrivals {
		r := &eps.arrivals[i]
		ag := &eps.agents[eps.owner[i]]
		w := int(r.Seq) >> 6
		out[eps.ranks[int(ag.rankOff)+w]+int32(bits.OnesCount64(ag.seen[w]&below(int(r.Seq)&63)))] = *r
	}
	clear(eps.arrivals) // drop the path references
	eps.arrivals, eps.owner = eps.arrivals[:0], eps.owner[:0]
	return out
}

// admitRun is the (epoch, agent) the last admitted report belonged to, with
// the state looked up for it. Both the wire and the lanes deliver one
// agent's reports of an epoch in runs, so a run pays report's map
// operations once. ag is a slab index: the slab can grow mid-run.
type admitRun struct {
	epoch int32
	src   topology.HostID
	eps   *epochState
	ag    int32
}

// finalEpoch is a live epoch whose accepted set can no longer change before
// its settle, with that set in canonical order.
type finalEpoch struct {
	epoch    int32
	accepted []vote.Report
}

// cycleDone is what a completed cycle hands its adapter.
type cycleDone struct {
	cycle int32
	// retries are the re-requests due now across every open epoch, in
	// (epoch, agent, seq) order. The core reuses the slice: it is valid
	// until the next call to next.
	retries []transport.RetryReq
	// final are the live epochs whose accepted set this cycle fixed,
	// ascending, each once: the settling epoch if it was never reported
	// final, then the epochs that became final, each only after every live
	// epoch before it — each with the reports its settle hands over (the same
	// slice). The core reuses the slice like retries.
	final []finalEpoch
	// settled says an epoch — epoch, which is cycle minus the grace window —
	// crossed the watermark and is closed for good. live is false when that
	// epoch belongs to a drain cycle, where nothing was ever expected;
	// otherwise accepted holds its reports in canonical order, in a slice
	// the receiver owns, and lost counts the expected ones that never came.
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
	free        []*epochState // settled states for reuse, at most grace+2
	tokens      map[int32]int // sources heard, per cycle not yet complete
	lastSettled int32         // newest settled epoch; -1 before the first
	finalized   int32         // newest epoch reported final; -1 before the first
	lastSize    int           // reports the newest settled epoch accepted: the next one's size hint
	maxLive     int32         // newest cycle that ran an engine epoch
	nextEnd     int32         // the cycle whose completion is next
	run         admitRun
	epochs      []int32              // next's scratch: the open epochs, ascending
	retries     []transport.RetryReq // backs cycleDone.retries
	final       []finalEpoch         // backs cycleDone.final
}

// newSettleCore builds a core. restored is the watermark a previous
// incarnation made durable (-1 for none): epochs up to it stay settled, and
// tokens replayed for the cycles that settled them rebuild the open epochs
// without completing those cycles a second time.
func newSettleCore(sources, grace, maxRetries, backoff int, ctr *metrics.IngestCounters, restored int32) *settleCore {
	c := &settleCore{
		sources: sources, grace: int32(grace), maxRetries: maxRetries, backoff: backoff, ctr: ctr,
		open: make(map[int32]*epochState), tokens: make(map[int32]int),
		lastSettled: restored, finalized: restored, maxLive: restored,
	}
	if restored >= 0 {
		c.nextEnd = restored + c.grace + 1
	}
	return c
}

// openEpoch returns (creating if needed, from the free list when it can)
// the open state for epoch e.
func (c *settleCore) openEpoch(e int32) *epochState {
	eps := c.open[e]
	if eps == nil {
		if n := len(c.free); n > 0 {
			eps, c.free = c.free[n-1], c.free[:n-1]
		} else {
			eps = &epochState{index: make(map[topology.HostID]int32)}
		}
		eps.epoch = e
		if eps.arrivals == nil {
			eps.arrivals = make([]vote.Report, 0, c.lastSize)
		}
		c.open[e] = eps
	}
	return eps
}

// recycle keeps a settled state for a later epoch: its slab, map, bitsets
// and buffers stay allocated, its contents go. A bitset past keptWords (and
// a rank table sized by one) is let go instead, so one hostile epoch does
// not stay resident.
func (c *settleCore) recycle(eps *epochState) {
	if len(c.free) >= int(c.grace)+2 {
		return
	}
	for k := range eps.agents {
		if cap(eps.agents[k].seen) > keptWords {
			eps.agents[k].seen = nil
		}
	}
	if cap(eps.ranks) > keptWords*len(eps.agents) {
		eps.ranks = nil
	}
	clear(eps.arrivals) // drop the path references
	clear(eps.index)
	*eps = epochState{
		agents: eps.agents[:0], index: eps.index, arrivals: eps.arrivals[:0], owner: eps.owner[:0],
		order: eps.order[:0], ranks: eps.ranks[:0],
	}
	c.free = append(c.free, eps)
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
	if run.eps == nil || run.epoch != r.Epoch {
		run.epoch, run.eps = r.Epoch, c.openEpoch(r.Epoch)
		run.src, run.ag = r.Src, run.eps.agent(r.Src)
	} else if run.src != r.Src {
		run.src, run.ag = r.Src, run.eps.agent(r.Src)
	}
	eps := run.eps
	ag := &eps.agents[run.ag]
	if ag.mark(r.Seq) {
		c.ctr.Duplicates.Add(1)
		return
	}
	c.ctr.Accepted.Add(1)
	if delayed {
		c.ctr.Late.Add(1)
	}
	if r.Seq < ag.expected {
		eps.holes--
		if attempt > 0 && eps.sealed {
			c.ctr.Recovered.Add(1)
		}
	}
	if n := len(eps.arrivals); n > 0 && !eps.disordered && vote.CanonicalLess(r, eps.arrivals[n-1]) {
		eps.disordered = true
	}
	eps.arrivals = append(eps.arrivals, r)
	eps.owner = append(eps.owner, run.ag)
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
			k := eps.agent(ac.Agent)
			eps.holes += eps.agents[k].expect(ac.N)
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
			eps.sealed, eps.nextRetry = true, eps.epoch
		}
	}
}

// next completes the next cycle, strictly in cycle order, if every source's
// token for it is in: the cycle's own epoch is sealed (its expected counts
// are now complete, so its holes are gaps), due re-requests are collected
// from every open epoch, the epoch crossing the watermark settles, and the
// epochs that have become final are reported.
func (c *settleCore) next() (cycleDone, bool) {
	cycle := c.nextEnd
	if c.tokens[cycle] < c.sources {
		return cycleDone{}, false
	}
	delete(c.tokens, cycle)
	c.nextEnd++
	done := cycleDone{cycle: cycle}
	if eps := c.open[cycle]; eps != nil {
		eps.sealed, eps.nextRetry = true, eps.epoch // a round is due at once
	}
	// Epochs ascending, each one's holes by agent and seq: the re-requests
	// come out in (epoch, agent, seq) order by construction.
	c.epochs = c.epochs[:0]
	for e := range c.open {
		c.epochs = append(c.epochs, e)
	}
	slices.Sort(c.epochs)
	done.retries = c.retries[:0]
	for _, e := range c.epochs {
		done.retries = c.dueRetries(c.open[e], cycle, done.retries)
	}
	c.retries = done.retries
	done.final = c.final[:0]
	if e := cycle - c.grace; e > c.lastSettled {
		c.settle(e, &done)
	}
	done.final = c.finals(done.final)
	c.final = done.final
	c.ctr.OpenEpochs.Store(int64(len(c.open)))
	c.ctr.WatermarkLag.Store(int64(cycle - c.lastSettled))
	return done, true
}

// dueRetries appends the epoch's due re-requests: one round per cycle at
// most, maxRetries rounds in all, linear backoff between rounds, every
// hole re-requested in the round — agents ascending, holes ascending.
func (c *settleCore) dueRetries(eps *epochState, cycle int32, out []transport.RetryReq) []transport.RetryReq {
	if !eps.sealed || eps.holes == 0 || eps.attempts >= c.maxRetries || cycle < eps.nextRetry {
		return out
	}
	eps.attempts++
	eps.nextRetry = cycle + 1 + int32((eps.attempts-1)*c.backoff)
	c.ctr.Retries.Add(int64(eps.holes))
	left := eps.holes
	for _, k := range eps.byID() {
		ag := &eps.agents[uint32(k)]
		for w := 0; left > 0 && w<<6 < int(ag.expected); w++ {
			gap := below(int(ag.expected) - w<<6)
			if w < len(ag.seen) {
				gap &^= ag.seen[w]
			}
			for ; gap != 0; gap &= gap - 1 {
				seq := int32(w<<6 + bits.TrailingZeros64(gap))
				out = append(out, transport.RetryReq{Agent: ag.id, Epoch: eps.epoch, Seq: seq, Attempt: uint8(eps.attempts)})
				left--
			}
		}
	}
	return out
}

// finals appends the live epochs that are final now, ascending, and places
// each one, once. An epoch is final when it is sealed with no holes: every
// later arrival for it is a duplicate, or a report past its agent's count
// that fails the conservation check at settle, so its accepted set is the
// one its settle would place. A live epoch with no state at all expected
// nothing. The walk stops at the first live epoch that is not final, so the
// epochs are reported in epoch order.
func (c *settleCore) finals(out []finalEpoch) []finalEpoch {
	for e := max(c.finalized, c.lastSettled) + 1; e <= c.maxLive && e < c.nextEnd; e++ {
		f := finalEpoch{epoch: e}
		if eps := c.open[e]; eps != nil {
			if !eps.sealed || eps.holes > 0 {
				break
			}
			eps.placed = eps.place()
			f.accepted = eps.placed
		}
		out = append(out, f)
		c.finalized = e
	}
	return out
}

// settle closes epoch e, once: whatever is still missing is lost, and the
// accepted reports leave in canonical order — in done.final too, unless the
// epoch was reported final before. Every live cycle settles, reports or
// not, so quiet epochs flow downstream exactly as the batch engine emits
// them.
func (c *settleCore) settle(e int32, done *cycleDone) {
	eps := c.open[e]
	delete(c.open, e)
	c.lastSettled = e
	c.run = admitRun{} // it may point into the epoch that just closed
	done.settled, done.epoch, done.live = true, e, e <= c.maxLive
	if eps != nil && done.live {
		// Conservation: every expected report is accounted for exactly once,
		// as accepted or as lost. Holds under every fault mix because
		// duplicates are suppressed, post-settle stragglers stay holes, and
		// shedding strips paths, never votes. A report past its agent's
		// count fails it, placed when its epoch became final or not; place,
		// which positions by the seen bits alone, could not run out of range
		// even if one got through.
		if int64(len(eps.placed)+len(eps.arrivals)+eps.holes) != eps.expected {
			panic("ingest: epoch conservation violated (accepted + lost != expected)")
		}
		done.lost = eps.holes
		c.ctr.Lost.Add(int64(done.lost))
		if e > c.finalized {
			eps.placed = eps.place()
		}
		done.accepted = eps.placed
		c.lastSize = len(done.accepted)
	}
	if eps != nil {
		c.recycle(eps)
	}
	if done.live && e > c.finalized {
		done.final = append(done.final, finalEpoch{e, done.accepted})
	}
}
