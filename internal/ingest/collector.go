package ingest

import (
	"cmp"
	"slices"

	"vigil/internal/analysis"
	"vigil/internal/engine"
	"vigil/internal/metrics"
	"vigil/internal/topology"
	"vigil/internal/vote"
)

// agentEpoch tracks one (agent, epoch) pair at the collector: which
// sequence numbers have been seen (duplicate suppression) and how many the
// agent's token said to expect (gap detection).
type agentEpoch struct {
	expected int32 // -1 until the epoch's token arrives
	got      int32
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
	a.got++
	return false
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

func (a *agentEpoch) has(seq int32) bool {
	w, b := int(seq)>>6, uint(seq)&63
	return w < len(a.seen) && a.seen[w]&(1<<b) != 0
}

// epochState is one open (not yet settled) epoch at the collector.
type epochState struct {
	epoch    int32
	agents   map[topology.HostID]*agentEpoch
	accepted []vote.Report
	// missing is the identity set gap detection is currently chasing;
	// attempts counts re-request rounds issued, nextRetry the cycle the
	// next round is due.
	missing   map[vote.ReportID]struct{}
	attempts  int
	nextRetry int32
	expected  int64 // total expected reports (sum of token counts)
}

// collectorState is the collector goroutine's working set.
type collectorState struct {
	open        map[int32]*epochState
	tokens      int   // lanes heard from this cycle
	lastSettled int32 // newest settled epoch; -1 initially
	lastSize    int   // reports the newest settled epoch accepted: the next one's size hint
	maxLive     int32 // newest cycle that was an engine epoch; -1 initially
}

// collector is the settle stage: it drains the merged lane queue, runs
// duplicate suppression, late accounting and gap bookkeeping per
// (agent, epoch), and settles epoch x once all lanes' tokens for cycle
// x+Grace are in — the watermark. All of its state is keyed by (agent,
// epoch), so the cross-lane interleaving of the shared queue cannot change
// any outcome.
func (s *Service) collector() {
	defer s.wg.Done()
	st := collectorState{open: make(map[int32]*epochState), lastSettled: -1, maxLive: -1}
	for burst := range s.toCol {
		for _, it := range burst {
			if it.kind == itemToken {
				s.onToken(&st, it)
				continue
			}
			s.onReport(&st, it)
		}
		s.recycle(burst)
	}
}

// openEpoch returns (creating if needed) the open state for epoch e — shared
// by the in-process and networked collectors. sizeHint, the number of
// reports the newest settled epoch accepted, sizes the new epoch's list.
func openEpoch(open map[int32]*epochState, e int32, sizeHint int) *epochState {
	eps := open[e]
	if eps == nil {
		eps = &epochState{epoch: e, agents: make(map[topology.HostID]*agentEpoch), accepted: make([]vote.Report, 0, sizeHint)}
		open[e] = eps
	}
	return eps
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

// onReport admits one arriving transmission.
func (s *Service) onReport(st *collectorState, it item) {
	s.ctr.Received.Add(1)
	if malformed(it.r) {
		s.ctr.Rejected.Add(1)
		return
	}
	e := it.r.Epoch
	if e <= st.lastSettled {
		// Its epoch settled before it arrived: past the grace window.
		s.ctr.LateDropped.Add(1)
		return
	}
	eps := openEpoch(st.open, e, st.lastSize)
	if eps.agent(it.r.Src).mark(it.r.Seq) {
		s.ctr.Duplicates.Add(1)
		return
	}
	s.ctr.Accepted.Add(1)
	if it.delayed {
		s.ctr.Late.Add(1)
	}
	if eps.missing != nil {
		id := it.r.ID()
		if _, was := eps.missing[id]; was {
			delete(eps.missing, id)
			if it.attempt > 0 {
				s.ctr.Recovered.Add(1)
			}
		}
	}
	eps.accepted = append(eps.accepted, it.r)
}

// onToken merges one lane's cycle token; the lanes'th token of a cycle
// completes it and runs the end-of-cycle work.
func (s *Service) onToken(st *collectorState, it item) {
	if len(it.counts) > 0 {
		eps := openEpoch(st.open, it.cycle, st.lastSize)
		for _, ac := range it.counts {
			eps.agent(ac.agent).expected = ac.n
			eps.expected += int64(ac.n)
		}
	}
	if it.live && it.cycle > st.maxLive {
		st.maxLive = it.cycle
	}
	st.tokens++
	if st.tokens < s.lanes {
		return
	}
	st.tokens = 0
	s.endCycle(st, it.cycle)
}

// endCycle runs once all lanes' tokens for a cycle are in: seal the
// cycle's own epoch (its expected counts are now complete, so gaps are
// known), issue due re-requests for every open epoch, settle the epoch
// crossing the watermark, and hand the lockstep baton back to the source.
func (s *Service) endCycle(st *collectorState, cycle int32) {
	if eps := st.open[cycle]; eps != nil {
		s.sealExpected(eps)
	}
	var retries []retryReq
	for _, eps := range st.open {
		retries = s.collectRetries(eps, cycle, retries)
	}
	// Deterministic retransmission order across the map iteration.
	sortRetries(retries)
	if sEpoch := cycle - int32(s.grace); sEpoch >= 0 {
		s.settle(st, sEpoch)
	}
	s.ctr.OpenEpochs.Store(int64(len(st.open)))
	s.ctr.WatermarkLag.Store(int64(cycle - st.lastSettled))
	// Queued bursts. The lockstep has drained every queue by now, so this
	// reads zero unless something upstream broke the handshake.
	depth := len(s.toCol)
	for _, ch := range s.laneIn {
		depth += len(ch)
	}
	s.ctr.QueueDepth.Store(int64(depth))
	s.cycleEnd <- cycleEnd{cycle: cycle, retries: retries}
}

// sealExpected computes the epoch's initial missing set from the now
// complete expected counts — the sequence-gap detection the dense
// per-agent numbering exists for.
func (eps *epochState) sealExpectedInto(missing map[vote.ReportID]struct{}) {
	for agent, ag := range eps.agents {
		for seq := int32(0); seq < ag.expected; seq++ {
			if !ag.has(seq) {
				missing[vote.ReportID{Agent: agent, Epoch: eps.epoch, Seq: seq}] = struct{}{}
			}
		}
	}
}

func (s *Service) sealExpected(eps *epochState) {
	sealEpochGaps(eps)
}

// sealEpochGaps computes the epoch's initial missing set and schedules the
// first re-request round — shared by the in-process and networked
// collectors.
func sealEpochGaps(eps *epochState) {
	eps.missing = make(map[vote.ReportID]struct{})
	eps.sealExpectedInto(eps.missing)
	eps.nextRetry = eps.epoch // due immediately, at this cycle's end
}

// collectRetries appends the epoch's due re-requests, honoring the retry
// budget and linear backoff.
func (s *Service) collectRetries(eps *epochState, cycle int32, out []retryReq) []retryReq {
	return collectRetriesFor(eps, cycle, s.cfg.MaxRetries, s.backoff, s.ctr, out)
}

// collectRetriesFor is the shared retry-budget engine: one round per call
// at most, linear backoff between rounds, every still-missing identity
// re-requested in the round.
func collectRetriesFor(eps *epochState, cycle int32, maxRetries, backoff int, ctr *metrics.IngestCounters, out []retryReq) []retryReq {
	if len(eps.missing) == 0 || eps.attempts >= maxRetries || cycle < eps.nextRetry {
		return out
	}
	eps.attempts++
	eps.nextRetry = cycle + 1 + int32((eps.attempts-1)*backoff)
	for id := range eps.missing {
		out = append(out, retryReq{id: id, attempt: uint8(eps.attempts)})
	}
	ctr.Retries.Add(int64(len(eps.missing)))
	return out
}

// sortRetries orders re-requests deterministically across map iteration.
func sortRetries(retries []retryReq) {
	slices.SortFunc(retries, func(x, y retryReq) int {
		a, b := x.id, y.id
		return cmp.Or(cmp.Compare(a.Epoch, b.Epoch), cmp.Compare(a.Agent, b.Agent), cmp.Compare(a.Seq, b.Seq))
	})
}

// settle closes epoch e: whatever is still missing is lost, the accepted
// reports are canonically sorted and analyzed with the engine's own
// options, and the result — ground truth attached from the engine's Step —
// goes to the sink. Every live cycle settles, reports or not, so quiet
// epochs flow downstream exactly as the batch engine emits them.
func (s *Service) settle(st *collectorState, e int32) {
	eps := st.open[e]
	delete(st.open, e)
	st.lastSettled = e
	if e > st.maxLive {
		// A drain cycle: nothing was ever expected or accepted here.
		return
	}
	res := s.ring[int(e)%len(s.ring)]
	if res == nil || res.Epoch != int(e) {
		// Cannot happen while the ring covers the watermark window; guard
		// against misconfiguration rather than emit wrong truth.
		panic("ingest: settled epoch fell out of the ring window")
	}
	var accepted []vote.Report
	if eps != nil {
		// Conservation: every expected report is accounted for exactly once,
		// as accepted or as lost. Holds under every fault mix because
		// duplicates are suppressed, post-settle stragglers stay in missing,
		// and shedding strips paths, never votes.
		if int64(len(eps.accepted)+len(eps.missing)) != eps.expected {
			panic("ingest: epoch conservation violated (accepted + lost != expected)")
		}
		s.ctr.Lost.Add(int64(len(eps.missing)))
		accepted = eps.accepted
		st.lastSize = len(accepted)
	}
	vote.SortCanonical(accepted)
	an := analysis.Analyze(accepted, s.eng.Analysis())
	out := &engine.EpochResult{
		Epoch:       res.Epoch,
		FailedLinks: res.FailedLinks,
		Reports:     accepted,
		Ranking:     an.Ranking,
		Detected:    an.Detected,
		Verdicts:    an.Verdicts,
		Truth:       res.Truth,
		TotalFlows:  res.TotalFlows,
		FailedFlows: res.FailedFlows,
		TotalDrops:  res.TotalDrops,
	}
	s.ctr.SettledEpochs.Add(1)
	s.ctr.DetectedLinks.Add(int64(len(out.Detected)))
	s.ctr.Verdicts.Add(int64(len(out.Verdicts)))
	if s.cfg.Sink != nil {
		s.cfg.Sink(out)
	}
}
