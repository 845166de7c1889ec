package ingest

import (
	"cmp"
	"context"
	"fmt"
	"net"
	"slices"
	"sync"

	"vigil/internal/analysis"
	"vigil/internal/engine"
	"vigil/internal/metrics"
	"vigil/internal/topology"
	"vigil/internal/transport"
	"vigil/internal/vote"
)

// This file is the networked face of the ingest pipeline: the settle core
// of core.go with the agent and the collector on opposite ends of a
// transport session instead of in one loop. RunAgent is the
// reporter side (drives the engine, ships reports and cycle tokens, answers
// re-requests); ServeCollector is the vigild side (settles epochs,
// checkpoints durability, survives crashes). The transport layer below
// deduplicates and resequences, so the core sees exactly the at-most-once
// in-order stream it sees from the in-process Service — which is why a
// fault-free networked run settles bit-identical to both the in-process
// Service and batch RunEpoch.

// AgentConfig parametrizes a networked reporter session.
type AgentConfig struct {
	// Engine is the epoch driver; required. Its analysis options must be
	// wire-expressible: Detect.Adjuster must be nil (it cannot be
	// serialized; the collector rebuilds its analyzer from the
	// ThresholdFrac carried in the handshake).
	Engine engine.Engine
	// Addr is the collector (or chaos proxy) address; required.
	Addr string
	// Session identifies this reporter across reconnects; stable for the
	// run. 0 is valid.
	Session uint64
	// Grace must equal the collector's grace window: the agent runs
	// Grace+1 drain cycles after its last epoch so every started epoch
	// crosses the settle watermark. 0 means the default of 2.
	Grace int
	// Epochs is the number of live epochs to run; must be positive.
	Epochs int
	// Seed derives reconnect jitter.
	Seed uint64
	// Test hook: Transport tunes the session (the tests' fast reconnects
	// and polls); Addr/Session/ThresholdFrac/Seed are filled in
	// from this config and the engine.
	Transport transport.ClientConfig
	// Counters receives the session's transport counters; one is
	// allocated when nil.
	Counters *metrics.TransportCounters
}

// buildToken assembles the cycle token for a live epoch: per-agent
// expected counts — at most one per report, which sizes the slice without a
// counting pass — plus the epoch summary the collector settles against.
func buildToken(cycle int32, res *engine.EpochResult) transport.Token {
	counts := agentCounts(make([]transport.AgentCount, 0, len(res.Reports)), res.Reports)
	t := transport.Token{Cycle: cycle, Live: true, Counts: counts}
	sum := &transport.EpochSummary{
		Epoch:       int32(res.Epoch),
		TotalFlows:  int32(res.TotalFlows),
		FailedFlows: int32(res.FailedFlows),
		TotalDrops:  int32(res.TotalDrops),
		HasFailed:   res.FailedLinks != nil,
		HasTruth:    res.Truth != nil,
	}
	if sum.HasFailed {
		sum.FailedLinks = append([]topology.LinkID{}, res.FailedLinks...)
	}
	if sum.HasTruth {
		sum.Truth = truthEntries(res)
	}
	t.Summary = sum
	return t
}

// truthEntries flattens the epoch's ground truth into flow-id order. It
// runs between Step returning and the token leaving, so it is part of every
// verdict's latency, which is why it does not simply iterate the map and
// sort. Both planes emit a report for every flow they hold truth for,
// (nearly) in flow-id order: walking the reports yields the entries all but
// sorted, and the sort is then one pass over them.
func truthEntries(res *engine.EpochResult) []transport.TruthEntry {
	byFlow := func(a, b transport.TruthEntry) int { return cmp.Compare(a.FlowID, b.FlowID) }
	out := make([]transport.TruthEntry, 0, len(res.Truth))
	for i := range res.Reports {
		id := res.Reports[i].FlowID
		if ft, ok := res.Truth[id]; ok {
			out = append(out, transport.TruthEntry{FlowID: id, Culprit: ft.Culprit, CrossedFailure: ft.CrossedFailure})
		}
	}
	slices.SortFunc(out, byFlow)
	out = slices.CompactFunc(out, func(a, b transport.TruthEntry) bool { return a.FlowID == b.FlowID })
	if len(out) == len(res.Truth) {
		return out
	}
	// Some flow has truth but no report: take the map as it comes.
	out = out[:0]
	for id, ft := range res.Truth {
		out = append(out, transport.TruthEntry{FlowID: id, Culprit: ft.Culprit, CrossedFailure: ft.CrossedFailure})
	}
	slices.SortFunc(out, byFlow)
	return out
}

// RunAgent drives cfg.Epochs engine epochs over a resumable transport
// session: each cycle it retransmits the collector's re-requests, streams
// the epoch's reports, ships the cycle token, and waits for the lockstep
// cycle-end; then Grace+1 drain cycles push every epoch across the settle
// watermark, and the session closes cleanly. Connection loss anywhere —
// partition, cut, collector restart — is absorbed by the transport's
// resume protocol; RunAgent returns early only on ctx cancellation or a
// protocol-level failure (e.g. the send window overflowing).
func RunAgent(ctx context.Context, cfg AgentConfig) error {
	if cfg.Engine == nil {
		return fmt.Errorf("ingest: AgentConfig.Engine is required")
	}
	if cfg.Epochs <= 0 {
		return fmt.Errorf("ingest: AgentConfig.Epochs must be positive")
	}
	an := cfg.Engine.Analysis()
	if an.Detect.Adjuster != nil {
		return fmt.Errorf("ingest: networked agents require wire-expressible analysis options (Detect.Adjuster must be nil)")
	}
	grace, _, err := settleParams(cfg.Grace, 0)
	if err != nil {
		return err
	}
	tc := cfg.Transport
	tc.Addr = cfg.Addr
	tc.Session = cfg.Session
	tc.ThresholdFrac = an.Detect.ThresholdFrac
	if tc.Seed == 0 {
		tc.Seed = cfg.Seed
	}
	if tc.Counters == nil {
		tc.Counters = cfg.Counters
	}
	cli, err := transport.NewClient(tc)
	if err != nil {
		return err
	}
	defer cli.Close()
	ring := make([]*engine.EpochResult, grace+2)
	_, err = runCycles(ctx, cfg.Engine, &agentLink{ctx, cli}, ring, cfg.Epochs, grace+1, 0)
	return err
}

// agentLink is RunAgent's collector: the transport client.
type agentLink struct {
	ctx context.Context
	cli *transport.Client
}

func (a *agentLink) send(r vote.Report, attempt uint8) error {
	return a.cli.SendReport(a.ctx, r, attempt)
}

// closeCycle ships the cycle token, a live one with the epoch's counts and
// summary, and waits for the cycle's end.
func (a *agentLink) closeCycle(cycle int32, res *engine.EpochResult) ([]transport.RetryReq, error) {
	tok := transport.Token{Cycle: cycle}
	if res != nil {
		tok = buildToken(cycle, res)
	}
	if err := a.cli.SendToken(a.ctx, tok); err != nil {
		return nil, err
	}
	ce, err := a.cli.WaitCycleEnd(a.ctx, cycle)
	return ce.Retries, err
}

// CollectorConfig parametrizes the networked collector.
type CollectorConfig struct {
	// Listener is the accept socket; required (use net.Listen("tcp",
	// "127.0.0.1:0") in tests). The collector owns it.
	Listener net.Listener
	// Sessions is the number of reporter sessions; a cycle completes when
	// every session's token for it has been processed. 0 means 1.
	Sessions int
	// Grace and MaxRetries mirror the in-process Config fields (same
	// defaults, same semantics).
	Grace      int
	MaxRetries int
	// Parallelism is accepted and ignored: settle-time analysis fans
	// nothing out. The field stays because bench/ sets it; the next
	// benchmark PR can drop it from both.
	Parallelism int
	// CheckpointPath enables crash recovery; see transport.ServerConfig.
	CheckpointPath string
	// Sink receives each settled epoch, in epoch order, on the reader of
	// the session whose token completed the settling cycle — before the
	// settle is checkpointed, so a crash inside the sink re-delivers on
	// restart (at-least-once at the sink; the epoch number makes downstream
	// dedupe trivial).
	Sink func(*engine.EpochResult)
	// Counters receives ingest-level state; allocated when nil.
	Counters *metrics.IngestCounters
	// Transport receives wire-level state; allocated when nil.
	Transport *metrics.TransportCounters

	// probe, which only tests set, runs on the settling reader between the
	// effects of a cycle's end — where a crash can land.
	probe func(c *NetCollector, at cycleStage, cycle int32)
}

// cycleStage names the gaps between endCycle's effects.
type cycleStage uint8

const (
	beforeSink cycleStage = iota
	beforeCycleEnd
	beforeCommit
	afterCommit // the checkpoint is durable and the acks are queued
)

func (c *NetCollector) at(stage cycleStage, cycle int32) {
	if c.cfg.probe != nil {
		c.cfg.probe(c, stage, cycle)
	}
}

// tokenKey names one session's token for one cycle.
type tokenKey struct {
	cycle int32
	sess  uint64
}

// NetCollector is the networked settle stage: the settle core fed by
// transport sessions — one token source per session — with ground
// truth taken from the token summaries and per-session durable watermarks
// committed at every settle. Each session's reader calls into the core
// itself, under one lock; the reader whose token completes a cycle runs the
// cycle's end.
type NetCollector struct {
	cfg CollectorConfig // Counters is never nil
	srv *transport.Server

	// quit closes, once, when the collector stops: every session said
	// goodbye, it stopped itself (err says why), or Close. From then on the
	// readers hand it nothing.
	quit     chan struct{}
	stopOnce sync.Once
	err      error // written before quit closes

	// mu serializes the sessions' readers, and guards everything below.
	// ServeCollector holds it until the core exists. A settling reader
	// holds it across the sink and the wait for the epoch's analysis;
	// Close ends that wait through quit, which needs no lock.
	mu        sync.Mutex
	core      *settleCore
	summaries map[int32]*transport.EpochSummary
	tokenSeq  map[tokenKey]uint64        // the token's frame seq: the mark its epoch's settle commits
	marks     map[uint64]uint64          // Commit's argument, reused
	agentSess map[topology.HostID]uint64 // agent → owning session
	sessSeen  map[uint64]struct{}
	nextCycle map[uint64]int32 // the cycle whose token each session owes next
	byes      int
	an        *analyst // started at the first session's handshake, with its options
}

// ServeCollector starts a networked collector. If a checkpoint exists at
// cfg.CheckpointPath, the collector resumes mid-cycle: sessions replay
// every frame past their durable watermark, which rebuilds the open
// epochs' reports, expected counts and summaries; settled epochs stay
// settled (replayed stragglers for them are dropped as late).
func ServeCollector(cfg CollectorConfig) (*NetCollector, error) {
	if cfg.Listener == nil {
		return nil, fmt.Errorf("ingest: CollectorConfig.Listener is required")
	}
	grace, maxRetries, err := settleParams(cfg.Grace, cfg.MaxRetries)
	if err != nil {
		return nil, err
	}
	if cfg.Sessions < 0 {
		return nil, fmt.Errorf("ingest: negative Sessions (%d)", cfg.Sessions)
	}
	cfg.Sessions = max(cfg.Sessions, 1)
	cfg.Grace, cfg.MaxRetries = grace, maxRetries
	if cfg.Counters == nil {
		cfg.Counters = &metrics.IngestCounters{}
	}
	c := &NetCollector{
		cfg:       cfg,
		quit:      make(chan struct{}),
		summaries: make(map[int32]*transport.EpochSummary),
		tokenSeq:  make(map[tokenKey]uint64),
		marks:     make(map[uint64]uint64),
		agentSess: make(map[topology.HostID]uint64),
		sessSeen:  make(map[uint64]struct{}),
		nextCycle: make(map[uint64]int32),
	}
	// The server accepts before the core exists: its readers wait here.
	c.mu.Lock()
	defer c.mu.Unlock()
	srv, err := transport.Serve(transport.ServerConfig{
		Listener:       cfg.Listener,
		Handler:        (*netHandler)(c),
		CheckpointPath: cfg.CheckpointPath,
		AppFresh:       -1,
		Counters:       cfg.Transport,
	})
	if err != nil {
		return nil, err
	}
	c.srv = srv
	restored := int32(srv.AppState())
	c.core = newSettleCore(cfg.Sessions, cfg.Grace, cfg.MaxRetries, c.cfg.Counters, restored)
	if restored >= 0 {
		// The crash may have landed between checkpointing a settle and
		// delivering its cycle-end; re-offer the newest completed cycle's
		// end (with no retries — the open epochs' gaps are re-requested
		// once their tokens have been replayed) so no agent stays stuck.
		// Agents that already saw it ignore the stale re-send.
		for _, id := range srv.SessionIDs() {
			c.sessSeen[id] = struct{}{}
			c.nextCycle[id] = restored + 1 // its durable mark is its token for the restored epoch
			srv.SendCycleEnd(id, transport.CycleEnd{Cycle: c.core.nextEnd - 1})
		}
	}
	return c, nil
}

// netHandler is the collector as the transport sees it, which keeps the
// Handler methods off NetCollector itself. Each call runs on a session's
// reader, holds the collector's lock throughout, and does nothing once the
// collector has stopped.
type netHandler NetCollector

// running reports whether the collector still takes frames; the caller
// holds mu.
func (c *NetCollector) running() bool {
	select {
	case <-c.quit:
		return false
	default:
		return true
	}
}

func (h *netHandler) OnHello(sess uint64, hello transport.Hello) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := (*NetCollector)(h)
	if !c.running() {
		return
	}
	c.sessSeen[sess] = struct{}{}
	if c.an == nil {
		c.an = startAnalyst(analysis.Options{Detect: vote.DetectOptions{ThresholdFrac: hello.ThresholdFrac}}, int(c.core.grace))
	}
}

// OnReport admits the report into the core. The transport has already
// deduplicated the wire (replays, proxy-injected duplicates of the same
// frame), so duplicates the core sees here are ingest-level ones: the same
// identity re-sent as a retry answer that crossed its own recovery.
func (h *netHandler) OnReport(sess uint64, r vote.Report, attempt uint8) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if c := (*NetCollector)(h); c.running() {
		c.core.report(r, attempt, false)
	}
}

func (h *netHandler) OnToken(sess uint64, seq uint64, t transport.Token) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if c := (*NetCollector)(h); c.running() {
		c.token(sess, seq, &t)
	}
}

func (h *netHandler) OnBye(sess uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if c := (*NetCollector)(h); c.running() {
		if c.byes++; c.byes == c.cfg.Sessions {
			c.stop(nil)
		}
	}
}

// Addr returns the listen address.
func (c *NetCollector) Addr() string { return c.srv.Addr() }

// Counters returns the live ingest counters.
func (c *NetCollector) Counters() *metrics.IngestCounters { return c.cfg.Counters }

// Wait blocks until every session has closed cleanly (nil), the collector
// stopped on a failed checkpoint or a lost token (that error), or ctx ends.
func (c *NetCollector) Wait(ctx context.Context) error {
	select {
	case <-c.quit:
		return c.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// stop makes the collector take no further frame; the first call's err is
// what Wait reports. A checkpoint that cannot be written, or a token the
// wire lost for good, stops it the way a crash would: nothing past the last
// good Commit was acked, so a restart resumes from there.
func (c *NetCollector) stop(err error) {
	c.stopOnce.Do(func() {
		c.err = err
		close(c.quit)
	})
}

// Close tears the collector down without a final checkpoint — state
// beyond the last settle-time Commit is exactly what crash recovery
// rebuilds, so Close mid-run IS the simulated crash: results analyzed ahead
// of their settle are dropped, and a restart recomputes them from replay.
// A settle waiting for its analysis gives up. Close returns once every
// session reader and the analysis goroutine have exited, so the sink is
// never called after it; the sink must not call it.
func (c *NetCollector) Close() error {
	c.stop(nil)
	err := c.srv.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.an != nil {
		c.an.stop()
	}
	return err
}

// token keeps what the core has no use for — which session owns an
// agent, the epoch's summary, the token's frame sequence (the mark a settle
// commits) — and feeds the core. Tokens replayed after a restart rebuild
// the open epochs without re-firing already-completed cycles; that is the
// core's nextEnd.
func (c *NetCollector) token(sess uint64, seq uint64, t *transport.Token) {
	c.sessSeen[sess] = struct{}{}
	// A session sends one token per cycle, in order, and re-sends only its
	// newest. One that skips a cycle means a token was lost behind later
	// frames of a replay — on a wire that loses frames inside a connection,
	// which TCP does not — and its epoch could never be accounted for. Stop
	// the way a crash would: the restart's replay carries the token again.
	switch next := c.nextCycle[sess]; {
	case t.Cycle > next:
		c.stop(fmt.Errorf("ingest: session %d sent its token for cycle %d before the one for cycle %d: a frame was lost where no re-send recovers it", sess, t.Cycle, next))
		return
	case t.Cycle == next:
		c.nextCycle[sess] = next + 1
	}
	if t.Cycle > c.core.lastSettled {
		for _, ac := range t.Counts {
			c.agentSess[ac.Agent] = sess
		}
		if t.Summary != nil && c.summaries[t.Cycle] == nil {
			c.summaries[t.Cycle] = t.Summary
		}
		c.tokenSeq[tokenKey{t.Cycle, sess}] = seq
	}
	// Every live token an agent sends carries its epoch's summary, the
	// ground truth a settle is built on; one that claims a live epoch
	// without it counts as a drain token.
	c.core.token(t.Cycle, t.Live && t.Summary != nil, t.Counts)
	for done, ok := c.core.next(); ok && c.running(); done, ok = c.core.next() {
		c.endCycle(done)
	}
}

// endCycle finishes a completed cycle in the order sink → cycle-end →
// commit → ack, after handing the analyst the epochs the cycle made ready.
// The cycle-end carries only the re-requests, which the core worked out
// before the settle, and promises nothing durable — agents trim their replay
// buffer on the ack alone — so it leaves before the commit and the agents'
// next epoch overlaps the disk, and with it the analysis of the epochs
// already final. The sink comes first, so that no verdict waits behind the
// cycle-end or the commit; the settling epoch's analysis is usually done by
// then. DESIGN.md, "Checkpoint format and crash recovery", argues the crash
// at each arrow. When Close lands while the settle waits for its analysis,
// it does nothing past the wait, and since the collector has stopped, no
// later cycle settles on that analysis.
func (c *NetCollector) endCycle(done cycleDone) {
	c.an.feed(&done)
	c.at(beforeSink, done.cycle)
	if done.settled && !c.settle(done) {
		return
	}
	c.at(beforeCycleEnd, done.cycle)
	var perSess map[uint64][]transport.RetryReq
	for _, q := range done.retries {
		// Missing identities come from session tokens, so the agent is known.
		if perSess == nil {
			perSess = make(map[uint64][]transport.RetryReq)
		}
		sess := c.agentSess[q.Agent]
		perSess[sess] = append(perSess[sess], q)
	}
	for sess := range c.sessSeen {
		c.srv.SendCycleEnd(sess, transport.CycleEnd{Cycle: done.cycle, Retries: perSess[sess]})
	}
	c.at(beforeCommit, done.cycle)
	if done.settled {
		if err := c.commit(done.epoch); err != nil {
			c.stop(err)
			return
		}
	}
	c.at(afterCommit, done.cycle)
}

// settle delivers epoch done.epoch, built on the summary its token carried,
// to the sink. The settle is committed after this, so across collector
// incarnations delivery is at-least-once: a crash before the commit
// re-settles the epoch from replay and the sink sees it again, dedupable by
// epoch; a crash after it finds the epoch durably behind the watermark. It
// reports false when Close ends the wait for the epoch's analysis.
func (c *NetCollector) settle(done cycleDone) bool {
	sum := c.summaries[done.epoch]
	delete(c.summaries, done.epoch)
	if !done.live {
		return true
	}
	if sum == nil {
		panic("ingest: live epoch settled without a summary token")
	}
	out := &engine.EpochResult{
		Epoch:       int(sum.Epoch),
		TotalFlows:  int(sum.TotalFlows),
		FailedFlows: int(sum.FailedFlows),
		TotalDrops:  int(sum.TotalDrops),
	}
	if sum.HasFailed {
		out.FailedLinks = sum.FailedLinks
		if out.FailedLinks == nil {
			out.FailedLinks = []topology.LinkID{}
		}
	}
	if sum.HasTruth {
		out.Truth = make(map[int64]metrics.FlowTruth, len(sum.Truth))
		for _, te := range sum.Truth {
			out.Truth[te.FlowID] = metrics.FlowTruth{Culprit: te.Culprit, CrossedFailure: te.CrossedFailure}
		}
	}
	an, ok := c.an.result(c.quit)
	if !ok {
		return false
	}
	deliver(out, done.accepted, an, c.cfg.Counters, c.cfg.Sink)
	return true
}

// commit makes epoch e's settle durable: checkpoint, then durable acks up to
// each session's token for the epoch. A drain cycle's epoch commits too, so
// the drain tokens are durably acked.
func (c *NetCollector) commit(e int32) error {
	clear(c.marks)
	for sess := range c.sessSeen {
		if seq, ok := c.tokenSeq[tokenKey{e, sess}]; ok {
			c.marks[sess] = seq
			delete(c.tokenSeq, tokenKey{e, sess})
		}
	}
	if err := c.srv.Commit(int64(e), c.marks); err != nil {
		return fmt.Errorf("ingest: checkpoint after epoch %d: %w", e, err)
	}
	return nil
}
