// Package ingest is vigild's streaming boundary: a long-running service
// that wraps an engine.Engine behind per-agent sequenced report streams,
// settles epochs on a watermark, and survives lossy, late, and lying agents.
//
// The in-process Service is one loop on Run's goroutine, plus the
// analyst's:
//
//	source ──► fate (fault layer, holdback) ──► settle core ──► sink
//	                                                 └──► analyst (Analyze)
//
// The source is the agent side of the lockstep cycle, runCycles, which
// RunAgent runs too: it drives the engine one epoch (one "cycle") at a
// time through the Step seam, sends each report the engine emits to its
// link, closes the cycle, and answers the cycle end's re-requests at the
// start of the next. The Service is its own link. Each report it is sent
// has its fate decided on the spot by the seeded fault layer (faults.go)
// and, unless it is lost or held back, goes straight into the settle core
// (core.go); a duplicated one goes in twice. A delayed report waits in the
// holdback until its release cycle. Closing a cycle releases the due
// holdbacks in the order they were sent and then hands the core the
// cycle's token, which carries the epoch's expected report count of every
// agent. Tokens are reliable (the fault layer never touches them), which
// is what turns "did everything arrive?" into a local, per-agent
// comparison. The core runs gap detection, duplicate suppression, the
// late-report grace window and bounded retry re-requests, and settles
// epoch x once the token for cycle x+Grace is in — the watermark. Epochs
// are analyzed over canonically ordered accepted reports through the same
// engine.Analysis() options batch RunEpoch uses, on the service's one
// analysis goroutine: as soon as an epoch is final (its token is in and it
// has no gaps, so nothing can join it before settle), while the next
// cycles run, or at settle if it never becomes final. The sink receives
// each result at settle, in epoch order, on Run's goroutine.
//
// Determinism: every fault decision is a pure function of report identity,
// and all settle state is per-(agent, epoch) — so the order in which
// agents' reports interleave cannot change which reports settle into which
// epoch, and a seeded chaos run's settled results and fault counters are
// reproducible. With faults disabled the accepted set of each epoch is
// exactly the engine's report set, making settled epochs bit-identical to
// batch RunEpoch at any parallelism — the service's core contract.
//
// The networked NetCollector (net.go) drives the same settle core from
// transport sessions, one token source per session, in the same shape:
// each session's reader hands its reports and tokens to the core itself,
// one reader at a time, and the one whose token completes a cycle runs the
// cycle's end. Neither collector hands a report to another goroutine on
// its way to the core, and the analyst is the only goroutine either
// starts.
package ingest

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"vigil/internal/analysis"
	"vigil/internal/engine"
	"vigil/internal/metrics"
	"vigil/internal/transport"
	"vigil/internal/vote"
)

// Config parametrizes the service.
type Config struct {
	// Engine is the epoch driver; required. The service owns its epoch
	// loop from Run on — inject failures and schedules before running.
	Engine engine.Engine
	// Grace is the watermark lag in epochs: epoch x settles once the token
	// for cycle x+Grace is in, so reports up to Grace epochs late still
	// count. 0 means the default of 2.
	Grace int
	// Lanes is accepted and ignored: the service has one token source and
	// one holdback. The field stays because bench/ sets it; the next
	// change to bench/ can drop it with CollectorConfig.Parallelism.
	Lanes int
	// MaxRetries bounds gap re-requests per epoch; 0 disables retries
	// (every injected drop becomes an observed loss — the configuration
	// the fault-counter agreement tests use). An epoch's re-request round
	// k+1 waits k cycles after round k. Values above 255 are capped there
	// (see settleParams).
	MaxRetries int
	// Interval, when positive, paces the epoch loop on the wall clock —
	// the live-service mode. Zero runs epochs back to back.
	Interval time.Duration
	// Faults configures the chaos layer; the zero value injects nothing.
	Faults FaultConfig
	// Sink receives each settled epoch, in epoch order, on Run's
	// goroutine: the next epoch's Step waits for it. Optional.
	Sink func(*engine.EpochResult)
	// Counters receives the service's observable state; one is allocated
	// when nil. Read it live via Service.Counters.
	Counters *metrics.IngestCounters
}

// settleParams validates and resolves the settle knobs that New,
// ServeCollector and RunAgent all take, so the three agree on what is
// valid: a negative Grace or MaxRetries is an error, Grace 0 means 2, and
// MaxRetries is capped at 255 — the attempt number travels as a uint8
// through the retry path and the fault-identity hash, and a wrap at
// attempt 256 would alias a retry onto a first attempt. Nothing sane
// retries an epoch 255 times, so it caps rather than rejects.
func settleParams(grace, maxRetries int) (int, int, error) {
	if grace < 0 || maxRetries < 0 {
		return 0, 0, fmt.Errorf("ingest: negative Grace (%d) or MaxRetries (%d)", grace, maxRetries)
	}
	return cmp.Or(grace, 2), min(maxRetries, 255), nil
}

// cycleLink is the collector as the agent side of the lockstep cycle sees
// it: RunAgent's is the transport client, and the in-process Service is
// its own.
type cycleLink interface {
	// send transmits one report; attempt is the re-request round it
	// answers (0 for a first transmission).
	send(r vote.Report, attempt uint8) error
	// closeCycle ends the cycle — res is its engine epoch, nil for a drain
	// cycle — and returns the re-requests the cycle's end issued, which the
	// next cycle answers first.
	closeCycle(cycle int32, res *engine.EpochResult) ([]transport.RetryReq, error)
}

// runCycles is the agent side of the lockstep cycle, the one loop both
// RunAgent and the Service run. Each cycle answers the re-requests the
// previous cycle's end returned, reading the reports back from ring; a
// live cycle then steps the engine, sending each report as it is emitted,
// and records the result in ring; every cycle then closes. Live cycles run
// until epochs of them have run (epochs <= 0: until ctx ends) or ctx ends,
// interval apart when interval is positive; drain empty cycles follow
// whatever ctx says, so every started epoch crosses the watermark and a
// gap in the last ones still gets its re-requests. A link error ends the
// loop at once and is returned. Otherwise runCycles returns the number of
// live cycles and ctx.Err().
func runCycles(ctx context.Context, eng engine.Engine, l cycleLink, ring []*engine.EpochResult, epochs, drain int, interval time.Duration) (int, error) {
	var retries []transport.RetryReq
	var sendErr error
	emit := func(r vote.Report) {
		if sendErr == nil {
			sendErr = l.send(r, 0)
		}
	}
	run := func(cycle int32, live bool) error {
		for _, q := range retries {
			if r, ok := lookupReport(ring, q); ok {
				if err := l.send(r, q.Attempt); err != nil {
					return err
				}
			}
		}
		var res *engine.EpochResult
		if live {
			res = eng.Step(emit)
			if sendErr != nil {
				return sendErr
			}
			ring[int(cycle)%len(ring)] = res
		}
		var err error
		retries, err = l.closeCycle(cycle, res)
		return err
	}

	cycle := int32(0)
	for (epochs <= 0 || int(cycle) < epochs) && ctx.Err() == nil {
		if interval > 0 && cycle > 0 {
			select {
			case <-time.After(interval):
			case <-ctx.Done():
			}
			if ctx.Err() != nil {
				break
			}
		}
		if err := run(cycle, true); err != nil {
			return int(cycle), err
		}
		cycle++
	}
	live := int(cycle)
	for d := 0; d < drain; d++ {
		if err := run(cycle, false); err != nil {
			return live, err
		}
		cycle++
	}
	return live, ctx.Err()
}

// lookupReport finds the report a re-request names in a ring of Step
// results — how runCycles reads back what it re-sends. A re-request for
// an epoch the ring does not hold, a negative one included, finds nothing.
func lookupReport(ring []*engine.EpochResult, id transport.RetryReq) (vote.Report, bool) {
	if id.Epoch < 0 {
		return vote.Report{}, false
	}
	res := ring[int(id.Epoch)%len(ring)]
	if res == nil || res.Epoch != int(id.Epoch) {
		return vote.Report{}, false
	}
	i, ok := slices.BinarySearchFunc(res.Reports, id, func(r vote.Report, id transport.RetryReq) int {
		return cmp.Or(cmp.Compare(r.Src, id.Agent), cmp.Compare(r.Seq, id.Seq))
	})
	if !ok {
		return vote.Report{}, false
	}
	return res.Reports[i], true
}

// agentCounts appends the per-agent report counts of a canonically ordered
// report list, where each agent's reports are one contiguous run, to dst
// in one pass: the reports are read once on the verdict path, so a caller
// that must not grow dst sizes it beforehand.
func agentCounts(dst []transport.AgentCount, reports []vote.Report) []transport.AgentCount {
	for i := 0; i < len(reports); {
		j := i + 1
		for j < len(reports) && reports[j].Src == reports[i].Src {
			j++
		}
		dst = append(dst, transport.AgentCount{Agent: reports[i].Src, N: int32(j - i)})
		i = j
	}
	return dst
}

// heldReport is a delayed transmission parked in the holdback until its
// release cycle.
type heldReport struct {
	release int32
	r       vote.Report
	attempt uint8
}

// Service is the running ingest pipeline. Build with New, drive with Run.
type Service struct {
	cfg    Config
	ctr    *metrics.IngestCounters
	grace  int
	core   *settleCore            // one token source
	held   []heldReport           // delayed reports not yet released
	counts []transport.AgentCount // closeCycle's token counts, reused
	an     *analyst               // started by Run with the engine's analysis options

	// ring holds the last Grace+2 epochs' Step results: settle reads ground
	// truth from it, runCycles re-reads reports from it for
	// retransmissions. Entry e is written before cycle e's token and read
	// only while e is within the watermark window.
	ring []*engine.EpochResult

	epochsRun int
}

// New validates the configuration and builds a service.
func New(cfg Config) (*Service, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("ingest: Config.Engine is required")
	}
	grace, maxRetries, err := settleParams(cfg.Grace, cfg.MaxRetries)
	if err != nil {
		return nil, err
	}
	if cfg.Faults.Drop < 0 || cfg.Faults.Drop > 1 || cfg.Faults.Duplicate < 0 || cfg.Faults.Duplicate > 1 ||
		cfg.Faults.Delay < 0 || cfg.Faults.Delay > 1 || cfg.Faults.Burst < 0 || cfg.Faults.Burst > 1 ||
		cfg.Faults.Crash < 0 || cfg.Faults.Crash > 1 {
		return nil, fmt.Errorf("ingest: fault probabilities must be in [0, 1]")
	}
	cfg.MaxRetries = maxRetries
	s := &Service{cfg: cfg, ctr: cfg.Counters}
	if s.ctr == nil {
		s.ctr = &metrics.IngestCounters{}
	}
	s.grace = grace
	s.core = newSettleCore(1, s.grace, s.cfg.MaxRetries, s.ctr, -1)
	s.ring = make([]*engine.EpochResult, s.grace+2)
	return s, nil
}

// Counters returns the live counters; safe to read while Run is active.
func (s *Service) Counters() *metrics.IngestCounters { return s.ctr }

// Run drives the service: epochs engine epochs (<= 0 means until ctx is
// canceled), then a drain of Grace+DelayMax+1 empty cycles so every
// holdback releases and every epoch settles through the normal watermark
// machinery, then a clean stop. Everything but Analyze runs on the
// caller's goroutine; every started epoch is settled and delivered to the
// sink, and the analysis goroutine has exited, before it returns. Returns
// ctx.Err when canceled early, nil otherwise.
func (s *Service) Run(ctx context.Context, epochs int) error {
	s.an = startAnalyst(s.cfg.Engine.Analysis(), s.grace)
	defer s.an.stop()
	var err error
	s.epochsRun, err = runCycles(ctx, s.cfg.Engine, s, s.ring, epochs, s.grace+s.cfg.Faults.delayMax()+1, s.cfg.Interval)
	return err
}

// send decides one transmission's fate (faults.go) and acts on it: a lost
// one is counted, a delayed one is parked in the holdback, and the rest go
// straight into the settle core — a duplicated one twice. It never fails.
func (s *Service) send(r vote.Report, attempt uint8) error {
	ft := s.cfg.Faults.reportFate(r, int(attempt))
	switch {
	case ft.crashed:
		s.ctr.InjCrashDrops.Add(1)
	case ft.burst:
		s.ctr.InjBurstDrops.Add(1)
	case ft.dropped:
		s.ctr.InjDrops.Add(1)
	case ft.delay > 0:
		if ft.delay <= s.grace {
			s.ctr.InjLateInGrace.Add(1)
		} else {
			s.ctr.InjLatePastGrace.Add(1)
		}
		s.held = append(s.held, heldReport{release: r.Epoch + int32(ft.delay), r: r, attempt: attempt})
	default:
		s.core.report(r, attempt, false)
		if ft.duplicate {
			s.ctr.InjDuplicates.Add(1)
			s.core.report(r, attempt, false)
		}
	}
	return nil
}

// closeCycle ends cycle c: the due holdbacks, then the cycle's token with
// every agent's expected count for the epoch (none on a drain cycle), then
// the cycle's end once the token completes it. It returns the re-requests,
// in the core's slice, and never fails.
func (s *Service) closeCycle(cycle int32, res *engine.EpochResult) ([]transport.RetryReq, error) {
	s.releaseDue(cycle)
	s.counts = s.counts[:0]
	if res != nil {
		s.counts = agentCounts(s.counts, res.Reports)
	}
	s.core.token(cycle, res != nil, s.counts)
	var retries []transport.RetryReq
	for done, ok := s.core.next(); ok; done, ok = s.core.next() {
		retries = s.endCycle(done)
	}
	return retries, nil
}

// releaseDue hands the settle core every holdback due by cycle c, in the
// order they were sent, and keeps the rest; it allocates nothing. That
// order is deterministic, and it puts a report's transmissions in attempt
// order, which is the only order that can change an outcome: a retry
// accepted ahead of its first attempt counts as Recovered.
func (s *Service) releaseDue(c int32) {
	kept := s.held[:0]
	for _, h := range s.held {
		if h.release > c {
			kept = append(kept, h)
		} else {
			s.core.report(h.r, h.attempt, true)
		}
	}
	clear(s.held[len(kept):]) // drop the path references
	s.held = kept
}

// endCycle runs once a cycle's token is in: the epochs it
// made ready go to the analyst, and the settling one, analyzed, to the
// sink. It returns the re-requests due next cycle, in the core's slice.
func (s *Service) endCycle(done cycleDone) []transport.RetryReq {
	s.an.feed(&done)
	if done.live {
		res := s.ring[int(done.epoch)%len(s.ring)]
		if res == nil || res.Epoch != int(done.epoch) {
			// Cannot happen while the ring covers the watermark window; guard
			// against misconfiguration rather than emit wrong truth.
			panic("ingest: settled epoch fell out of the ring window")
		}
		out := *res // the engine's Step result: the epoch's ground truth
		an, _ := s.an.result(nil)
		deliver(&out, done.accepted, an, s.ctr, s.cfg.Sink)
	}
	return done.retries
}

// analyst is a collector's analysis stage: one goroutine that runs every
// Analyze of the collector, in epoch order, so that an options Adjuster
// with per-call state is never used by two goroutines at once. Its options
// are the Service's engine's, so on an incremental flow engine each epoch
// patches the analysis of the one before (vote.Streaming); the
// NetCollector's are built from the handshake and carry nothing. An epoch
// is posted as soon as the core reports it final, and analyzed while later
// cycles run; one that is not final by its settle is posted then. Each
// result is picked up at its epoch's settle, where the sink runs, so
// nothing downstream of the collector sees a different order. Posted and
// unsettled epochs never number more than Grace+1, and both channels hold
// Grace+2, so neither side ever blocks on a send.
type analyst struct {
	opts    analysis.Options
	jobs    chan []vote.Report
	results chan *analysis.Result
	quit    chan struct{}
	done    chan struct{} // closed when the goroutine has returned
}

func startAnalyst(opts analysis.Options, grace int) *analyst {
	a := &analyst{
		opts: opts, jobs: make(chan []vote.Report, grace+2), results: make(chan *analysis.Result, grace+2),
		quit: make(chan struct{}), done: make(chan struct{}),
	}
	go a.run()
	return a
}

func (a *analyst) run() {
	defer close(a.done)
	for {
		select {
		case <-a.quit:
			return
		case accepted := <-a.jobs:
			select {
			case a.results <- analysis.Analyze(accepted, a.opts):
			case <-a.quit:
				return
			}
		}
	}
}

// feed posts, in epoch order, the epochs whose accepted set a completed
// cycle fixed.
func (a *analyst) feed(done *cycleDone) {
	for _, f := range done.final {
		select {
		case a.jobs <- f.accepted:
		default:
			// A full queue means more epochs posted than can be unsettled: a
			// core that reports what it must not. Blocking here would deadlock.
			panic("ingest: more epochs posted for analysis than the watermark window holds")
		}
	}
}

// result waits for the oldest posted epoch's analysis, which at a settle is
// the settling epoch's. It gives up, reporting false, when abandon closes
// first (a nil abandon never does).
func (a *analyst) result(abandon <-chan struct{}) (*analysis.Result, bool) {
	select {
	case an := <-a.results:
		return an, true
	case <-abandon:
		return nil, false
	}
}

// stop ends the goroutine, dropping whatever is still posted, and returns
// once it has exited. A second stop returns at once; stops must not race.
func (a *analyst) stop() {
	select {
	case <-a.quit:
	default:
		close(a.quit)
	}
	<-a.done
}

// deliver completes a settled epoch — out arrives carrying its ground
// truth, accepted is what the core let through, in canonical order, and an
// is its analysis with the options batch RunEpoch uses — and hands it to
// the sink. Both collectors settle through here.
func deliver(out *engine.EpochResult, accepted []vote.Report, an *analysis.Result, ctr *metrics.IngestCounters, sink func(*engine.EpochResult)) {
	out.Reports, out.Result = accepted, *an
	ctr.SettledEpochs.Add(1)
	ctr.DetectedLinks.Add(int64(len(out.Detected)))
	ctr.Verdicts.Add(int64(len(out.Verdicts)))
	if sink != nil {
		sink(out)
	}
}
