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
// The source drives the engine one epoch (one "cycle") at a time through
// the Step seam. Each report the engine emits has its fate decided on the
// spot by the seeded fault layer (faults.go) and, unless it is lost or
// held back, goes straight into the settle core (core.go); a duplicated
// one goes in twice. A delayed report waits in its lane's holdback until
// its release cycle. After the epoch's reports the cycle closes one lane
// at a time — an agent always maps to the same lane — with the lane's due
// holdbacks released in identity order and then the lane's token, which
// carries the epoch's expected report counts for the lane's agents. Tokens
// are reliable (the fault layer never touches them), which is what turns
// "did everything arrive?" into a local, per-agent comparison. The core
// runs gap detection, duplicate suppression, the late-report grace window
// and bounded retry re-requests, which the loop retransmits at the start
// of the next cycle, and settles epoch x once every lane's token for cycle
// x+Grace is in — the watermark. Epochs are analyzed over canonically
// ordered accepted reports through the same engine.Analysis() options
// batch RunEpoch uses, on the service's one analysis goroutine: as soon as
// an epoch is final (its tokens are in and it has no gaps, so nothing can
// join it before settle), while the next cycles run, or at settle if it
// never becomes final. The sink receives each result at settle, in epoch
// order, on Run's goroutine.
//
// Determinism: every fault decision is a pure function of report identity,
// and all settle state is per-(agent, epoch) — so neither the lane count
// nor the order in which agents' reports interleave can change which
// reports settle into which epoch, and a seeded chaos run's settled results
// and fault counters are reproducible. With faults disabled the accepted
// set of each epoch is exactly the engine's report set, making settled
// epochs bit-identical to batch RunEpoch at any parallelism — the service's
// core contract.
//
// The networked NetCollector (net.go) drives the same settle core from
// transport sessions instead of lanes, in the same shape: each session's
// reader hands its reports and tokens to the core itself, one reader at a
// time, and the one whose token completes a cycle runs the cycle's end.
// Neither collector hands a report to another goroutine on its way to the
// core, and the analyst is the only goroutine either starts.
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
	"vigil/internal/topology"
	"vigil/internal/transport"
	"vigil/internal/vote"
)

// Config parametrizes the service.
type Config struct {
	// Engine is the epoch driver; required. The service owns its epoch
	// loop from Run on — inject failures and schedules before running.
	Engine engine.Engine
	// Grace is the watermark lag in epochs: epoch x settles once every
	// lane's token for cycle x+Grace is in, so reports up to Grace epochs
	// late still count. 0 means the default of 2.
	Grace int
	// Lanes is the number of token sources and holdback queues agents hash
	// onto; no goroutine runs per lane. It changes nothing observable: the
	// settled results and every counter are the same at any lane count.
	// 0 means the default of 4.
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

// heldReport is a delayed transmission parked in its lane's holdback until
// its release cycle.
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
	lanes  int
	core   *settleCore              // one source per lane
	held   [][]heldReport           // per lane: delayed reports not yet released
	counts [][]transport.AgentCount // closeCycle's per-lane token counts, reused
	an     *analyst                 // started by Run with the engine's analysis options

	// ring holds the last Grace+2 epochs' Step results: settle reads ground
	// truth from it, the source re-reads reports from it for
	// retransmissions. Entry e is written before cycle e's tokens and read
	// only while e is within the watermark window.
	ring []*engine.EpochResult

	pendingRetries []transport.RetryReq
	epochsRun      int
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
	if cfg.Lanes < 0 {
		return nil, fmt.Errorf("ingest: negative Lanes (%d)", cfg.Lanes)
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
	s.lanes = cmp.Or(cfg.Lanes, 4)
	s.core = newSettleCore(s.lanes, s.grace, s.cfg.MaxRetries, s.ctr, -1)
	s.held = make([][]heldReport, s.lanes)
	s.counts = make([][]transport.AgentCount, s.lanes)
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

	cycle := int32(0)
	for (epochs <= 0 || int(cycle) < epochs) && ctx.Err() == nil {
		if s.cfg.Interval > 0 && cycle > 0 {
			select {
			case <-time.After(s.cfg.Interval):
			case <-ctx.Done():
			}
			if ctx.Err() != nil {
				break
			}
		}
		s.emitRetries()
		res := s.cfg.Engine.Step(func(r vote.Report) { s.route(r, 0) })
		s.ring[int(cycle)%len(s.ring)] = res
		s.closeCycle(cycle, res.Reports, true)
		cycle++
	}
	s.epochsRun = int(cycle)

	// Drain: enough empty cycles that every holdback's release cycle
	// passes and the watermark crosses every started epoch. Retries still
	// flow, so a gap detected in the final epoch gets its re-requests.
	for d := 0; d < s.grace+s.cfg.Faults.delayMax()+1; d++ {
		s.emitRetries()
		s.closeCycle(cycle, nil, false)
		cycle++
	}
	return ctx.Err()
}

// laneOf maps an agent to its lane; stable, so an agent's holdbacks and
// counts always share a lane.
func (s *Service) laneOf(agent topology.HostID) int { return int(agent) % s.lanes }

// route decides one transmission's fate (faults.go) and acts on it: a lost
// one is counted, a delayed one is parked in its lane's holdback, and the
// rest go straight into the settle core — a duplicated one twice.
func (s *Service) route(r vote.Report, attempt uint8) {
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
		l := s.laneOf(r.Src)
		s.held[l] = append(s.held[l], heldReport{release: r.Epoch + int32(ft.delay), r: r, attempt: attempt})
	default:
		s.core.report(r, attempt, false)
		if ft.duplicate {
			s.ctr.InjDuplicates.Add(1)
			s.core.report(r, attempt, false)
		}
	}
}

// emitRetries retransmits the re-requests the previous cycle's end issued,
// reading each report back from the ring.
func (s *Service) emitRetries() {
	for _, req := range s.pendingRetries {
		if r, ok := lookupReport(s.ring, req); ok {
			s.route(r, req.Attempt)
		}
	}
	s.pendingRetries = nil
}

// lookupReport finds the report a re-request names in a ring of Step
// results — shared by the in-process source and the networked agent for
// retransmissions.
func lookupReport(ring []*engine.EpochResult, id transport.RetryReq) (vote.Report, bool) {
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

// closeCycle ends cycle c on every lane in turn — the lane's due holdbacks,
// then its token with the lane's per-agent expected counts, computed from
// the epoch's canonical report list (agents are contiguous runs) — and
// runs the cycle's end once the last token completes it, keeping the
// re-requests for the next cycle.
func (s *Service) closeCycle(cycle int32, reports []vote.Report, live bool) {
	perLane := s.counts
	for l := range perLane {
		perLane[l] = perLane[l][:0]
	}
	for i := 0; i < len(reports); {
		j := i
		for j < len(reports) && reports[j].Src == reports[i].Src {
			j++
		}
		l := s.laneOf(reports[i].Src)
		perLane[l] = append(perLane[l], transport.AgentCount{Agent: reports[i].Src, N: int32(j - i)})
		i = j
	}
	for l := range perLane {
		s.held[l] = s.releaseDue(s.held[l], cycle)
		s.core.token(cycle, live, perLane[l])
	}
	for done, ok := s.core.next(); ok; done, ok = s.core.next() {
		s.pendingRetries = s.endCycle(done)
	}
}

// releaseDue hands the settle core every holdback in held due by cycle c,
// in identity order so the release sequence is deterministic, and returns
// the rest. The due ones are swapped to the back of held and released from
// there, so a release allocates nothing.
func (s *Service) releaseDue(held []heldReport, c int32) []heldReport {
	n := len(held)
	for i := 0; i < n; {
		if held[i].release <= c {
			n--
			held[i], held[n] = held[n], held[i]
		} else {
			i++
		}
	}
	due := held[n:]
	slices.SortFunc(due, func(x, y heldReport) int {
		a, b := x.r, y.r
		return cmp.Or(cmp.Compare(a.Epoch, b.Epoch), cmp.Compare(a.Src, b.Src), cmp.Compare(a.Seq, b.Seq))
	})
	for _, h := range due {
		s.core.report(h.r, h.attempt, true)
	}
	clear(due) // drop the path references
	return held[:n]
}

// endCycle runs once every lane's token for a cycle is in: the epochs it
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
		v, _ := s.an.result(nil)
		deliver(&out, done.accepted, v, s.ctr, s.cfg.Sink)
	}
	return done.retries
}

// verdicts is the part of an epoch's analysis a settle delivers.
type verdicts struct {
	ranking  []vote.LinkVotes
	detected []topology.LinkID
	verdicts []vote.Verdict
}

// analyst is a collector's analysis stage: one goroutine that runs every
// Analyze of the collector, in epoch order, so that an options Adjuster
// with per-call state is never used by two goroutines at once. An epoch is
// posted as soon as the core reports it final, and analyzed while later
// cycles run; one that is not final by its settle is posted then. Each
// result is picked up at its epoch's settle, where the sink runs, so
// nothing downstream of the collector sees a different order. Posted and
// unsettled epochs never number more than Grace+1, and both channels hold
// Grace+2, so neither side ever blocks on a send.
type analyst struct {
	opts    analysis.Options
	jobs    chan []vote.Report
	results chan verdicts
	quit    chan struct{}
	done    chan struct{} // closed when the goroutine has returned
}

func startAnalyst(opts analysis.Options, grace int) *analyst {
	a := &analyst{
		opts: opts, jobs: make(chan []vote.Report, grace+2), results: make(chan verdicts, grace+2),
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
			an := analysis.Analyze(accepted, a.opts)
			select {
			case a.results <- verdicts{an.Ranking, an.Detected, an.Verdicts}:
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
func (a *analyst) result(abandon <-chan struct{}) (verdicts, bool) {
	select {
	case v := <-a.results:
		return v, true
	case <-abandon:
		return verdicts{}, false
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
// truth, accepted is what the core let through, in canonical order, and v
// is its analysis with the options batch RunEpoch uses — and hands it to
// the sink. Both collectors settle through here.
func deliver(out *engine.EpochResult, accepted []vote.Report, v verdicts, ctr *metrics.IngestCounters, sink func(*engine.EpochResult)) {
	out.Reports, out.Ranking, out.Detected, out.Verdicts = accepted, v.ranking, v.detected, v.verdicts
	ctr.SettledEpochs.Add(1)
	ctr.DetectedLinks.Add(int64(len(out.Detected)))
	ctr.Verdicts.Add(int64(len(out.Verdicts)))
	if sink != nil {
		sink(out)
	}
}
