// Package ingest is vigild's streaming boundary: a long-running service
// that wraps an engine.Engine behind per-agent sequenced channels, settles
// epochs on a watermark, and survives lossy, late, and lying agents.
//
// The pipeline has three stages connected by bounded channels:
//
//	source ──► lanes (fault layer, holdback) ──► collector ──► sink
//
// The source drives the engine one epoch (one "cycle") at a time through
// the Step seam, routing each report to its agent's lane — an agent always
// maps to the same lane, so per-agent FIFO order is a channel property.
// After the epoch's reports it pushes one token per lane carrying the
// epoch's per-agent expected report counts; tokens are reliable (the fault
// layer never touches them), which is what turns "did everything arrive?"
// into a local, per-agent comparison. The channels carry bursts of items
// rather than single items (burstSize); a cycle's token ends a burst, so
// nothing ever waits for one to fill. Lanes apply the seeded fault layer
// (faults.go) and hold delayed reports back until their release cycle. The
// collector runs gap detection, duplicate suppression, the late-report
// grace window, and bounded retry re-requests (fed back to the source
// in-band with the lockstep cycle handshake), and settles epoch x when
// every lane's token for cycle x+Grace has been processed — the watermark.
// Epochs are analyzed over canonically ordered accepted reports through the
// same engine.Analysis() options batch RunEpoch uses, on the collector's
// one analysis goroutine: as soon as an epoch is final (its tokens are in
// and it has no gaps, so nothing can join it before settle), while the
// next cycles run, or at settle if it never becomes final. The sink still
// receives each result at settle, in epoch order, before the cycle ends.
//
// Determinism: the source waits for the collector's end-of-cycle handshake
// before starting the next epoch, every fault decision is a pure function
// of report identity, and all collector state is per-(agent, epoch) — so
// cross-agent arrival interleaving cannot change which reports settle into
// which epoch, and a seeded chaos run's settled results and fault counters
// are reproducible. With faults disabled the accepted set of each epoch is
// exactly the engine's report set, making settled epochs bit-identical to
// batch RunEpoch at any parallelism — the service's core contract.
package ingest

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
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
	// lane's token for cycle x+Grace has been processed, so reports up to
	// Grace epochs late still count. 0 means the default of 2.
	Grace int
	// Lanes is the number of per-agent FIFO lanes (agents hash onto
	// lanes). 0 means the default of 4.
	Lanes int
	// LaneDepth and QueueDepth bound the source→lane and lane→collector
	// channels, in items, rounded up to whole bursts; full channels exert
	// backpressure all the way into the engine. 0 means 256 and 1024.
	LaneDepth, QueueDepth int
	// MaxRetries bounds gap re-requests per epoch; 0 disables retries
	// (every injected drop becomes an observed loss — the configuration
	// the fault-counter agreement tests use). Values above 255 are
	// capped there: the attempt number travels as a uint8 through the
	// retry path and the fault-identity hash, and a wrap at attempt 256
	// would alias a retry back onto a first attempt.
	MaxRetries int
	// RetryBackoff spaces successive re-requests of the same epoch, in
	// epochs (linear backoff: attempt k waits 1 + (k-1)*RetryBackoff
	// cycles). 0 means 1.
	RetryBackoff int
	// ShedPathsOnPressure enables graceful degradation: when the
	// collector queue is full, a lane strips the traceroute paths (the
	// expensive payload) of the burst it could not queue and delivers the
	// bare votes with a blocking send — traceroute budget is shed before
	// votes, and votes are never shed at all (only injected faults lose
	// votes). Off by default because shedding depends on scheduling, which
	// would break the fault-free bit-identical contract.
	ShedPathsOnPressure bool
	// Interval, when positive, paces the epoch loop on the wall clock —
	// the live-service mode. Zero runs epochs back to back.
	Interval time.Duration
	// Faults configures the chaos layer; the zero value injects nothing.
	Faults FaultConfig
	// Sink receives each settled epoch, in epoch order, on the collector
	// goroutine. Optional.
	Sink func(*engine.EpochResult)
	// Counters receives the service's observable state; one is allocated
	// when nil. Read it live via Service.Counters.
	Counters *metrics.IngestCounters
}

// itemKind tags pipeline items.
type itemKind uint8

const (
	itemReport itemKind = iota
	// itemToken marks the end of a cycle on a lane. Tokens are reliable
	// and carry the cycle's per-agent expected counts for the lane's
	// agents; a token with live=false is a drain cycle (no engine epoch).
	itemToken
)

// burstSize is how many items ride one channel send. The pipeline's
// channels carry bursts, not single items: a goroutine hand-off per report
// cost more than everything else the lanes do, and on more than one CPU
// its price swung by half with how the scheduler happened to place the
// stages.
const burstSize = 128

// burstsFor turns a queue depth in items into a channel capacity in bursts.
func burstsFor(depth int) int { return (depth + burstSize - 1) / burstSize }

// item is one unit on a lane: a (possibly retried) report or a token.
type item struct {
	kind    itemKind
	r       vote.Report
	attempt uint8
	delayed bool
	cycle   int32
	live    bool
	counts  []transport.AgentCount
}

// Service is the running ingest pipeline. Build with New, drive with Run.
type Service struct {
	cfg    Config
	ctr    *metrics.IngestCounters
	grace  int
	lanes  int
	laneIn []chan []item
	toCol  chan []item
	stage  [][]item                 // the source's burst under construction, per lane
	spent  chan []item              // emptied bursts on their way back to the stages that fill them
	counts [][]transport.AgentCount // closeCycle's per-lane token counts, reused
	// cycleEnd is the collector→source lockstep handshake: the collector has
	// processed every lane's token for the cycle, and these re-requests are
	// due for retransmission next cycle.
	cycleEnd chan []transport.RetryReq
	laneWG   sync.WaitGroup // the lane goroutines; gates closing toCol
	wg       sync.WaitGroup // the collector, which stops the analyst before it exits
	an       *analyst       // started by Run with the engine's analysis options

	// ring holds the last Grace+2 epochs' Step results: the collector
	// reads ground truth from it at settle, the source re-reads reports
	// from it for retransmissions. Synchronized by the token chain: entry
	// e is written before cycle e's tokens and read only while e is
	// within the watermark window.
	ring []*engine.EpochResult

	pendingRetries []transport.RetryReq
	epochsRun      int
}

// New validates the configuration and builds a service.
func New(cfg Config) (*Service, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("ingest: Config.Engine is required")
	}
	if cfg.Grace < 0 || cfg.Lanes < 0 || cfg.MaxRetries < 0 || cfg.RetryBackoff < 0 {
		return nil, fmt.Errorf("ingest: negative Grace/Lanes/MaxRetries/RetryBackoff")
	}
	if cfg.Faults.Drop < 0 || cfg.Faults.Drop > 1 || cfg.Faults.Duplicate < 0 || cfg.Faults.Duplicate > 1 ||
		cfg.Faults.Delay < 0 || cfg.Faults.Delay > 1 || cfg.Faults.Burst < 0 || cfg.Faults.Burst > 1 ||
		cfg.Faults.Crash < 0 || cfg.Faults.Crash > 1 {
		return nil, fmt.Errorf("ingest: fault probabilities must be in [0, 1]")
	}
	if cfg.MaxRetries > 255 {
		// attempt is a uint8 end to end (retryReq, item, the fault
		// identity); more than 255 rounds would wrap attempt numbers onto
		// first attempts. Nothing sane retries an epoch 255 times, so cap
		// rather than reject.
		cfg.MaxRetries = 255
	}
	s := &Service{cfg: cfg, ctr: cfg.Counters}
	if s.ctr == nil {
		s.ctr = &metrics.IngestCounters{}
	}
	s.grace = cmp.Or(cfg.Grace, 2)
	s.lanes = cmp.Or(cfg.Lanes, 4)
	s.laneIn = make([]chan []item, s.lanes)
	for i := range s.laneIn {
		s.laneIn[i] = make(chan []item, burstsFor(cmp.Or(cfg.LaneDepth, 256)))
	}
	s.toCol = make(chan []item, burstsFor(cmp.Or(cfg.QueueDepth, 1024)))
	s.stage = make([][]item, s.lanes)
	s.counts = make([][]transport.AgentCount, s.lanes)
	// Room for every burst that can exist at once: queued, being staged by
	// the source, and being filled by a lane.
	s.spent = make(chan []item, s.lanes*cap(s.laneIn[0])+cap(s.toCol)+2*s.lanes)
	s.cycleEnd = make(chan []transport.RetryReq, 1)
	s.ring = make([]*engine.EpochResult, s.grace+2)
	return s, nil
}

// Counters returns the live counters; safe to read while Run is active.
func (s *Service) Counters() *metrics.IngestCounters { return s.ctr }

// Run drives the service: epochs engine epochs (<= 0 means until ctx is
// canceled), then a drain of Grace+DelayMax+1 empty cycles so every
// holdback releases and every epoch settles through the normal watermark
// machinery, then a clean stop. It blocks until the pipeline has fully
// shut down; every started epoch is settled and delivered to the sink
// before it returns. Returns ctx.Err when canceled early, nil otherwise.
func (s *Service) Run(ctx context.Context, epochs int) error {
	for i := range s.laneIn {
		s.laneWG.Add(1)
		go s.lane(i)
	}
	s.an = startAnalyst(s.cfg.Engine.Analysis(), s.grace)
	s.wg.Add(1)
	go s.collector()

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
	for _, ch := range s.laneIn {
		close(ch)
	}
	s.laneWG.Wait()
	close(s.toCol)
	s.wg.Wait()
	return ctx.Err()
}

// newBurst returns an empty burst, a spent one when there is one.
func (s *Service) newBurst() []item {
	select {
	case b := <-s.spent:
		return b
	default:
		return make([]item, 0, burstSize)
	}
}

// recycle takes back a burst whose items have all been handled. Bursts are
// reused rather than left to the collector because they are most of what
// the pipeline would allocate, and GC cycles are most of what makes one
// cycle's duration differ from the next.
func (s *Service) recycle(b []item) {
	clear(b) // drop the path and count references
	select {
	case s.spent <- b[:0]:
	default:
	}
}

// laneOf maps an agent to its lane; stable, so per-agent order is FIFO.
func (s *Service) laneOf(agent topology.HostID) int { return int(agent) % s.lanes }

// route sends one transmission into its agent's lane. A full lane blocks —
// backpressure propagates into the engine's emit callback.
func (s *Service) route(r vote.Report, attempt uint8) {
	s.stageItem(s.laneOf(r.Src), item{kind: itemReport, r: r, attempt: attempt})
}

// stageItem appends one item to its lane's burst and sends the burst when
// it is full or ends in a token, so a cycle's last burst never waits.
func (s *Service) stageItem(lane int, it item) {
	b := s.stage[lane]
	if b == nil {
		b = s.newBurst()
	}
	b = append(b, it)
	if len(b) >= burstSize || it.kind == itemToken {
		s.laneIn[lane] <- b
		b = nil
	}
	s.stage[lane] = b
}

// emitRetries retransmits the re-requests the collector issued at the end
// of the previous cycle, reading each report back from the ring.
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

// closeCycle ends cycle c on every lane — per-agent expected counts split
// by lane, computed from the epoch's canonical report list (agents are
// contiguous runs) — then waits for the collector's end-of-cycle handshake
// and keeps the re-requests it carries for the next cycle.
func (s *Service) closeCycle(cycle int32, reports []vote.Report, live bool) {
	// The collector has consumed the previous cycle's tokens before its
	// cycle end let this call start, so their count slices are free again.
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
	for l := range s.laneIn {
		s.stageItem(l, item{kind: itemToken, cycle: cycle, live: live, counts: perLane[l]})
	}
	s.pendingRetries = <-s.cycleEnd
}

// heldItem is a delayed transmission parked in a lane until its release
// cycle.
type heldItem struct {
	release int32
	it      item
}

// lane is the fault-and-holdback stage for one shard of agents. All fault
// decisions are pure functions of report identity (faults.go), so lanes
// need no RNG state and runs are reproducible whatever the scheduler does.
// Each burst that comes in goes out as one burst, in the same order.
func (s *Service) lane(idx int) {
	defer s.laneWG.Done()
	var held []heldItem
	for in := range s.laneIn[idx] {
		out := s.newBurst()
		for _, it := range in {
			if it.kind == itemToken {
				out, held = releaseDue(out, held, it.cycle)
				out = append(out, it)
				continue
			}
			ft := s.cfg.Faults.reportFate(it.r, int(it.attempt))
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
				it.delayed = true
				held = append(held, heldItem{release: it.r.Epoch + int32(ft.delay), it: it})
			default:
				out = append(out, it)
				if ft.duplicate {
					s.ctr.InjDuplicates.Add(1)
					out = append(out, it)
				}
			}
		}
		s.recycle(in)
		if len(out) > 0 {
			s.forward(out)
		} else {
			s.recycle(out)
		}
	}
}

// releaseDue appends every holdback due by cycle c to out, in identity
// order so the release sequence is deterministic, and returns out and the
// remaining held items. The due ones are swapped to the back of held and
// released from there, so a release allocates nothing.
func releaseDue(out []item, held []heldItem, c int32) ([]item, []heldItem) {
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
	slices.SortFunc(due, func(x, y heldItem) int {
		a, b := x.it.r, y.it.r
		return cmp.Or(cmp.Compare(a.Epoch, b.Epoch), cmp.Compare(a.Src, b.Src), cmp.Compare(a.Seq, b.Seq))
	})
	for _, h := range due {
		out = append(out, h.it)
	}
	clear(due) // drop the path references
	return out, held[:n]
}

// forward hands a burst to the collector. Under ShedPathsOnPressure a full
// queue degrades gracefully: the burst's traceroute paths are stripped (and
// its reports marked partial) so the votes themselves still go through
// with a blocking send — paths are shed before votes, votes never shed at
// all.
func (s *Service) forward(burst []item) {
	if s.cfg.ShedPathsOnPressure {
		select {
		case s.toCol <- burst:
			return
		default:
			for i := range burst {
				if it := &burst[i]; it.kind == itemReport {
					s.ctr.ShedPaths.Add(1)
					it.r.Path = nil
					it.r.Partial = true
				}
			}
		}
	}
	s.toCol <- burst
}

// collector is the settle stage: it drains the merged lane queue into the
// settle core — one source per lane — and, as cycles complete, settles
// against the ring's ground truth and hands the lockstep baton (with the
// due re-requests) back to the source.
func (s *Service) collector() {
	defer s.wg.Done()
	defer s.an.stop()
	core := newSettleCore(s.lanes, s.grace, s.cfg.MaxRetries, cmp.Or(s.cfg.RetryBackoff, 1), s.ctr, -1)
	for burst := range s.toCol {
		for i := range burst {
			it := &burst[i]
			if it.kind == itemReport {
				core.report(it.r, it.attempt, it.delayed)
				continue
			}
			core.token(it.cycle, it.live, it.counts)
			for done, ok := core.next(); ok; done, ok = core.next() {
				s.endCycle(done)
			}
		}
		s.recycle(burst)
	}
}

// endCycle runs once all lanes' tokens for a cycle are in: the epochs it
// made ready go to the analyst, and the settling one, analyzed, to the sink.
func (s *Service) endCycle(done cycleDone) {
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
	// Queued bursts. The lockstep has drained every queue by now, so this
	// reads zero unless something upstream broke the handshake.
	depth := len(s.toCol)
	for _, ch := range s.laneIn {
		depth += len(ch)
	}
	s.ctr.QueueDepth.Store(int64(depth))
	s.cycleEnd <- done.retries
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
// once it has exited.
func (a *analyst) stop() {
	close(a.quit)
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
