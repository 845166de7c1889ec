// Package netem is the flow-level network simulator of the paper's §6
// evaluation (the Go equivalent of the authors' MATLAB simulator [25]).
//
// Each epoch it generates flows, resolves their ECMP paths, and samples
// every flow's packet drops: link i sees only the packets that survived
// links 1..i-1, and drops of them a Binomial(survivors, rate_i) share. Good
// links drop at a noise rate drawn uniformly from (0, 1e-6) by default;
// failed links at injected rates. The simulator records complete ground
// truth — which link dropped how many of which flow's packets — against
// which 007 and the optimization baselines are scored.
//
// The per-flow hot path is survival-gated and allocation-free: a single
// uniform draw against the precomputed whole-path survival probability
// pNoDrop = exp(packets · Σ log(1-rate_l)) decides whether the flow loses
// anything at all, and only the rare flow that does falls through to the
// exact per-link conditional Binomial cascade (rejection-resampled until
// nonzero, which leaves the joint drop distribution unchanged). Paths
// resolve into per-worker fixed-size buffers, failed-flow state is copied
// into per-worker arenas, and all per-epoch scratch is owned by the Sim —
// see DESIGN.md ("Hot-path memory model").
//
// Epochs run as a deterministic parallel pipeline fused end to end: sources
// are split into chunks whose size depends only on the source count, and
// each worker generates a source's flows and simulates them in the same
// pass — the full flow list is never materialized. Every source generates
// from its own (epoch seed, source index) RNG stream and every flow draws
// its drops from its own (epoch seed, flow index) stream, with global flow
// indexes prefix-summed from per-source counts before the fan-out. Ground
// truth lives in the failed flows' outcomes alone (per-link totals are
// derived from them on demand, Epoch.linkDrops), and the per-chunk failed
// outcomes concatenate in chunk order. One sequential pass over that
// flow-ordered list (resolveBudget) then applies the traceroute budget,
// stamps each agent's report sequences and emits the reports, for full and
// delta epochs alike. Because no draw and no reduction depends on worker
// interleaving, a seeded epoch is bit-identical at any parallelism — see
// DESIGN.md ("Determinism contract", "Scaling the flow plane").
//
// Injected failures and rate schedules live in a schedule.Failures, as on
// the packet plane, applied at the top of each epoch.
//
// Config.Incremental adds the datacenter-scale delta mode: the flow set and
// per-flow draw streams freeze after the first epoch, and later epochs
// re-score only the flows whose paths touch links whose rates changed,
// carrying every other flow's outcome forward — see incremental.go.
package netem

import (
	"cmp"
	"fmt"
	"math"

	"vigil/internal/ecmp"
	"vigil/internal/metrics"
	"vigil/internal/par"
	"vigil/internal/prof"
	"vigil/internal/schedule"
	"vigil/internal/stats"
	"vigil/internal/topology"
	"vigil/internal/traffic"
	"vigil/internal/vote"
)

// Config parametrizes a simulation.
type Config struct {
	Topo *topology.Topology
	// Workload's PacketsPerFlow must stay within 0..65,535: per-link drop
	// counts are uint16.
	Workload traffic.Workload
	// NoiseLo/NoiseHi bound the per-link noise drop rate of good links;
	// each good link's rate is drawn uniformly from [NoiseLo, NoiseHi).
	// The paper's default is (0, 1e-6).
	NoiseLo, NoiseHi float64
	// TracerouteCap limits how many flows per host per epoch get their path
	// discovered (the host-side Ct rate limit of Theorem 1, times the epoch
	// length). 0 means unlimited. Flows over the cap still count as failed
	// but produce no report, exactly like 007 past its ICMP budget (§9.1).
	TracerouteCap int
	// Seed fixes the noise-rate draw and all epoch randomness derivation.
	Seed uint64
	// Parallelism is the worker count of the fused full epoch (runEpochFull),
	// the one fan-out an epoch has, and of the delta cache's transpose that
	// ends it; 0 means runtime.GOMAXPROCS(0). A delta epoch re-scores its
	// flows on the caller's goroutine at every setting.
	// Epoch results are bit-identical at every setting — the knob trades
	// cores for wall-clock only.
	Parallelism int
	// Incremental enables delta epochs for datacenter-scale topologies: the
	// epoch seed and flow set freeze after the first epoch, and every later
	// epoch re-scores only the flows whose paths touch links whose rates
	// changed since the previous epoch (schedules, injections and clears all
	// count), carrying the cached outcome of every untouched flow forward.
	// Results are bit-identical to re-scoring all flows against the frozen
	// draws (see rescoreAll and DESIGN.md "Scaling the flow plane"); the
	// trade is cache memory — per flow, a 2-byte packet count, a 4-byte
	// destination and three ECMP choice bytes, plus a link→flows index
	// with an entry per path link but the host uplink (57.6 MiB for the
	// 2.07M flows of the datacenter reference fabric; its set-up leaves
	// 69.4 MiB live, BENCH_64.json) — and epoch-to-epoch statistical
	// independence, which a frozen workload no longer has.
	Incremental bool
}

// Sim is a ready-to-run simulator. Failures are injected per directed link
// and can be changed between epochs.
type Sim struct {
	cfg      Config
	topo     *topology.Topology
	router   *ecmp.Router
	rng      *stats.RNG
	noise    []float64 // per-link noise rate
	rate     []float64 // per-link effective rate (noise or failure)
	logq     []float64 // per-link log1p(-rate), the survival-gate summands
	isFailed []bool    // dense failure flags, indexed by LinkID

	// fails is the failure set: injected links, their sorted snapshot (which
	// epochs hold by reference) and the rate schedules. epochIdx is the
	// index of the next epoch, the one its schedules are applied for.
	fails    *schedule.Failures
	epochIdx int

	// Per-epoch scratch, reused across RunEpoch calls (a Sim is not safe for
	// concurrent RunEpoch anyway): worker shards, the per-chunk outcome
	// table, the per-source flow-index bases, the dense traceroute budget and
	// the cached dense source list.
	shards        []epochShard
	failedByChunk [][]FlowOutcome
	flowBase      []int32 // per-source global flow-index prefix sums
	budget        []int32 // per-host traced-flow counts, dense by HostID
	srcs          []topology.HostID

	// inc is the incremental-delta state (Config.Incremental; incremental.go).
	inc incState
}

// New builds a simulator, drawing per-link noise rates.
func New(cfg Config) (*Sim, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("netem: Config.Topo is required")
	}
	if cfg.NoiseHi < cfg.NoiseLo || cfg.NoiseLo < 0 {
		return nil, fmt.Errorf("netem: bad noise range [%g,%g)", cfg.NoiseLo, cfg.NoiseHi)
	}
	cfg.Workload = cfg.Workload.WithDefaults(traffic.DefaultWorkload())
	// Per-link drop counts (DropsByLink) and the delta cache's packet
	// counts are uint16, so no flow may send more than 65,535 packets.
	if p := cfg.Workload.PacketsPerFlow; p.Lo < 0 || max(p.Lo, p.Hi) > math.MaxUint16 {
		return nil, fmt.Errorf("netem: Workload.PacketsPerFlow [%d,%d] can yield a count outside 0..%d", p.Lo, p.Hi, math.MaxUint16)
	}
	// The delta cache keeps each flow's ECMP picks as bytes (ecmp.Choices),
	// so no switch may choose among more than 256 ports.
	if c := cfg.Topo.Cfg; cfg.Incremental && max(c.T1PerPod, c.T2) > math.MaxUint8+1 {
		return nil, fmt.Errorf("netem: the delta cache keeps ECMP picks in a byte, but the topology has %d T1s per pod and %d T2s", c.T1PerPod, c.T2)
	}
	for _, h := range cfg.Workload.Hosts {
		if h < 0 || int(h) >= len(cfg.Topo.Hosts) {
			return nil, fmt.Errorf("netem: Workload.Hosts names host %d, not in topology (%d hosts)", h, len(cfg.Topo.Hosts))
		}
	}
	rng := stats.NewRNG(cfg.Seed)
	nlinks := len(cfg.Topo.Links)
	s := &Sim{
		cfg:      cfg,
		topo:     cfg.Topo,
		router:   ecmp.NewRouter(cfg.Topo, ecmp.NewSeeds(cfg.Topo, rng.Split())),
		rng:      rng,
		noise:    make([]float64, nlinks),
		rate:     make([]float64, nlinks),
		logq:     make([]float64, nlinks),
		isFailed: make([]bool, nlinks),
		budget:   make([]int32, len(cfg.Topo.Hosts)),
	}
	s.fails = schedule.NewFailures(cfg.Topo,
		func(l topology.LinkID, rate float64) { s.setRate(l, rate, true) },
		func(l topology.LinkID) { s.setRate(l, s.noise[l], false) })
	for i := range s.noise {
		s.noise[i] = rng.Uniform(cfg.NoiseLo, cfg.NoiseHi)
		s.rate[i] = s.noise[i]
		s.logq[i] = math.Log1p(-s.noise[i])
	}
	return s, nil
}

// Topology returns the simulated topology.
func (s *Sim) Topology() *topology.Topology { return s.topo }

// setRate updates every per-link view of link l's drop rate: the effective
// rate, the survival-gate log term and the dense failure flag. When a live
// delta cache exists, a change to either the rate (new draws) or the
// failure flag (new CrossedFailure truth) marks the link dirty, scheduling
// every flow whose path touches it for re-scoring next epoch.
func (s *Sim) setRate(l topology.LinkID, rate float64, failed bool) {
	if s.inc.valid && (s.rate[l] != rate || s.isFailed[l] != failed) && !s.inc.dirtyLink.testAndSet(int(l)) {
		s.inc.dirty = append(s.inc.dirty, l)
	}
	s.rate[l] = rate
	s.logq[l] = math.Log1p(-rate)
	s.isFailed[l] = failed
}

// InjectFailure sets link l's drop rate, replacing its noise rate. The
// link must exist and the rate must be a probability.
func (s *Sim) InjectFailure(l topology.LinkID, rate float64) error { return s.fails.Inject(l, rate) }

// ClearFailure restores link l to its noise rate.
func (s *Sim) ClearFailure(l topology.LinkID) error { return s.fails.Clear(l) }

// ClearAllFailures restores every link to its noise rate.
func (s *Sim) ClearAllFailures() { s.fails.ClearAll() }

// Schedule attaches sched to link l from the next epoch on; the link then
// follows it, overriding manual injections (schedule.Failures.Schedule).
func (s *Sim) Schedule(l topology.LinkID, sched schedule.RateSchedule) error {
	return s.fails.Schedule(l, sched)
}

// ClearSchedules detaches every schedule and restores the scheduled links to
// their noise rates (schedule.Failures.ClearSchedules).
func (s *Sim) ClearSchedules() { s.fails.ClearSchedules() }

// EpochIndex returns the index the next RunEpoch call will simulate (the
// number of epochs run so far).
func (s *Sim) EpochIndex() int { return s.epochIdx }

// FlowOutcome is the ground truth for one flow that lost packets.
type FlowOutcome struct {
	FlowID      int64 // matches the Report's FlowID
	Src, Dst    topology.HostID
	Path        []topology.LinkID
	Drops       int      // total packets lost = retransmissions seen by TCP
	DropsByLink []uint16 // aligned with Path
	Culprit     topology.LinkID
	// CrossedFailure records whether the path contains an injected failure:
	// the flows for which ground truth attribution is meaningful (§7.2).
	CrossedFailure bool
	Traced         bool // false when the host's traceroute budget ran out
}

// Epoch is one 30-second simulation round.
type Epoch struct {
	// Failed lists every flow that lost at least one packet, in flow-index
	// order regardless of how many workers simulated the epoch.
	Failed []FlowOutcome
	// Reports carries what 007's analysis agent receives: one report per
	// failed flow whose path was discovered.
	Reports []vote.Report
	// FailedLinks snapshots the injected failures during this epoch. It may
	// share storage with other epochs of the same Sim; treat it as
	// read-only.
	FailedLinks []topology.LinkID

	TotalFlows   int
	TotalPackets int
	TotalDrops   int
}

// Source-chunk granularity of the fused generate-and-simulate shard loop,
// the epoch pipeline's one fan-out, chosen by par.Grain from the source
// count alone (never the worker count) so chunk boundaries — and with them
// the chunk-ordered merges — are identical at any parallelism. The floor
// keeps test-sized topologies from sharding into per-host confetti, the
// ceiling keeps a datacenter epoch from concentrating into too few chunks
// to load-balance.
const (
	srcGrainLo  = 16
	srcGrainHi  = 2048
	grainTarget = 64 // aim for ~64 chunks: headroom over any realistic core count
)

// Epoch phases for pprof attribution: a CPU profile of any epoch driver
// (`go test -cpuprofile`, or -cpuprofile on a vigil tool) splits by
// `pprof -tags` into count/shard/merge/delta. Workers spawned inside a
// phase inherit its label; Begin/End themselves are allocation-free, which
// keeps the zero-alloc steady-state epoch contract intact.
var (
	phaseCount = prof.NewPhase("count")
	phaseShard = prof.NewPhase("shard")
	phaseMerge = prof.NewPhase("merge")
	phaseDelta = prof.NewPhase("delta")
)

// dropDomain separates the per-flow drop streams from the per-source
// generation streams that share the epoch seed: DeriveRNG(epochSeed, si)
// generates source si's flows while DeriveRNG(epochSeed^dropDomain, fi)
// drives flow fi's drop draws, so a flow never replays the draw sequence
// that generated it.
const dropDomain = 0xd6e8feb86659fd93

// arenaBlock sizes the outcome arenas' allocation blocks, in path links.
// One block holds the Path+DropsByLink storage of ~80 failed flows, so an
// epoch's rare failures cost a handful of block allocations instead of two
// slice allocations per outcome.
const arenaBlock = 512

// outcomeArena block-allocates the Path and DropsByLink storage of failed
// flows. Each worker owns one; alloc hands out stable sub-slices of the
// current block and starts a fresh block when full, so previously returned
// slices are never moved or aliased. Blocks escape into the Epoch with the
// outcomes that point into them, which is why reset drops the block
// reference instead of rewinding it.
type outcomeArena struct {
	links []topology.LinkID
	drops []uint16
	block int // entries per block; 0 means arenaBlock
}

// reset forgets the current blocks. The previous epoch's outcomes keep the
// old blocks alive; the new epoch starts clean.
func (a *outcomeArena) reset() { a.links, a.drops = nil, nil }

// copyPath copies src into arena-backed storage and returns the copy.
func (a *outcomeArena) copyPath(src []topology.LinkID) []topology.LinkID {
	n := len(src)
	if len(a.links)+n > cap(a.links) {
		a.links = make([]topology.LinkID, 0, cmp.Or(a.block, arenaBlock))
	}
	dst := a.links[len(a.links) : len(a.links)+n : len(a.links)+n]
	a.links = a.links[:len(a.links)+n]
	copy(dst, src)
	return dst
}

// copyDrops copies src into arena-backed storage and returns the copy.
func (a *outcomeArena) copyDrops(src []uint16) []uint16 {
	n := len(src)
	if len(a.drops)+n > cap(a.drops) {
		a.drops = make([]uint16, 0, cmp.Or(a.block, arenaBlock))
	}
	dst := a.drops[len(a.drops) : len(a.drops)+n : len(a.drops)+n]
	a.drops = a.drops[:len(a.drops)+n]
	copy(dst, src)
	return dst
}

// epochShard accumulates one worker's packet count plus the worker's
// reusable scratch (path buffer, per-flow and generation RNGs, one-source
// flow buffer, outcome arena). The count is an order-free integer sum, so
// one shard per *worker* suffices; only the per-chunk FlowOutcome lists are
// order-sensitive and those are keyed by chunk. Padding keeps adjacent
// workers' hot counters off a shared cache line.
type epochShard struct {
	packets int
	pathBuf ecmp.PathBuf
	rng     stats.RNG // drop-stream generator, reseeded per dropping flow
	genRNG  stats.RNG // generation-stream generator, reseeded per source
	flowBuf []traffic.Flow
	arena   outcomeArena
	_       [64]byte
}

// sources resolves the epoch's originating hosts: Workload.Hosts when the
// workload restricts them, otherwise every host, cached densely in s.srcs.
func (s *Sim) sources() []topology.HostID {
	if s.cfg.Workload.Hosts != nil {
		return s.cfg.Workload.Hosts
	}
	if len(s.srcs) != len(s.topo.Hosts) {
		s.srcs = make([]topology.HostID, len(s.topo.Hosts))
		for i := range s.srcs {
			s.srcs[i] = topology.HostID(i)
		}
	}
	return s.srcs
}

// flowBases prefix-sums the per-source flow counts of the epoch into
// s.flowBase: source si's flows occupy the global flow indexes
// [flowBase[si], flowBase[si+1]), which is what lets workers generate and
// simulate sources independently while drawing every flow's drops from the
// same (epoch seed, flow index) stream the materializing pipeline would.
// Each source's count is the head draw of its private generation stream,
// so counting consumes nothing the generators need; constant-connection
// workloads — the benchmark and paper defaults — draw nothing at all. The
// pass runs inline: a worker fan-out made it slower at the §6 scale
// (DESIGN.md "Parallelism knobs"). Returns the epoch's total flow count.
func (s *Sim) flowBases(epochSeed uint64, nsrc int) int {
	if cap(s.flowBase) < nsrc+1 {
		s.flowBase = make([]int32, nsrc+1)
	}
	s.flowBase = s.flowBase[:nsrc+1]
	fb := s.flowBase
	fb[0] = 0
	w := s.cfg.Workload
	total := int64(0)
	for si := 0; si < nsrc; si++ {
		total += int64(max(w.FlowsOf(epochSeed, si), 0))
		if total > math.MaxInt32 {
			panic("netem: epoch flow count overflows int32 flow-index bases")
		}
		fb[si+1] = int32(total)
	}
	return int(total)
}

// epochScratch (re)sizes the Sim-owned shard and chunk scratch for an epoch
// of nchunks source chunks, zeroing the counts carried over from the last
// epoch.
func (s *Sim) epochScratch(nchunks int) (shards []epochShard, failedByChunk [][]FlowOutcome) {
	nworkers := par.Workers(s.cfg.Parallelism)
	if len(s.shards) != nworkers {
		s.shards = make([]epochShard, nworkers)
	}
	for w := range s.shards {
		sh := &s.shards[w]
		sh.packets = 0
		sh.arena.reset()
	}
	if cap(s.failedByChunk) < nchunks {
		s.failedByChunk = make([][]FlowOutcome, nchunks)
	}
	// Clear through cap, not just nchunks: a shorter epoch must not leave
	// stale tail entries pinning the previous epoch's outcomes and arena
	// blocks.
	clear(s.failedByChunk[:cap(s.failedByChunk)])
	s.failedByChunk = s.failedByChunk[:nchunks]
	return s.shards, s.failedByChunk
}

// RunEpoch simulates one epoch through the fused pipeline (runEpochFull) —
// or, when Config.Incremental has a live cache, through the delta path that
// re-scores only the flows touched by link-rate changes (incremental.go).
// Steady-state epochs (no failed flows) allocate O(1) memory regardless of
// flow count.
func (s *Sim) RunEpoch() *Epoch {
	// Settle scripted link rates for this epoch before any randomness is
	// drawn or any worker starts, so the hot path sees a fixed rate vector.
	// A schedule returning a rate outside [0, 1] is a broken script — there
	// is no epoch result to attach an error to, and feeding it to log1p
	// would silently corrupt every later draw — so it panics, loudly, here.
	if err := s.fails.Apply(s.epochIdx); err != nil {
		panic(fmt.Sprintf("netem: %v", err))
	}
	s.epochIdx++
	if s.cfg.Incremental {
		if s.inc.valid {
			return s.runEpochDelta()
		}
		if !s.inc.seeded {
			// The one epoch-seed draw of the simulation: incremental mode
			// freezes the workload, so every epoch re-scores the same flows
			// against the same per-flow streams.
			s.inc.epochSeed = s.rng.Uint64()
			s.inc.seeded = true
		}
		return s.runEpochFull(s.inc.epochSeed, true)
	}
	// One draw per epoch advances the per-epoch stream.
	return s.runEpochFull(s.rng.Uint64(), false)
}

// runEpochFull is the fused generate-and-simulate pipeline: prefix-sum the
// per-source flow counts into global flow-index bases, fan source chunks
// out to workers that generate each source's flows and simulate them in the
// same pass (the full flow list is never materialized), then merge — shard
// packet counts summed, per-chunk failed outcomes concatenated in chunk
// order, which is flow order — and hand the merged list to resolveBudget.
//
// buildCache additionally records every flow's packet count, destination
// and ECMP choices into the incremental-delta cache, whose link→flows index
// buildIncCache then builds (incremental.go).
func (s *Sim) runEpochFull(epochSeed uint64, buildCache bool) *Epoch {
	phaseCount.Begin()
	srcs := s.sources()
	nsrc := len(srcs)
	total := s.flowBases(epochSeed, nsrc)
	phaseCount.End()

	ep := &Epoch{
		FailedLinks: s.fails.Sorted(),
		TotalFlows:  total,
	}
	grain := par.Grain(nsrc, srcGrainLo, srcGrainHi, grainTarget)
	nchunks := par.Chunks(nsrc, grain)
	shards, failedByChunk := s.epochScratch(nchunks)
	if buildCache {
		s.inc.prepareBuild(total)
	}

	phaseShard.Begin()
	par.ForEachChunkWorker(nsrc, grain, s.cfg.Parallelism, func(w, c, lo, hi int) {
		sh := &shards[w]
		var failed []FlowOutcome
		for si := lo; si < hi; si++ {
			buf := s.cfg.Workload.AppendFlowsOf(sh.flowBuf[:0], &sh.genRNG, epochSeed, si, s.topo, srcs[si])
			sh.flowBuf = buf
			base := int64(s.flowBase[si])
			for j := range buf {
				fi := base + int64(j)
				out, failedFlow := s.simFlow(sh, epochSeed, fi, buf[j])
				if buildCache {
					s.inc.packets[fi] = uint16(buf[j].Packets)
					s.inc.dst[fi] = buf[j].Dst
					s.inc.choices[fi] = sh.pathBuf.Choices()
				}
				if failedFlow {
					failed = append(failed, out)
				}
			}
		}
		failedByChunk[c] = failed
	})
	phaseShard.End()

	phaseMerge.Begin()
	totalFailed := 0
	for _, failed := range failedByChunk {
		totalFailed += len(failed)
	}
	for w := range shards {
		ep.TotalPackets += shards[w].packets
	}
	// Sized up front so Failed never regrows.
	if totalFailed > 0 {
		ep.Failed = make([]FlowOutcome, 0, totalFailed)
		for _, failed := range failedByChunk {
			ep.Failed = append(ep.Failed, failed...)
		}
	}
	s.resolveBudget(ep)
	phaseMerge.End()

	if buildCache {
		s.buildIncCache(ep)
	}
	return ep
}

// resolveBudget is the flow plane's one report path, for full and delta
// epochs alike: one pass over ep.Failed, every failed flow of the epoch in
// flow order. A host's first TracerouteCap failed flows (all of them when
// the cap is 0) are traced and reported under the agent's sequences
// 0..k-1, the rest are marked untraced, and TotalDrops sums every failed
// flow's drops. The budget vector doubles as the per-agent sequence
// counter; only the counters of hosts with a failed flow are zeroed and
// read, so the cost follows the failed set, not the host count.
func (s *Sim) resolveBudget(ep *Epoch) {
	epoch := int32(s.epochIdx - 1)
	tcap := s.cfg.TracerouteCap
	for i := range ep.Failed {
		s.budget[ep.Failed[i].Src] = 0
	}
	if len(ep.Failed) > 0 {
		ep.Reports = make([]vote.Report, 0, len(ep.Failed))
	}
	for i := range ep.Failed {
		out := &ep.Failed[i]
		ep.TotalDrops += out.Drops
		seq := s.budget[out.Src]
		out.Traced = tcap <= 0 || int(seq) < tcap
		if !out.Traced {
			continue
		}
		s.budget[out.Src]++
		ep.Reports = append(ep.Reports, vote.Report{
			FlowID: out.FlowID,
			Src:    out.Src, Dst: out.Dst,
			Path:  out.Path,
			Retx:  out.Drops,
			Epoch: epoch,
			Seq:   seq,
		})
	}
}

// simFlow routes one flow and samples its drops into sh, drawing from the
// flow's private RNG stream so the result is independent of which worker
// runs it and in what order. It returns the flow's outcome (untraced until
// resolveBudget says otherwise) and whether the flow lost packets;
// surviving flows — the overwhelming majority — return a zero outcome and
// perform no heap allocation. On return sh.pathBuf still holds the flow's
// resolved path (the cache build reads it).
func (s *Sim) simFlow(sh *epochShard, epochSeed uint64, fi int64, f traffic.Flow) (FlowOutcome, bool) {
	if err := s.router.PathInto(f.Src, f.Dst, f.Tuple, &sh.pathBuf); err != nil {
		// Unreachable by construction; surface loudly if it happens.
		panic(fmt.Sprintf("netem: routing %v: %v", f.Tuple, err))
	}
	links := sh.pathBuf.Links()
	sh.packets += f.Packets
	out, dropped := s.scoreFlow(sh, epochSeed, fi, links, f.Packets)
	if dropped {
		out.Src, out.Dst, out.Path = f.Src, f.Dst, sh.arena.copyPath(links)
	}
	return out, dropped
}

// scoreFlow samples the drops of flow fi, packets packets on path links,
// and returns its outcome — all but its hosts and Path — and whether it
// lost packets. Both the full pipeline and a delta epoch's re-score score a
// flow here; a flow that loses nothing costs no heap allocation.
func (s *Sim) scoreFlow(sh *epochShard, epochSeed uint64, fi int64, links []topology.LinkID, packets int) (FlowOutcome, bool) {
	if packets <= 0 {
		return FlowOutcome{}, false
	}
	var perLink [ecmp.MaxPathLinks]uint16
	drops := s.sampleFlowDrops(epochSeed, fi, &sh.rng, links, packets, &perLink)
	if drops == 0 {
		return FlowOutcome{}, false
	}
	out := FlowOutcome{
		FlowID:      fi,
		Drops:       drops,
		DropsByLink: sh.arena.copyDrops(perLink[:len(links)]),
		Culprit:     culprit(links, perLink[:len(links)]),
	}
	for _, l := range links {
		if s.isFailed[l] {
			out.CrossedFailure = true
			break
		}
	}
	return out, true
}

// sampleFlowDrops samples one flow's per-link drop vector into perLink and
// returns the total, drawing only from the flow's private (epochSeed, fi)
// streams so the result is identical whichever worker runs it. rng is the
// caller's reusable generator; it is reseeded here and touched only when
// the flow actually drops. The non-dropping path — the overwhelming
// majority of flows — costs one counter-based uniform draw and no heap
// allocation.
//
// Survival gate: pNoDrop = Π_l (1-rate_l)^packets = exp(packets · Σ logq_l)
// is the probability that none of the flow's packets is dropped anywhere on
// the path. One uniform draw against it replaces the per-link Binomial walk.
// The comparison avoids math.Exp outside a ~x²/2-wide window using the
// bracket 1+x ≤ eˣ ≤ 1+x+x²/2 (x ≤ 0).
//
// Dropping flows sample the per-link cascade — d_i ~ Binomial(survivors,
// rate_i) down the path — conditioned on a nonzero total, exactly and in
// O(path) time: while no drop has happened yet the survivor count is still
// the full packet count, so the chain rule gives closed-form odds that link
// i stays clean given that some link from i onward must drop,
//
//	P(d_i = 0 | drop in i..k) = (1-p_i)^n · P(drop in i+1..k) / P(drop in i..k)
//
// with P(drop in j..k) = -expm1(n·suf[j]). The first link that fails this
// draw takes its count from stats.BinomialNonzero (Binomial conditioned
// >= 1); every later link runs the ordinary unconditional cascade over the
// reduced survivor count. Naively rejection-resampling the whole cascade
// until nonzero would cost an expected 1/P(drop) passes — this costs one.
func (s *Sim) sampleFlowDrops(epochSeed uint64, fi int64, rng *stats.RNG, links []topology.LinkID, packets int, perLink *[ecmp.MaxPathLinks]uint16) int {
	// suf[i] holds the suffix sums Σ_{j>=i} logq, shared by the gate
	// (i = 0) and the conditional walk of the rare dropping flow.
	var suf [ecmp.MaxPathLinks + 1]float64
	for i := len(links) - 1; i >= 0; i-- {
		suf[i] = suf[i+1] + s.logq[links[i]]
	}
	if suf[0] == 0 {
		// Every link has rate exactly 0; the flow cannot drop and costs no
		// draw at all.
		return 0
	}
	n := float64(packets)
	x := n * suf[0] // log pNoDrop, <= 0
	u := stats.DeriveUniform(epochSeed^dropDomain, uint64(fi))
	if u < 1+x {
		return 0 // below the lower bound of pNoDrop: survives for sure
	}
	if u < 1+x+0.5*x*x && u < math.Exp(x) {
		return 0
	}
	rng.Derive(epochSeed^dropDomain, uint64(fi))
	drops := 0
	surviving := packets
	i := 0
	for ; i < len(links); i++ {
		perLink[i] = 0
		pZeroHere := math.Exp(n * s.logq[links[i]])
		num := pZeroHere * -math.Expm1(n*suf[i+1])
		den := -math.Expm1(n * suf[i])
		if rng.Float64()*den < num {
			continue // clean link; a later link must drop instead
		}
		d := rng.BinomialNonzero(surviving, s.rate[links[i]])
		perLink[i] = uint16(d)
		surviving -= d
		drops = d
		i++
		break
	}
	for ; i < len(links); i++ {
		perLink[i] = 0
		if surviving == 0 {
			continue
		}
		rate := s.rate[links[i]]
		if rate == 0 {
			continue
		}
		d := rng.Binomial(surviving, rate)
		if d == 0 {
			continue
		}
		perLink[i] = uint16(d)
		surviving -= d
		drops += d
	}
	return drops
}

// Reference oracle: linkDrops derives the ground-truth number of packets
// each link dropped, for tests to check the per-flow drops against.
// Every dropped packet belongs to a failed flow, so summing DropsByLink over
// Failed is the whole vector; links no failed flow crossed are absent.
func (ep *Epoch) linkDrops() map[topology.LinkID]int64 {
	m := make(map[topology.LinkID]int64)
	for _, f := range ep.Failed {
		for i, d := range f.DropsByLink {
			m[f.Path[i]] += int64(d)
		}
	}
	return m
}

// Truth builds the ground-truth map that package metrics scores against.
func (ep *Epoch) Truth() map[int64]metrics.FlowTruth {
	m := make(map[int64]metrics.FlowTruth, len(ep.Failed))
	for _, f := range ep.Failed {
		m[f.FlowID] = metrics.FlowTruth{
			Culprit:        f.Culprit,
			CrossedFailure: f.CrossedFailure,
		}
	}
	return m
}

// culprit returns the link that dropped the most of the flow's packets,
// ties broken toward the earlier link (it saw the packet first).
func culprit(path []topology.LinkID, perLink []uint16) topology.LinkID {
	best := topology.NoLink
	var bestDrops uint16
	for i, d := range perLink {
		if d > bestDrops {
			bestDrops = d
			best = path[i]
		}
	}
	return best
}
