// Package cluster is the multi-node emulation: every host runs the real
// 007 host agent (retransmission → SLB query → traceroute → vote report)
// over the packet-level fabric, and a central analysis agent tallies the
// epoch — the same composition as the paper's test cluster (§7) and
// production deployment (§8). Reports are delivered in-process through
// the Reporter hook; the wire path is internal/transport, driven by
// internal/ingest.
//
// Epoch state is kept dense for the hot path: per-flow drop counts live in
// a flow-indexed arena of small inline link/count sets (not nested maps),
// the failure set (a schedule.Failures) caches its sorted snapshot, and —
// with EphemeralFlows — flow records, connections and tuple indexes are
// recycled at each epoch boundary so steady-state epochs run
// allocation-free and long scenario timelines stay bounded in memory.
package cluster

import (
	"fmt"
	"slices"

	"vigil/internal/analysis"
	"vigil/internal/des"
	"vigil/internal/ecmp"
	"vigil/internal/fabric"
	"vigil/internal/metrics"
	"vigil/internal/schedule"
	"vigil/internal/slb"
	"vigil/internal/stats"
	"vigil/internal/theory"
	"vigil/internal/topology"
	"vigil/internal/traffic"
	"vigil/internal/vote"
)

// Config assembles a cluster.
type Config struct {
	Topo *topology.Topology
	Seed uint64
	// NoiseLo/NoiseHi bound the per-link baseline (noise) drop rate of good
	// links, mirroring the flow simulator's good-link noise: each link's
	// baseline is drawn uniformly from [NoiseLo, NoiseHi). Both zero means
	// no noise — the seed emulation's historical behaviour.
	NoiseLo, NoiseHi float64
	// Test hook: Ct is the host traceroute budget (default: the Theorem 1
	// bound for this topology and the switches' fabric.Tmax), so that a
	// test can make the budget bind.
	Ct float64
	// Test hook: RTO is the host stack's initial retransmission timeout
	// (default 20ms), so that a test can time out segments still in
	// flight.
	RTO des.Time
	// Test hook: MaxRetries is the number of consecutive RTOs that fail a
	// connection (default 6), so that the tag test's connections live
	// through many short RTOs and their stragglers reach recycled Conns.
	MaxRetries int
	// RTTThresholdMicros, when positive, also triggers path discovery for
	// flows whose smoothed RTT crosses the threshold — the §9.2 latency
	// diagnosis extension.
	RTTThresholdMicros int64
	// EphemeralFlows recycles flow records, connections and tuple indexes
	// at each epoch boundary, right after the epoch's ground-truth frame is
	// captured. Steady-state epochs then allocate (near) nothing and memory
	// stays bounded over arbitrarily long runs — the mode the plane-agnostic
	// engine uses for scenarios and conformance sweeps. The whole-run views
	// (Flows, Truth) cover only the current epoch; LastEpoch
	// frames are unaffected. Flow IDs stay globally unique either way.
	EphemeralFlows bool
}

// Cluster is a running emulation.
type Cluster struct {
	cfg  Config
	Topo *topology.Topology
	// Sched is the emulation's clock and event queue.
	Sched  *des.Scheduler
	Router *ecmp.Router
	Net    *fabric.Net
	SLB    *slb.SLB
	Hosts  []*Host

	rng *stats.RNG
	// Reporter delivers host reports to the collector; the default appends
	// to reports, which RunEpoch analyzes in submission order.
	Reporter func(vote.Report)
	reports  []vote.Report

	// fails is the failure set — injected links, their sorted snapshot and
	// the rate schedules — over the fabric's SetDropRate/ResetDropRate.
	fails *schedule.Failures

	flowIDs map[ecmp.FiveTuple]int64
	flows   []*flowRecord
	// nextFlowID numbers flows across the whole run; it never resets, so
	// recycled epochs still emit globally unique, deterministic IDs.
	nextFlowID int64
	// wireFlows indexes the forward wire tuple of every started connection
	// to its slot in flows (latest flow wins a reused tuple, as in real
	// TCP). The ground-truth tap matches against it, so reverse-direction
	// ACKs and stray packets never enter the drop bookkeeping.
	wireFlows map[ecmp.FiveTuple]int32

	// recPool and connPool are the flow-record and connection free lists
	// (EphemeralFlows).
	recPool  []*flowRecord
	connPool []*Conn
	// connTab holds every Conn object ever made, at its index: the table a
	// packet's tag is resolved through. rxNext is the hosts' receiver state
	// (see Host.rxSlot).
	connTab []*Conn
	rxNext  []uint32

	// dropIdx/dropArena are the dense per-flow drop ground truth: dropIdx
	// parallels flows (slot → arena index, -1 when the flow lost nothing),
	// grown lazily on first drop; the arena holds small inline link/count
	// sets — no nested maps on the tap path.
	dropIdx   []int32
	dropArena []flowDropSet
	// epochDrops counts data-packet drops observed this epoch.
	epochDrops int
	// pendingStarts counts scheduled-but-unfired flow starts; recycling is
	// skipped while any are outstanding.
	pendingStarts int

	// genFlows is StartWorkload's reusable generation buffer.
	genFlows []traffic.Flow
	// pathBuf is the flow-truth path scratch.
	pathBuf ecmp.PathBuf

	epochStart des.Time
	// Epoch rotation state: epochIdx is the epoch fails applies schedules for;
	// epochFirstFlow marks where the current epoch's flows begin in flows;
	// lastEpoch is the frame RunEpoch captured before rolling.
	epochIdx       int
	epochFirstFlow int
	lastEpoch      EpochFrame
	// agentSeq assigns each host agent's next report sequence number,
	// dense by HostID, reset at every epoch roll — reports leave the
	// cluster with the (agent, epoch, seq) identity streaming ingest keys
	// gap detection and duplicate suppression on.
	agentSeq []int32
}

// flowDropSet is one flow's per-link drop counts: an inline set sized for
// the longest Clos path (6 links), chained through next in the (never
// observed) case a flow's drops spread over more links.
type flowDropSet struct {
	links [8]topology.LinkID
	cnts  [8]int32
	n     int32
	next  int32 // arena index of the overflow set, -1 if none
}

// Origin-key classes for the cluster's DES events (see
// des.Scheduler.PostKeyed and the fabric's class 4 deliver keys): flow
// starts and connection timers key on the owning host.
const (
	keyClassStart uint64 = 1 << 56
	keyClassConn  uint64 = 2 << 56
	keyClassPath  uint64 = 3 << 56
)

// HandleEvent opens a scheduled connection (the cluster's typed DES event).
func (cl *Cluster) HandleEvent(kind int32, arg int64, _ any) {
	_ = kind // evStartFlow is the only kind the cluster schedules
	cl.pendingStarts--
	rec := cl.flows[arg]
	rec.conn = cl.Hosts[rec.src].openConn(cl.Hosts[rec.dst], rec.wireTuple, rec.appTuple, rec.packets)
}

// countDrop records one dropped data packet against a flow slot in the
// dense arena, growing the slot index lazily.
func (cl *Cluster) countDrop(slot int32, l topology.LinkID) {
	for int(slot) >= len(cl.dropIdx) {
		cl.dropIdx = append(cl.dropIdx, -1)
	}
	di := cl.dropIdx[slot]
	if di < 0 {
		di = cl.newDropSet()
		cl.dropIdx[slot] = di
	}
	for {
		set := &cl.dropArena[di]
		for i := int32(0); i < set.n; i++ {
			if set.links[i] == l {
				set.cnts[i]++
				return
			}
		}
		if set.n < int32(len(set.links)) {
			set.links[set.n] = l
			set.cnts[set.n] = 1
			set.n++
			return
		}
		if set.next < 0 {
			next := cl.newDropSet()
			// The append in newDropSet may have moved the arena.
			cl.dropArena[di].next = next
			di = next
		} else {
			di = set.next
		}
	}
}

// newDropSet claims a fresh arena entry (the arena is truncated, not
// freed, when epochs recycle, so steady state reuses capacity).
func (cl *Cluster) newDropSet() int32 {
	cl.dropArena = append(cl.dropArena, flowDropSet{next: -1})
	return int32(len(cl.dropArena) - 1)
}

// getConn produces a connection object from the pool. Pooled reuse bumps
// the incarnation counter (so a previous life's timer events stay dead)
// and keeps the table index, the sentAt ring and pending-timer capacity;
// everything else resets.
func (cl *Cluster) getConn() *Conn {
	if n := len(cl.connPool); n > 0 {
		c := cl.connPool[n-1]
		cl.connPool[n-1] = nil
		cl.connPool = cl.connPool[:n-1]
		idx, inc, ring, pend := c.index, c.incarnation, c.sentAt, c.pending[:0]
		*c = Conn{index: idx, incarnation: inc + 1, sentAt: ring, pending: pend}
		return c
	}
	c := &Conn{index: int32(len(cl.connTab))}
	cl.connTab = append(cl.connTab, c)
	return c
}

func (cl *Cluster) putConn(c *Conn) { cl.connPool = append(cl.connPool, c) }

// EpochFrame is the per-epoch ground-truth bookkeeping the plane-agnostic
// engine scores against: the failure set that was live during the epoch and
// the outcome of the flows started in it.
type EpochFrame struct {
	// Index is the epoch's index (the value fed to RateSchedule.RateAt).
	Index int
	// FailedLinks is the epoch's settled failure set, sorted.
	FailedLinks []topology.LinkID
	// Flows counts connections started this epoch; FailedFlows those that
	// lost at least one data packet; Drops the epoch's total data-packet
	// drops (probes and ACKs excluded, matching the paper's attribution
	// semantics).
	Flows       int
	FailedFlows int
	Drops       int
	// Truth maps this epoch's failed flows to their ground truth.
	Truth map[int64]metrics.FlowTruth
}

// flowRecord tracks one started connection for ground-truth scoring.
type flowRecord struct {
	id        int64
	appTuple  ecmp.FiveTuple
	wireTuple ecmp.FiveTuple
	src, dst  topology.HostID
	packets   int
	conn      *Conn
}

// epochLength is the tally interval: an epoch runs 30 virtual seconds.
const epochLength = 30 * des.Second

// sendWindow is the host stack's send window in segments.
const sendWindow = 8

// evStartFlow is the cluster's typed DES event: a scheduled connection
// opening (arg = the flow's slot in flows).
const evStartFlow int32 = 1

// New builds a cluster over the topology.
func New(cfg Config) (*Cluster, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("cluster: Config.Topo is required")
	}
	if cfg.Ct <= 0 {
		cfg.Ct = theory.CtBound(cfg.Topo.Cfg, fabric.Tmax)
	}
	if cfg.RTO <= 0 {
		cfg.RTO = 20 * des.Millisecond
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 6
	}
	rng := stats.NewRNG(cfg.Seed)
	router := ecmp.NewRouter(cfg.Topo, ecmp.NewSeeds(cfg.Topo, rng.Split()))
	sched := &des.Scheduler{}
	net, err := fabric.New(fabric.Config{Topo: cfg.Topo, Router: router, Sched: sched, RNG: rng.Split()})
	if err != nil {
		return nil, err
	}
	if cfg.NoiseHi < cfg.NoiseLo || cfg.NoiseLo < 0 || cfg.NoiseHi > 1 {
		return nil, fmt.Errorf("cluster: bad noise range [%g,%g)", cfg.NoiseLo, cfg.NoiseHi)
	}
	cl := &Cluster{
		cfg:       cfg,
		Topo:      cfg.Topo,
		Sched:     sched,
		Router:    router,
		Net:       net,
		SLB:       slb.New(cfg.Topo, rng.Split()),
		rng:       rng,
		flowIDs:   make(map[ecmp.FiveTuple]int64),
		wireFlows: make(map[ecmp.FiveTuple]int32),
		agentSeq:  make([]int32, len(cfg.Topo.Hosts)),
	}
	if cfg.NoiseHi > 0 {
		// Baseline noise rates come from a stream derived from the seed, not
		// from cl.rng, so enabling noise does not shift any of the existing
		// RNG splits (routing seeds, SLB, workload generation).
		noiseRNG := stats.DeriveRNG(cfg.Seed, noiseDomain)
		for l := range cfg.Topo.Links {
			if err := net.SetBaseRate(topology.LinkID(l), noiseRNG.Uniform(cfg.NoiseLo, cfg.NoiseHi)); err != nil {
				return nil, err
			}
		}
	}
	// The failure set validates before it calls either: they cannot fail.
	cl.fails = schedule.NewFailures(cfg.Topo,
		func(l topology.LinkID, rate float64) { _ = net.SetDropRate(l, rate) },
		func(l topology.LinkID) { _ = net.ResetDropRate(l) })
	cl.Reporter = func(r vote.Report) { cl.reports = append(cl.reports, r) }
	net.AddDropTap(cl.groundTruthTap)
	cl.Hosts = make([]*Host, len(cfg.Topo.Hosts))
	for i := range cl.Hosts {
		cl.Hosts[i] = newHost(cl, topology.HostID(i))
	}
	return cl, nil
}

// noiseDomain derives the baseline-noise stream from the cluster seed.
const noiseDomain = 0x7c5a31e49f0b8d27

// InjectFailure sets a directed link's drop rate. The rate must be a
// probability in [0, 1]; the link must exist in the emulated topology.
func (cl *Cluster) InjectFailure(l topology.LinkID, rate float64) error {
	return cl.fails.Inject(l, rate)
}

// ClearFailure removes an injected failure, restoring the link to its
// baseline (noise) rate.
func (cl *Cluster) ClearFailure(l topology.LinkID) error { return cl.fails.Clear(l) }

// ScheduleFailure attaches an epoch-indexed rate schedule to a link from the
// next epoch on, exactly as on the flow plane (schedule.Failures.Schedule).
func (cl *Cluster) ScheduleFailure(l topology.LinkID, s schedule.RateSchedule) error {
	return cl.fails.Schedule(l, s)
}

// ClearSchedules detaches every rate schedule and restores the scheduled
// links to their baseline rates, dropping them from the failure set.
func (cl *Cluster) ClearSchedules() { cl.fails.ClearSchedules() }

// EpochIndex returns the index the next RunEpoch call will emulate (the
// number of epochs run so far).
func (cl *Cluster) EpochIndex() int { return cl.epochIdx }

// FailedLinks returns the injected failure set, sorted. The snapshot is
// cached between failure-set changes; callers must not mutate it.
func (cl *Cluster) FailedLinks() []topology.LinkID { return cl.fails.Sorted() }

// report stamps a host agent's report with its stable identity — the
// reporting agent (Src), the current epoch, and the agent's next dense
// sequence number — and hands it to the Reporter. Stamping here, at the
// single choke point every report passes through, is what guarantees the
// gap-free-per-(agent, epoch) invariant ingest relies on.
func (cl *Cluster) report(r vote.Report) {
	r.Epoch = int32(cl.epochIdx)
	r.Seq = cl.agentSeq[r.Src]
	cl.agentSeq[r.Src]++
	if cl.Reporter != nil {
		cl.Reporter(r)
	}
}

func (cl *Cluster) flowID(flow ecmp.FiveTuple) int64 {
	if id, ok := cl.flowIDs[flow]; ok {
		return id
	}
	return -1
}

// groundTruthTap harvests per-flow per-link drops of data packets. Probes
// carry a non-zero IP ID and are excluded; ACKs and any other traffic not
// matching a started connection's forward wire tuple fall through the
// wireFlows lookup, so only forward-direction data drops count — the
// paper's attribution semantics.
func (cl *Cluster) groundTruthTap(ev fabric.TapEvent) {
	if !ev.Dropped || ev.IP.Protocol != ecmp.ProtoTCP || ev.IP.ID != 0 {
		return
	}
	tuple := ecmp.FiveTuple{
		SrcIP: ev.IP.Src, DstIP: ev.IP.Dst,
		SrcPort: ev.SrcPort, DstPort: ev.DstPort, Proto: ecmp.ProtoTCP,
	}
	slot, ok := cl.wireFlows[tuple]
	if !ok {
		return
	}
	cl.countDrop(slot, ev.Egress)
	cl.epochDrops++
}

// StartFlow opens a direct (DIP-addressed) connection at time at.
func (cl *Cluster) StartFlow(f traffic.Flow, at des.Time) {
	cl.startConn(f.Src, f.Dst, f.Tuple, f.Tuple, f.Packets, at)
}

// StartVIPFlow opens a connection to a VIP service: the SLB assigns a DIP
// (and the flow's packets carry it) while TCP — and therefore 007's
// monitoring — sees the VIP.
func (cl *Cluster) StartVIPFlow(src topology.HostID, vip uint32, vipPort uint16, packets int, at des.Time) error {
	srcPort := uint16(cl.rng.IntRange(32768, 65535))
	dip, err := cl.SLB.Connect(src, srcPort, vip, vipPort)
	if err != nil {
		return err
	}
	appTuple := ecmp.FiveTuple{
		SrcIP: cl.Topo.Hosts[src].IP, DstIP: vip,
		SrcPort: srcPort, DstPort: vipPort, Proto: ecmp.ProtoTCP,
	}
	wireTuple := appTuple
	wireTuple.DstIP = cl.Topo.Hosts[dip].IP
	cl.startConn(src, dip, wireTuple, appTuple, packets, at)
	return nil
}

// getRecord produces a flow record, recycling one when available.
func (cl *Cluster) getRecord() *flowRecord {
	if n := len(cl.recPool); n > 0 {
		rec := cl.recPool[n-1]
		cl.recPool[n-1] = nil
		cl.recPool = cl.recPool[:n-1]
		*rec = flowRecord{}
		return rec
	}
	return &flowRecord{}
}

func (cl *Cluster) startConn(src, dst topology.HostID, wireTuple, appTuple ecmp.FiveTuple, packets int, at des.Time) {
	rec := cl.getRecord()
	rec.id = cl.nextFlowID
	rec.appTuple = appTuple
	rec.wireTuple = wireTuple
	rec.src = src
	rec.dst = dst
	rec.packets = packets
	cl.nextFlowID++
	slot := len(cl.flows)
	cl.flows = append(cl.flows, rec)
	cl.flowIDs[appTuple] = rec.id
	cl.wireFlows[wireTuple] = int32(slot)
	cl.pendingStarts++
	cl.Sched.PostKeyed(at, keyClassStart|uint64(src), cl, evStartFlow, int64(slot), nil)
}

// StartWorkload schedules a whole epoch's traffic, spread uniformly over
// the first spread microseconds; a spread of zero or less starts every flow
// at the epoch's first instant. Generation reuses the cluster's flow buffer,
// and the draw order matches traffic.Workload.Generate exactly.
func (cl *Cluster) StartWorkload(w traffic.Workload, spread des.Time) {
	var rng stats.RNG
	rng.Seed(cl.rng.Uint64()) // the same child stream rng.Split() would derive
	cl.genFlows = w.GenerateInto(cl.genFlows[:0], &rng, cl.Topo)
	for _, f := range cl.genFlows {
		at := cl.epochStart
		if spread > 0 {
			at += des.Time(cl.rng.Intn(int(spread)))
		}
		cl.StartFlow(f, at)
	}
}

// RunEpoch drives one epoch of the emulation: settle scripted link rates,
// run virtual time to the end of the epoch (plus a small grace period for
// in-flight traceroutes), capture the epoch's ground-truth frame, roll the
// host agents' epochs and analyze what the default Reporter collected.
func (cl *Cluster) RunEpoch() *analysis.Result {
	// Settle scripted link rates before any of the epoch's queued packets
	// fly (StartWorkload and StartFlow only enqueue virtual-time events;
	// nothing transmits until RunUntil). A schedule emitting a rate outside
	// [0, 1] is a broken script and panics loudly, as on the flow plane.
	if err := cl.fails.Apply(cl.epochIdx); err != nil {
		panic(fmt.Sprintf("cluster: %v", err))
	}
	end := cl.epochStart + epochLength
	cl.Sched.RunUntil(end + 2*des.Second)
	cl.epochStart = cl.Sched.Now()
	for _, h := range cl.Hosts {
		h.Agent.NewEpoch()
	}
	cl.captureEpochFrame()
	// Algorithm 1 at the paper's threshold: 1 % of the epoch's votes.
	res := analysis.Analyze(cl.reports, analysis.Options{Detect: vote.DetectOptions{ThresholdFrac: 0.01}})
	cl.reports = cl.reports[:0]
	return res
}

// captureEpochFrame snapshots the closing epoch's ground truth — while
// the failure set is still the epoch's settled one — and rolls the
// per-epoch flow bookkeeping (recycling it under EphemeralFlows).
func (cl *Cluster) captureEpochFrame() {
	epochFlows := cl.flows[cl.epochFirstFlow:]
	fr := EpochFrame{
		Index:       cl.epochIdx,
		FailedLinks: cl.FailedLinks(),
		Flows:       len(epochFlows),
		Drops:       cl.epochDrops,
		Truth:       make(map[int64]metrics.FlowTruth, 8),
	}
	for i, rec := range epochFlows {
		tr, failed := cl.flowTruth(cl.epochFirstFlow+i, rec)
		if !failed {
			continue
		}
		fr.FailedFlows++
		fr.Truth[rec.id] = tr
	}
	cl.lastEpoch = fr
	cl.epochIdx++
	cl.epochDrops = 0
	clear(cl.agentSeq)
	if cl.cfg.EphemeralFlows && cl.pendingStarts == 0 {
		cl.recycleFlows()
	} else {
		cl.epochFirstFlow = len(cl.flows)
	}
}

// recycleFlows returns the epoch's flow records (and their finished
// connections) to the free lists and resets the tuple indexes and drop
// arena, keeping capacity. Connections still in flight across the boundary
// are marked orphan: they recycle themselves when they close.
func (cl *Cluster) recycleFlows() {
	for _, rec := range cl.flows {
		if c := rec.conn; c != nil {
			if c.Done || c.Failed {
				cl.putConn(c)
			} else {
				c.orphan = true
			}
		}
		rec.conn = nil
		cl.recPool = append(cl.recPool, rec)
	}
	for i := range cl.flows {
		cl.flows[i] = nil
	}
	cl.flows = cl.flows[:0]
	cl.dropIdx = cl.dropIdx[:0]
	cl.dropArena = cl.dropArena[:0]
	clear(cl.flowIDs)
	clear(cl.wireFlows)
	cl.epochFirstFlow = 0
}

// LastEpoch returns the ground-truth frame of the most recently completed
// epoch. The plane-agnostic engine (internal/engine) scores against it.
func (cl *Cluster) LastEpoch() EpochFrame { return cl.lastEpoch }

// flowTruth derives one flow's ground truth from the tap-harvested drop
// counts and the current failure set; failed is false when the flow lost no
// data packets.
func (cl *Cluster) flowTruth(slot int, rec *flowRecord) (tr metrics.FlowTruth, failed bool) {
	// A flow's ground truth is its max-count link, the lowest link id on
	// ties.
	best := topology.NoLink
	bestN := int32(0)
	if slot < len(cl.dropIdx) {
		for i := cl.dropIdx[slot]; i >= 0; i = cl.dropArena[i].next {
			set := &cl.dropArena[i]
			for j := int32(0); j < set.n; j++ {
				l, n := set.links[j], set.cnts[j]
				if n > bestN || (n == bestN && best != topology.NoLink && l < best) {
					best, bestN = l, n
				}
			}
		}
	}
	if best == topology.NoLink {
		return metrics.FlowTruth{}, false
	}
	tr = metrics.FlowTruth{Culprit: best}
	if err := cl.Router.PathInto(rec.src, rec.dst, rec.wireTuple, &cl.pathBuf); err == nil {
		failed := cl.fails.Sorted()
		for _, l := range cl.pathBuf.Links() {
			if _, bad := slices.BinarySearch(failed, l); bad {
				tr.CrossedFailure = true
				break
			}
		}
	}
	return tr, true
}

// Truth builds the ground-truth map for scoring, from the fabric's drop
// taps and the injected failure set, over every flow started so far (the
// current epoch's flows under EphemeralFlows). Only forward-direction
// data-packet drops count, matching the paper's attribution semantics.
func (cl *Cluster) Truth() map[int64]metrics.FlowTruth {
	out := make(map[int64]metrics.FlowTruth)
	for slot, rec := range cl.flows {
		if tr, failed := cl.flowTruth(slot, rec); failed {
			out[rec.id] = tr
		}
	}
	return out
}

// Flows returns records of all started flows (the current epoch's under
// EphemeralFlows).
func (cl *Cluster) Flows() []*flowRecord { return cl.flows }

// ID returns a flow record's identifier.
func (f *flowRecord) ID() int64 { return f.id }

// WireTuple returns the on-the-wire tuple (always DIP-addressed).
func (f *flowRecord) WireTuple() ecmp.FiveTuple { return f.wireTuple }

// Conn returns the underlying connection once started (nil before).
func (f *flowRecord) Conn() *Conn { return f.conn }
