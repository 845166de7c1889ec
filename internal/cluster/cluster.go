// Package cluster is the multi-node emulation: every host runs the real
// 007 host agent (retransmission → SLB query → traceroute → vote report)
// over the packet-level fabric, and a central analysis agent tallies the
// epoch — the same composition as the paper's test cluster (§7) and
// production deployment (§8). Step hands each epoch's reports over
// in-process; the wire path is internal/transport, driven by
// internal/ingest.
//
// Epoch state is kept dense for the hot path: per-flow drop counts live in
// a flow-indexed arena of small inline link/count sets (not nested maps),
// the failure set (a schedule.Failures) caches its sorted snapshot, and
// connections are recycled once an epoch closes, so steady-state epochs
// run allocation-free and long scenario timelines stay bounded in memory.
// Every segment names its connection's life in its tag: no packet-path
// state is keyed by a wire tuple.
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
	// connection (default 6), so that the straggler test's connections
	// live through many short RTOs and their stragglers reach reused
	// Conns.
	MaxRetries int
	// RTTThresholdMicros, when positive, also triggers path discovery for
	// flows whose smoothed RTT crosses the threshold — the §9.2 latency
	// diagnosis extension.
	RTTThresholdMicros int64
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
	// reports collects the running epoch's reports in emission order, and
	// emit, set for the length of a Step, sees each one as it is made.
	reports []vote.Report
	emit    func(vote.Report)

	// fails is the failure set — injected links, their sorted snapshot and
	// the rate schedules — over the fabric's SetDropRate/ResetDropRate.
	fails *schedule.Failures

	flows []*Conn
	// closed is set when an epoch closes: its flow state recycles before
	// the next epoch touches any (see recycle).
	closed bool
	// nextFlowID numbers flows across the whole run; it never resets, so
	// recycled epochs still emit globally unique, deterministic IDs.
	nextFlowID int64

	// connPool is the connection free list.
	connPool []*Conn
	// connTab holds every Conn object ever made, at its index: the table a
	// segment's tag is resolved through (see Conn.tag).
	connTab []*Conn

	// dropArena is the dense per-flow drop ground truth: a connection life
	// that lost data holds its index there, and the arena holds small
	// inline link/count sets — no nested maps on the tap path.
	dropArena []flowDropSet
	// epochDrops counts data-packet drops observed this epoch.
	epochDrops int

	// genFlows is StartWorkload's reusable generation buffer.
	genFlows []traffic.Flow
	// pathBuf is the flow-truth path scratch.
	pathBuf ecmp.PathBuf

	epochStart des.Time
	// Epoch rotation state: epochIdx is the epoch fails applies schedules for;
	// epochFirstFlow marks where the current epoch's flows begin in flows;
	// lastEpoch is the frame Step captured before rolling.
	epochIdx       int
	epochFirstFlow int
	lastEpoch      EpochFrame
	// agentSeq assigns each host agent's next report sequence number,
	// dense by HostID, reset at every epoch roll — reports leave the
	// cluster with the (agent, epoch, seq) identity streaming ingest keys
	// gap detection and duplicate suppression on.
	agentSeq []int32
}

// flowDropSet is one flow's per-link drop counts, an inline set sized for
// the longest Clos path. It never overflows: the tap counts only forward
// data drops of one connection, and its data packets all take its wire
// tuple's one ECMP path of at most ecmp.MaxPathLinks links.
type flowDropSet struct {
	links [ecmp.MaxPathLinks]topology.LinkID
	cnts  [ecmp.MaxPathLinks]int32
	n     int32
}

// HandleEvent opens a scheduled connection (the cluster's typed DES event;
// its arg is the sending host, its payload the Conn).
func (cl *Cluster) HandleEvent(kind int32, src int64, p any) {
	_ = kind // evStartFlow is the only kind the cluster schedules
	cl.Hosts[src].open(p.(*Conn))
}

// countDrop records one dropped data packet against a connection life in
// the dense arena. The arena is truncated, not freed, when flows recycle,
// so steady state reuses its capacity.
func (cl *Cluster) countDrop(c *Conn, l topology.LinkID) {
	if c.drops == 0 {
		cl.dropArena = append(cl.dropArena, flowDropSet{})
		c.drops = int32(len(cl.dropArena))
	}
	set := &cl.dropArena[c.drops-1]
	for i := int32(0); i < set.n; i++ {
		if set.links[i] == l {
			set.cnts[i]++
			return
		}
	}
	set.links[set.n] = l
	set.cnts[set.n] = 1
	set.n++
}

// getConn produces a connection object from the pool. Pooled reuse bumps
// the tag's incarnation (so a previous life's segments and timer events
// stay dead) and keeps the table index, the sentAt ring and pending-timer
// capacity; everything else, the receiver's state included, resets.
func (cl *Cluster) getConn() *Conn {
	if n := len(cl.connPool); n > 0 {
		c := cl.connPool[n-1]
		cl.connPool[n-1] = nil
		cl.connPool = cl.connPool[:n-1]
		*c = Conn{tag: c.tag + 1<<32, sentAt: c.sentAt, pending: c.pending[:0]}
		return c
	}
	c := &Conn{tag: uint64(len(cl.connTab)) + 1}
	cl.connTab = append(cl.connTab, c)
	return c
}

// conn resolves a segment's tag to the Conn life it names, or nil when
// that life is over (its Conn reused) or the tag names none (zero, for
// probes and ICMP).
func (cl *Cluster) conn(tag uint64) *Conn {
	i := uint64(uint32(tag)) - 1
	if i >= uint64(len(cl.connTab)) {
		return nil
	}
	if c := cl.connTab[i]; c.tag == tag {
		return c
	}
	return nil
}

func (cl *Cluster) putConn(c *Conn) { cl.connPool = append(cl.connPool, c) }

// EpochFrame is one epoch as Step closes it: the reports the host agents
// sent, and the ground truth the plane-agnostic engine scores them against —
// the failure set that was live during the epoch and the outcome of the
// flows started in it.
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
	// Reports holds the epoch's reports in canonical (agent, epoch, seq)
	// order, in a slice of the caller's own.
	Reports []vote.Report
}

// epochLength is the tally interval: an epoch runs 30 virtual seconds.
const epochLength = 30 * des.Second

// sendWindow is the host stack's send window in segments.
const sendWindow = 8

// evStartFlow is the cluster's typed DES event: a scheduled connection
// opening.
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
		cfg:      cfg,
		Topo:     cfg.Topo,
		Sched:    sched,
		Router:   router,
		Net:      net,
		SLB:      slb.New(cfg.Topo, rng.Split()),
		rng:      rng,
		agentSeq: make([]int32, len(cfg.Topo.Hosts)),
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

// ClearAllFailures restores every failed link to its baseline rate; a
// scheduled link fails again at the next epoch that finds it active.
func (cl *Cluster) ClearAllFailures() { cl.fails.ClearAll() }

// ScheduleFailure attaches an epoch-indexed rate schedule to a link from the
// next epoch on, exactly as on the flow plane (schedule.Failures.Schedule).
func (cl *Cluster) ScheduleFailure(l topology.LinkID, s schedule.RateSchedule) error {
	return cl.fails.Schedule(l, s)
}

// ClearSchedules detaches every rate schedule and restores the scheduled
// links to their baseline rates, dropping them from the failure set.
func (cl *Cluster) ClearSchedules() { cl.fails.ClearSchedules() }

// EpochIndex returns the index the next Step will emulate (the number of
// epochs run so far).
func (cl *Cluster) EpochIndex() int { return cl.epochIdx }

// FailedLinks returns the injected failure set, sorted. The snapshot is
// cached between failure-set changes; callers must not mutate it.
func (cl *Cluster) FailedLinks() []topology.LinkID { return cl.fails.Sorted() }

// report stamps a host agent's report with its stable identity — the
// reporting agent (Src), the current epoch, and the agent's next dense
// sequence number — collects it and streams it to Step's emit. Stamping
// here, at the single choke point every report passes through, is what
// guarantees the gap-free-per-(agent, epoch) invariant ingest relies on.
func (cl *Cluster) report(r vote.Report) {
	r.Epoch = int32(cl.epochIdx)
	r.Seq = cl.agentSeq[r.Src]
	cl.agentSeq[r.Src]++
	cl.reports = append(cl.reports, r)
	if cl.emit != nil {
		cl.emit(r)
	}
}

// groundTruthTap harvests per-flow per-link drops of data packets: the
// dropped packet's tag names a connection life, and the drop counts for
// that life while its epoch holds it. Probes and ICMP carry no tag, and
// ACKs (which echo their data's tag) travel from the life's peer, so only
// forward-direction data drops count — the paper's attribution semantics.
func (cl *Cluster) groundTruthTap(ev fabric.TapEvent) {
	c := cl.conn(ev.Tag)
	if c == nil || c.ID < 0 || ev.IP.Src != c.host.ip {
		return
	}
	cl.countDrop(c, ev.Egress)
	cl.epochDrops++
}

// StartFlow opens a direct (DIP-addressed) connection at time at.
func (cl *Cluster) StartFlow(f traffic.Flow, at des.Time) {
	cl.startConn(f.Src, f.Tuple, f.Packets, at).peer = f.Dst
}

// StartVIPFlow opens a connection to a VIP service: the SLB assigns a DIP
// when the connection opens (and the flow's packets carry it) while TCP —
// and therefore 007's monitoring — sees the VIP.
func (cl *Cluster) StartVIPFlow(src topology.HostID, vip uint32, vipPort uint16, packets int, at des.Time) error {
	srcPort := uint16(cl.rng.IntRange(32768, 65535))
	if !cl.SLB.IsVIP(vip) {
		return fmt.Errorf("cluster: unknown VIP %s", topology.FormatIP(vip))
	}
	cl.startConn(src, ecmp.FiveTuple{
		SrcIP: cl.Topo.Hosts[src].IP, DstIP: vip,
		SrcPort: srcPort, DstPort: vipPort, Proto: ecmp.ProtoTCP,
	}, packets, at)
	return nil
}

// startConn schedules a connection life of packets packets from src on
// tuple t (its app and, until a VIP flow opens, its wire tuple) to open at
// time at, and returns its Conn.
func (cl *Cluster) startConn(src topology.HostID, t ecmp.FiveTuple, packets int, at des.Time) *Conn {
	cl.recycle()
	c := cl.getConn()
	c.ID = cl.nextFlowID
	cl.nextFlowID++
	c.appTuple, c.WireTuple = t, t
	c.total = uint32(packets)
	cl.flows = append(cl.flows, c)
	cl.Sched.Post(at, cl, evStartFlow, int64(src), c)
	return c
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

// Step drives one epoch of the emulation: settle scripted link rates, run
// virtual time to the end of the epoch (plus a small grace period for
// in-flight traceroutes), roll the host agents' epochs and close the epoch
// into its frame. emit, if non-nil, sees each report as a host agent makes
// it, in the deterministic order of virtual time; the frame carries the
// same reports in canonical order. Flows() describes the epoch just run
// until the next epoch's first flow start.
func (cl *Cluster) Step(emit func(vote.Report)) EpochFrame {
	cl.recycle()
	// Settle scripted link rates before any of the epoch's queued packets
	// fly (StartWorkload and StartFlow only enqueue virtual-time events;
	// nothing transmits until RunUntil). A schedule emitting a rate outside
	// [0, 1] is a broken script and panics loudly, as on the flow plane.
	if err := cl.fails.Apply(cl.epochIdx); err != nil {
		panic(fmt.Sprintf("cluster: %v", err))
	}
	cl.emit = emit
	cl.Sched.RunUntil(cl.epochStart + epochLength + 2*des.Second)
	cl.emit = nil
	cl.epochStart = cl.Sched.Now()
	for _, h := range cl.Hosts {
		h.Agent.NewEpoch()
		h.held = h.held[:0]
	}
	for _, c := range cl.connTab { // open lives are live in the new epoch too
		if c.host != nil && !c.Done && !c.Failed {
			c.host.held = append(c.host.held, c.appTuple, c.WireTuple)
		}
	}
	cl.lastEpoch = cl.closeEpoch()
	return cl.lastEpoch
}

// RunEpoch is Step followed by 007's analysis of the epoch's reports.
func (cl *Cluster) RunEpoch() *analysis.Result {
	return analysis.Analyze(cl.Step(nil).Reports, paperAnalysis)
}

// paperAnalysis runs Algorithm 1 at the paper's threshold: 1 % of the
// epoch's votes.
var paperAnalysis = analysis.Options{Detect: vote.DetectOptions{ThresholdFrac: 0.01}}

// closeEpoch frames the closing epoch — its ground truth, while the failure
// set is still the epoch's settled one, and its reports — and rolls the
// per-epoch bookkeeping. The connections stay in flows, readable, until
// recycle.
func (cl *Cluster) closeEpoch() EpochFrame {
	epochFlows := cl.flows[cl.epochFirstFlow:]
	fr := EpochFrame{
		Index:       cl.epochIdx,
		FailedLinks: cl.FailedLinks(),
		Flows:       len(epochFlows),
		Drops:       cl.epochDrops,
		Truth:       make(map[int64]metrics.FlowTruth, 8),
		Reports:     make([]vote.Report, len(cl.reports)),
	}
	for _, c := range epochFlows {
		tr, failed := cl.flowTruth(c)
		if !failed {
			continue
		}
		fr.FailedFlows++
		fr.Truth[c.ID] = tr
	}
	copy(fr.Reports, cl.reports)
	vote.SortCanonical(fr.Reports)
	cl.reports = cl.reports[:0]
	cl.epochIdx++
	cl.epochDrops = 0
	clear(cl.agentSeq)
	cl.closed = true
	return fr
}

// recycle returns a closed epoch's connections to the free list, once,
// before the next epoch touches any: at its first flow start or, if it
// starts none, at its Step. Connections whose start is still scheduled
// stay, at the head of flows (the epoch that started them has framed them
// already). The drop arena resets, keeping capacity; every opened
// connection's flow ID becomes -1, so from here on its drops and flow ID
// count for nothing. Finished connections go to the pool, and those still
// in flight recycle themselves when they close.
func (cl *Cluster) recycle() {
	if !cl.closed {
		return
	}
	cl.closed = false
	old := cl.flows
	cl.flows = cl.flows[:0]
	for _, c := range old {
		if c.host == nil { // its start is still scheduled
			cl.flows = append(cl.flows, c)
			continue
		}
		c.ID = -1
		if c.Done || c.Failed {
			cl.putConn(c)
		}
	}
	cl.dropArena = cl.dropArena[:0]
	cl.epochFirstFlow = len(cl.flows)
}

// LastEpoch returns the frame of the most recently completed epoch: what
// Step returned, for a caller that ran the epoch through RunEpoch.
func (cl *Cluster) LastEpoch() EpochFrame { return cl.lastEpoch }

// flowTruth derives one flow's ground truth from the tap-harvested drop
// counts and the current failure set; failed is false when the flow lost no
// data packets.
func (cl *Cluster) flowTruth(c *Conn) (tr metrics.FlowTruth, failed bool) {
	// A flow's ground truth is its max-count link, the lowest link id on
	// ties.
	best := topology.NoLink
	bestN := int32(0)
	if c.drops > 0 {
		set := &cl.dropArena[c.drops-1]
		for j := int32(0); j < set.n; j++ {
			l, n := set.links[j], set.cnts[j]
			if n > bestN || (n == bestN && best != topology.NoLink && l < best) {
				best, bestN = l, n
			}
		}
	}
	if best == topology.NoLink {
		return metrics.FlowTruth{}, false
	}
	tr = metrics.FlowTruth{Culprit: best}
	if err := cl.Router.PathInto(c.host.id, c.peer, c.WireTuple, &cl.pathBuf); err == nil {
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

// Flows returns the connections started in the epoch just run, after any
// from the epoch before whose start was still scheduled when it closed.
// They stay readable until the next epoch's first flow start.
func (cl *Cluster) Flows() []*Conn { return cl.flows }
