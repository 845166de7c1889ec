package main

import (
	"bufio"
	"bytes"
	"net"
	"path/filepath"
	"sort"
	"time"

	"vigil/internal/analysis"
	"vigil/internal/des"
	"vigil/internal/engine"
	"vigil/internal/topology"
	"vigil/internal/transport"
	"vigil/internal/vote"
	"vigil/internal/wire"
)

// The stage replays run on traced slices, after the measured window: they
// time the layers' public functions on the inputs the run just used, which
// is how a stage gets a cost from outside the program.

// stageReps is how often each kept epoch is replayed through a stage.
const stageReps = 3

// stageAnalysis times analysis.Analyze and its parts over the kept epochs'
// settled reports.
func (r *run) stageAnalysis(sets [][]vote.Report, opts analysis.Options) {
	parent := r.rec.begin("stages.analysis")
	defer r.rec.end(parent)
	var analyze, allocs, sorts, tally, rank, detect, classify []float64
	stage := func(name string, epoch int, fn func()) float64 {
		return ms(r.rec.timed(name, parent, epoch, fn))
	}
	for rep := 0; rep < stageReps; rep++ {
		for i, reports := range sets {
			// The settled reports are already canonical, as they are when
			// they arrive in order; on lanes-lossy the service's own sort
			// sees them interleaved, so this is its lower bound.
			cp := append([]vote.Report(nil), reports...)
			o0, _, _ := r.allocs.read()
			analyze = append(analyze, stage("analysis.analyze", i, func() { analysis.Analyze(cp, opts) }))
			o1, _, _ := r.allocs.read()
			allocs = append(allocs, float64(o1-o0))

			sorts = append(sorts, stage("vote.sort", i, func() { vote.SortCanonical(cp) }))
			t := vote.NewTally()
			tally = append(tally, stage("vote.tally", i, func() { t.AddAll(cp) }))
			rank = append(rank, stage("vote.rank", i, func() { t.Ranking() }))
			var detected []topology.LinkID
			detect = append(detect, stage("vote.detect", i, func() {
				d := opts.Detect
				if d.Adjuster == nil {
					d.Adjuster = vote.NewObservedAdjuster(cp)
				}
				detected = vote.FindProblemLinks(t, d)
			}))
			classify = append(classify, stage("vote.classify", i, func() { vote.ClassifyFlows(t, detected, cp) }))
		}
	}
	l := r.res.Layer
	if l["analysis.analyze_ms_p50"] == 0 { // the batch loop times its own
		l["analysis.analyze_ms_p50"] = median(analyze)
		r.res.Samples["analysis.analyze_ms_p50"] = len(analyze)
	}
	l["analysis.allocs_per_epoch"] = median(allocs)
	l["vote.sort_ms_p50"] = median(sorts)
	l["vote.tally_ms_p50"] = median(tally)
	l["vote.rank_ms_p50"] = median(rank)
	l["vote.detect_ms_p50"] = median(detect)
	l["vote.classify_ms_p50"] = median(classify)
}

// epochToken builds the cycle token an agent ships for a Step result: the
// per-agent expected counts and the epoch summary.
func epochToken(res *engine.EpochResult) transport.Token {
	t := transport.Token{Cycle: int32(res.Epoch), Live: true}
	for i, rs := 0, res.Reports; i < len(rs); {
		j := i
		for j < len(rs) && rs[j].Src == rs[i].Src {
			j++
		}
		t.Counts = append(t.Counts, transport.AgentCount{Agent: rs[i].Src, N: int32(j - i)})
		i = j
	}
	sum := &transport.EpochSummary{
		Epoch: int32(res.Epoch), TotalFlows: int32(res.TotalFlows),
		FailedFlows: int32(res.FailedFlows), TotalDrops: int32(res.TotalDrops),
		HasFailed: res.FailedLinks != nil, FailedLinks: res.FailedLinks,
		HasTruth: res.Truth != nil,
	}
	for id, ft := range res.Truth {
		sum.Truth = append(sum.Truth, transport.TruthEntry{FlowID: id, Culprit: ft.Culprit, CrossedFailure: ft.CrossedFailure})
	}
	sort.Slice(sum.Truth, func(i, j int) bool { return sum.Truth[i].FlowID < sum.Truth[j].FlowID })
	t.Summary = sum
	return t
}

// nopHandler lets a transport.Server run with nobody listening, for timing
// Commit alone.
type nopHandler struct{}

func (nopHandler) OnHello(uint64, transport.Hello)         {}
func (nopHandler) OnReport(uint64, vote.Report, uint8)     {}
func (nopHandler) OnToken(uint64, uint64, transport.Token) {}
func (nopHandler) OnBye(uint64)                            {}

// stageTransport times what the wire path adds per epoch: the frame codec
// over the trace's reports and tokens, and Server.Commit (temp file, fsync,
// rename) in the run's own checkpoint directory.
func (r *run) stageTransport(replay *replayEngine, dir string) {
	parent := r.rec.begin("stages.transport")
	defer r.rec.end(parent)
	var encode, decode, token time.Duration
	var reports, frameBytes int
	for rep := 0; rep < stageReps; rep++ {
		for e, res := range replay.trace {
			rs := replay.epochReports(e)
			var stream []byte
			encode += r.rec.timed("transport.encode", parent, e, func() {
				for i, rep := range rs {
					stream = append(stream, transport.Frame(transport.AppendReport(nil, transport.Report{Seq: uint64(i + 1), R: rep}))...)
				}
			})
			br := bufio.NewReader(bytes.NewReader(stream))
			decode += r.rec.timed("transport.decode", parent, e, func() {
				for range rs {
					_, payload, err := transport.ReadFrame(br, transport.DefaultMaxFrame)
					if err == nil {
						_, err = transport.DecodeReport(payload)
					}
					if err != nil {
						r.failf("report frame does not round-trip: %v", err)
						return
					}
				}
			})
			reports += len(rs)
			frameBytes += len(stream)
			tok := epochToken(res)
			token += r.rec.timed("transport.token", parent, e, func() {
				body := transport.AppendToken(nil, tok)
				if _, err := transport.DecodeToken(body[1:]); err != nil {
					r.failf("token does not round-trip: %v", err)
				}
			})
		}
	}
	epochs := float64(stageReps * len(replay.trace))
	l := r.res.Layer
	l["transport.encode_ns_per_report"] = float64(encode) / float64(reports)
	l["transport.decode_ns_per_report"] = float64(decode) / float64(reports)
	l["transport.bytes_per_report"] = float64(frameBytes) / float64(reports)
	l["transport.token_codec_us"] = float64(token) / epochs / 1e3
	r.codecMsPerEpoch = ms(encode+decode+token) / epochs

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.failf("commit stage: %v", err)
		return
	}
	srv, err := transport.Serve(transport.ServerConfig{
		Listener: ln, Handler: nopHandler{}, AppFresh: -1,
		CheckpointPath: filepath.Join(dir, "stage-checkpoint"),
	})
	if err != nil {
		r.failf("commit stage: %v", err)
		return
	}
	defer srv.Close()
	const commits = 50
	var commit []float64
	for i := 0; i < commits; i++ {
		commit = append(commit, ms(r.rec.timed("transport.commit", parent, i, func() {
			if err := srv.Commit(int64(i), map[uint64]uint64{0: uint64(i + 1)}); err != nil {
				r.failf("commit stage: %v", err)
			}
		})))
	}
	l["transport.commit_ms_p50"] = median(commit)
	r.res.Samples["transport.commit_ms_p50"] = commits
}

// countEvents is the cheapest des.Handler there is, so that the scheduler's
// own post-and-pop cost is what gets timed.
type countEvents struct{ n int }

func (c *countEvents) HandleEvent(int32, int64, any) { c.n++ }

// stagePacketPlane times the two packet-plane layers that have a public
// seam: the scheduler's cost per typed event and the TCP/IPv4 header codec
// per segment. fabric has none, and waits for in-program tracing.
func (r *run) stagePacketPlane() {
	parent := r.rec.begin("stages.packet")
	defer r.rec.end(parent)
	const batches, perBatch = 100, 10_000
	var s des.Scheduler
	h := &countEvents{}
	spent := r.rec.timed("des.post_and_run", parent, -1, func() {
		for b := 0; b < batches; b++ {
			base := s.Now()
			for i := 0; i < perBatch; i++ {
				// Scattered times, so events go through the heap and not
				// only the monotone fast lane.
				s.Post(base+des.Time(i*7919%perBatch), h, 0, int64(i), nil)
			}
			s.Drain(perBatch)
		}
	})
	if h.n != batches*perBatch {
		r.failf("des stage ran %d events, posted %d", h.n, batches*perBatch)
	}
	r.res.Layer["des.ns_per_event"] = float64(spent) / float64(batches*perBatch)

	const segments = 200_000
	buf := wire.NewBuffer(wire.IPv4HeaderLen + wire.TCPHeaderLen)
	spent = r.rec.timed("wire.tcp_codec", parent, -1, func() {
		for i := 0; i < segments; i++ {
			// Header-only segments, as the cluster's hosts send them.
			ip := wire.IPv4{TTL: 64, Protocol: wire.ProtoTCP, Src: 0x0a000001, Dst: 0x0a000002 + uint32(i)}
			tcp := wire.TCP{SrcPort: 40000, DstPort: 443, Seq: uint32(i), Flags: wire.FlagACK, Window: 64}
			buf.Reset(wire.IPv4HeaderLen + wire.TCPHeaderLen)
			tcp.SerializeTo(buf, &ip)
			ip.SerializeTo(buf)
			var gotIP wire.IPv4
			var gotTCP wire.TCP
			segment, err := wire.DecodeIPv4(buf.Bytes(), &gotIP)
			if err == nil {
				_, err = wire.DecodeTCP(segment, &gotTCP)
			}
			if err != nil || gotTCP.Seq != uint32(i) || !wire.VerifyTCPChecksum(segment, gotIP.Src, gotIP.Dst) {
				r.failf("tcp segment %d does not round-trip: %v", i, err)
				return
			}
		}
	})
	r.res.Layer["wire.tcp_codec_ns"] = float64(spent) / segments
}
