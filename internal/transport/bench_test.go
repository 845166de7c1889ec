package transport_test

import (
	"context"
	"net"
	"path/filepath"
	"testing"

	"vigil/internal/topology"
	"vigil/internal/transport"
	"vigil/internal/vote"
)

// tokenHandler is a no-op handler that announces each token's frame
// sequence, which is when a cycle's last frame has been decoded.
type tokenHandler struct{ tokens chan uint64 }

func (tokenHandler) OnHello(uint64, transport.Hello)            {}
func (tokenHandler) OnReport(uint64, vote.Report, uint8)        {}
func (tokenHandler) OnBye(uint64)                               {}
func (h tokenHandler) OnToken(_, seq uint64, _ transport.Token) { h.tokens <- seq }

// BenchmarkWireEpoch is one cycle of the wire and nothing else, at the
// shape bench/'s wire-replay workload records: 1,440 reports of five links
// and a token with 360 counts and 1,440 truth entries go client → loopback →
// server → no-op handler, then the durable ack and the cycle-end come back.
// It uses the public API only, so the same file measures any commit.
func BenchmarkWireEpoch(b *testing.B) {
	b.Run("memory", func(b *testing.B) { benchWireEpoch(b, "") })
	// The same cycle with every Commit made durable, as vigild runs it.
	b.Run("checkpoint", func(b *testing.B) { benchWireEpoch(b, filepath.Join(b.TempDir(), "checkpoint")) })
}

func benchWireEpoch(b *testing.B, checkpoint string) {
	const reports, session = 1440, 1
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	h := tokenHandler{tokens: make(chan uint64, 1)}
	srv, err := transport.Serve(transport.ServerConfig{Listener: ln, Handler: h, CheckpointPath: checkpoint})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := transport.NewClient(transport.ClientConfig{Addr: srv.Addr(), Session: session})
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()

	epoch := make([]vote.Report, reports)
	tok := transport.Token{Live: true, Summary: &transport.EpochSummary{HasTruth: true}}
	for i := range epoch {
		epoch[i] = vote.Report{FlowID: int64(i) * 40, Src: topology.HostID(i / 4), Dst: topology.HostID(i % 97),
			Seq: int32(i % 4), Path: []topology.LinkID{1, 2, 3, 4, 5}}
		if i%4 == 0 {
			tok.Counts = append(tok.Counts, transport.AgentCount{Agent: topology.HostID(i / 4), N: 4})
		}
		tok.Summary.Truth = append(tok.Summary.Truth, transport.TruthEntry{FlowID: int64(i) * 40, Culprit: 11, CrossedFailure: true})
	}

	ctx := context.Background()
	cycle := func(c int32) {
		for i := range epoch {
			epoch[i].Epoch = c
			if err := cli.SendReport(ctx, epoch[i], 0); err != nil {
				b.Fatal(err)
			}
		}
		tok.Cycle, tok.Summary.Epoch = c, c
		if err := cli.SendToken(ctx, tok); err != nil {
			b.Fatal(err)
		}
		if err := srv.Commit(int64(c), map[uint64]uint64{session: <-h.tokens}); err != nil {
			b.Fatal(err)
		}
		srv.SendCycleEnd(session, transport.CycleEnd{Cycle: c})
		if _, err := cli.WaitCycleEnd(ctx, c); err != nil {
			b.Fatal(err)
		}
	}
	cycle(0) // dial, handshake, first buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle(int32(i + 1))
	}
}

// BenchmarkCheckpointCommit is what making one settle durable costs: a
// Commit of one session's mark into a checkpoint file, with no connection
// to ack to. Public API only, so the same file measures any commit. Of the
// allocations it reports, two are the ack frame Commit builds; the
// checkpoint's own encode-and-write path has none.
func BenchmarkCheckpointCommit(b *testing.B) {
	const session = 1
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := transport.Serve(transport.ServerConfig{
		Listener: ln, Handler: tokenHandler{}, AppFresh: -1,
		CheckpointPath: filepath.Join(b.TempDir(), "checkpoint"),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	marks := map[uint64]uint64{session: 0}
	commit := func(i int) {
		marks[session] = uint64(i + 1)
		if err := srv.Commit(int64(i), marks); err != nil {
			b.Fatal(err)
		}
	}
	commit(0) // the session's record, the first write of either slot
	commit(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commit(i + 2)
	}
}
