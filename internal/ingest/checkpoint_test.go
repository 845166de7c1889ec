package ingest

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vigil/internal/engine"
	"vigil/internal/metrics"
)

// A checkpoint that cannot be written must not be silent: nothing past the
// last good Commit is acked, so without an error the agents' send windows
// fill and all the operator sees is a distant "send window" failure. The
// directory goes away after the first settle; the second settle's Commit
// fails, the collector stops the way a crash would, and Wait says why.
func TestCheckpointFailureStopsCollector(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var settled []int
	tctr := &metrics.TransportCounters{}
	col, err := ServeCollector(CollectorConfig{
		Listener: listen(t), CheckpointPath: filepath.Join(dir, "checkpoint"), Transport: tctr,
		Sink: func(res *engine.EpochResult) {
			settled = append(settled, res.Epoch)
			if res.Epoch == 1 { // epoch 0's settle is on disk; this one's will not be
				os.RemoveAll(dir)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	agentDone := make(chan error, 1)
	go func() {
		agentDone <- RunAgent(ctx, AgentConfig{
			Engine: newTestEngine(t, engine.Config{Seed: 9}, soakTopo, 0.05), Addr: col.Addr(), Epochs: 6, Seed: 9,
			Transport: fastTransport(),
		})
	}()
	err = col.Wait(ctx)
	if err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("Wait returned %v, want an error naming the checkpoint", err)
	}
	cancel()
	if err := <-agentDone; err == nil {
		t.Fatal("the agent finished against a collector that stopped")
	}
	// The sink saw epoch 1 before its Commit failed (at-least-once, as after a
	// crash), nothing later, and only epoch 0's settle was ever acked.
	if len(settled) != 2 || settled[0] != 0 || settled[1] != 1 {
		t.Fatalf("settled %v, want [0 1]", settled)
	}
	if got := tctr.Checkpoints.Load(); got != 1 {
		t.Fatalf("%d checkpoints written, want 1", got)
	}
	if got := tctr.AcksSent.Load(); got != 1 {
		t.Fatalf("%d acks sent, want 1: a failed Commit must ack nothing", got)
	}
}
