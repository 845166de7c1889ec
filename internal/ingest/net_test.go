package ingest

import (
	"context"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"vigil/internal/engine"
	"vigil/internal/metrics"
	"vigil/internal/topology"
	"vigil/internal/transport"
	"vigil/internal/vote"
)

// listen returns a loopback listener for a collector under test.
func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// fastTransport keeps networked tests snappy: tight polls, quick reconnect
// backoff, fast liveness.
func fastTransport() transport.ClientConfig {
	return transport.ClientConfig{
		WaitPoll:    10 * time.Millisecond,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  100 * time.Millisecond,
	}
}

// waitCollector bounds a collector Wait so a wedged pipeline fails the
// test instead of hanging it.
func waitCollector(t *testing.T, col *NetCollector) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := col.Wait(ctx); err != nil {
		t.Fatalf("collector never finished: %v", err)
	}
}

// The networked extension of TestFaultFreeBitIdentical: with no faults on
// the wire, epochs settled across a real TCP socket are bit-identical to
// the batch engine's EpochResults — on both planes, and on the packet plane
// also through a proxy that severs the session once it has settled epoch
// 0: the agent resumes, and every epoch still settles once, in order, as
// the batch run has it.
func TestFaultFreeBitIdenticalNetworked(t *testing.T) {
	for _, plane := range []engine.Plane{engine.Flow, engine.Packet} {
		t.Run(string(plane), func(t *testing.T) {
			topoCfg := equivTopo
			epochs := 5
			cuts := []bool{false}
			if plane == engine.Packet {
				topoCfg = topology.Config{Pods: 2, ToRsPerPod: 4, T1PerPod: 3, T2: 2, HostsPerToR: 2}
				epochs = 3
				cuts = append(cuts, true)
			}
			cfg := engine.Config{Plane: plane, Seed: 7, Parallelism: 4}
			batch := newTestEngine(t, cfg, topoCfg, 0.02)
			want := make([]*engine.EpochResult, epochs)
			for i := range want {
				want[i] = batch.RunEpoch()
			}

			for _, cut := range cuts {
				eng := newTestEngine(t, cfg, topoCfg, 0.02)
				var mu sync.Mutex
				var got []*engine.EpochResult
				var proxy *transport.Proxy
				col, err := ServeCollector(CollectorConfig{
					Listener:    listen(t),
					Parallelism: 4,
					Sink: func(res *engine.EpochResult) {
						mu.Lock()
						got = append(got, res)
						mu.Unlock()
						if proxy != nil && res.Epoch == 0 {
							proxy.CutAll()
						}
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer col.Close()
				addr := col.Addr()
				if cut {
					if proxy, err = transport.NewProxy("127.0.0.1:0", transport.ProxyConfig{Target: addr, Seed: 3}); err != nil {
						t.Fatal(err)
					}
					defer proxy.Close()
					addr = proxy.Addr()
				}

				ctr := &metrics.TransportCounters{}
				if err := RunAgent(context.Background(), AgentConfig{
					Engine: eng, Addr: addr, Epochs: epochs, Seed: 7,
					Counters: ctr, Transport: fastTransport(),
				}); err != nil {
					t.Fatal(err)
				}
				waitCollector(t, col)

				if len(got) != epochs {
					t.Fatalf("cut %v: settled %d epochs over the wire, want %d", cut, len(got), epochs)
				}
				for i, res := range got {
					if !reflect.DeepEqual(res, want[i]) {
						t.Fatalf("cut %v: epoch %d: networked settle diverged from batch RunEpoch", cut, i)
					}
				}
				if cut {
					if n := proxy.InjCuts.Load(); n < 1 || ctr.Resumes.Load() != n {
						t.Fatalf("Resumes = %d, want InjCuts = %d (at least one)", ctr.Resumes.Load(), n)
					}
				}
			}
		})
	}
}

// pacedEngine takes 50ms of wall clock per epoch.
type pacedEngine struct{ engine.Engine }

func (e pacedEngine) Step(emit func(vote.Report)) *engine.EpochResult {
	time.Sleep(50 * time.Millisecond)
	return e.Engine.Step(emit)
}

// A collector crash mid-run loses nothing: the restarted collector loads
// the checkpoint, sessions resume and replay past their durable
// watermarks, and every epoch settles exactly once across the two
// incarnations.
func TestNetCollectorCrashRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	eng := pacedEngine{newTestEngine(t, engine.Config{Seed: 9}, soakTopo, 0.05)}
	const epochs = 6

	record := func(dst *[]int, mu *sync.Mutex) func(*engine.EpochResult) {
		return func(res *engine.EpochResult) {
			mu.Lock()
			*dst = append(*dst, res.Epoch)
			mu.Unlock()
		}
	}
	var mu sync.Mutex
	var settled1, settled2 []int

	srvCtr := &metrics.TransportCounters{}
	col1, err := ServeCollector(CollectorConfig{
		Listener: listen(t), CheckpointPath: path, Sink: record(&settled1, &mu), Transport: srvCtr,
	})
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := transport.NewProxy("127.0.0.1:0", transport.ProxyConfig{Target: col1.Addr(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	tctr := &metrics.TransportCounters{}
	agentErr := make(chan error, 1)
	go func() {
		agentErr <- RunAgent(context.Background(), AgentConfig{
			Engine: eng, Addr: proxy.Addr(), Epochs: epochs, Seed: 9,
			Counters:  tctr,
			Transport: fastTransport(),
		})
	}()

	// Crash the collector right after its second settle is durably
	// checkpointed (epochs 0 and 1). The engine is paced, so the next settle
	// is comfortably far away.
	deadline := time.Now().Add(30 * time.Second)
	for srvCtr.Checkpoints.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("collector never checkpointed twice")
		}
		time.Sleep(2 * time.Millisecond)
	}
	col1.Close()
	// Close returned, so the session readers and the analysis goroutine have
	// exited: whatever was analyzed ahead of its settle is dropped, and the
	// first incarnation's sink is never called again (its record below must
	// stay what it is now). No other server runs in this process now.
	select {
	case <-col1.an.done:
	default:
		t.Fatal("the analysis goroutine outlived Close")
	}
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "transport.(*Server).handle") {
		t.Fatalf("a session reader outlived Close:\n%s", stacks)
	}
	mu.Lock()
	atClose := slices.Clone(settled1)
	mu.Unlock()

	col2, err := ServeCollector(CollectorConfig{
		Listener: listen(t), CheckpointPath: path, Sink: record(&settled2, &mu),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer col2.Close()
	proxy.Retarget(col2.Addr())

	select {
	case err := <-agentErr:
		if err != nil {
			t.Fatalf("agent failed across the restart: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("agent never finished")
	}
	waitCollector(t, col2)

	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(settled1, atClose) {
		t.Fatalf("incarnation 1's sink ran after Close: %v, then %v", atClose, settled1)
	}
	if want := []int{0, 1}; !reflect.DeepEqual(settled1, want) {
		t.Fatalf("incarnation 1 settled %v, want %v", settled1, want)
	}
	if want := []int{2, 3, 4, 5}; !reflect.DeepEqual(settled2, want) {
		t.Fatalf("incarnation 2 settled %v, want %v", settled2, want)
	}
	if tctr.Resumes.Load() < 1 {
		t.Fatal("the agent never resumed across the collector restart")
	}
}

// Close lands while the session's reader still has the next cycles' frames
// to hand over, as a replay after a restart has them: it lands at the sink
// of the cycle that settles epoch 2, where the settle either delivers epoch
// 2 or gives up waiting for its analysis. Either way the collector takes no
// further frame, so the sink never gets an epoch past 2, nor an epoch with
// another epoch's verdicts, and the watermark a commit reaches never passes
// the last epoch the sink got.
func TestNetCollectorCloseWithQueuedCycles(t *testing.T) {
	const epochs, grace, closeAt = 6, 2, 4
	eng := newTestEngine(t, engine.Config{Seed: 5}, soakTopo, 0.05)
	an := eng.Analysis()
	hello := transport.Hello{ThresholdFrac: an.Detect.ThresholdFrac}
	reports := make([][]vote.Report, epochs+grace+1)
	tokens := make([]transport.Token, len(reports))
	for cycle := range tokens {
		tokens[cycle] = transport.Token{Cycle: int32(cycle)}
		if cycle < epochs {
			res := eng.Step(func(r vote.Report) {
				r.Path = slices.Clone(r.Path)
				reports[cycle] = append(reports[cycle], r)
			})
			tokens[cycle] = buildToken(int32(cycle), res)
		}
	}

	type delivery struct {
		epoch    int
		analysis string
	}
	// run hands every cycle's frames to a fresh collector, on a goroutine of
	// its own, as its only session's reader would, and waits for it to
	// finish; when shut, Close comes in from this goroutine while the reader
	// is inside the closing cycle's settle.
	run := func(shut bool) (got []delivery, watermark int64) {
		closing := make(chan struct{})
		cfg := CollectorConfig{
			Listener: listen(t), Grace: grace,
			Sink: func(res *engine.EpochResult) {
				got = append(got, delivery{res.Epoch, fmt.Sprint(res.Ranking, res.Detected, res.Verdicts)})
			},
		}
		if shut {
			cfg.probe = func(col *NetCollector, at cycleStage, cycle int32) {
				if at == beforeSink && cycle == closeAt {
					close(closing)
					<-col.quit // Close is in before the settle waits for its analysis
				}
			}
		}
		col, err := ServeCollector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fed := make(chan struct{})
		go func() {
			defer close(fed)
			h := (*netHandler)(col)
			h.OnHello(1, hello)
			seq := uint64(0)
			for cycle, tok := range tokens {
				for _, r := range reports[cycle] {
					h.OnReport(1, r, 0)
					seq++
				}
				seq++
				h.OnToken(1, seq, tok)
			}
			if !shut {
				h.OnBye(1)
			}
		}()
		if shut {
			<-closing
			col.Close()
		}
		select {
		case <-fed:
		case <-time.After(60 * time.Second):
			t.Fatal("the reader never got through its frames")
		}
		if !shut {
			waitCollector(t, col)
		}
		col.Close()
		return got, col.srv.AppState()
	}

	want, _ := run(false)
	if len(want) != epochs {
		t.Fatalf("the uninterrupted run settled %d epochs, want %d", len(want), epochs)
	}
	abandoned := 0
	for i := 0; i < 40; i++ {
		got, watermark := run(true)
		for e, d := range got {
			if e >= len(want) || d != want[e] {
				t.Fatalf("run %d: the sink's delivery %d, epoch %d, is not the uninterrupted run's epoch %d", i, e, d.epoch, e)
			}
		}
		if len(got) < closeAt-grace || len(got) > closeAt-grace+1 {
			t.Fatalf("run %d: the sink got %d epochs around a Close at the settle of epoch %d", i, len(got), closeAt-grace)
		}
		if last := int64(got[len(got)-1].epoch); watermark > last {
			t.Fatalf("run %d: the watermark reached epoch %d, the sink only %d", i, watermark, last)
		}
		if len(got) == closeAt-grace {
			abandoned++
		}
	}
	t.Logf("the settle of epoch %d gave up its wait in %d of 40 runs", closeAt-grace, abandoned)
}

// The networked twin of TestServiceRunsOnCallersGoroutine: a session's
// reader settles the cycle its token completes. At every settle the sink
// runs on a transport.(*Server).handle goroutine, no other goroutine is in
// the collector's code, and there is exactly one analyst.
func TestNetCollectorSettlesOnReaders(t *testing.T) {
	const epochs = 5
	sinks := 0
	buf := make([]byte, 1<<20)
	col, err := ServeCollector(CollectorConfig{
		Listener: listen(t), MaxRetries: 1,
		Sink: func(*engine.EpochResult) {
			sinks++
			inCollector, analysts := 0, 0
			for i, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
				if i == 0 && !strings.Contains(g, "transport.(*Server).handle") {
					t.Errorf("the sink runs outside a session reader:\n%s", g)
				}
				switch {
				case strings.Contains(g, "ingest.(*NetCollector)") || strings.Contains(g, "ingest.(*netHandler)"):
					inCollector++
				case strings.Contains(g, "ingest.(*analyst).run"):
					analysts++
				}
			}
			if inCollector != 1 || analysts != 1 {
				t.Errorf("%d goroutines in the collector and %d analysts at a settle, want 1 and 1", inCollector, analysts)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	if err := RunAgent(context.Background(), AgentConfig{
		Engine: newTestEngine(t, engine.Config{Seed: 13}, soakTopo, 0.05), Addr: col.Addr(), Epochs: epochs, Seed: 13,
		Transport: fastTransport(),
	}); err != nil {
		t.Fatal(err)
	}
	waitCollector(t, col)
	if sinks != epochs {
		t.Fatalf("the sink ran %d times, want %d", sinks, epochs)
	}
}

// The collector finishes at the last session's goodbye, not the first: a
// session that is through leaves the collector serving the others.
func TestNetCollectorWaitsForEveryBye(t *testing.T) {
	col, err := ServeCollector(CollectorConfig{Listener: listen(t), Sessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	h := (*netHandler)(col)
	h.OnHello(0, transport.Hello{})
	h.OnHello(1, transport.Hello{})
	h.OnBye(0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := col.Wait(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Wait after one of two goodbyes returned %v, want it still waiting", err)
	}
	h.OnBye(1)
	waitCollector(t, col)
}

// The networked chaos soak: seeded drops, duplicates, reorders and
// mid-frame cuts on the wire, plus a full partition healed mid-run. Every
// epoch still settles exactly once, in order; conservation holds; and the
// resume counter matches the injected cut count exactly.
func TestNetChaosSoak(t *testing.T) {
	eng := &countingEngine{Engine: newTestEngine(t, engine.Config{Seed: 23}, soakTopo, 0.05)}
	const epochs = 20

	var mu sync.Mutex
	var settled []int
	var proxy *transport.Proxy
	var partitionOnce sync.Once
	ictr, srvCtr := &metrics.IngestCounters{}, &metrics.TransportCounters{}
	col, err := ServeCollector(CollectorConfig{
		Listener:   listen(t),
		MaxRetries: 2,
		Counters:   ictr,
		Transport:  srvCtr,
		Sink: func(res *engine.EpochResult) {
			mu.Lock()
			settled = append(settled, res.Epoch)
			mu.Unlock()
			if res.Epoch == 5 {
				// Sever everything mid-run and refuse reconnects for a
				// while: a real partition, not just a blip.
				partitionOnce.Do(func() {
					proxy.Partition()
					time.AfterFunc(150*time.Millisecond, proxy.Heal)
				})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()

	proxy, err = transport.NewProxy("127.0.0.1:0", transport.ProxyConfig{
		Target: col.Addr(), Seed: 77,
		Drop: 0.04, Dup: 0.04, Reorder: 0.04, Cut: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	tctr := &metrics.TransportCounters{}
	tc := fastTransport()
	tc.TokenResendEvery = 3
	if err := RunAgent(context.Background(), AgentConfig{
		Engine: eng, Addr: proxy.Addr(), Epochs: epochs, Seed: 23,
		Counters: tctr, Transport: tc,
	}); err != nil {
		t.Fatal(err)
	}
	waitCollector(t, col)

	mu.Lock()
	defer mu.Unlock()
	if len(settled) != epochs {
		t.Fatalf("settled %d epochs, want %d (got %v)", len(settled), epochs, settled)
	}
	for i, e := range settled {
		if e != i {
			t.Fatalf("settle order %v: epoch %d settled at position %d", settled, e, i)
		}
	}
	// Every resume maps to exactly one injected cut (the partition's sever
	// is counted as a cut), and vice versa.
	if got, want := tctr.Resumes.Load(), proxy.InjCuts.Load(); got != want {
		t.Fatalf("Resumes = %d, want InjCuts = %d", got, want)
	}
	if proxy.InjCuts.Load() < 1 {
		t.Fatal("the partition never cut a live connection")
	}
	// The fault mix actually fired.
	if proxy.InjDrops.Load() == 0 || proxy.InjDups.Load() == 0 || proxy.InjReorders.Load() == 0 {
		t.Fatalf("fault mix idle: drops %d, dups %d, reorders %d",
			proxy.InjDrops.Load(), proxy.InjDups.Load(), proxy.InjReorders.Load())
	}
	// Injected duplicates arrive as stale frames and die at the watermark.
	if srvCtr.Discards[metrics.FrameStale].Load() == 0 {
		t.Fatal("no stale frames dropped despite injected duplicates")
	}
	// Wire-level drops surface as ingest gaps and are recovered end to end.
	if ictr.Retries.Load() == 0 || ictr.Recovered.Load() == 0 {
		t.Fatalf("drop recovery idle: retries %d, recovered %d",
			ictr.Retries.Load(), ictr.Recovered.Load())
	}
	// Conservation across the whole stack: every emitted report was either
	// accepted into its epoch or accounted as lost — nothing vanished, and
	// nothing was double-counted.
	if got, want := ictr.Accepted.Load()+ictr.Lost.Load(), eng.emitted.Load(); got != want {
		t.Fatalf("conservation: Accepted+Lost = %d, want emitted = %d", got, want)
	}
}

// RunAgent and ServeCollector reject configurations the wire protocol
// cannot express or serve.
func TestNetworkedValidation(t *testing.T) {
	if err := RunAgent(context.Background(), AgentConfig{}); err == nil {
		t.Fatal("nil engine accepted")
	}
	eng := newTestEngine(t, engine.Config{Seed: 1}, soakTopo, 0)
	if err := RunAgent(context.Background(), AgentConfig{Engine: eng, Addr: "x", Epochs: 0}); err == nil {
		t.Fatal("zero epochs accepted")
	}
	// Analysis options that cannot ride the handshake must be rejected up
	// front — silently dropping them would break the bit-identity contract.
	topo, err := topology.New(soakTopo)
	if err != nil {
		t.Fatal(err)
	}
	withAdjuster, err := engine.New(engine.Config{
		Topo: topo, Seed: 1, Detect: vote.DetectOptions{ThresholdFrac: 0.01, Adjuster: &vote.AnalyticAdjuster{Topo: topo}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := RunAgent(context.Background(), AgentConfig{Engine: withAdjuster, Addr: "x", Epochs: 1}); err == nil {
		t.Fatal("non-serializable Detect.Adjuster accepted")
	}
	if _, err := ServeCollector(CollectorConfig{}); err == nil {
		t.Fatal("collector without a listener accepted")
	}
}

// New, ServeCollector and RunAgent validate the settle knobs through one
// check, so each refuses a negative Grace or MaxRetries (cmp.Or would pass
// it through to the core) and resolves Grace 0 and MaxRetries above 255 the
// same way. A RunAgent that passes validation meets the cancelled context
// at its first connect.
func TestConstructorsShareValidation(t *testing.T) {
	eng := newTestEngine(t, engine.Config{Seed: 1}, soakTopo, 0)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	type settled struct{ grace, maxRetries int }
	newService := func(cfg Config) (settled, error) {
		cfg.Engine = eng
		s, err := New(cfg)
		if err != nil {
			return settled{}, err
		}
		return settled{s.grace, s.cfg.MaxRetries}, nil
	}
	serve := func(cfg CollectorConfig) (settled, error) {
		cfg.Listener = listen(t)
		c, err := ServeCollector(cfg)
		if err != nil {
			cfg.Listener.Close()
			return settled{}, err
		}
		defer c.Close()
		return settled{int(c.core.grace), c.core.maxRetries}, nil
	}
	runAgent := func(grace int) (settled, error) {
		err := RunAgent(cancelled, AgentConfig{Engine: eng, Addr: "127.0.0.1:1", Epochs: 1, Grace: grace})
		if err == context.Canceled {
			return settled{}, nil
		}
		return settled{}, err
	}
	cases := []struct {
		name    string
		build   func() (settled, error)
		wantErr bool
		want    settled
	}{
		{"New/negative grace", func() (settled, error) { return newService(Config{Grace: -1}) }, true, settled{}},
		{"New/negative retries", func() (settled, error) { return newService(Config{MaxRetries: -3}) }, true, settled{}},
		{"New/defaults and cap", func() (settled, error) { return newService(Config{MaxRetries: 1000}) }, false, settled{2, 255}},
		{"ServeCollector/negative grace", func() (settled, error) { return serve(CollectorConfig{Grace: -1}) }, true, settled{}},
		{"ServeCollector/negative grace and retries", func() (settled, error) { return serve(CollectorConfig{Grace: -1, MaxRetries: -3}) }, true, settled{}},
		{"ServeCollector/negative retries", func() (settled, error) { return serve(CollectorConfig{MaxRetries: -3}) }, true, settled{}},
		{"ServeCollector/negative sessions", func() (settled, error) { return serve(CollectorConfig{Sessions: -1}) }, true, settled{}},
		{"ServeCollector/defaults and cap", func() (settled, error) { return serve(CollectorConfig{MaxRetries: 1000}) }, false, settled{2, 255}},
		{"RunAgent/negative grace", func() (settled, error) { return runAgent(-1) }, true, settled{}},
		{"RunAgent/default grace", func() (settled, error) { return runAgent(0) }, false, settled{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.build()
			if tc.wantErr {
				if err == nil {
					t.Fatal("accepted")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("resolved to grace %d, MaxRetries %d; want %d, %d", got.grace, got.maxRetries, tc.want.grace, tc.want.maxRetries)
			}
		})
	}
}

// lyingEngine emits, ahead of every epoch's real reports, two that no agent
// can produce: one with a negative sequence and one with a negative epoch.
// The Step result (and so the cycle token) carries the real reports only.
type lyingEngine struct{ engine.Engine }

func (e lyingEngine) Step(emit func(vote.Report)) *engine.EpochResult {
	epoch := int32(e.EpochIndex())
	emit(vote.Report{FlowID: -1, Src: 1, Path: []topology.LinkID{0}, Epoch: epoch, Seq: -1})
	emit(vote.Report{FlowID: -2, Src: 1, Path: []topology.LinkID{0}, Epoch: -1, Seq: 0})
	return e.Engine.Step(emit)
}

// A report with a negative sequence or epoch is well-framed on the wire and
// used to index the per-agent bitset out of range. Both collectors must
// drop it, count it malformed, and settle every epoch as if it never came.
func TestMalformedIdentityRejected(t *testing.T) {
	const epochs = 3
	cfg := engine.Config{Seed: 7}
	batch := newTestEngine(t, cfg, equivTopo, 0.02)
	want := make([]*engine.EpochResult, epochs)
	for i := range want {
		want[i] = batch.RunEpoch()
	}
	check := func(t *testing.T, got []*engine.EpochResult, ctr *metrics.IngestCounters) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("settled %d epochs that differ from the batch run's %d", len(got), len(want))
		}
		if r := ctr.Discards[metrics.ReportMalformed].Load(); r != 2*epochs || rejected(ctr) != 2*epochs {
			t.Fatalf("malformed report discards = %d, with far-epoch %d; want %d, with far-epoch %d", r, rejected(ctr), 2*epochs, 2*epochs)
		}
		if got, want := ctr.Received.Load(), ctr.Accepted.Load()+rejected(ctr); got != want {
			t.Fatalf("Received = %d, Accepted + malformed + far-epoch report discards = %d", got, want)
		}
		checkConservation(t, ctr)
	}
	t.Run("service", func(t *testing.T) {
		got, s := runService(t, Config{Engine: lyingEngine{newTestEngine(t, cfg, equivTopo, 0.02)}}, epochs)
		check(t, got, s.Counters())
	})
	t.Run("networked", func(t *testing.T) {
		var mu sync.Mutex
		var got []*engine.EpochResult
		col, err := ServeCollector(CollectorConfig{
			Listener: listen(t),
			Sink: func(res *engine.EpochResult) {
				mu.Lock()
				got = append(got, res)
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer col.Close()
		if err := RunAgent(context.Background(), AgentConfig{
			Engine: lyingEngine{newTestEngine(t, cfg, equivTopo, 0.02)}, Addr: col.Addr(), Epochs: epochs, Seed: 7,
			Transport: fastTransport(),
		}); err != nil {
			t.Fatal(err)
		}
		waitCollector(t, col)
		check(t, got, col.Counters())
	})
}

// hugeSeqEngine emits, ahead of every epoch's real reports, a well-framed
// report whose sequence would grow its agent's bitset to 256 MiB, and one
// just past the bound.
type hugeSeqEngine struct{ engine.Engine }

func (e hugeSeqEngine) Step(emit func(vote.Report)) *engine.EpochResult {
	epoch := int32(e.EpochIndex())
	emit(vote.Report{FlowID: -1, Src: 1, Path: []topology.LinkID{0}, Epoch: epoch, Seq: math.MaxInt32})
	emit(vote.Report{FlowID: -2, Src: 2, Path: []topology.LinkID{0}, Epoch: epoch, Seq: maxAgentSeq})
	return e.Engine.Step(emit)
}

// A sequence number indexes a per-(agent, epoch) bitset, so one hostile
// report used to cost 256 MiB. Both collectors reject it at the door, count
// it, settle as if it never came, and what the run allocates stays small;
// the largest sequence still admitted costs its bounded bitset and no more.
func TestHostileSeqStaysSmall(t *testing.T) {
	const epochs = 3
	cfg := engine.Config{Seed: 7}
	batch := newTestEngine(t, cfg, equivTopo, 0.02)
	want := make([]*engine.EpochResult, epochs)
	for i := range want {
		want[i] = batch.RunEpoch()
	}
	spent := func(run func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	check := func(t *testing.T, got []*engine.EpochResult, ctr *metrics.IngestCounters, bytes uint64) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("settled %d epochs that differ from the batch run's %d", len(got), len(want))
		}
		if r := ctr.Discards[metrics.ReportMalformed].Load(); r != 2*epochs || rejected(ctr) != 2*epochs {
			t.Fatalf("malformed report discards = %d, with far-epoch %d; want %d, with far-epoch %d", r, rejected(ctr), 2*epochs, 2*epochs)
		}
		if bytes > 32<<20 {
			t.Fatalf("the run allocated %d MiB", bytes>>20)
		}
	}
	t.Run("service", func(t *testing.T) {
		var got []*engine.EpochResult
		var s *Service
		bytes := spent(func() {
			got, s = runService(t, Config{Engine: hugeSeqEngine{newTestEngine(t, cfg, equivTopo, 0.02)}}, epochs)
		})
		check(t, got, s.Counters(), bytes)
	})
	t.Run("networked", func(t *testing.T) {
		var got []*engine.EpochResult
		col, err := ServeCollector(CollectorConfig{
			Listener: listen(t),
			Sink:     func(res *engine.EpochResult) { got = append(got, res) },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer col.Close()
		bytes := spent(func() {
			if err := RunAgent(context.Background(), AgentConfig{
				Engine: hugeSeqEngine{newTestEngine(t, cfg, equivTopo, 0.02)}, Addr: col.Addr(), Epochs: epochs, Seed: 7,
				Transport: fastTransport(),
			}); err != nil {
				t.Fatal(err)
			}
			waitCollector(t, col) // also orders the sink's appends before the read below
		})
		check(t, got, col.Counters(), bytes)
	})
	t.Run("bound", func(t *testing.T) {
		if malformed(vote.Report{Seq: maxAgentSeq - 1}) {
			t.Fatal("the largest sequence inside the bound is rejected")
		}
		var ag agentEpoch
		if bytes := spent(func() { ag.mark(maxAgentSeq - 1) }); bytes > 1<<20 {
			t.Fatalf("marking the largest admitted sequence allocated %d KiB", bytes>>10)
		}
		if !ag.has(maxAgentSeq-1) || ag.has(0) {
			t.Fatal("the bitset lost the mark")
		}
	})
}

// buildToken's truth entries are the epoch's Truth map in flow-id order,
// whatever order the reports come in and whether or not every flow with
// truth has a report.
func TestBuildTokenTruth(t *testing.T) {
	truth := map[int64]metrics.FlowTruth{}
	var reports []vote.Report
	for i := 0; i < 50; i++ {
		id := int64(i * 3)
		truth[id] = metrics.FlowTruth{Culprit: topology.LinkID(i % 5), CrossedFailure: i%2 == 0}
		reports = append(reports, vote.Report{FlowID: id, Src: topology.HostID(i / 4), Seq: int32(i % 4)})
	}
	var want []transport.TruthEntry
	for i := 0; i < 50; i++ {
		ft := truth[int64(i*3)]
		want = append(want, transport.TruthEntry{FlowID: int64(i * 3), Culprit: ft.Culprit, CrossedFailure: ft.CrossedFailure})
	}
	reversed := slices.Clone(reports)
	slices.Reverse(reversed)
	for name, rs := range map[string][]vote.Report{
		"in flow order":          reports,
		"reversed":               reversed,
		"a flow reported twice":  append(slices.Clone(reports), reports[7]),
		"a report without truth": append(slices.Clone(reports), vote.Report{FlowID: 1}),
		"truth without a report": reports[:40],
		"no reports":             nil,
	} {
		tok := buildToken(3, &engine.EpochResult{Epoch: 3, Reports: rs, Truth: truth})
		if !reflect.DeepEqual(tok.Summary.Truth, want) {
			t.Errorf("%s: truth entries %v", name, tok.Summary.Truth)
		}
	}
	if tok := buildToken(0, &engine.EpochResult{}); tok.Summary.HasTruth || tok.Summary.Truth != nil || len(tok.Counts) != 0 {
		t.Errorf("empty epoch: token %+v, summary %+v", tok, tok.Summary)
	}
}

// shardEngine is one of `of` reporters sharing an epoch: it emits, and
// counts in its Step result, only the reports of the agents in its shard.
type shardEngine struct {
	engine.Engine
	shard, of topology.HostID
}

func (e shardEngine) Step(emit func(vote.Report)) *engine.EpochResult {
	res := *e.Engine.Step(nil)
	var mine []vote.Report
	for _, r := range res.Reports {
		if r.Src%e.of == e.shard {
			mine = append(mine, r)
			emit(r)
		}
	}
	res.Reports = mine
	return &res
}

// Two sessions with disjoint agents feed one collector at once: their
// readers take turns at the collector's lock, the reports of the two
// interleave, and every epoch still settles bit-identical to the batch
// engine's — under the race detector, this is the test of that lock.
func TestTwoSessionsBitIdentical(t *testing.T) {
	const epochs = 4
	cfg := engine.Config{Seed: 7}
	batch := newTestEngine(t, cfg, equivTopo, 0.05)
	want := make([]*engine.EpochResult, epochs)
	for i := range want {
		want[i] = batch.RunEpoch()
	}
	var got []*engine.EpochResult
	col, err := ServeCollector(CollectorConfig{
		Listener: listen(t), Sessions: 2,
		Sink: func(res *engine.EpochResult) { got = append(got, res) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	errs := make(chan error, 2)
	for shard := topology.HostID(0); shard < 2; shard++ {
		eng := shardEngine{newTestEngine(t, cfg, equivTopo, 0.05), shard, 2}
		go func() {
			errs <- RunAgent(context.Background(), AgentConfig{
				Engine: eng, Addr: col.Addr(), Session: uint64(shard), Epochs: epochs, Seed: 7,
				Transport: fastTransport(),
			})
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	waitCollector(t, col)
	if len(got) != epochs {
		t.Fatalf("settled %d epochs, want %d", len(got), epochs)
	}
	for i := range got {
		if len(want[i].Reports) < 8 {
			t.Fatalf("epoch %d has %d reports: too few to interleave", i, len(want[i].Reports))
		}
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("epoch %d: two-session settle diverged from batch RunEpoch", i)
		}
	}
	if ctr := col.Counters(); ctr.Lost.Load() != 0 || discarded(ctr, "report") != 0 || ctr.Duplicates.Load() != 0 {
		t.Fatalf("lost %d, report discards %d, duplicates %d on a fault-free wire", ctr.Lost.Load(), discarded(ctr, "report"), ctr.Duplicates.Load())
	}
}
