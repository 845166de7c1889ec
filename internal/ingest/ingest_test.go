package ingest

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vigil/internal/engine"
	"vigil/internal/metrics"
	"vigil/internal/topology"
	"vigil/internal/transport"
	"vigil/internal/vote"
)

// soakTopo is a deliberately small Clos so chaos runs settle hundreds of
// epochs quickly; equivTopo matches the engine tests' flow fixture so the
// bit-identical contract is exercised on a non-trivial report volume.
var (
	soakTopo  = topology.Config{Pods: 2, ToRsPerPod: 2, T1PerPod: 2, T2: 1, HostsPerToR: 2}
	equivTopo = topology.Config{Pods: 2, ToRsPerPod: 4, T1PerPod: 3, T2: 2, HostsPerToR: 4}
)

// newTestEngine builds an engine with one injected failure so every epoch
// carries a real vote signal.
func newTestEngine(t testing.TB, cfg engine.Config, topoCfg topology.Config, rate float64) engine.Engine {
	t.Helper()
	topo, err := topology.New(topoCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topo = topo
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	link := eng.Topology().LinksOfClass(topology.L1Up)[0]
	if err := eng.InjectFailure(link, rate); err != nil {
		t.Fatal(err)
	}
	return eng
}

// runService drives a service over n epochs and returns the settled
// results in settle order.
func runService(t testing.TB, cfg Config, n int) ([]*engine.EpochResult, *Service) {
	t.Helper()
	var settled []*engine.EpochResult
	userSink := cfg.Sink
	cfg.Sink = func(res *engine.EpochResult) {
		settled = append(settled, res)
		if userSink != nil {
			userSink(res)
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background(), n); err != nil {
		t.Fatal(err)
	}
	return settled, s
}

// The core contract: with faults disabled, vigild's settled epochs are
// bit-identical to the batch engine's EpochResults — on both planes, at
// Parallelism 1 and 8 (parallelism shards the flow plane's analysis
// chunks; the packet plane ignores it by design).
func TestFaultFreeBitIdentical(t *testing.T) {
	for _, plane := range []engine.Plane{engine.Flow, engine.Packet} {
		for _, par := range []int{1, 8} {
			t.Run(string(plane)+"/par"+string(rune('0'+par)), func(t *testing.T) {
				topoCfg := equivTopo
				epochs := 5
				if plane == engine.Packet {
					topoCfg = topology.Config{Pods: 2, ToRsPerPod: 4, T1PerPod: 3, T2: 2, HostsPerToR: 2}
					if testing.Short() {
						epochs = 3
					}
				}
				cfg := engine.Config{Plane: plane, Seed: 7, Parallelism: par}
				batch := newTestEngine(t, cfg, topoCfg, 0.02)
				want := make([]*engine.EpochResult, epochs)
				for i := range want {
					want[i] = batch.RunEpoch()
				}

				eng := newTestEngine(t, cfg, topoCfg, 0.02)
				got, _ := runService(t, Config{Engine: eng}, epochs)
				if len(got) != epochs {
					t.Fatalf("settled %d epochs, want %d", len(got), epochs)
				}
				for i, res := range got {
					if !reflect.DeepEqual(res, want[i]) {
						t.Fatalf("epoch %d: settled result diverged from batch RunEpoch", i)
					}
				}
			})
		}
	}
}

// countingEngine counts every report its Step emits, giving the tests the
// total offered load independently of the ingest counters under test.
type countingEngine struct {
	engine.Engine
	emitted atomic.Int64
}

func (e *countingEngine) Step(emit func(vote.Report)) *engine.EpochResult {
	return e.Engine.Step(func(r vote.Report) {
		e.emitted.Add(1)
		if emit != nil {
			emit(r)
		}
	})
}

func (e *countingEngine) RunEpoch() *engine.EpochResult { panic("use Step") }

// MaxRetries above 255 must be capped at construction: the attempt number
// is a uint8 through the whole retry path, and attempt 256 would wrap to 0
// — a retry masquerading as a first attempt in the fault identity and the
// recovery accounting.
func TestMaxRetriesCappedAtUint8(t *testing.T) {
	eng := newTestEngine(t, engine.Config{Seed: 3}, soakTopo, 0)
	s, err := New(Config{Engine: eng, MaxRetries: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.MaxRetries != 255 {
		t.Fatalf("MaxRetries 1000 capped to %d, want 255", s.cfg.MaxRetries)
	}
	if s2, err := New(Config{Engine: eng, MaxRetries: 255}); err != nil || s2.cfg.MaxRetries != 255 {
		t.Fatalf("MaxRetries 255 altered: %d, err %v", s2.cfg.MaxRetries, err)
	}
	if _, err := New(Config{Engine: eng, MaxRetries: -1}); err == nil {
		t.Fatal("negative MaxRetries accepted")
	}
}

// With retries disabled every injected fault maps to exactly one observed
// counter; this is the counter algebra the ISSUE pins.
func TestFaultCounterAgreement(t *testing.T) {
	eng := &countingEngine{Engine: newTestEngine(t, engine.Config{Seed: 11}, soakTopo, 0.05)}
	// Crash and burst draw their window start over a span much wider than
	// these small agents' per-epoch report counts, so most windows miss;
	// the hot probabilities make every injected counter move anyway.
	faults := FaultConfig{
		Seed:      99,
		Drop:      0.05,
		Duplicate: 0.04,
		Delay:     0.06,
		DelayMax:  4, // grace is 2, so delays split across the grace boundary
		Burst:     0.1,
		Crash:     0.2,
	}
	_, s := runService(t, Config{Engine: eng, Faults: faults, MaxRetries: 0}, 40)
	c := s.Counters()

	if got := c.SettledEpochs.Load(); got != 40 {
		t.Fatalf("settled %d epochs, want 40", got)
	}
	for _, inj := range []struct {
		name string
		v    int64
	}{
		{"InjDrops", c.InjDrops.Load()},
		{"InjDuplicates", c.InjDuplicates.Load()},
		{"InjLateInGrace", c.InjLateInGrace.Load()},
		{"InjLatePastGrace", c.InjLatePastGrace.Load()},
		{"InjBurstDrops", c.InjBurstDrops.Load()},
		{"InjCrashDrops", c.InjCrashDrops.Load()},
	} {
		if inj.v == 0 {
			t.Errorf("%s = 0: the fault mix never exercised this fault", inj.name)
		}
	}
	if got, want := c.Duplicates.Load(), c.InjDuplicates.Load(); got != want {
		t.Errorf("Duplicates = %d, want InjDuplicates = %d", got, want)
	}
	if got, want := c.Late.Load(), c.InjLateInGrace.Load(); got != want {
		t.Errorf("Late = %d, want InjLateInGrace = %d", got, want)
	}
	if got, want := c.Discards[metrics.ReportSettled].Load(), c.InjLatePastGrace.Load(); got != want {
		t.Errorf("settled-epoch report discards = %d, want InjLatePastGrace = %d", got, want)
	}
	// A past-grace report is lost to its epoch even though it physically
	// arrived (and was discarded on arrival, its epoch settled).
	wantLost := c.InjDrops.Load() + c.InjBurstDrops.Load() + c.InjCrashDrops.Load() + c.InjLatePastGrace.Load()
	if got := c.Lost.Load(); got != wantLost {
		t.Errorf("Lost = %d, want InjDrops+InjBurstDrops+InjCrashDrops+InjLatePastGrace = %d", got, wantLost)
	}
	if c.Retries.Load() != 0 || c.Recovered.Load() != 0 {
		t.Errorf("Retries/Recovered nonzero with MaxRetries = 0")
	}
	emitted := eng.emitted.Load()
	if got := c.Accepted.Load() + c.Lost.Load(); got != emitted {
		t.Errorf("conservation: Accepted+Lost = %d, want emitted = %d", got, emitted)
	}
	wantRecv := emitted - c.InjDrops.Load() - c.InjBurstDrops.Load() - c.InjCrashDrops.Load() + c.InjDuplicates.Load()
	if got := c.Received.Load(); got != wantRecv {
		t.Errorf("Received = %d, want emitted-lost+duplicated = %d", got, wantRecv)
	}
}

// Retries re-request detected sequence gaps and recover dropped reports
// before their epoch settles.
func TestRetryRecovery(t *testing.T) {
	eng := &countingEngine{Engine: newTestEngine(t, engine.Config{Seed: 3}, soakTopo, 0.05)}
	_, s := runService(t, Config{
		Engine:     eng,
		Faults:     FaultConfig{Seed: 17, Drop: 0.2},
		MaxRetries: 2,
	}, 30)
	c := s.Counters()
	if c.Retries.Load() == 0 {
		t.Fatal("no retries issued under 20% drop")
	}
	if c.Recovered.Load() == 0 {
		t.Fatal("no reports recovered by retries")
	}
	if got, inj := c.Lost.Load(), c.InjDrops.Load(); got >= inj {
		t.Fatalf("Lost = %d not reduced below injected drops = %d", got, inj)
	}
	if got := c.Accepted.Load() + c.Lost.Load(); got != eng.emitted.Load() {
		t.Fatalf("conservation: Accepted+Lost = %d, want emitted = %d", got, eng.emitted.Load())
	}
}

// The chaos soak the CI chaos-short step runs: a few hundred settled
// epochs under combined faults, with bounded collector state, in-order
// settle, and a clean shutdown. Run with -race.
func TestChaosSoak(t *testing.T) {
	eng := newTestEngine(t, engine.Config{Seed: 23, Incremental: true}, soakTopo, 0.05)
	var (
		nextEpoch int32
		maxOpen   int64
	)
	cfg := Config{
		Engine: eng,
		Faults: FaultConfig{
			Seed:      5,
			Drop:      0.05,
			Duplicate: 0.05,
			Delay:     0.05,
			DelayMax:  3,
			Burst:     0.02,
			Crash:     0.02,
		},
		MaxRetries: 1,
	}
	var s *Service
	cfg.Sink = func(res *engine.EpochResult) {
		if int32(res.Epoch) != nextEpoch {
			t.Errorf("settled epoch %d out of order, want %d", res.Epoch, nextEpoch)
		}
		nextEpoch++
		if open := s.Counters().OpenEpochs.Load(); open > maxOpen {
			maxOpen = open
		}
	}
	var err error
	s, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background(), 300); err != nil {
		t.Fatal(err)
	}
	c := s.Counters()
	if got := c.SettledEpochs.Load(); got != 300 {
		t.Fatalf("settled %d epochs, want 300", got)
	}
	// Bounded state: open epochs never exceed the watermark window — no
	// unbounded growth anywhere.
	if bound := int64(s.grace + 2); maxOpen > bound {
		t.Fatalf("open epochs peaked at %d, want <= %d", maxOpen, bound)
	}
	if c.Duplicates.Load() == 0 || c.Lost.Load() == 0 || c.Late.Load() == 0 {
		t.Fatal("soak fault mix failed to exercise duplicates, loss and lateness")
	}
}

// Seeded chaos is reproducible: two runs with the same seeds agree on
// every fault-related counter and on what was detected.
func TestChaosDeterministic(t *testing.T) {
	type snapshot struct {
		received, accepted, dups, late, lateDropped, lost, retries, recovered int64
		detected                                                              []topology.LinkID
	}
	run := func() snapshot {
		eng := newTestEngine(t, engine.Config{Seed: 31}, soakTopo, 0.05)
		var detected []topology.LinkID
		settled, s := runService(t, Config{
			Engine:     eng,
			Faults:     FaultConfig{Seed: 41, Drop: 0.1, Duplicate: 0.05, Delay: 0.05, DelayMax: 3},
			MaxRetries: 1,
		}, 20)
		for _, res := range settled {
			detected = append(detected, res.Detected...)
		}
		c := s.Counters()
		return snapshot{
			c.Received.Load(), c.Accepted.Load(), c.Duplicates.Load(), c.Late.Load(),
			c.Discards[metrics.ReportSettled].Load(), c.Lost.Load(), c.Retries.Load(), c.Recovered.Load(),
			detected,
		}
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seeded chaos runs diverged:\n%+v\n%+v", a, b)
	}
}

// Canceling the context stops the epoch loop but still drains: every
// started epoch settles before Run returns.
func TestContextCancelCleanShutdown(t *testing.T) {
	eng := newTestEngine(t, engine.Config{Seed: 13}, soakTopo, 0.05)
	var settled []int // appended on Run's goroutine, read after Run
	s, err := New(Config{Engine: eng, Interval: time.Millisecond, Sink: func(res *engine.EpochResult) {
		settled = append(settled, res.Epoch)
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if err := s.Run(ctx, 0); err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	// Run returned, and the analysis goroutine, which ran epochs ahead of
	// their settle, has exited too: nothing is left that could analyze, or
	// call the sink, again.
	select {
	case <-s.an.done:
	default:
		t.Fatal("the analysis goroutine outlived Run")
	}
	c := s.Counters()
	if c.SettledEpochs.Load() == 0 {
		t.Fatal("no epochs settled before cancel")
	}
	if got, want := c.SettledEpochs.Load(), int64(s.epochsRun); got != want {
		t.Fatalf("settled %d epochs, want every started epoch (%d)", got, want)
	}
	for i, e := range settled {
		if e != i || len(settled) != s.epochsRun {
			t.Fatalf("the sink saw epochs %v, want 0…%d once each, in order", settled, s.epochsRun-1)
		}
	}
}

// stepEngine emits two reports from agent 1 per epoch, in canonical order.
type stepEngine struct {
	engine.Engine
	next int
}

func (e *stepEngine) Step(emit func(vote.Report)) *engine.EpochResult {
	res := &engine.EpochResult{Epoch: e.next}
	for q := int32(0); q < 2; q++ {
		r := vote.Report{FlowID: int64(e.next)*10 + int64(q), Src: 1, Epoch: int32(e.next), Seq: q}
		res.Reports = append(res.Reports, r)
		emit(r)
	}
	e.next++
	return res
}

// recLink is a cycleLink that records every call. Each live cycle's end
// re-requests seq 0 of its epoch, plus whatever extra names; onClose, when
// set, runs inside every closeCycle; the send numbered failSend and the
// close numbered failClose (both counted from 1) fail.
type recLink struct {
	calls               []string
	extra               []transport.RetryReq
	onClose             func(cycle int32)
	failSend, failClose int
	sends, closes       int
}

var errLink = errors.New("link down")

func (l *recLink) send(r vote.Report, attempt uint8) error {
	l.calls = append(l.calls, fmt.Sprintf("send %d/%d#%d", r.Epoch, r.Seq, attempt))
	if l.sends++; l.sends == l.failSend {
		return errLink
	}
	return nil
}

func (l *recLink) closeCycle(cycle int32, res *engine.EpochResult) ([]transport.RetryReq, error) {
	if res == nil {
		l.calls = append(l.calls, fmt.Sprintf("drain %d", cycle))
	} else {
		l.calls = append(l.calls, fmt.Sprintf("close %d (epoch %d, %d reports)", cycle, res.Epoch, len(res.Reports)))
	}
	if l.onClose != nil {
		l.onClose(cycle)
	}
	if l.closes++; l.closes == l.failClose {
		return nil, errLink
	}
	retries := slices.Clone(l.extra)
	if res != nil {
		retries = append(retries, transport.RetryReq{Agent: 1, Epoch: cycle, Seq: 0, Attempt: 1})
	}
	return retries, nil
}

// runCycles is the one agent loop of both adapters. Through a link that
// records its calls: every cycle re-sends the last cycle-end's re-requests
// before the epoch's reports and closes after them; exactly drain empty
// cycles follow the live ones; a cancelled ctx stops the live cycles and
// still drains (the Service's contract); a link error ends the loop at
// once and is returned (RunAgent's).
func TestRunCyclesOrder(t *testing.T) {
	run := func(l *recLink, ctx context.Context, epochs, drain int) (int, error) {
		eng := &stepEngine{}
		return runCycles(ctx, eng, l, make([]*engine.EpochResult, 4), epochs, drain, 0)
	}
	check := func(name string, l *recLink, want ...string) {
		t.Helper()
		if !slices.Equal(l.calls, want) {
			t.Fatalf("%s: calls\n%s\nwant\n%s", name, strings.Join(l.calls, "\n"), strings.Join(want, "\n"))
		}
	}

	l := &recLink{}
	if live, err := run(l, context.Background(), 2, 2); live != 2 || err != nil {
		t.Fatalf("plain: %d live cycles, %v; want 2, nil", live, err)
	}
	check("plain", l,
		"send 0/0#0", "send 0/1#0", "close 0 (epoch 0, 2 reports)",
		"send 0/0#1", "send 1/0#0", "send 1/1#0", "close 1 (epoch 1, 2 reports)",
		"send 1/0#1", "drain 2",
		"drain 3")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	l = &recLink{onClose: func(c int32) {
		if c == 1 {
			cancel()
		}
	}}
	if live, err := run(l, ctx, 0, 2); live != 2 || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled: %d live cycles, %v; want 2, context.Canceled", live, err)
	}
	check("cancelled", l,
		"send 0/0#0", "send 0/1#0", "close 0 (epoch 0, 2 reports)",
		"send 0/0#1", "send 1/0#0", "send 1/1#0", "close 1 (epoch 1, 2 reports)",
		"send 1/0#1", "drain 2",
		"drain 3")

	// A send that fails while the engine steps is the last: the epoch's
	// other reports are not sent, and the cycle does not close.
	l = &recLink{failSend: 4}
	if _, err := run(l, context.Background(), 3, 2); !errors.Is(err, errLink) {
		t.Fatalf("failed send: %v, want %v", err, errLink)
	}
	check("failed send", l,
		"send 0/0#0", "send 0/1#0", "close 0 (epoch 0, 2 reports)",
		"send 0/0#1", "send 1/0#0")

	l = &recLink{failClose: 4}
	if _, err := run(l, context.Background(), 2, 3); !errors.Is(err, errLink) {
		t.Fatalf("failed close: %v, want %v", err, errLink)
	}
	check("failed close", l,
		"send 0/0#0", "send 0/1#0", "close 0 (epoch 0, 2 reports)",
		"send 0/0#1", "send 1/0#0", "send 1/1#0", "close 1 (epoch 1, 2 reports)",
		"send 1/0#1", "drain 2",
		"drain 3")
}

// A re-request is wire input: one naming a negative epoch used to index
// the ring out of range and crash the agent. It finds nothing, in
// lookupReport and so through runCycles.
func TestNegativeEpochReRequestFindsNothing(t *testing.T) {
	res := (&stepEngine{next: 1}).Step(func(vote.Report) {})
	ring := []*engine.EpochResult{nil, res, nil, nil}
	for _, e := range []int32{-3, -1, -4, 0, 5} {
		if r, ok := lookupReport(ring, transport.RetryReq{Agent: 1, Epoch: e, Seq: 0}); ok {
			t.Fatalf("epoch %d: found %+v", e, r)
		}
	}
	if r, ok := lookupReport(ring, transport.RetryReq{Agent: 1, Epoch: 1, Seq: 1}); !ok || r.FlowID != res.Reports[1].FlowID {
		t.Fatalf("epoch 1 seq 1: found %+v, %v; want %+v", r, ok, res.Reports[1])
	}

	l := &recLink{extra: []transport.RetryReq{{Agent: 1, Epoch: -3, Seq: 0, Attempt: 1}}}
	if _, err := runCycles(context.Background(), &stepEngine{}, l, make([]*engine.EpochResult, 4), 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	if want := []string{"send 0/0#0", "send 0/1#0", "close 0 (epoch 0, 2 reports)", "send 0/0#1", "drain 1"}; !slices.Equal(l.calls, want) {
		t.Fatalf("calls %q, want %q", l.calls, want)
	}
}

// The service is one loop on Run's goroutine: at every settle the sink is
// called from Run itself, no other goroutine is inside the service, the
// analyst is the one goroutine it started. Stacks, not a goroutine count,
// so that what other tests leave winding down cannot interfere.
func TestServiceRunsOnCallersGoroutine(t *testing.T) {
	eng := newTestEngine(t, engine.Config{Seed: 13}, soakTopo, 0.05)
	sinks := 0
	buf := make([]byte, 1<<20)
	var s *Service
	s, err := New(Config{
		Engine: eng, MaxRetries: 1,
		Faults: FaultConfig{Seed: 2, Drop: 0.1, Duplicate: 0.05, Delay: 0.1, DelayMax: 2},
		Sink: func(*engine.EpochResult) {
			sinks++
			var inService, analysts int
			for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
				switch {
				case strings.Contains(g, "ingest.(*Service)"):
					inService++
					if !strings.Contains(g, "ingest.(*Service).Run") {
						t.Errorf("a service goroutine outside Run:\n%s", g)
					}
				case strings.Contains(g, "ingest.(*analyst).run"):
					analysts++
				}
			}
			if inService != 1 || analysts != 1 {
				t.Errorf("%d goroutines in the service and %d analysts at a settle, want 1 and 1", inService, analysts)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if sinks != 10 {
		t.Fatalf("the sink ran %d times, want 10", sinks)
	}
}

func TestNewValidation(t *testing.T) {
	eng := newTestEngine(t, engine.Config{Seed: 1}, soakTopo, 0.05)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil engine", Config{}},
		{"negative grace", Config{Engine: eng, Grace: -1}},
		{"drop out of range", Config{Engine: eng, Faults: FaultConfig{Drop: 1.5}}},
		{"negative duplicate", Config{Engine: eng, Faults: FaultConfig{Duplicate: -0.1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg); err == nil {
				t.Fatal("error not reported")
			}
		})
	}
}

// Fault fates are pure functions of identity: recomputing a report's fate
// gives the same answer, and attempt is part of the identity.
func TestFaultFatePure(t *testing.T) {
	f := FaultConfig{Seed: 77, Drop: 0.3, Duplicate: 0.2, Delay: 0.2, DelayMax: 3, Burst: 0.1, Crash: 0.1}
	var differs bool
	for agent := topology.HostID(0); agent < 8; agent++ {
		for seq := int32(0); seq < 16; seq++ {
			r := vote.Report{Src: agent, Epoch: 4, Seq: seq}
			a, b := f.reportFate(r, 0), f.reportFate(r, 0)
			if a != b {
				t.Fatalf("fate of %+v not reproducible: %+v vs %+v", r, a, b)
			}
			if a != f.reportFate(r, 1) {
				differs = true
			}
			if ft := f.reportFate(r, 1); ft.delay != 0 {
				t.Fatal("retransmission drew a delay; delays apply to first attempts only")
			}
		}
	}
	if !differs {
		t.Fatal("attempt number never changed any fate; it should be part of the identity")
	}
}

// floodEngine emits perAgent synthetic reports for each of its agents every
// epoch, agents interleaved, so each agent's bitset spans several words —
// volumes the small test topologies never reach.
type floodEngine struct {
	engine.Engine
	agents, perAgent int
	next             int
}

func (f *floodEngine) EpochIndex() int { return f.next }

func (f *floodEngine) Step(emit func(vote.Report)) *engine.EpochResult {
	res := &engine.EpochResult{Epoch: f.next}
	for a := 0; a < f.agents; a++ {
		for q := 0; q < f.perAgent; q++ {
			l := topology.LinkID((a*7 + q) % 40)
			res.Reports = append(res.Reports, vote.Report{
				FlowID: int64(a*f.perAgent + q), Src: topology.HostID(a), Dst: topology.HostID(a + 1),
				Path: []topology.LinkID{l, l + 1, 50}, Retx: 1, Epoch: int32(f.next), Seq: int32(q),
			})
		}
	}
	f.next++
	for q := 0; q < f.perAgent; q++ {
		for a := 0; a < f.agents; a++ {
			emit(res.Reports[a*f.perAgent+q])
		}
	}
	return res
}

// Volume is invisible: with 293 reports per agent, five bitset words'
// worth, emitted with agents interleaved, a fault-free run settles every
// epoch's exact report list in canonical order, and a seeded lossy run
// conserves reports and repeats itself.
func TestBurstBoundaries(t *testing.T) {
	const agents, perAgent, epochs = 6, 293, 6
	flood := func() *floodEngine {
		return &floodEngine{Engine: newTestEngine(t, engine.Config{Seed: 1}, soakTopo, 0), agents: agents, perAgent: perAgent}
	}
	settled, s := runService(t, Config{Engine: flood()}, epochs)
	if len(settled) != epochs {
		t.Fatalf("settled %d epochs, want %d", len(settled), epochs)
	}
	twin := flood()
	for i, res := range settled {
		if want := twin.Step(func(vote.Report) {}).Reports; !reflect.DeepEqual(res.Reports, want) {
			t.Fatalf("epoch %d: settled reports differ from the emitted canonical list", i)
		}
	}
	if c := s.Counters(); c.Accepted.Load() != agents*perAgent*epochs || c.Lost.Load() != 0 {
		t.Fatalf("fault-free: accepted %d lost %d, want %d and 0", c.Accepted.Load(), c.Lost.Load(), agents*perAgent*epochs)
	}

	lossy := func() ([]*engine.EpochResult, *Service) {
		return runService(t, Config{
			Engine: flood(), Grace: 3, MaxRetries: 2,
			Faults: FaultConfig{Seed: 9, Drop: 0.05, Duplicate: 0.05, Delay: 0.05, DelayMax: 2},
		}, epochs)
	}
	a, sa := lossy()
	b, sb := lossy()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seeded lossy runs settled different results")
	}
	ca, cb := sa.Counters(), sb.Counters()
	if ca.Accepted.Load()+ca.Lost.Load() != agents*perAgent*epochs {
		t.Fatalf("conservation: accepted %d + lost %d != emitted %d", ca.Accepted.Load(), ca.Lost.Load(), agents*perAgent*epochs)
	}
	if ca.Duplicates.Load() == 0 || ca.Late.Load() == 0 || ca.Recovered.Load() == 0 {
		t.Fatal("lossy mix failed to exercise duplicates, lateness and retries")
	}
	if ca.Received.Load() != cb.Received.Load() || ca.Recovered.Load() != cb.Recovered.Load() || ca.Lost.Load() != cb.Lost.Load() {
		t.Fatal("seeded lossy runs disagree on their counters")
	}
}
