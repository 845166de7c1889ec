package scenario

import (
	"reflect"
	"strings"
	"testing"

	"vigil/internal/engine"
	"vigil/internal/par"
	"vigil/internal/schedule"
	"vigil/internal/stats"
	"vigil/internal/topology"
)

func TestRegistryHasTheNamedScenarios(t *testing.T) {
	want := []string{
		"intermittent-failure", "link-flap", "failure-wave",
		"congestion-burst", "overlap-churn",
	}
	for _, name := range want {
		spec, ok := Find(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		if spec.Title == "" || spec.Epochs <= 0 {
			t.Fatalf("scenario %q has no title or epochs: %+v", name, spec)
		}
	}
	if got := len(All()); got < len(want) {
		t.Fatalf("All() returned %d scenarios, want at least %d", got, len(want))
	}
}

func TestFindUnknown(t *testing.T) {
	if _, ok := Find("no-such-scenario"); ok {
		t.Fatal("Find accepted an unknown name")
	}
}

// Every built-in scenario must run end to end, produce active epochs with
// ground truth, and keep its aggregate counts consistent with the per-epoch
// scores.
func TestBuiltinsRunAndAggregateConsistently(t *testing.T) {
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			res, err := Run(spec, Config{Seed: 21, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Epochs) != spec.Epochs {
				t.Fatalf("got %d epoch scores, want %d", len(res.Epochs), spec.Epochs)
			}
			if res.ActiveEpochs == 0 {
				t.Fatal("scenario scripted no active epochs")
			}
			var tp, fp, fn, correct, considered, active, quiet int
			for _, es := range res.Epochs {
				if len(es.ActiveLinks) > 0 {
					active++
					tp += es.Detection.TruePos
					fp += es.Detection.FalsePos
					fn += es.Detection.FalseNeg
				} else {
					quiet++
				}
				considered += es.FlowsScored
				correct += int(es.Accuracy*float64(es.FlowsScored) + 0.5)
			}
			if active != res.ActiveEpochs || quiet != res.QuietEpochs {
				t.Fatalf("epoch counts: active %d/%d quiet %d/%d", active, res.ActiveEpochs, quiet, res.QuietEpochs)
			}
			if tp != res.TruePos || fp != res.FalsePos || fn != res.FalseNeg {
				t.Fatalf("detection counts drifted: %d/%d %d/%d %d/%d", tp, res.TruePos, fp, res.FalsePos, fn, res.FalseNeg)
			}
			if considered != res.Considered || correct != res.Correct {
				t.Fatalf("accuracy counts drifted: %d/%d %d/%d", considered, res.Considered, correct, res.Correct)
			}
			if res.Precision < 0 || res.Precision > 1 || res.Recall < 0 || res.Recall > 1 || res.Accuracy < 0 || res.Accuracy > 1 {
				t.Fatalf("ratios out of range: %+v", res)
			}
		})
	}
}

// The determinism contract, extended to scripted scenarios: a named
// scenario's full multi-epoch result must be bit-identical at every
// Parallelism setting. (Acceptance criterion: at least two named scenarios.)
func TestScenarioBitIdenticalAcrossParallelism(t *testing.T) {
	for _, name := range []string{"intermittent-failure", "link-flap", "congestion-burst"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, ok := Find(name)
			if !ok {
				t.Fatalf("scenario %q not registered", name)
			}
			run := func(p int) *Result {
				res, err := Run(spec, Config{Seed: 4242, Parallelism: p})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := run(1)
			drops := 0
			for _, es := range want.Epochs {
				drops += es.TotalDrops
			}
			if drops == 0 {
				t.Fatal("scenario produced no drops to compare")
			}
			for _, p := range []int{2, 8} {
				if got := run(p); !reflect.DeepEqual(want, got) {
					t.Fatalf("Parallelism %d changed the scenario result", p)
				}
			}
		})
	}
}

// sevenScaleTopo is §7 scale (40 servers) spread over two pods, with a T2
// spine so every named scenario's link picks resolve (TestClusterConfig
// itself is one pod with no spine, so it cannot host the L2-picking
// scenarios).
var sevenScaleTopo = topology.Config{Pods: 2, ToRsPerPod: 5, T1PerPod: 4, T2: 2, HostsPerToR: 4}

// Acceptance criterion of the plane-agnostic engine: every named scenario
// runs unmodified on the packet plane through the same Run code path, with
// active epochs and consistent aggregates — on the quick topology, and on
// the §7-scale one, where a same-seed repeat must land a bit-identical
// Result.
func TestAllScenariosRunOnPacketPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-plane DES sweep; skipped in -short mode")
	}
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			res, err := Run(spec, Config{Seed: 7, Epochs: 4, Plane: engine.Packet})
			if err != nil {
				t.Fatal(err)
			}
			if res.Plane != engine.Packet {
				t.Fatalf("result plane = %q", res.Plane)
			}
			if len(res.Epochs) != 4 {
				t.Fatalf("got %d epoch scores, want 4", len(res.Epochs))
			}
			if res.ActiveEpochs+res.QuietEpochs != 4 {
				t.Fatalf("epoch counts inconsistent: %+v", res)
			}
			if res.ActiveEpochs == 0 {
				t.Fatal("no active epochs on the packet plane")
			}
			if totalDrops(res) == 0 {
				t.Fatal("packet plane produced no drops")
			}

			s := spec
			s.Topo = sevenScaleTopo
			run := func() *Result {
				res, err := Run(s, Config{Seed: 4242, Epochs: 3, Plane: engine.Packet})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := run()
			if totalDrops(want) == 0 {
				t.Fatal("§7-scale run produced no drops to compare")
			}
			if got := run(); !reflect.DeepEqual(want, got) {
				t.Fatal("same seed gave a different §7-scale result")
			}
		})
	}
}

func totalDrops(res *Result) int {
	drops := 0
	for _, es := range res.Epochs {
		drops += es.TotalDrops
	}
	return drops
}

// Every named scenario, on both the quick and §7-scale topologies, run by
// two concurrent workers at once with the same seed, must land the Result
// a solo run lands: packet-plane runs share no mutable state, so the worker
// running a replica cannot change what it produces.
func TestPacketScenariosBitIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-plane DES sweep; skipped in -short mode")
	}
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			for _, topoCfg := range []topology.Config{{}, sevenScaleTopo} {
				s := spec
				s.Topo = topoCfg // zero value defers to PacketQuickTopo
				cfg := Config{Seed: 4242, Epochs: 3, Plane: engine.Packet}
				want, err := Run(s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if totalDrops(want) == 0 {
					t.Fatalf("pods=%d: scenario produced no drops to compare", s.Topo.Pods)
				}
				const workers = 2
				got := make([]*Result, workers)
				if err := par.ForEachErr(workers, workers, func(i int) error {
					var err error
					got[i], err = Run(s, cfg)
					return err
				}); err != nil {
					t.Fatal(err)
				}
				for i, res := range got {
					if !reflect.DeepEqual(want, res) {
						t.Fatalf("pods=%d: worker %d of %d changed the scenario result", s.Topo.Pods, i, workers)
					}
				}
			}
		})
	}
}

// The packet-plane determinism contract, mirror of
// TestScenarioBitIdenticalAcrossParallelism: the same seed and schedules
// must give bit-identical results across repeated runs AND across replica
// fan-out orderings — replicas run concurrently through the par pool at
// different worker counts must land exactly what sequential runs land.
func TestPacketScenarioBitIdenticalAcrossReplicaFanout(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-plane DES sweep; skipped in -short mode")
	}
	spec, ok := Find("link-flap")
	if !ok {
		t.Fatal("link-flap not registered")
	}
	const replicas = 3
	sweep := func(workers int) []*Result {
		out := make([]*Result, replicas)
		err := par.ForEachErr(replicas, workers, func(i int) error {
			res, err := Run(spec, Config{Seed: 100 + uint64(i), Epochs: 5, Plane: engine.Packet})
			out[i] = res
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := sweep(1)
	drops := 0
	for _, res := range want {
		for _, es := range res.Epochs {
			drops += es.TotalDrops
		}
	}
	if drops == 0 {
		t.Fatal("packet replicas produced no drops to compare")
	}
	for _, workers := range []int{2, 4} {
		if got := sweep(workers); !reflect.DeepEqual(want, got) {
			t.Fatalf("replica fan-out over %d workers changed packet-plane results", workers)
		}
	}
}

// Same seed twice: identical result. Different seed: different script.
func TestScenarioSeedDiscipline(t *testing.T) {
	spec, _ := Find("link-flap")
	a, err := Run(spec, Config{Seed: 7, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec, Config{Seed: 7, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different results")
	}
	c, err := Run(spec, Config{Seed: 8, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Epochs, c.Epochs) {
		t.Fatal("different seeds produced identical epoch scores")
	}
}

// The congestion-burst script must land on the downlinks of the ToR the
// workload actually floods.
func TestCongestionBurstTargetsTheHotSink(t *testing.T) {
	spec, _ := Find("congestion-burst")
	topo, err := topology.New(QuickTopo)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 99
	w := spec.Workload(stats.DeriveRNG(seed, specDomain), topo)
	hot, ok := w.Pattern.(interface{ Name() string })
	if !ok || !strings.HasPrefix(hot.Name(), "hot-tor") {
		t.Fatalf("workload pattern is %T, want HotToR", w.Pattern)
	}
	script := spec.Script(stats.DeriveRNG(seed, specDomain), topo)
	if len(script) == 0 {
		t.Fatal("empty script")
	}
	// Recover the sink the workload drew by replaying its stream.
	rng := stats.DeriveRNG(seed, specDomain)
	sink := topo.ToR(rng.Intn(topo.Cfg.Pods), rng.Intn(topo.Cfg.ToRsPerPod))
	for _, ls := range script {
		if topo.Links[ls.Link].To != topology.SwitchNode(sink) {
			t.Fatalf("burst link %v does not terminate at the hot sink %v", ls.Link, sink)
		}
	}
}

func TestRunErrors(t *testing.T) {
	good := Spec{
		Name:   "t",
		Epochs: 2,
		Script: func(rng *stats.RNG, topo *topology.Topology) []LinkSchedule {
			return []LinkSchedule{{Link: topo.LinksOfClass(topology.L1Up)[0], Schedule: schedule.ConstantRate{Rate: 0.01}}}
		},
	}
	cases := []struct {
		name string
		spec Spec
		cfg  Config
	}{
		{"zero epochs", func() Spec { s := good; s.Epochs = 0; return s }(), Config{}},
		{"bad topology", func() Spec { s := good; s.Topo = topology.Config{Pods: -1}; return s }(), Config{}},
		{"nil script", func() Spec { s := good; s.Script = nil; return s }(), Config{}},
		{"empty script", func() Spec {
			s := good
			s.Script = func(*stats.RNG, *topology.Topology) []LinkSchedule { return nil }
			return s
		}(), Config{}},
		{"unknown link", func() Spec {
			s := good
			s.Script = func(*stats.RNG, *topology.Topology) []LinkSchedule {
				return []LinkSchedule{{Link: 1 << 30, Schedule: schedule.ConstantRate{Rate: 0.01}}}
			}
			return s
		}(), Config{}},
		{"rate above 1", func() Spec {
			s := good
			s.Script = func(rng *stats.RNG, topo *topology.Topology) []LinkSchedule {
				return []LinkSchedule{{Link: 0, Schedule: schedule.ConstantRate{Rate: 1.5}}}
			}
			return s
		}(), Config{}},
		{"negative rate", func() Spec {
			s := good
			s.Script = func(rng *stats.RNG, topo *topology.Topology) []LinkSchedule {
				return []LinkSchedule{{Link: 0, Schedule: schedule.ConstantRate{Rate: -0.1}}}
			}
			return s
		}(), Config{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(tc.spec, tc.cfg); err == nil {
				t.Fatal("error not reported")
			}
		})
	}
}

func TestRegisterPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"empty name", Spec{}},
		{"duplicate", Spec{Name: "link-flap"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Register did not panic")
				}
			}()
			Register(tc.spec)
		})
	}
}
