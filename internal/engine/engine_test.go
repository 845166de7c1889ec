package engine

import (
	"math"
	"reflect"
	"testing"

	"vigil/internal/schedule"
	"vigil/internal/topology"
	"vigil/internal/traffic"
)

// flowTopo is a small flow-plane Clos; packetTopo the packet-plane default
// shape (every link class present, tiny host count so DES epochs are fast).
var (
	flowTopo   = topology.Config{Pods: 2, ToRsPerPod: 4, T1PerPod: 3, T2: 2, HostsPerToR: 4}
	packetTopo = topology.Config{Pods: 2, ToRsPerPod: 4, T1PerPod: 3, T2: 2, HostsPerToR: 2}
)

func newEngine(t testing.TB, plane Plane, seed uint64) Engine {
	t.Helper()
	topoCfg := flowTopo
	if plane == Packet {
		topoCfg = packetTopo
	}
	topo, err := topology.New(topoCfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Plane: plane, Topo: topo, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// hosts is a light workload sourced from the given hosts.
func hosts(ids ...topology.HostID) traffic.Workload {
	return traffic.Workload{
		Pattern:        traffic.Uniform{},
		ConnsPerHost:   traffic.IntRange{Lo: 2, Hi: 2},
		PacketsPerFlow: traffic.IntRange{Lo: 10, Hi: 10},
		Hosts:          ids,
	}
}

func TestNewErrors(t *testing.T) {
	topo, err := topology.New(flowTopo)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil topo", Config{Plane: Flow}},
		{"unknown plane", Config{Plane: "quantum", Topo: topo}},
		{"bad noise range flow", Config{Plane: Flow, Topo: topo, NoiseLo: 0.5, NoiseHi: 0.1}},
		{"bad noise range packet", Config{Plane: Packet, Topo: topo, NoiseLo: 0.5, NoiseHi: 0.1}},
		// A source host the topology does not have used to panic in the
		// first epoch, indexing topo.Hosts out of range.
		{"source host outside topology flow", Config{Plane: Flow, Topo: topo, Workload: hosts(topology.HostID(len(topo.Hosts)))}},
		{"source host outside topology packet", Config{Plane: Packet, Topo: topo, Workload: hosts(topology.HostID(len(topo.Hosts)))}},
		{"negative source host packet", Config{Plane: Packet, Topo: topo, Workload: hosts(2, -1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg); err == nil {
				t.Fatal("error not reported")
			}
		})
	}
}

func TestPlaneValid(t *testing.T) {
	if !Flow.Valid() || !Packet.Valid() {
		t.Fatal("known planes reported invalid")
	}
	if Plane("quantum").Valid() || Plane("").Valid() {
		t.Fatal("unknown plane reported valid")
	}
}

// Both planes must expose the same validated control surface: bad links and
// bad rates come back as errors, never as silent corruption.
func TestValidationErrorsOnBothPlanes(t *testing.T) {
	for _, plane := range []Plane{Flow, Packet} {
		t.Run(string(plane), func(t *testing.T) {
			eng := newEngine(t, plane, 1)
			good := eng.Topology().LinksOfClass(topology.L1Up)[0]
			nlinks := len(eng.Topology().Links)
			if err := eng.InjectFailure(-1, 0.1); err == nil {
				t.Fatal("negative link accepted")
			}
			if err := eng.InjectFailure(topology.LinkID(nlinks), 0.1); err == nil {
				t.Fatal("out-of-range link accepted")
			}
			for _, rate := range []float64{-0.1, 1.5, math.NaN()} {
				if err := eng.InjectFailure(good, rate); err == nil {
					t.Fatalf("rate %v accepted", rate)
				}
			}
			if err := eng.InjectFailure(good, 0.1); err != nil {
				t.Fatalf("valid injection rejected: %v", err)
			}
			if err := eng.ClearFailure(good); err != nil {
				t.Fatalf("valid clear rejected: %v", err)
			}
			if err := eng.ClearFailure(-1); err == nil {
				t.Fatal("clearing a negative link accepted")
			}
			if err := eng.Schedule(-1, schedule.ConstantRate{Rate: 0.1}); err == nil {
				t.Fatal("schedule on negative link accepted")
			}
			if err := eng.Schedule(good, nil); err == nil {
				t.Fatal("nil schedule accepted")
			}
			if err := eng.Schedule(good, schedule.ConstantRate{Rate: 1.5}); err == nil {
				t.Fatal("out-of-range schedule rate accepted")
			}
			if err := eng.Schedule(good, schedule.Flap{Rate: 0.1, Period: 2, On: 1}); err != nil {
				t.Fatalf("valid schedule rejected: %v", err)
			}
			eng.ClearSchedules()
		})
	}
}

// The plane-agnostic contract, end to end on both planes: an injected
// failure appears in FailedLinks and in the detections, ground truth names
// failed flows, and the epoch index advances.
func TestEpochCycleOnBothPlanes(t *testing.T) {
	for _, plane := range []Plane{Flow, Packet} {
		t.Run(string(plane), func(t *testing.T) {
			eng := newEngine(t, plane, 2)
			if _, flow := eng.(*flowEngine); flow != (plane == Flow) {
				t.Fatalf("New(%q) built a %T", plane, eng)
			}
			bad := eng.Topology().LinksOfClass(topology.L1Down)[1]
			if err := eng.InjectFailure(bad, 0.05); err != nil {
				t.Fatal(err)
			}
			if got := eng.EpochIndex(); got != 0 {
				t.Fatalf("EpochIndex = %d before the first epoch", got)
			}
			er := eng.RunEpoch()
			if got := eng.EpochIndex(); got != 1 {
				t.Fatalf("EpochIndex = %d after one epoch", got)
			}
			if er.Epoch != 0 {
				t.Fatalf("EpochResult.Epoch = %d", er.Epoch)
			}
			if len(er.FailedLinks) != 1 || er.FailedLinks[0] != bad {
				t.Fatalf("FailedLinks = %v, want [%v]", er.FailedLinks, bad)
			}
			if er.TotalFlows == 0 || er.TotalDrops == 0 || er.FailedFlows == 0 {
				t.Fatalf("no signal: %+v", er)
			}
			if len(er.Reports) == 0 || len(er.Verdicts) == 0 {
				t.Fatal("no reports or verdicts")
			}
			if len(er.Truth) == 0 {
				t.Fatal("no ground truth for failed flows")
			}
			found := false
			for _, l := range er.Detected {
				if l == bad {
					found = true
				}
			}
			if !found {
				t.Fatalf("bad link not detected: %v", er.Detected)
			}
			crossed := 0
			for _, tr := range er.Truth {
				if tr.CrossedFailure {
					crossed++
				}
			}
			if crossed == 0 {
				t.Fatal("no flow crossed the injected failure")
			}
		})
	}
}

// Scheduled rotation must settle at epoch boundaries on both planes: a
// Window schedule is quiet, then active, then quiet again.
func TestScheduleRotationOnBothPlanes(t *testing.T) {
	for _, plane := range []Plane{Flow, Packet} {
		t.Run(string(plane), func(t *testing.T) {
			eng := newEngine(t, plane, 3)
			bad := eng.Topology().LinksOfClass(topology.L1Up)[2]
			if err := eng.Schedule(bad, schedule.Window{Rate: 0.1, Start: 1, End: 2}); err != nil {
				t.Fatal(err)
			}
			for e := 0; e < 3; e++ {
				er := eng.RunEpoch()
				active := e == 1
				if active && (len(er.FailedLinks) != 1 || er.FailedLinks[0] != bad) {
					t.Fatalf("epoch %d: FailedLinks = %v, want [%v]", e, er.FailedLinks, bad)
				}
				if !active && len(er.FailedLinks) != 0 {
					t.Fatalf("epoch %d: FailedLinks = %v, want none", e, er.FailedLinks)
				}
			}
			eng.ClearSchedules()
			if er := eng.RunEpoch(); len(er.FailedLinks) != 0 {
				t.Fatalf("ClearSchedules left failures: %v", er.FailedLinks)
			}
		})
	}
}

func TestClearAllFailuresOnBothPlanes(t *testing.T) {
	for _, plane := range []Plane{Flow, Packet} {
		t.Run(string(plane), func(t *testing.T) {
			eng := newEngine(t, plane, 4)
			links := eng.Topology().LinksOfClass(topology.L1Up)
			for _, l := range links[:2] {
				if err := eng.InjectFailure(l, 0.2); err != nil {
					t.Fatal(err)
				}
			}
			eng.ClearAllFailures()
			if er := eng.RunEpoch(); len(er.FailedLinks) != 0 {
				t.Fatalf("failures survived ClearAllFailures: %v", er.FailedLinks)
			}
		})
	}
}

// The packet-plane determinism contract (mirror of the flow plane's
// cross-parallelism test): same seed + same schedules must give
// bit-identical EpochResults across repeated runs.
func TestPacketEngineBitIdenticalAcrossRuns(t *testing.T) {
	run := func() []*EpochResult {
		eng := newEngine(t, Packet, 42)
		topo := eng.Topology()
		if err := eng.Schedule(topo.LinksOfClass(topology.L1Up)[1], schedule.Flap{Rate: 0.03, Period: 2, On: 1}); err != nil {
			t.Fatal(err)
		}
		if err := eng.Schedule(topo.LinksOfClass(topology.L2Down)[0], schedule.Intermittent{Rate: 0.02, Prob: 0.5, Seed: 9}); err != nil {
			t.Fatal(err)
		}
		var out []*EpochResult
		for e := 0; e < 3; e++ {
			out = append(out, eng.RunEpoch())
		}
		return out
	}
	want := run()
	drops := 0
	for _, er := range want {
		drops += er.TotalDrops
	}
	if drops == 0 {
		t.Fatal("scheduled packet run produced no drops to compare")
	}
	if got := run(); !reflect.DeepEqual(want, got) {
		t.Fatal("same seed + same schedules diverged across packet-plane runs")
	}
}

// The flow engine must produce exactly what the pre-engine pipeline
// produced: the facade and the scenario engine both ride on it, so a
// changed workload default or draw order would silently shift every
// calibrated envelope.
func TestFlowEngineDefaultWorkloadMatchesPaper(t *testing.T) {
	eng := newEngine(t, Flow, 5)
	er := eng.RunEpoch()
	hosts := len(eng.Topology().Hosts)
	want := hosts * 60 // the paper's 60 conns/host default
	if er.TotalFlows != want {
		t.Fatalf("default flow workload produced %d flows, want %d", er.TotalFlows, want)
	}
}

// A workload that leaves Pattern nil keeps the fields it does set; only the
// zero ones take the plane's default. Replacing it wholesale ran the
// plane's default connections on every host: 384 flows on this flow
// fabric for the probe's 2.
func TestPartialWorkloadKeepsItsFields(t *testing.T) {
	for _, plane := range []Plane{Flow, Packet} {
		t.Run(string(plane), func(t *testing.T) {
			topoCfg := flowTopo
			if plane == Packet {
				topoCfg = packetTopo
			}
			topo, err := topology.New(topoCfg)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(Config{Plane: plane, Topo: topo, Seed: 6, Workload: traffic.Workload{
				ConnsPerHost: traffic.IntRange{Lo: 2, Hi: 2},
				Hosts:        []topology.HostID{0},
			}})
			if err != nil {
				t.Fatal(err)
			}
			if er := eng.RunEpoch(); er.TotalFlows != 2 {
				t.Fatalf("ConnsPerHost {2,2} from host 0 ran %d flows, want 2", er.TotalFlows)
			}
		})
	}
}

// A custom workload must reach the plane.
func TestCustomWorkload(t *testing.T) {
	for _, plane := range []Plane{Flow, Packet} {
		t.Run(string(plane), func(t *testing.T) {
			topoCfg := flowTopo
			if plane == Packet {
				topoCfg = packetTopo
			}
			topo, err := topology.New(topoCfg)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := New(Config{
				Plane: plane,
				Topo:  topo,
				Seed:  6,
				Workload: traffic.Workload{
					Pattern:        traffic.Uniform{},
					ConnsPerHost:   traffic.IntRange{Lo: 2, Hi: 2},
					PacketsPerFlow: traffic.IntRange{Lo: 20, Hi: 20},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			er := eng.RunEpoch()
			if want := len(topo.Hosts) * 2; er.TotalFlows != want {
				t.Fatalf("custom workload produced %d flows, want %d", er.TotalFlows, want)
			}
		})
	}
}
