package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"

	"vigil/internal/engine"
	"vigil/internal/ingest"
	"vigil/internal/topology"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark has to agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []declared `json:"end_to_end"`
	PerLayer  []declared `json:"per_layer"`
}

type declared struct{ Name, Unit, Better string }

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// A tiny slice of every workload, untraced and traced, emits every metric
// BENCHMARK.json declares, under a name the contract allows, passes its
// own checks, and agrees with the declaration on unit and direction.
func TestTinySlicesEmitDeclaredMetrics(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(b.Workloads), len(specs))
	}
	checkDefs := func(kind string, decl []declared, defs []metricDef) {
		if len(decl) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", kind, len(decl), len(defs))
		}
		name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
		for i, d := range decl {
			better := "lower"
			if defs[i].higher {
				better = "higher"
			}
			if d.Name != defs[i].name || d.Unit != defs[i].unit || d.Better != better {
				t.Errorf("%s[%d]: BENCHMARK.json says %+v, the benchmark %+v", kind, i, d, defs[i])
			}
			if !name.MatchString(d.Name) {
				t.Errorf("%s: name %q is outside the contract's alphabet", kind, d.Name)
			}
		}
	}
	checkDefs("end_to_end", b.EndToEnd, e2eMetrics)
	checkDefs("per_layer", b.PerLayer, layerMetrics)

	out := t.TempDir()
	for _, w := range b.Workloads {
		sp := specByName(w.Name)
		if sp == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
		var slices []*sliceResult
		for _, traced := range []bool{false, true} {
			res, err := runSlice(sliceConfig{workload: w.Name, seed: 3, epochs: 6, traced: traced, twin: true, tiny: true, outDir: out})
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			slices = append(slices, res)
		}
		res := summarize(sp, options{seed: 3, seconds: 1, outDir: out}, slices)
		if !res.Correct {
			t.Errorf("%s: checks failed: %v (failed=%d)", w.Name, res.Errors, res.Failed)
		}
		if res.Attempted < 1 || res.Checked < 1 {
			t.Errorf("%s: attempted %d reports, checked %d epochs", w.Name, res.Attempted, res.Checked)
		}
		for _, d := range b.EndToEnd {
			if v, ok := res.E2E[d.Name]; !ok || v == 0 {
				t.Errorf("%s: end-to-end metric %s = %v, present %t", w.Name, d.Name, v, ok)
			}
		}
		for _, d := range b.PerLayer {
			if _, ok := res.Layer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s is missing", w.Name, d.Name)
			}
		}
		if _, err := os.Stat(out + "/trace-" + w.Name + ".json"); err != nil {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
	}
}

func newSmallFlowEngine(t *testing.T) engine.Engine {
	t.Helper()
	topo, err := topology.New(tinyFlowTopo)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Config{Topo: topo, Seed: 11, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range topo.LinksOfClass(topology.L1Up)[:3] {
		if err := eng.InjectFailure(l, 0.05); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// The replay engine honours the Engine contract the service relies on:
// settled fault-free through ingest.Service, its epochs are bit-identical
// to its own batch RunEpoch, past the end of the trace too.
func TestReplayEngineSettlesLikeBatch(t *testing.T) {
	const epochs = 11
	batch := recordTrace(newSmallFlowEngine(t), 4)
	served := recordTrace(newSmallFlowEngine(t), 4)
	var got []*engine.EpochResult
	svc, err := ingest.New(ingest.Config{Engine: served, Sink: func(res *engine.EpochResult) { got = append(got, res) }})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Run(context.Background(), epochs); err != nil {
		t.Fatal(err)
	}
	if len(got) != epochs {
		t.Fatalf("settled %d epochs, want %d", len(got), epochs)
	}
	for i, res := range got {
		want := batch.RunEpoch()
		if len(want.Reports) == 0 {
			t.Fatalf("epoch %d of the trace has no reports; the comparison would be empty", i)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("epoch %d: replay settled through the service differs from its batch RunEpoch", i)
		}
	}
}

// The timedEngine wrapper changes no result: a wrapped engine's Step
// results equal the same-seed bare engine's, and it stamps every epoch.
func TestTimedEngineChangesNoResult(t *testing.T) {
	bare := newSmallFlowEngine(t)
	timed := &timedEngine{Engine: newSmallFlowEngine(t), rec: &recorder{}}
	for i := 0; i < 4; i++ {
		if got, want := timed.Step(nil), bare.Step(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("epoch %d: wrapped Step differs from bare Step", i)
		}
	}
	if len(timed.enter) != 4 || len(timed.ret) != 4 || len(timed.self) != 4 {
		t.Fatalf("timedEngine stamped %d/%d/%d of 4 epochs", len(timed.enter), len(timed.ret), len(timed.self))
	}
	if len(timed.rec.spans) != 4 {
		t.Fatalf("recorded %d step spans, want 4", len(timed.rec.spans))
	}
}
