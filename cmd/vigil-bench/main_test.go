package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// -update (go test ./cmd/vigil-bench -update) rewrites the golden document
// from this build's output.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// A benchmark's own units (b.ReportMetric) ride along with the standard
// three instead of being dropped.
func TestParseBenchKeepsCustomMetrics(t *testing.T) {
	r, ok := parseBench("BenchmarkClusterEpochDatacenter/workers=0-2  \t 10\t  60423576 ns/op\t 233110 events/op\t 1143980 fused-hops/op\t 70784 B/op\t 208 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if r.Name != "BenchmarkClusterEpochDatacenter/workers=0" || r.Iterations != 10 || r.NsPerOp != 60423576 || r.BytesPerOp != 70784 || r.AllocsPerOp != 208 {
		t.Fatalf("standard fields: %+v", r)
	}
	if r.Metrics["events/op"] != 233110 || r.Metrics["fused-hops/op"] != 1143980 || len(r.Metrics) != 2 {
		t.Fatalf("custom metrics: %v", r.Metrics)
	}
	if r, ok := parseBench("BenchmarkAnalyze/paper-2 200 600000 ns/op 1440 reports"); !ok || r.Metrics["reports"] != 1440 {
		t.Fatalf("reports metric lost: %+v", r)
	}
	if r, _ := parseBench("BenchmarkScheduler-2 100 50 ns/op 0 B/op 0 allocs/op"); r.Metrics != nil {
		t.Fatalf("metrics invented: %v", r.Metrics)
	}
}

// hostLines are the two fields that describe the machine vigil-bench runs
// on rather than its input.
var hostLines = regexp.MustCompile(`"(num_cpu|gomaxprocs)": \d+`)

// A three-package transcript, with a benchmark name that two packages
// share: every record is filed under the package it ran in, the same name
// in two packages stays two records, and -count repetitions within one
// package merge into the fastest.
func TestTwoPackageTranscript(t *testing.T) {
	in, err := os.ReadFile("testdata/two-packages.txt")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(bytes.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	got := hostLines.ReplaceAll(out.Bytes(), []byte(`"$1": 0`))
	golden := filepath.Join("testdata", "two-packages.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s:\n%s", golden, got)
	}
}

// Input with no benchmark line is an error, not an empty document.
func TestNoBenchmarksIsAnError(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.NewReader("PASS\nok  \tvigil\t0.1s\n"), &out); err == nil || out.Len() != 0 {
		t.Fatalf("err %v, wrote %q", err, out.String())
	}
}

// Every checked-in BENCH_*.json decodes into today's Output with no field
// left over, and every record in it names a benchmark with a time.
func TestCheckedInFilesDecode(t *testing.T) {
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no BENCH_*.json found: %v", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var out Output
		if err := dec.Decode(&out); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(out.Benchmarks) == 0 {
			t.Fatalf("%s: no records", f)
		}
		for _, r := range out.Benchmarks {
			if !strings.HasPrefix(r.Name, "Benchmark") || r.NsPerOp <= 0 {
				t.Fatalf("%s: record %+v", f, r)
			}
		}
	}
}
