package main

import "testing"

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
