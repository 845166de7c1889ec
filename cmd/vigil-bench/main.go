// vigil-bench converts `go test -bench -benchmem` output on stdin into the
// repo's benchmark-trajectory JSON (BENCH_N.json): one record per benchmark
// with ns/op, B/op, allocs/op and whatever units the benchmark reported
// itself (b.ReportMetric), plus the host metadata Go prints. CI runs
// it after the epoch benchmarks so every PR leaves a machine-readable perf
// point behind:
//
//	go test -run XXX -bench 'Epoch' -benchmem -count=3 . | vigil-bench > BENCH_N.json
//
// where N is the current PR number; the file name is the only thing that
// changes from PR to PR.
//
// Each record carries the package its benchmark ran in (the `pkg:` line
// above it), and records are keyed by package and name: two benchmarks of
// one name in different packages stay two records.
//
// With `go test -count=N` the same benchmark appears N times; those
// samples merge into one record keeping the MINIMUM ns/op (and the B/op and
// allocs/op of that fastest sample), with Samples recording how many runs
// backed it. Min-of-N is the standard noise filter for shared CI runners:
// the fastest run is the least-perturbed one, so deltas between BENCH_N.json
// files track the code, not the neighbors.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// Result is one benchmark record: the fastest of its samples.
type Result struct {
	Name string `json:"name"`
	// Package is the Go package the benchmark ran in.
	Package     string  `json:"pkg,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics holds the benchmark's own b.ReportMetric values by unit
	// (events/op, fused-hops/op, reports, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Samples counts the `-count` repetitions merged into this record
	// (min-of-N); omitted when the benchmark ran once.
	Samples int `json:"samples,omitempty"`
}

// Output is the emitted document. NumCPU and GOMAXPROCS describe the
// machine vigil-bench ran on — CI runs it on the same runner as the
// benchmarks — so a flat parallel curve in the benchmark records is
// self-explaining: num_cpu 1 means the workers were serialized by the
// host, not by the scheduler. Package is read from files written before
// each record carried its own, which hold the run's last package there.
type Output struct {
	GOOS       string   `json:"goos,omitempty"`
	GOARCH     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Package    string   `json:"pkg,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vigil-bench:", err)
		os.Exit(1)
	}
}

// run reads `go test -bench` output from stdin and writes the JSON
// document to stdout.
func run(stdin io.Reader, stdout io.Writer) error {
	out := Output{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	type key struct{ pkg, name string }
	index := make(map[key]int) // position in out.Benchmarks
	pkg := ""
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			out.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			out.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			out.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			r, ok := parseBench(line)
			if !ok {
				continue
			}
			r.Package = pkg
			k := key{pkg, r.Name}
			i, seen := index[k]
			if !seen {
				index[k] = len(out.Benchmarks)
				out.Benchmarks = append(out.Benchmarks, r)
				continue
			}
			merge(&out.Benchmarks[i], r)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(out.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// merge folds a repeated sample into the kept record, retaining the fastest
// sample's numbers whole (its iteration count and memory stats belong
// together) and bumping the sample count.
func merge(kept *Result, next Result) {
	if kept.Samples == 0 {
		kept.Samples = 1
	}
	next.Samples = kept.Samples + 1
	if next.NsPerOp < kept.NsPerOp {
		*kept = next
		return
	}
	kept.Samples = next.Samples
}

// parseBench parses one benchmark result line, e.g.
//
//	BenchmarkEpochParallel/1-8  5  14927332 ns/op  2288324 B/op  477 allocs/op
func parseBench(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Result{}, false
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix Go appends to the name.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: name, Iterations: iters}
	for i := 2; i+1 < len(fields); i += 2 {
		v := fields[i]
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp, _ = strconv.ParseFloat(v, 64)
		case "B/op":
			r.BytesPerOp, _ = strconv.ParseInt(v, 10, 64)
		case "allocs/op":
			r.AllocsPerOp, _ = strconv.ParseInt(v, 10, 64)
		default:
			if x, err := strconv.ParseFloat(v, 64); err == nil {
				if r.Metrics == nil {
					r.Metrics = make(map[string]float64)
				}
				r.Metrics[fields[i+1]] = x
			}
		}
	}
	if r.NsPerOp == 0 {
		return Result{}, false
	}
	return r, true
}
