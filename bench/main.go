// Command vigil-bench is vigil's service-path benchmark: four workloads
// driven through the public seams of the layers, every end-to-end metric
// the median over five fresh-process slices. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"
)

// procStart is the zero of every timestamp; a slice's set-up time runs
// from here.
var procStart = time.Now()

func since() time.Duration { return time.Since(procStart) }

// defaultSeconds is the measured time of one run (all five slices) that
// BENCHMARK.json asks for.
const defaultSeconds = 15

// tracedPlan is the slice plan of a traced run: the traced slices give the
// per-layer metrics, the untraced ones what tracing costs them.
var tracedPlan = []bool{false, true, false, true, false}

// stamp says what machine and inputs a result came from.
type stamp struct {
	NumCPU         int    `json:"num_cpu"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go_version"`
	Commit         string `json:"commit"`
	Seed           uint64 `json:"seed"`
	Slices         int    `json:"slices"`
	EpochsPerSlice int    `json:"epochs_per_slice,omitempty"` // per workload; absent on a report over several
}

func newStamp(seed uint64, slices, epochs int) stamp {
	return stamp{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: min(runtime.NumCPU(), 4), GoVersion: runtime.Version(),
		Commit: commit(), Seed: seed, Slices: slices, EpochsPerSlice: epochs,
	}
}

// commit asks git, once, for the checkout's revision; a checkout that is
// not a repository has none.
var commit = sync.OnceValue(func() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
})

// result is one workload's run: medians over its slices.
type result struct {
	Workload  string             `json:"workload"`
	Stamp     stamp              `json:"stamp"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	E2E       map[string]float64 `json:"e2e"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	Samples   map[string]int     `json:"samples"`
	Checked   int                `json:"checked_epochs"`
	Errors    []string           `json:"errors,omitempty"`
}

type options struct {
	seed    uint64
	seconds int
	outDir  string
}

func main() {
	var (
		workload  = flag.String("workload", "all", "workload name, a comma-separated list, or all")
		seed      = flag.Uint64("seed", 1, "derives every input: trace, engine and fault seeds")
		seconds   = flag.Int("seconds", defaultSeconds, "measured seconds per run; sets the fixed epoch count of the slices")
		trace     = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes the span files")
		aa        = flag.Int("aa", 0, "run the full set this many times and write the A/A report")
		outDir    = flag.String("out", "out", "directory for span files, the A/A report and per-slice temp dirs")
		sliceOf   = flag.String("slice", "", "internal: run one slice of this workload")
		epochs    = flag.Int("epochs", 0, "internal: measured epochs of the slice")
		sliceSpan = flag.Bool("spans", false, "internal: trace the slice")
		sliceTwin = flag.Bool("twin", false, "internal: run the batch twin check in the slice")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: vigil-bench [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-aa n]")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	if *sliceOf != "" {
		res, err := runSlice(sliceConfig{workload: *sliceOf, seed: *seed, epochs: *epochs, traced: *sliceSpan, twin: *sliceTwin, outDir: *outDir})
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fatal(err)
		}
		return
	}

	var chosen []*spec
	for _, name := range strings.Split(*workload, ",") {
		if name == "all" {
			chosen = specs
			break
		}
		sp := specByName(name)
		if sp == nil {
			fatal(fmt.Errorf("unknown workload %q", name))
		}
		chosen = append(chosen, sp)
	}
	opt := options{seed: *seed, seconds: *seconds, outDir: *outDir}
	if *aa > 0 {
		if err := runAA(specs, opt, *aa); err != nil {
			fatal(err)
		}
		return
	}
	plan := make([]bool, slicesPerRun)
	if *trace == 1 {
		plan = tracedPlan
	}
	results, err := runSet(chosen, opt, plan)
	if err != nil {
		fatal(err)
	}
	correct := printResults(results, *trace == 1)
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vigil-bench:", err)
	os.Exit(1)
}

// runSet runs one slice plan over the workloads. The slices of different
// workloads are interleaved, so each workload samples the whole wall-clock
// window and a drift of the machine reaches all of them alike.
func runSet(chosen []*spec, opt options, plan []bool) ([]*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	slices := make(map[string][]*sliceResult)
	for i, traced := range plan {
		for _, sp := range chosen {
			res, err := runSliceProcess(self, sp, opt, traced, i == 0)
			if err != nil {
				return nil, fmt.Errorf("%s slice %d: %w", sp.name, i, err)
			}
			slices[sp.name] = append(slices[sp.name], res)
		}
	}
	var results []*result
	for _, sp := range chosen {
		results = append(results, summarize(sp, opt, slices[sp.name]))
	}
	return results, nil
}

// runSliceProcess re-executes this binary for one slice, so that every
// slice starts from a fresh heap, fresh pools and an empty page cache of
// its own, and set-up is paid (and measured) each time.
func runSliceProcess(self string, sp *spec, opt options, traced, twin bool) (*sliceResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, self,
		"-slice", sp.name, "-seed", fmt.Sprint(opt.seed), "-epochs", fmt.Sprint(sp.epochsFor(opt.seconds)),
		"-out", opt.outDir, fmt.Sprintf("-spans=%t", traced), fmt.Sprintf("-twin=%t", twin))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to end
	if err != nil {
		return nil, err
	}
	var res sliceResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("reading slice result: %w", err)
	}
	return &res, nil
}

// summarize folds a workload's slices into its result: every end-to-end
// metric is the median over the untraced slices, every per-layer metric
// the median over the traced ones.
func summarize(sp *spec, opt options, slices []*sliceResult) *result {
	res := &result{
		Workload: sp.name, Stamp: newStamp(opt.seed, len(slices), sp.epochsFor(opt.seconds)),
		E2E: map[string]float64{}, Samples: map[string]int{},
	}
	e2e := map[string][]float64{}
	layer := map[string][]float64{}
	for _, s := range slices {
		res.Attempted += s.Attempted
		res.Failed += s.Failed
		res.Checked += s.Checked
		res.Errors = append(res.Errors, s.Errors...)
		values, into := s.E2E, e2e
		if s.Traced {
			values, into = s.Layer, layer
		}
		for name, v := range values {
			into[name] = append(into[name], v)
			res.Samples[name] += s.Samples[name]
		}
	}
	res.Correct = len(res.Errors) == 0 && res.Failed == 0
	for name, vs := range e2e {
		res.E2E[name] = median(vs)
	}
	if len(layer) > 0 {
		res.Layer = map[string]float64{}
		for name, vs := range layer {
			res.Layer[name] = median(vs)
		}
		// What tracing costs: the traced slices' rate against the
		// untraced median.
		var traced []float64
		for _, s := range slices {
			if s.Traced {
				traced = append(traced, s.E2E["epochs_per_s"])
			}
		}
		res.Layer["trace.overhead_share"] = 1 - median(traced)/res.E2E["epochs_per_s"]
	}
	return res
}

// metricLine is one metric in the driver's result object.
type metricLine struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResults prints every metric by name with its unit and sample count,
// then, as the last line, the one JSON object the driver reads. With
// several workloads that object's metric names carry the workload.
func printResults(results []*result, traced bool) (correct bool) {
	defs := e2eMetrics
	if traced {
		defs = layerMetrics
	}
	correct = true
	var attempted, failed int64
	metrics := map[string]metricLine{}
	for _, res := range results {
		st, _ := json.Marshal(res.Stamp)
		fmt.Printf("# %s %s checked_epochs=%d\n", res.Workload, st, res.Checked)
		values := res.E2E
		if traced {
			values = res.Layer
		}
		for _, def := range defs {
			line := fmt.Sprintf("%-14s %-40s %14.6f %-6s", res.Workload, def.name, values[def.name], def.unit)
			if n := res.Samples[def.name]; n > 0 {
				line += fmt.Sprintf(" n=%d", n)
			}
			fmt.Println(line)
			name := def.name
			if len(results) > 1 {
				name = res.Workload + "/" + name
			}
			metrics[name] = metricLine{Value: values[def.name], Unit: def.unit}
		}
		for _, e := range res.Errors {
			fmt.Printf("%-14s CHECK FAILED: %s\n", res.Workload, e)
		}
		correct = correct && res.Correct
		attempted += res.Attempted
		failed += res.Failed
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]metricLine `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	return correct
}

// --- A/A ------------------------------------------------------------------

// floors are the bounds the end-to-end metrics start from; the A/A sweep
// may only widen them.
var floors = map[string]float64{
	"epochs_per_s": 0.10, "verdict_ms_p50": 0.10, "setup_s": 0.15, "peak_rss_mb": 0.10, "delivered_share": 0.001,
}

// maxBound is the widest bound the contract allows. A metric whose A/A gap
// asks for more is held there and flagged: it cannot gate that finely on
// this machine.
const maxBound = 0.25

type aaBound struct {
	Floor     float64            `json:"floor"`
	Gaps      map[string]float64 `json:"widest_gap_by_workload"`
	WidestGap float64            `json:"widest_gap"`
	Bound     float64            `json:"bound"`
	Capped    bool               `json:"capped_at_0.25"`
}

type aaReport struct {
	Stamp   stamp                           `json:"stamp"`
	Seconds int                             `json:"seconds"`
	Rule    string                          `json:"rule"`
	Sets    []map[string]map[string]float64 `json:"sets"` // set → workload → metric → median
	Bounds  map[string]*aaBound             `json:"bounds"`
}

// runAA runs the whole set n times on the same code and derives each
// end-to-end bound from what the machine itself does to the medians:
// bound = max(floor, 2 × widest relative gap between any two sets).
func runAA(chosen []*spec, opt options, n int) error {
	rep := aaReport{
		Stamp: newStamp(opt.seed, slicesPerRun, 0), Seconds: opt.seconds,
		Rule:   "bound = min(0.25, max(floor, 2 * widest (max-min)/min over sets and workloads))",
		Bounds: map[string]*aaBound{},
	}
	correct := true
	for i := 0; i < n; i++ {
		results, err := runSet(chosen, opt, make([]bool, slicesPerRun))
		if err != nil {
			return err
		}
		set := map[string]map[string]float64{}
		for _, res := range results {
			set[res.Workload] = res.E2E
			correct = correct && res.Correct
		}
		rep.Sets = append(rep.Sets, set)
		fmt.Printf("# A/A set %d of %d done\n", i+1, n)
	}
	for _, def := range e2eMetrics {
		b := &aaBound{Floor: floors[def.name], Gaps: map[string]float64{}}
		for _, sp := range chosen {
			lo, hi := 0.0, 0.0
			for i, set := range rep.Sets {
				v := set[sp.name][def.name]
				if i == 0 || v < lo {
					lo = v
				}
				if i == 0 || v > hi {
					hi = v
				}
			}
			gap := (hi - lo) / lo
			b.Gaps[sp.name] = gap
			b.WidestGap = max(b.WidestGap, gap)
		}
		b.Bound = max(b.Floor, 2*b.WidestGap)
		if b.Bound > maxBound {
			b.Bound, b.Capped = maxBound, true
		}
		rep.Bounds[def.name] = b
	}
	for _, def := range e2eMetrics {
		b := rep.Bounds[def.name]
		for _, sp := range chosen {
			fmt.Printf("%-14s %-16s widest gap %.4f  bound %.4f\n", sp.name, def.name, b.Gaps[sp.name], b.Bound)
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	// Beside the out directory, not in it: the report is committed, as the
	// source of BENCHMARK.json's bounds.
	path := filepath.Join(filepath.Dir(opt.outDir), "AA.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	if !correct {
		return fmt.Errorf("a correctness check failed during the A/A sweep")
	}
	return nil
}
