// vigil-scenario runs the dynamic failure scenarios: scripted multi-epoch
// sequences of time-varying link conditions (flaps, intermittent drops,
// failure waves, congestion bursts, churn), each epoch analyzed by 007 and
// scored against that epoch's ground truth.
//
// Scenarios run on either evaluation plane: the flow-level simulator (§6,
// the default) or the packet-level cluster emulation (§7/§8), where every
// data packet, ACK, traceroute probe and ICMP reply is emulated
// individually.
//
// Usage:
//
//	vigil-scenario -list                     # names and titles
//	vigil-scenario -name link-flap           # run one scenario
//	vigil-scenario -name all -seed 3         # every scenario
//	vigil-scenario -name failure-wave -epochs 30 -timeline
//	vigil-scenario -name link-flap -plane packet
//	vigil-scenario -name intermittent-failure -plane both -epochs 8
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"vigil"
	"vigil/internal/prof"
	"vigil/internal/runutil"
)

// profiler is shared with fail so error exits still flush a running CPU
// profile.
var profiler *prof.Profiler

func fail(err error) {
	if profiler != nil {
		profiler.Stop()
	}
	fmt.Fprintln(os.Stderr, "vigil-scenario:", err)
	os.Exit(1)
}

func main() {
	name := flag.String("name", "all", "scenario name, or 'all'")
	list := flag.Bool("list", false, "list scenario names and exit")
	seed := flag.Uint64("seed", 7, "base random seed")
	epochs := flag.Int("epochs", 0, "override the scenario's scripted epoch count (0 = spec default)")
	plane := flag.String("plane", "flow", "evaluation plane: flow, packet, or both")
	parallel := flag.Int("par", 0, "epoch engine worker count on the flow plane (0 = all cores); results are identical at any setting")
	timeline := flag.Bool("timeline", true, "print the per-epoch timeline table")
	profiler = prof.Register(flag.CommandLine)
	flag.Parse()

	if err := profiler.Start(); err != nil {
		fail(err)
	}

	var planes []vigil.Plane
	switch *plane {
	case "flow":
		planes = []vigil.Plane{vigil.OnFlowPlane}
	case "packet":
		planes = []vigil.Plane{vigil.OnPacketPlane}
	case "both":
		planes = []vigil.Plane{vigil.OnFlowPlane, vigil.OnPacketPlane}
	default:
		profiler.Stop()
		fmt.Fprintf(os.Stderr, "vigil-scenario: unknown plane %q (want flow, packet or both)\n", *plane)
		os.Exit(2)
	}

	if *list {
		for _, info := range vigil.Scenarios() {
			fmt.Printf("%-22s %s\n", info.Name, info.Title)
		}
		profiler.Stop()
		return
	}

	var names []string
	if *name == "all" {
		for _, info := range vigil.Scenarios() {
			names = append(names, info.Name)
		}
	} else {
		names = strings.Split(*name, ",")
	}

	// First Ctrl-C finishes the current scenario, then exits cleanly with
	// profiles flushed; a second one force-kills.
	ctx, stopSignals := runutil.SignalContext(context.Background())
	interrupted := false
runs:
	for _, n := range names {
		n = strings.TrimSpace(n)
		for _, pl := range planes {
			if ctx.Err() != nil {
				interrupted = true
				break runs
			}
			res, err := vigil.RunScenario(n, vigil.ScenarioConfig{
				Seed:        *seed,
				Epochs:      *epochs,
				Plane:       pl,
				Parallelism: *parallel,
			})
			if err != nil {
				fail(err)
			}
			render(n, res, *timeline)
		}
	}
	stopSignals()
	if interrupted {
		fmt.Fprintln(os.Stderr, "vigil-scenario: interrupted; remaining runs skipped")
	}
	if err := profiler.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "vigil-scenario:", err)
		os.Exit(1)
	}
}

func render(name string, res *vigil.ScenarioResult, timeline bool) {
	fmt.Printf("== scenario %s (%s plane) ==\n\n", name, res.Plane)
	if timeline {
		tab := vigil.Table{
			Title:   "per-epoch timeline",
			Columns: []string{"epoch", "active", "detected", "tp", "fp", "fn", "acc", "drops"},
		}
		for _, es := range res.Epochs {
			tab.AddRow(
				es.Epoch,
				len(es.ActiveLinks),
				len(es.Detected),
				es.Detection.TruePos,
				es.Detection.FalsePos,
				es.Detection.FalseNeg,
				fmt.Sprintf("%.3f", es.Accuracy),
				es.TotalDrops,
			)
		}
		if err := tab.RenderASCII(os.Stdout); err != nil {
			fail(err)
		}
	}
	fmt.Printf("epochs: %d total, %d active, %d quiet (%d clean)\n",
		len(res.Epochs), res.ActiveEpochs, res.QuietEpochs, res.QuietClean)
	fmt.Printf("pooled detection over active epochs: precision %.3f (tp %d, fp %d), recall %.3f (fn %d)\n",
		res.Precision, res.TruePos, res.FalsePos, res.Recall, res.FalseNeg)
	fmt.Printf("pooled attribution accuracy: %.3f over %d failure-crossing flows\n\n",
		res.Accuracy, res.Considered)
}
