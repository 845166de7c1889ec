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
	"io"
	"os"
	"strings"

	"vigil"
	"vigil/internal/prof"
	"vigil/internal/runutil"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vigil-scenario:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("vigil-scenario", flag.ContinueOnError)
	name := fs.String("name", "all", "scenario name, or 'all'")
	list := fs.Bool("list", false, "list scenario names and exit")
	seed := fs.Uint64("seed", 7, "base random seed")
	epochs := fs.Int("epochs", 0, "override the scenario's scripted epoch count (0 = spec default)")
	plane := fs.String("plane", "flow", "evaluation plane: flow, packet, or both")
	parallel := fs.Int("par", 0, "epoch engine worker count on the flow plane (0 = all cores); results are identical at any setting")
	timeline := fs.Bool("timeline", true, "print the per-epoch timeline table")
	profiler := prof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
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
		return fmt.Errorf("unknown plane %q (want flow, packet or both)", *plane)
	}

	if *list {
		for _, info := range vigil.Scenarios() {
			fmt.Fprintf(stdout, "%-22s %s\n", info.Name, info.Title)
		}
		return nil
	}

	var names []string
	if *name == "all" {
		for _, info := range vigil.Scenarios() {
			names = append(names, info.Name)
		}
	} else {
		names = strings.Split(*name, ",")
	}

	if err := profiler.Start(); err != nil {
		return err
	}
	defer func() { // error exits still flush a running CPU profile
		if perr := profiler.Stop(); err == nil {
			err = perr
		}
	}()

	// First Ctrl-C finishes the current scenario, then exits cleanly with
	// profiles flushed; a second one force-kills.
	ctx, stopSignals := runutil.SignalContext(context.Background())
	defer stopSignals()
	for _, n := range names {
		n = strings.TrimSpace(n)
		for _, pl := range planes {
			if ctx.Err() != nil {
				fmt.Fprintln(os.Stderr, "vigil-scenario: interrupted; remaining runs skipped")
				return nil
			}
			res, err := vigil.RunScenario(n, vigil.ScenarioConfig{
				Seed:        *seed,
				Epochs:      *epochs,
				Plane:       pl,
				Parallelism: *parallel,
			})
			if err != nil {
				return err
			}
			if err := render(stdout, n, res, *timeline); err != nil {
				return err
			}
		}
	}
	return nil
}

func render(w io.Writer, name string, res *vigil.ScenarioResult, timeline bool) error {
	fmt.Fprintf(w, "== scenario %s (%s plane) ==\n\n", name, res.Plane)
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
		if err := tab.RenderASCII(w); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "epochs: %d total, %d active, %d quiet (%d clean)\n",
		len(res.Epochs), res.ActiveEpochs, res.QuietEpochs, res.QuietClean)
	fmt.Fprintf(w, "pooled detection over active epochs: precision %.3f (tp %d, fp %d), recall %.3f (fn %d)\n",
		res.Precision, res.TruePos, res.FalsePos, res.Recall, res.FalseNeg)
	fmt.Fprintf(w, "pooled attribution accuracy: %.3f over %d failure-crossing flows\n\n",
		res.Accuracy, res.Considered)
	return nil
}
