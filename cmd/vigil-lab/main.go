// vigil-lab regenerates the paper's tables and figures.
//
// Usage:
//
//	vigil-lab -run all            # every experiment, full scale
//	vigil-lab -run fig3,fig10     # a subset
//	vigil-lab -run fig13 -quick   # reduced scale (benchmark size)
//	vigil-lab -run all -csv out/  # also write CSV per table
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"vigil"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vigil-lab:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("vigil-lab", flag.ContinueOnError)
	runIDs := fs.String("run", "all", "comma-separated experiment IDs, or 'all'")
	quick := fs.Bool("quick", false, "reduced scale (smaller topology, fewer seeds)")
	seeds := fs.Int("seeds", 0, "repetitions per data point (0 = scale default)")
	seed := fs.Uint64("seed", 7, "base random seed")
	csvDir := fs.String("csv", "", "directory to write per-table CSV files")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	parallel := fs.Int("par", 0, "seed-sweep worker pool size (0 = all cores); results are identical at any setting")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range vigil.Experiments() {
			fmt.Fprintf(stdout, "%-14s %s\n", e.ID, e.Title)
		}
		return nil
	}

	opts := vigil.ExperimentOptions{Scale: vigil.FullScale, Seeds: *seeds, Seed: *seed, Parallelism: *parallel}
	if *quick {
		opts.Scale = vigil.QuickScale
	}

	var ids []string
	if *runIDs == "all" {
		for _, e := range vigil.Experiments() {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*runIDs, ",")
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}

	for _, id := range ids {
		id = strings.TrimSpace(id)
		res, err := vigil.RunExperiment(id, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Fprintf(stdout, "== %s — %s ==\n\n", res.ID, res.Title)
		for i, tab := range res.Tables {
			if err := tab.RenderASCII(stdout); err != nil {
				return err
			}
			if *csvDir != "" {
				var csv bytes.Buffer
				if err := tab.WriteCSV(&csv); err != nil {
					return err
				}
				if err := os.WriteFile(filepath.Join(*csvDir, fmt.Sprintf("%s_%d.csv", res.ID, i)), csv.Bytes(), 0o644); err != nil {
					return err
				}
			}
		}
		for _, n := range res.Notes {
			fmt.Fprintf(stdout, "  note: %s\n", n)
		}
		fmt.Fprintln(stdout)
	}
	return nil
}
