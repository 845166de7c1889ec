// Dynamic failure experiments: the intermittent-failure table from the
// extended 007 evaluation (arXiv:1802.07222 §V evaluates transient and
// overlapping failures; the NSDI paper's §6.3 sweeps the static analogue).
// Built on the scenario engine instead of single-epoch sweeps: each data
// point scripts a multi-epoch run and pools per-epoch scores.
package experiments

import (
	"fmt"

	"vigil/internal/engine"
	"vigil/internal/par"
	"vigil/internal/report"
	"vigil/internal/scenario"
	"vigil/internal/schedule"
	"vigil/internal/stats"
	"vigil/internal/topology"
)

func init() {
	register("dyn-intermittent", "Extension (arXiv:1802.07222 §V): detection under intermittent failures vs on-probability", runDynIntermittent)
	register("dyn-crossplane", "Extension (arXiv:1802.07222 §V): dynamic scenarios on both planes — flow simulation vs packet emulation", runDynCrossplane)
}

// intermittentSpec scripts one random switch-to-switch link that drops at a
// low rate in a random prob fraction of epochs.
func intermittentSpec(topo topology.Config, prob float64, epochs int) scenario.Spec {
	return scenario.Spec{
		Name:   fmt.Sprintf("dyn-intermittent-p%02.0f", prob*100),
		Title:  fmt.Sprintf("intermittent failure, on-probability %.2f", prob),
		Epochs: epochs,
		Topo:   topo,
		Script: func(rng *stats.RNG, t *topology.Topology) []scenario.LinkSchedule {
			l := randomLinks(rng, t, 1)[0]
			return []scenario.LinkSchedule{{
				Link: l,
				Schedule: schedule.Intermittent{
					Rate: rng.Uniform(0.002, 0.008),
					Prob: prob,
					Seed: rng.Uint64(),
				},
			}}
		},
	}
}

// runDynCrossplane runs the shared dynamic scenarios on both evaluation
// planes through the one plane-agnostic scenario path and tabulates the
// pooled scores side by side — the extended paper's claim that 007's
// hardest regimes (transient and overlapping failures) hold in simulation
// AND emulation. Flow-plane repetitions fan out across the worker pool as
// usual; packet-plane repetitions are independent single-threaded DES
// replicas — one cluster emulation per seed — fanned out across the same
// pool, so the sweep parallelizes across replicas while each replica stays
// deterministic.
func runDynCrossplane(opts Options) (*Result, error) {
	scenarios := []string{"intermittent-failure", "link-flap"}
	epochs := 12
	if opts.Scale == Quick {
		epochs = 6
	}
	table := &report.Table{
		Title:   "Dynamic scenarios, flow simulation vs packet emulation: pooled detection and attribution",
		Columns: []string{"scenario", "plane", "active-epochs", "precision", "recall", "accuracy"},
	}
	n := opts.seeds()
	for _, name := range scenarios {
		spec, ok := scenario.Find(name)
		if !ok {
			return nil, fmt.Errorf("dyn-crossplane: unknown scenario %q", name)
		}
		for _, plane := range []engine.Plane{engine.Flow, engine.Packet} {
			results := make([]*scenario.Result, n)
			err := par.ForEachErr(n, opts.parallelism(), func(i int) error {
				var err error
				results[i], err = scenario.Run(spec, scenario.Config{
					Seed:        opts.Seed + uint64(i)*7919 + 1,
					Epochs:      epochs,
					Plane:       plane,
					Parallelism: 1, // the replica sweep already saturates the pool
				})
				return err
			})
			if err != nil {
				return nil, err
			}
			var active float64
			prec := make([]float64, n)
			rec := make([]float64, n)
			acc := make([]float64, n)
			for i, r := range results {
				active += float64(r.ActiveEpochs)
				prec[i] = r.Precision
				rec[i] = r.Recall
				acc[i] = r.Accuracy
			}
			table.AddRow(
				name,
				string(plane),
				fmt.Sprintf("%.1f/%d", active/float64(n), epochs),
				fmtMeanCI(stats.Summarize(prec)),
				fmtMeanCI(stats.Summarize(rec)),
				fmtMeanCI(stats.Summarize(acc)),
			)
		}
	}
	return &Result{
		ID:     "dyn-crossplane",
		Title:  "Dynamic scenarios across both planes",
		Tables: []*report.Table{table},
		Notes: []string{
			"one scenario.Run code path drives both planes; packet-plane replicas (one DES emulation per seed) fan out across the worker pool",
			"the packet plane runs fewer, heavier flows, so its per-seed scores are noisier; the conformance suite pools them into Wilson envelopes",
		},
	}, nil
}

func runDynIntermittent(opts Options) (*Result, error) {
	probs := []float64{0.25, 0.5, 0.75, 1.0}
	epochs := 16
	if opts.Scale == Quick {
		epochs = 8
	}
	table := &report.Table{
		Title:   "Intermittent single failure: pooled detection and attribution vs on-probability",
		Columns: []string{"on-prob", "active-epochs", "precision", "recall", "accuracy"},
	}
	n := opts.seeds()
	inner := opts.innerParallelism(n)
	for _, prob := range probs {
		spec := intermittentSpec(opts.topoConfig(), prob, epochs)
		results := make([]*scenario.Result, n)
		err := par.ForEachErr(n, opts.parallelism(), func(i int) error {
			var err error
			results[i], err = scenario.Run(spec, scenario.Config{
				Seed:        opts.Seed + uint64(i)*7919 + 1,
				Parallelism: inner,
			})
			return err
		})
		if err != nil {
			return nil, err
		}
		var active float64
		prec := make([]float64, n)
		rec := make([]float64, n)
		acc := make([]float64, n)
		for i, r := range results {
			active += float64(r.ActiveEpochs)
			prec[i] = r.Precision
			rec[i] = r.Recall
			acc[i] = r.Accuracy
		}
		table.AddRow(
			fmt.Sprintf("%.2f", prob),
			fmt.Sprintf("%.1f/%d", active/float64(n), epochs),
			fmtMeanCI(stats.Summarize(prec)),
			fmtMeanCI(stats.Summarize(rec)),
			fmtMeanCI(stats.Summarize(acc)),
		)
	}
	return &Result{
		ID:     "dyn-intermittent",
		Title:  "Detection under intermittent failures",
		Tables: []*report.Table{table},
		Notes: []string{
			"recall stays ~1 down to low on-probabilities: an epoch with the failure live yields enough failure-crossing flows to clear Algorithm 1's threshold",
			"precision dips in the low-rate regime because lone noise drops cross the relative 1% cutoff when the true signal is weak — the static analogue is Fig. 5's low-rate tail",
		},
	}, nil
}
