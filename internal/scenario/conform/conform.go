// Package conform is the statistical conformance suite of the dynamic
// failure-scenario engine: it runs a named scenario across independent
// seeds, pools the binomial counts behind each paper-level metric
// (detection precision/recall, per-flow accuracy, quiet-epoch cleanliness)
// and asserts envelope bounds through Wilson confidence intervals instead
// of brittle exact goldens.
//
// A check passes while the data remains statistically consistent with the
// bound: it fails only when the pooled interval's upper limit drops below
// it. One unlucky seed cannot fail the suite; a real regression across
// seeds cannot pass it. Tightening z widens the tolerance, adding seeds
// narrows it — both without ever touching a golden file.
//
// It is test support: only tests import it.
package conform

import (
	"context"
	"fmt"
	"strings"

	"vigil/internal/engine"
	"vigil/internal/ingest"
	"vigil/internal/par"
	"vigil/internal/scenario"
	"vigil/internal/stats"
)

// Envelope bounds a scenario's aggregate metrics. A zero Min* leaves that
// metric unchecked.
type Envelope struct {
	// Scenario names a registered scenario.
	Scenario string
	// Plane selects the substrate the scenario runs on (engine.Flow or
	// engine.Packet); empty defers to the spec (and ultimately the flow
	// plane). Packet-plane repetitions are independent single-threaded DES
	// replicas fanned out across the worker pool.
	Plane engine.Plane
	// Seeds is how many independent repetitions to pool; 0 means 8.
	Seeds int
	// BaseSeed/SeedStride generate repetition i's seed as
	// BaseSeed + i*SeedStride; zero values mean 1 and 7919.
	BaseSeed, SeedStride uint64
	// Epochs overrides the spec's scripted duration when positive.
	Epochs int
	// Z is the Wilson critical value; 0 means 2.576 (a 99% interval).
	Z float64
	// ReportLoss, when positive, routes every repetition through the
	// streaming ingest service with this seeded report-drop probability on
	// the agent→collector path (no retries) instead of the batch epoch
	// loop — the degradation envelopes: how far do the paper-level metrics
	// fall when this share of votes never reaches the analyzer?
	ReportLoss float64

	// MinPrecision/MinRecall bound Algorithm 1's pooled detection scores
	// over active epochs; MinAccuracy bounds pooled per-flow attribution;
	// MinQuietClean bounds the fraction of quiet epochs (no scripted
	// failure live) in which nothing was detected.
	MinPrecision  float64
	MinRecall     float64
	MinAccuracy   float64
	MinQuietClean float64
}

func (e Envelope) seeds() int {
	if e.Seeds > 0 {
		return e.Seeds
	}
	return 8
}

func (e Envelope) seedAt(i int) uint64 {
	base, stride := e.BaseSeed, e.SeedStride
	if base == 0 {
		base = 1
	}
	if stride == 0 {
		stride = 7919
	}
	return base + uint64(i)*stride
}

func (e Envelope) z() float64 {
	if e.Z > 0 {
		return e.Z
	}
	return 2.576
}

// Check is one metric's verdict.
type Check struct {
	Metric            string
	Successes, Trials int
	// Point is the pooled proportion; Lo/Hi its Wilson interval.
	Point, Lo, Hi float64
	Bound         float64
	Pass          bool
}

// Report is one envelope evaluation.
type Report struct {
	Scenario string
	Plane    engine.Plane
	Seeds    int
	Checks   []Check
}

// Pass reports whether every check passed.
func (r *Report) Pass() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// String renders the report one check per line, for test failure messages.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s (%s plane) over %d seeds:\n", r.Scenario, r.Plane, r.Seeds)
	for _, c := range r.Checks {
		verdict := "PASS"
		if !c.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "  %-12s %s  %d/%d = %.3f  CI [%.3f, %.3f]  bound >= %.3f\n",
			c.Metric, verdict, c.Successes, c.Trials, c.Point, c.Lo, c.Hi, c.Bound)
	}
	return b.String()
}

// check builds one metric's verdict: the bound must not be statistically
// excluded (interval upper limit >= bound). A bounded metric with zero
// trials fails — the scenario produced no opportunity to measure it, which
// a conformance envelope should treat as a defect, not a pass.
func check(metric string, successes, trials int, bound, z float64) Check {
	c := Check{Metric: metric, Successes: successes, Trials: trials, Bound: bound}
	c.Lo, c.Hi = stats.WilsonInterval(successes, trials, z)
	if trials > 0 {
		c.Point = float64(successes) / float64(trials)
		c.Pass = c.Hi >= bound
	}
	return c
}

// Evaluate runs the envelope's scenario across its seeds (fanned out over
// parallelism workers, pooled in seed order) and scores every bounded
// metric. The result is deterministic for a fixed envelope.
func Evaluate(env Envelope, parallelism int) (*Report, error) {
	spec, ok := scenario.Find(env.Scenario)
	if !ok {
		return nil, fmt.Errorf("conform: unknown scenario %q", env.Scenario)
	}
	n := env.seeds()
	results := make([]*scenario.Result, n)
	err := par.ForEachErr(n, parallelism, func(i int) error {
		cfg := scenario.Config{
			Seed:        env.seedAt(i),
			Epochs:      env.Epochs,
			Plane:       env.Plane,
			Parallelism: 1, // the seed sweep already saturates the pool
		}
		var (
			res *scenario.Result
			err error
		)
		if env.ReportLoss > 0 {
			res, err = runDegraded(spec, cfg, env.ReportLoss)
		} else {
			res, err = scenario.Run(spec, cfg)
		}
		results[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	var tp, fp, fn, correct, considered, quietClean, quiet int
	for _, res := range results {
		tp += res.TruePos
		fp += res.FalsePos
		fn += res.FalseNeg
		correct += res.Correct
		considered += res.Considered
		quietClean += res.QuietClean
		quiet += res.QuietEpochs
	}
	rep := &Report{Scenario: env.Scenario, Plane: results[0].Plane, Seeds: n}
	z := env.z()
	if env.MinPrecision > 0 {
		rep.Checks = append(rep.Checks, check("precision", tp, tp+fp, env.MinPrecision, z))
	}
	if env.MinRecall > 0 {
		rep.Checks = append(rep.Checks, check("recall", tp, tp+fn, env.MinRecall, z))
	}
	if env.MinAccuracy > 0 {
		rep.Checks = append(rep.Checks, check("accuracy", correct, considered, env.MinAccuracy, z))
	}
	if env.MinQuietClean > 0 {
		rep.Checks = append(rep.Checks, check("quiet-clean", quietClean, quiet, env.MinQuietClean, z))
	}
	return rep, nil
}

// lossDomain separates the degradation runs' fault seed from the scenario
// seed it derives from.
const lossDomain = 0x6a09e667f3bcc908

// runDegraded drives one prepared scenario repetition through the
// streaming ingest service with seeded report loss and no retries, scoring
// the settled epochs through the same Scorer the batch loop uses. With
// loss 0 this would reproduce scenario.Run bit for bit (the service's
// fault-free contract); with loss > 0 the difference in the pooled
// envelopes IS the measured degradation.
func runDegraded(spec scenario.Spec, cfg scenario.Config, loss float64) (*scenario.Result, error) {
	p, err := scenario.Prepare(spec, cfg)
	if err != nil {
		return nil, err
	}
	sc := p.Scorer()
	svc, err := ingest.New(ingest.Config{
		Engine: p.Engine,
		Faults: ingest.FaultConfig{Seed: cfg.Seed ^ lossDomain, Drop: loss},
		Sink:   sc.Add,
	})
	if err != nil {
		return nil, err
	}
	if err := svc.Run(context.Background(), p.Epochs); err != nil {
		return nil, err
	}
	return sc.Finish(), nil
}

// CrossReport pairs one scenario's conformance reports on the two planes.
type CrossReport struct {
	Flow, Packet *Report
}

// Pass reports whether both planes hold their envelopes.
func (cr *CrossReport) Pass() bool { return cr.Flow.Pass() && cr.Packet.Pass() }

// String renders both planes' reports, for test failure messages.
func (cr *CrossReport) String() string {
	return cr.Flow.String() + cr.Packet.String()
}

// EvaluateCross runs the envelope's scenario on BOTH planes — the flow
// plane as configured, the packet plane with packetEnv's overrides (plus
// any unset field inherited from env) — and scores each against its
// bounds. This is the cross-plane conformance check of the extended paper
// (arXiv:1802.07222 §V): the same scripted regime, validated on the
// flow-level simulator and the packet-level emulation through one
// scenario code path, must hold comparable statistical envelopes.
// packetEnv exists because the two substrates run at different operating
// points (the packet plane's DES replicas are orders of magnitude more
// expensive per epoch, so they pool fewer seeds, and ICMP rate limiting
// plus TCP recovery genuinely shift some metrics); a zero packetEnv reuses
// env's bounds verbatim.
func EvaluateCross(env, packetEnv Envelope, parallelism int) (*CrossReport, error) {
	env.Plane = engine.Flow
	flowRep, err := Evaluate(env, parallelism)
	if err != nil {
		return nil, err
	}
	p := packetEnv
	p.Scenario = env.Scenario
	p.Plane = engine.Packet
	if p.Seeds == 0 {
		p.Seeds = env.Seeds
	}
	if p.BaseSeed == 0 {
		p.BaseSeed = env.BaseSeed
	}
	if p.SeedStride == 0 {
		p.SeedStride = env.SeedStride
	}
	if p.Epochs == 0 {
		p.Epochs = env.Epochs
	}
	if p.Z == 0 {
		p.Z = env.Z
	}
	if p.MinPrecision == 0 {
		p.MinPrecision = env.MinPrecision
	}
	if p.MinRecall == 0 {
		p.MinRecall = env.MinRecall
	}
	if p.MinAccuracy == 0 {
		p.MinAccuracy = env.MinAccuracy
	}
	if p.MinQuietClean == 0 {
		p.MinQuietClean = env.MinQuietClean
	}
	packetRep, err := Evaluate(p, parallelism)
	if err != nil {
		return nil, err
	}
	return &CrossReport{Flow: flowRep, Packet: packetRep}, nil
}
