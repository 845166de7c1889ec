package experiments

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"vigil/internal/report"
	"vigil/internal/stats"
)

// reading is one number a ledger row takes off a runner's tables: a share
// of n trials, or a plain number when n is 0. lo and hi bound it: the 95%
// Wilson interval of a share, the number itself otherwise.
type reading struct {
	v, lo, hi float64
	n         int
}

// share reads a fraction of n trials, its interval from the hit count the
// fraction rounds to.
func share(v float64, n int) reading {
	lo, hi := stats.WilsonInterval(int(math.Round(v*float64(n))), n, 1.96)
	return reading{v: v, lo: lo, hi: hi, n: n}
}

func plain(v float64) reading { return reading{v: v, lo: v, hi: v} }

// claimRow is one row of the paper-claims ledger: what the paper says of a
// figure, quoted from its runner's Notes, and what we measure at quick
// scale with vigil-lab's default seed. ours is our number, pinned: it must
// stay inside the reading's interval, so a change that moves it further
// than its own sampling noise fails the row. agrees says whether our
// reading bears the claim out; a row where we diverge records the
// divergence, and fails once the claim starts to hold.
type claimRow struct {
	figure string
	claim  string
	read   func(t *testing.T, tabs []*report.Table) reading
	ours   float64
	holds  func(r reading) bool
	agrees bool
}

// claimsLedger holds the first rows; the seed is vigil-lab's default.
var claimsLedger = []claimRow{
	{
		figure: "table1", claim: "always below Tmax=100",
		read:  func(t *testing.T, tabs []*report.Table) reading { return plain(cell(t, tabs, 0, 0, 3)) },
		ours:  6,
		holds: func(r reading) bool { return r.v <= 100 }, agrees: true,
	},
	{
		figure: "theorem1", claim: "keep every switch-second at or below Tmax",
		read:  func(t *testing.T, tabs []*report.Table) reading { return plain(cell(t, tabs, 1, 0, 0)) },
		ours:  16,
		holds: func(r reading) bool { return r.v <= 100 }, agrees: true,
	},
	{
		// The share is of switch-seconds: 14 switches over the 64 s the
		// quick run spans.
		figure: "table1", claim: "Paper: 69% zero",
		read:  func(t *testing.T, tabs []*report.Table) reading { return share(cell(t, tabs, 0, 0, 0)/100, 14*64) },
		ours:  0.923,
		holds: func(r reading) bool { return r.lo <= 0.69 && 0.69 <= r.hi },
	},
	{
		// The median gap at 1% less the one at 0.05%.
		figure: "fig13", claim: "gap grows with the drop rate",
		read: func(t *testing.T, tabs []*report.Table) reading {
			return plain(cell(t, tabs, 0, 2, 2) - cell(t, tabs, 0, 0, 2))
		},
		ours:  1.75,
		holds: func(r reading) bool { return r.v > 0 }, agrees: true,
	},
	{
		// The smaller share of the two rates at or above 0.1%: 0.5% and 1%.
		// The bad link is first in every epoch at 1%, in three of four at
		// 0.5%.
		figure: "fig13", claim: "at 0.1%+ it is always first",
		read: func(t *testing.T, tabs []*report.Table) reading {
			a, b := fig13First(t, tabs, 1), fig13First(t, tabs, 2)
			if b.v < a.v {
				return b
			}
			return a
		},
		ours:  0.75,
		holds: func(r reading) bool { return r.v == 1 },
	},
	{
		figure: "fig13", claim: "at 0.05% the bad link tops the tally 88.89% of epochs",
		read: func(t *testing.T, tabs []*report.Table) reading {
			return fig13First(t, tabs, 0)
		},
		ours:  0,
		holds: func(r reading) bool { return r.lo <= 0.8889 && 0.8889 <= r.hi },
	},
	{
		figure: "cluster2", claim: "Paper: 90.47% of such flows attributed to the correct (higher-rate) link.",
		read: func(t *testing.T, tabs []*report.Table) reading {
			return share(cell(t, tabs, 0, 0, 2), int(cell(t, tabs, 0, 0, 0)))
		},
		ours:  0.625,
		holds: func(r reading) bool { return r.lo <= 0.9047 && 0.9047 <= r.hi },
	},
	{
		figure: "cluster3", claim: "higher-rate link first 100% of the time",
		read: func(t *testing.T, tabs []*report.Table) reading {
			return share(cell(t, tabs, 0, 0, 1)/100, int(cell(t, tabs, 0, 0, 0)))
		},
		ours:  0.5,
		holds: func(r reading) bool { return r.v == 1 },
	},
	{
		figure: "fig3", claim: "007 average accuracy >96% in almost all cases",
		read:  fig3Accuracy(0),
		ours:  1,
		holds: func(r reading) bool { return r.hi > 0.96 }, agrees: true,
	},
	{
		figure: "fig3", claim: "007 average accuracy >96% in almost all cases",
		read:  fig3Accuracy(1),
		ours:  0.974,
		holds: func(r reading) bool { return r.hi > 0.96 }, agrees: true,
	},
	{
		// 007's accuracy less the integer program's, at 2 and 6 failures.
		figure: "fig3", claim: "at or above the integer optimization",
		read:  fig3Margin(0),
		ours:  0,
		holds: func(r reading) bool { return r.v >= 0 }, agrees: true,
	},
	{
		figure: "fig3", claim: "at or above the integer optimization",
		read:  fig3Margin(1),
		ours:  -0.013,
		holds: func(r reading) bool { return r.v >= 0 },
	},
}

// fig13First reads the share of epochs in fig13's row whose bad link tops
// the tally.
func fig13First(t *testing.T, tabs []*report.Table, row int) reading {
	return share(cell(t, tabs, 0, row, 4)/100, int(cell(t, tabs, 0, row, 1)))
}

// fig3Accuracy reads 007's accuracy in fig3's row as a share of the row's
// failure flows.
func fig3Accuracy(row int) func(*testing.T, []*report.Table) reading {
	return func(t *testing.T, tabs []*report.Table) reading {
		return share(cell(t, tabs, 0, row, 1), int(cell(t, tabs, 0, row, 3)))
	}
}

// fig3Margin reads 007's accuracy less the integer program's in fig3's row.
func fig3Margin(row int) func(*testing.T, []*report.Table) reading {
	return func(t *testing.T, tabs []*report.Table) reading {
		return plain(math.Round((cell(t, tabs, 0, row, 1)-cell(t, tabs, 0, row, 2))*1000) / 1000)
	}
}

// cell parses the number a table cell leads with: "92.3%" is 92.3 and
// "0.974±0.052" is 0.974.
func cell(t *testing.T, tabs []*report.Table, tab, row, col int) float64 {
	t.Helper()
	s := tabs[tab].Rows[row][col]
	num := strings.TrimRight(strings.SplitN(s, "±", 2)[0], "%")
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		t.Fatalf("%q, row %d, column %q: %v", tabs[tab].Title, row, tabs[tab].Columns[col], err)
	}
	return v
}

// TestPaperClaimsLedger runs each ledger figure once at quick scale, the
// figures side by side, and checks every row: the claim is the runner's
// own, our reading stays where the row pins it, and it agrees with the
// paper exactly where the row says it does. Like TestAllExperimentsQuick it
// is skipped in -short mode, where the race job runs.
func TestPaperClaimsLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs skipped in -short mode")
	}
	var figures []string
	for _, row := range claimsLedger {
		if !slices.Contains(figures, row.figure) {
			figures = append(figures, row.figure)
		}
	}
	for _, fig := range figures {
		t.Run(fig, func(t *testing.T) {
			t.Parallel()
			r, ok := Find(fig)
			if !ok {
				t.Fatalf("no experiment %q", fig)
			}
			res, err := r.Run(Options{Scale: Quick, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range claimsLedger {
				if row.figure == fig {
					checkClaim(t, row, res)
				}
			}
		})
	}
}

func checkClaim(t *testing.T, row claimRow, res *Result) {
	if !slices.ContainsFunc(res.Notes, func(n string) bool { return strings.Contains(n, row.claim) }) {
		t.Errorf("the runner's notes do not say %q", row.claim)
		return
	}
	got := row.read(t, res.Tables)
	if row.ours < got.lo-1e-9 || row.ours > got.hi+1e-9 {
		t.Errorf("%q: measured %.4g (interval [%.4g, %.4g] over %d), pinned at %.4g",
			row.claim, got.v, got.lo, got.hi, got.n, row.ours)
	}
	if holds := row.holds(got); holds != row.agrees {
		t.Errorf("%q: the claim holds = %v at %.4g, the ledger says %v", row.claim, holds, got.v, row.agrees)
	}
}
