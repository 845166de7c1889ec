package metrics

import (
	"strings"
	"sync"
	"testing"
)

func TestEpochExporterWritesTopLinksAndConformance(t *testing.T) {
	e := NewEpochExporter(2)
	var buf strings.Builder
	if err := e.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty exporter wrote: %q", buf.String())
	}

	e.ObserveEpoch(7, []RankedLink{
		{Link: "pod0/t1_2-t2_5", Votes: 13.5, Detected: true},
		{Link: "pod1/tor0-t1_1", Votes: 4},
		{Link: "pod2/host3-tor1", Votes: 1}, // beyond K, must be dropped
	})
	e.ObserveConformance("flap", Detection{Precision: 1, Recall: 0.5, TruePos: 1, FalseNeg: 1})
	e.ObserveConformance("flap", Detection{Precision: 0.5, Recall: 1, TruePos: 2, FalsePos: 2})
	e.ObserveConformance("burst", Detection{Precision: 1, Recall: 1, TruePos: 3})

	buf.Reset()
	if err := e.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"vigil_epoch_last_settled 7",
		`vigil_epoch_top_link_votes{rank="1",link="pod0/t1_2-t2_5"} 13.5`,
		`vigil_epoch_top_link_votes{rank="2",link="pod1/tor0-t1_1"} 4`,
		`vigil_epoch_top_link_detected{rank="1",link="pod0/t1_2-t2_5"} 1`,
		`vigil_epoch_top_link_detected{rank="2",link="pod1/tor0-t1_1"} 0`,
		// Gauges carry the NEWEST epoch's score, counters the cumulative sums.
		`vigil_scenario_precision{scenario="flap"} 0.5`,
		`vigil_scenario_recall{scenario="flap"} 1`,
		`vigil_scenario_epochs_total{scenario="flap"} 2`,
		`vigil_scenario_true_positives_total{scenario="flap"} 3`,
		`vigil_scenario_false_positives_total{scenario="flap"} 2`,
		`vigil_scenario_false_negatives_total{scenario="flap"} 1`,
		`vigil_scenario_precision{scenario="burst"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing series %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "pod2/host3-tor1") {
		t.Fatalf("rank beyond K exported:\n%s", out)
	}
	// Scenario order must be sorted for stable scrapes.
	if strings.Index(out, `scenario="burst"`) > strings.Index(out, `scenario="flap"`) {
		t.Fatalf("scenario series not sorted:\n%s", out)
	}

	if s := e.snap.Load(); s == nil || s.Epoch != 7 || len(s.TopLinks) != 2 {
		t.Fatalf("snapshot: %+v", s)
	}
}

func TestEpochExporterLabelEscaping(t *testing.T) {
	e := NewEpochExporter(1)
	e.ObserveEpoch(1, []RankedLink{{Link: "we\"ird\\na\nme", Votes: 1}})
	var buf strings.Builder
	if err := e.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `link="we\"ird\\na\nme"`) {
		t.Fatalf("label not escaped:\n%s", buf.String())
	}
}

// Scrapes must be safe against concurrent epoch settles — the exporter is
// written by the ingest sink goroutine while HTTP handlers read it.
func TestEpochExporterConcurrentScrape(t *testing.T) {
	e := NewEpochExporter(4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e.ObserveEpoch(int64(i), []RankedLink{{Link: "l", Votes: float64(i)}})
				e.ObserveConformance("soak", Detection{Precision: 1, Recall: 1, TruePos: 1})
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var buf strings.Builder
				if err := e.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
