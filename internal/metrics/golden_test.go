package metrics

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
)

// -update rewrites testdata/prometheus.golden from this build's output:
//
//	go test ./internal/metrics -run Golden -update
//
// Only a change meant to add, rename or re-describe a series does that.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// setCounters stores values[name] into every atomic field of the struct c
// points to, and values["Discards[kind/reason]"] into each discard counter
// its page renders (the frame reasons when frames, every other one if not).
// It fails on a rendered counter the map does not name, so a new one cannot
// reach the page without a value of its own, and on a name it never stored.
func setCounters(t *testing.T, c any, frames bool, values map[string]int64) {
	t.Helper()
	v := reflect.ValueOf(c).Elem()
	stored := 0
	store := func(name string, ctr *atomic.Int64) {
		n, ok := values[name]
		if !ok {
			t.Fatalf("%s.%s has no value", v.Type().Name(), name)
		}
		ctr.Store(n)
		stored++
	}
	for i := range v.NumField() {
		name := v.Type().Field(i).Name
		if d, ok := v.Field(i).Addr().Interface().(*Discards); ok {
			for r := range numDiscards {
				if kind, reason := r.Labels(); (kind == "frame") == frames {
					store(name+"["+kind+"/"+reason+"]", &d[r])
				}
			}
			continue
		}
		store(name, v.Field(i).Addr().Interface().(*atomic.Int64))
	}
	if stored != len(values) {
		t.Fatalf("%d of the %d values name no counter of %s's page", len(values)-stored, len(values), v.Type().Name())
	}
}

// TestPrometheusGolden pins vigild's counter pages byte for byte: the
// ingest and the transport counters, every field holding a value of its
// own, rendered one after the other as vigild's /metrics serves them.
func TestPrometheusGolden(t *testing.T) {
	var in IngestCounters
	setCounters(t, &in, false, map[string]int64{
		"Received": 1001, "Accepted": 1002, "Duplicates": 1003, "Late": 1004,
		// Each series older than the ledger is the sum of its reasons.
		"Discards[report/malformed]": 500, "Discards[report/far_epoch]": 506,
		"Discards[report/settled]": 1005, "Discards[report/excess]": 1007,
		"Discards[count/out_of_range]": 600, "Discards[count/repeat]": 408,
		"Discards[token/settled]": 1023, "Discards[token/far_epoch]": 1024,
		"Lost": 1009, "Retries": 1010, "Recovered": 1011, "SettledEpochs": 1012,
		"DetectedLinks": 1013, "Verdicts": 1014, "WatermarkLag": 1015, "OpenEpochs": 1016,
		"InjDrops": 1017, "InjDuplicates": 1018, "InjLateInGrace": 1019,
		"InjLatePastGrace": 1020, "InjBurstDrops": 1021, "InjCrashDrops": 1022,
	})
	var tr TransportCounters
	setCounters(t, &tr, true, map[string]int64{
		"Dials": 2001, "DialFailures": 2002, "Reconnects": 2003, "Resumes": 2004,
		"FramesSent": 2005, "FramesResent": 2006, "Writes": 2007, "TokenResends": 2008,
		"Pings": 2009, "FramesReceived": 2010, "AcksSent": 2012,
		"CycleEndsSent": 2013, "AcceptRetries": 2015,
		"Discards[frame/stale]": 2011, "Discards[frame/send_window]": 2014, "Discards[frame/malformed]": 2019,
		"Checkpoints": 2016, "CheckpointCommitNanos": 2_017_000_000, "SessionsConnected": 2018,
		// A stamp in the future renders as age 0 whenever the test runs.
		"CheckpointUnixNano": math.MaxInt64,
	})
	var out bytes.Buffer
	if err := in.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if err := tr.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "prometheus.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("the counter pages drifted from %s:\n got:\n%s\nwant:\n%s", path, out.Bytes(), want)
	}
}
