package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update (go test ./cmd/vigild -update) rewrites the transcripts; only a
// change meant to move the settled epochs or the counters does that.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// chaos is every fault the in-process service injects, with one retry
// round, so the transcript pins the fault fates, the holdback releases and
// the re-request path as well as the settled epochs.
const chaos = "-drop 0.05 -duplicate 0.03 -delay 0.05 -burst 0.02 -crash 0.05 -retries 1"

// Five epochs of the in-process service on each plane, fault-free and under
// chaos, byte for byte: the settle lines and the counter summary.
func TestTranscripts(t *testing.T) {
	for name, args := range map[string]string{
		"flow.golden":         "-plane flow",
		"packet.golden":       "-plane packet",
		"flow-chaos.golden":   "-plane flow " + chaos,
		"packet-chaos.golden": "-plane packet " + chaos,
	} {
		args := append(strings.Fields(args), "-seed", "7", "-epochs", "5")
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("run %v: %v", args, err)
		}
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("vigild %v drifted from %s:\n got:\n%s\nwant:\n%s", args, path, out.String(), want)
		}
	}
}

// Bad flags and settings are errors run returns, not exits.
func TestRunErrors(t *testing.T) {
	for args, want := range map[string]string{
		"-epochs x":       "invalid value",
		"-plane wire":     "unknown plane",
		"-drop 2":         "fault probabilities",
		"-grace -1":       "negative Grace",
		"-failures 99999": "only",
	} {
		if err := run(strings.Fields(args), io.Discard); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("run %s: err = %v, want one containing %q", args, err, want)
		}
	}
}
