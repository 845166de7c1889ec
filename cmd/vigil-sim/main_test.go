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

// -update (go test ./cmd/vigil-sim -update) rewrites the transcripts; only
// a change meant to move the numbers does that.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// Each transcript is compared byte for byte at one epoch worker and at
// eight: the output must not depend on the pool size.
func TestTranscripts(t *testing.T) {
	for name, args := range map[string][]string{
		"seed5.golden": {"-seed", "5"},
		// Thirty failed links over two epochs: seed 1's draw repeats a
		// link, which must be redrawn, not injected twice.
		"failures30.golden": {"-failures", "30", "-seed", "1", "-epochs", "2"},
	} {
		path := filepath.Join("testdata", name)
		for _, par := range []string{"1", "8"} {
			var out bytes.Buffer
			if err := run(append(args, "-par", par), &out); err != nil {
				t.Fatalf("run %v: %v", args, err)
			}
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
				t.Fatalf("vigil-sim %v -par %s drifted from %s:\n%s", args, par, path, out.String())
			}
		}
	}
}

// Bad flags, an impossible topology and more failed links than the
// topology has are errors run returns, not exits.
func TestRunErrors(t *testing.T) {
	for args, want := range map[string]string{
		"-par x":  "invalid value",
		"-pods 0": "",
		"-pods 1 -tors 1 -t1 1 -t2 1 -failures 5": "only 4 links",
	} {
		if err := run(strings.Fields(args), io.Discard); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("run %s: err = %v, want one containing %q", args, err, want)
		}
	}
}
