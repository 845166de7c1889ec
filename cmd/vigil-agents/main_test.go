package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update (go test ./cmd/vigil-agents -update) rewrites the transcripts;
// only a change meant to move the settled epochs does that.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

// The default mode end to end, byte for byte: the packet plane on the
// test-cluster topology reporting over loopback to the collector run
// starts. The transcripts pin the injected links (seed 4 draws the same
// link twice, so its second is a redraw and two distinct links are
// injected), both epochs settled in order with their report counts,
// rankings — an injected link marked among the top — and detections, and
// the frames sent with none replayed on a clean loopback. The listen
// address and the connection counts go to stderr.
func TestRunDefaultModeSmoke(t *testing.T) {
	for name, args := range map[string]string{
		"seed1.golden": "-epochs 2 -failures 1 -rate 0.05 -seed 1",
		"seed4.golden": "-epochs 2 -failures 2 -seed 4",
	} {
		var out, errOut bytes.Buffer
		if err := run(strings.Fields(args), &out, &errOut); err != nil {
			t.Fatalf("run %s: %v\n%s", args, err, out.String())
		}
		if !strings.Contains(errOut.String(), "analysis collector listening on 127.0.0.1:") {
			t.Errorf("run %s: no listen address on stderr:\n%s", args, errOut.String())
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
			t.Errorf("vigil-agents %s drifted from %s:\n got:\n%s\nwant:\n%s", args, path, out.String(), want)
		}
	}
}

// A plane the engine does not have is an error run returns, not an exit.
func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-collector", "127.0.0.1:1", "-plane", "quantum"}, &out, &out); err == nil {
		t.Fatal("unknown plane accepted")
	}
}
