package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update rewrites the transcripts from this build's output:
//
//	go test ./cmd/vigil-lab -update
//
// Only do that for a change that is meant to move the numbers; a refactor
// of the experiments must leave every byte as it is.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

func checkGolden(t *testing.T, name string, args ...string) {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(got), len(wantLines)) {
			if got[i] != wantLines[i] {
				t.Fatalf("vigil-lab %v drifted from %s at line %d:\n got: %q\nwant: %q", args, path, i+1, got[i], wantLines[i])
			}
		}
		t.Fatalf("vigil-lab %v drifted from %s: %d lines, want %d", args, path, len(got), len(wantLines))
	}
}

// Every experiment at quick scale and the default seed, byte for byte, at
// one worker and at eight: the transcript pins the numbers and the
// sweep's independence from the pool size. The eight-worker run also
// writes CSV, which must not touch stdout.
func TestQuickTranscript(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick transcript skipped in -short mode")
	}
	checkGolden(t, "quick.golden", "-run", "all", "-quick", "-par", "1")
	if *update {
		return
	}
	dir := t.TempDir()
	checkGolden(t, "quick.golden", "-run", "all", "-quick", "-par", "8", "-csv", dir)
	csv, err := os.ReadFile(filepath.Join(dir, "fig4_0.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(csv), "\nfailed links,007 prec,007 recall,") {
		t.Fatalf("fig4_0.csv has no header row:\n%s", csv)
	}
}

func TestListTranscript(t *testing.T) {
	checkGolden(t, "list.golden", "-list")
}

func TestUnknownExperimentIsAnError(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-run", "fig99", "-quick"}, &out)
	if err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("run -run fig99: err = %v, want an error naming fig99", err)
	}
	if err := run([]string{"-par", "x"}, &out); err == nil {
		t.Fatal("non-integer -par accepted")
	}
}
