package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// The default mode end to end: the packet plane on the test-cluster
// topology reporting over loopback to the collector run starts. Both epochs
// settle, in order; an injected link is among the top-ranked links of each;
// and nothing had to be replayed on a clean loopback. Seed 4 draws the same
// link twice, so its second failed link is a redraw: two distinct links are
// injected.
func TestRunDefaultModeSmoke(t *testing.T) {
	checkDefaultMode(t, 1, "-epochs", "2", "-failures", "1", "-rate", "0.05", "-seed", "1")
	checkDefaultMode(t, 2, "-epochs", "2", "-failures", "2", "-seed", "4")
}

func checkDefaultMode(t *testing.T, failures int, args ...string) {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	got := out.String()
	distinct := map[string]bool{}
	for _, line := range regexp.MustCompile(`(?m)^injected .*$`).FindAllString(got, -1) {
		distinct[line] = true
	}
	if len(distinct) != failures {
		t.Fatalf("run %v injected %d distinct links, want %d\n%s", args, len(distinct), failures, got)
	}
	epochs := regexp.MustCompile(`(?m)^epoch (\d+): (\d+) reports over TCP$`).FindAllStringSubmatch(got, -1)
	if len(epochs) != 2 || epochs[0][1] != "0" || epochs[1][1] != "1" {
		t.Fatalf("settled epochs %v, want 0 then 1\n%s", epochs, got)
	}
	for i, section := range strings.Split(got, "\nepoch ")[1:] {
		if epochs[i][2] == "0" {
			t.Fatalf("epoch %d settled no reports\n%s", i, got)
		}
		if !strings.Contains(section, "<-- injected") {
			t.Fatalf("epoch %d: the injected link is not among the top-ranked links\n%s", i, got)
		}
	}
	if !regexp.MustCompile(`(?m)^session done: \d+ frames sent \(0 replayed\) in \d+ writes`).MatchString(got) {
		t.Fatalf("no transport line reporting 0 replayed\n%s", got)
	}
}

// A plane the engine does not have is an error run returns, not an exit.
func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-collector", "127.0.0.1:1", "-plane", "quantum"}, &out); err == nil {
		t.Fatal("unknown plane accepted")
	}
}
