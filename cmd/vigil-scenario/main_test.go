package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// -update (go test ./cmd/vigil-scenario -update) rewrites the transcripts;
// only a change meant to move the numbers does that.
var update = flag.Bool("update", false, "rewrite testdata/*.golden from this build's output")

func checkGolden(t *testing.T, name string, args ...string) string {
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
		return out.String()
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		got, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(got), len(wantLines)) {
			if got[i] != wantLines[i] {
				t.Fatalf("vigil-scenario %v drifted from %s at line %d:\n got: %q\nwant: %q", args, path, i+1, got[i], wantLines[i])
			}
		}
		t.Fatalf("vigil-scenario %v drifted from %s: %d lines, want %d", args, path, len(got), len(wantLines))
	}
	return out.String()
}

// Every scenario on the packet plane at seed 7 over four epochs, which
// pins every data packet, ACK, probe and ICMP reply behind the numbers.
// Each scenario must also have an active epoch that dropped packets.
func TestPacketTranscript(t *testing.T) {
	if testing.Short() {
		t.Skip("packet-plane DES sweep; skipped in -short mode")
	}
	out := checkGolden(t, "packet-seed7.golden", "-name", "all", "-plane", "packet", "-seed", "7", "-epochs", "4")
	sections := strings.Split(out, "== scenario ")[1:]
	if len(sections) != 5 {
		t.Fatalf("%d scenarios in the transcript, want 5", len(sections))
	}
	for _, sec := range sections {
		active, drops := 0, 0
		for _, line := range strings.Split(sec, "\n") {
			f := strings.Fields(line)
			if len(f) == 8 && f[0] >= "0" && f[0] <= "9" {
				a, _ := strconv.Atoi(f[1])
				d, _ := strconv.Atoi(f[7])
				active += a
				drops += d
			}
		}
		if active == 0 || drops == 0 {
			t.Fatalf("scenario %s: %d active links and %d drops over its epochs, want both > 0", strings.Fields(sec)[0], active, drops)
		}
	}
}

// Every scenario on the flow plane at its scripted length, at one epoch
// worker and at eight: the output must not depend on the pool size.
func TestFlowTranscript(t *testing.T) {
	checkGolden(t, "flow-seed9.golden", "-name", "all", "-seed", "9", "-par", "1")
	if !*update {
		checkGolden(t, "flow-seed9.golden", "-name", "all", "-seed", "9", "-par", "8")
	}
}

func TestListTranscript(t *testing.T) {
	checkGolden(t, "list.golden", "-list")
}

// Both planes of one scenario without the timeline: the flow run's
// summary, then the packet run's.
func TestBothPlanesWithoutTimeline(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-name", "link-flap", "-plane", "both", "-epochs", "2", "-timeline=false"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	flow, packet := strings.Index(s, "(flow plane)"), strings.Index(s, "(packet plane)")
	if flow < 0 || packet < flow || strings.Contains(s, "per-epoch timeline") {
		t.Fatalf("unexpected output:\n%s", s)
	}
}

// Bad flags, an unknown plane and an unknown scenario are errors run
// returns, not exits.
func TestRunErrors(t *testing.T) {
	for args, want := range map[string]string{
		"-epochs x":                            "invalid value",
		"-plane wire":                          `unknown plane "wire"`,
		"-name no-such-scenario":               `unknown scenario "no-such-scenario"`,
		"-cpuprofile /nonexistent/dir/cpu.out": "nonexistent",
	} {
		if err := run(strings.Fields(args), io.Discard); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("run %s: err = %v, want one containing %q", args, err, want)
		}
	}
}
