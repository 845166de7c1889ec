package prof

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
)

// goroutineLabels dumps the debug=1 goroutine profile, the one public
// surface where goroutine label sets are observable: every labeled
// goroutine group prints its labels, so a phase name unique to the test
// appears in the dump iff some live goroutine carries it.
func goroutineLabels() string {
	var buf bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&buf, 1)
	return buf.String()
}

func TestPhaseBeginEnd(t *testing.T) {
	const name = "phase-begin-end-53ac1"
	p := NewPhase(name)
	p.Begin()
	if !strings.Contains(goroutineLabels(), name) {
		t.Fatal("Begin did not label the goroutine")
	}
	p.End()
	if strings.Contains(goroutineLabels(), name) {
		t.Fatal("End did not remove the label")
	}
}

// Goroutines spawned inside a phase inherit its label — the property the
// epoch pipeline relies on to attribute worker-pool samples to the phase
// that spawned the pool. The parent Ends before the child looks, so the
// label can only have come from inheritance.
func TestPhaseInheritance(t *testing.T) {
	const name = "phase-inherit-77d05"
	p := NewPhase(name)
	p.Begin()
	look := make(chan struct{})
	got := make(chan string)
	go func() {
		<-look
		got <- goroutineLabels()
	}()
	p.End()
	close(look)
	if !strings.Contains(<-got, name) {
		t.Fatal("spawned goroutine did not inherit the phase label")
	}
}

// Begin/End must stay allocation-free: they run inside the zero-alloc
// steady-state epoch budget (see netem's TestSteadyStateEpochAllocs).
func TestPhaseBeginEndAllocFree(t *testing.T) {
	p := NewPhase("phase-alloc-free")
	allocs := testing.AllocsPerRun(100, func() {
		p.Begin()
		p.End()
	})
	if allocs != 0 {
		t.Fatalf("Begin/End allocate %.1f times per cycle, want 0", allocs)
	}
}

// parse registers the profiling flags on a fresh flag set and parses args.
func parse(t *testing.T, args ...string) *Profiler {
	t.Helper()
	fs := flag.NewFlagSet("prof", flag.ContinueOnError)
	p := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return p
}

// -cpuprofile and -memprofile each write a non-empty profile, and a second
// Stop neither fails nor disturbs the CPU profile already written.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	p := parse(t, "-cpuprofile", cpu, "-memprofile", mem)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{cpu, mem} {
		if fi, err := os.Stat(name); err != nil || fi.Size() == 0 {
			t.Fatalf("%s: %v, want a written profile", name, err)
		}
	}
	before, _ := os.ReadFile(cpu)
	if err := p.Stop(); err != nil {
		t.Fatalf("second Stop: %v", err)
	}
	if after, _ := os.ReadFile(cpu); !bytes.Equal(before, after) {
		t.Fatal("second Stop rewrote the CPU profile")
	}
}

// With neither flag, Start and Stop do nothing.
func TestNoFlagsNoProfiles(t *testing.T) {
	p := parse(t)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if p.f != nil {
		t.Fatal("Start opened a file with no -cpuprofile")
	}
}

// A profile path that cannot be created is an error, from Start for the
// CPU profile and from Stop for the heap profile.
func TestUncreatablePathErrors(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "x.pprof")
	if err := parse(t, "-cpuprofile", bad).Start(); err == nil {
		t.Fatal("Start created a CPU profile in a missing directory")
	}
	p := parse(t, "-memprofile", bad)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err == nil {
		t.Fatal("Stop created a heap profile in a missing directory")
	}
}
