package prof

import (
	"bytes"
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
