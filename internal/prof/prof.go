// Package prof wires the standard -cpuprofile / -memprofile flag pair
// into the vigil command-line tools, so every driver of the hot paths
// (vigil-sim, vigil-scenario, vigil-agents) can emit pprof data the same
// way.
package prof

import (
	"context"
	"flag"
	"os"
	"runtime"
	"runtime/pprof"
)

// Phase is a precomputed pprof label set ("phase=<name>") that a hot path
// can enter and leave without allocating. A CPU profile taken while a
// phase is active (via -cpuprofile on a vigil tool or `go test
// -cpuprofile`) attributes every sample inside it to the phase, so the
// per-phase cost of an epoch — generate, shard, merge, traceroute — reads
// directly off `pprof -tags`.
//
// Begin/End label the calling goroutine in place; goroutines started while
// the label is set (the epoch's worker pool) inherit it. The label
// contexts are built once at construction, so Begin/End stay off the
// allocation budget of zero-alloc epochs — the reason the steady-state
// paths use a Phase instead of runtime/pprof.Do, which builds a fresh
// label context per call.
type Phase struct {
	ctx, base context.Context
}

// NewPhase builds the label set for one named phase. Build phases once
// (package-level vars next to the code they time), not per call.
func NewPhase(name string) *Phase {
	base := context.Background()
	return &Phase{ctx: pprof.WithLabels(base, pprof.Labels("phase", name)), base: base}
}

// Begin tags the calling goroutine with the phase label. Pair with End;
// phases do not nest (End restores the empty label set, not the previous
// one).
func (p *Phase) Begin() { pprof.SetGoroutineLabels(p.ctx) }

// End removes the phase label from the calling goroutine.
func (p *Phase) End() { pprof.SetGoroutineLabels(p.base) }

// Profiler owns the profiling flags and the running CPU profile.
type Profiler struct {
	cpu, mem string
	f        *os.File
}

// Register declares -cpuprofile and -memprofile on fs; call it before
// fs.Parse.
func Register(fs *flag.FlagSet) *Profiler {
	p := &Profiler{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a heap profile (at exit) to this file")
	return p
}

// Start begins CPU profiling when -cpuprofile was given; call after
// flag.Parse.
func (p *Profiler) Start() error {
	if p.cpu == "" {
		return nil
	}
	f, err := os.Create(p.cpu)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.f = f
	return nil
}

// Stop flushes the CPU profile and, when -memprofile was given, writes a
// heap profile after settling the GC. It never double-stops, so error
// paths may call it unconditionally without discarding an already-written
// CPU profile.
func (p *Profiler) Stop() error {
	if p.f != nil {
		pprof.StopCPUProfile()
		err := p.f.Close()
		p.f = nil
		if err != nil {
			return err
		}
	}
	if p.mem == "" {
		return nil
	}
	f, err := os.Create(p.mem)
	if err != nil {
		return err
	}
	runtime.GC() // settle the heap so the profile shows retained state
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
