// Package runutil holds the small helpers the vigil binaries share:
// signal-driven shutdown contexts, so every command flushes profiles and
// settles in-flight epochs on Ctrl-C instead of dying mid-write, and the
// seeded draw of the links a -failures flag breaks.
package runutil

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"vigil/internal/topology"
)

// DistinctLinks calls draw until it has returned n different links, and
// returns them in the order they were first drawn. size is the number of
// links draw can return; n above it is an error. A seed whose first n
// draws differ gets exactly those draws.
func DistinctLinks(n, size int, draw func() topology.LinkID) ([]topology.LinkID, error) {
	if n > size {
		return nil, fmt.Errorf("%d failed links asked for, but only %d links to choose from", n, size)
	}
	links := make([]topology.LinkID, 0, n)
	seen := make(map[topology.LinkID]bool, n)
	for len(links) < n {
		if l := draw(); !seen[l] {
			seen[l] = true
			links = append(links, l)
		}
	}
	return links, nil
}

// exit is swapped out by tests; the second-signal path must be observable
// without killing the test process.
var exit = os.Exit

// SignalContext returns a context canceled on the first SIGINT or SIGTERM,
// giving the caller a graceful-shutdown window (stop the epoch loop, drain
// the pipeline, flush profiles). A second signal exits the process
// immediately with status 130 — the escape hatch when shutdown itself
// wedges. stop releases the signal registration; call it once shutdown
// completes so later signals regain their default behavior.
func SignalContext(parent context.Context) (ctx context.Context, stop func()) {
	ctx, cancel := context.WithCancel(parent)
	ch := make(chan os.Signal, 2)
	done := make(chan struct{})
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		select {
		case <-ch:
			cancel()
		case <-done:
			return
		}
		select {
		case <-ch:
			exit(130)
		case <-done:
		}
	}()
	var once sync.Once
	return ctx, func() {
		once.Do(func() {
			signal.Stop(ch)
			close(done)
			cancel()
		})
	}
}
