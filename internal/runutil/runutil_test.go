package runutil

import (
	"context"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"vigil/internal/topology"
)

func TestSignalContextCancelsOnSIGINT(t *testing.T) {
	ctx, stop := SignalContext(context.Background())
	defer stop()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("context not canceled after SIGINT")
	}
	if ctx.Err() != context.Canceled {
		t.Fatalf("ctx.Err() = %v", ctx.Err())
	}
}

func TestSecondSignalForcesExit(t *testing.T) {
	exited := make(chan int, 1)
	exit = func(code int) {
		exited <- code
		select {} // the real os.Exit never returns
	}
	defer func() { exit = func(int) {} }()

	ctx, stop := SignalContext(context.Background())
	defer stop()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	<-ctx.Done()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exited:
		if code != 130 {
			t.Fatalf("exit code %d, want 130", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second SIGINT did not force exit")
	}
}

// stop must release the registration: a parent cancel path that never saw
// a signal leaves no goroutine waiting on one.
func TestStopReleasesRegistration(t *testing.T) {
	ctx, stop := SignalContext(context.Background())
	stop()
	select {
	case <-ctx.Done():
	case <-time.After(time.Second):
		t.Fatal("stop did not cancel the context")
	}
}

// seq returns a draw that yields links in order, and how many it drew.
func seq(links ...topology.LinkID) (func() topology.LinkID, *int) {
	n := 0
	return func() topology.LinkID {
		l := links[n]
		n++
		return l
	}, &n
}

// A repeated draw is redrawn, not returned twice, and the links keep the
// order they were first drawn in.
func TestDistinctLinksRedrawsRepeats(t *testing.T) {
	draw, drawn := seq(4, 4, 2, 4, 2, 9)
	got, err := DistinctLinks(3, 10, draw)
	if err != nil {
		t.Fatal(err)
	}
	if want := []topology.LinkID{4, 2, 9}; !slices.Equal(got, want) {
		t.Fatalf("links = %v, want %v", got, want)
	}
	if *drawn != 6 {
		t.Fatalf("drew %d times, want 6", *drawn)
	}
}

// Asking for every link ends once each has been drawn.
func TestDistinctLinksAll(t *testing.T) {
	draw, _ := seq(1, 0, 1, 2, 0, 1, 3)
	got, err := DistinctLinks(4, 4, draw)
	if err != nil {
		t.Fatal(err)
	}
	if want := []topology.LinkID{1, 0, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("links = %v, want %v", got, want)
	}
}

// More links than there are is an error, and nothing is drawn.
func TestDistinctLinksTooMany(t *testing.T) {
	draw, drawn := seq()
	if _, err := DistinctLinks(5, 4, draw); err == nil || !strings.Contains(err.Error(), "only 4 links") {
		t.Fatalf("err = %v, want one naming the 4 links", err)
	}
	if *drawn != 0 {
		t.Fatalf("drew %d times, want 0", *drawn)
	}
}

// The result is a function of the draw sequence alone: the same sequence
// gives the same links, whatever size allows.
func TestDistinctLinksDependsOnlyOnDraws(t *testing.T) {
	draws := []topology.LinkID{7, 3, 7, 7, 5, 3, 1}
	var first []topology.LinkID
	for _, size := range []int{4, 8, 1000} {
		draw, _ := seq(draws...)
		got, err := DistinctLinks(4, size, draw)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = got
		} else if !slices.Equal(got, first) {
			t.Fatalf("size %d: links = %v, want %v", size, got, first)
		}
	}
}
