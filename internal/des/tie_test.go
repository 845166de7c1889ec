package des

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"vigil/internal/stats"
)

// A delivery stream that never idles — always one more event in the lane —
// used to grow the FIFO lane by a slot per event for the whole run,
// because the lane only rewound when it drained empty. A million monotone
// events with at most 64 live must leave it small.
func TestFifoLaneBounded(t *testing.T) {
	var s Scheduler
	r := &recorder{s: &s}
	const live, total = 64, 1_000_000
	posted := 0
	for ; posted < live; posted++ {
		s.Post(Time(posted), r, 1, int64(posted), nil)
	}
	maxCap := 0
	for s.Step() {
		if posted < total {
			s.Post(Time(posted), r, 1, int64(posted), nil) // keeps the lane from ever draining
			posted++
		}
		if len(s.heap) != 0 {
			t.Fatalf("a monotone stream spilled onto the heap at event %d", len(r.got))
		}
		maxCap = max(maxCap, cap(s.fifo))
		r.got, r.time = r.got[:0], r.time[:0]
	}
	if s.Executed() != total {
		t.Fatalf("ran %d events, want %d", s.Executed(), total)
	}
	if maxCap > 4*laneSlack {
		t.Fatalf("FIFO lane grew to %d slots for %d live events", maxCap, live)
	}
}

// Compaction must not disturb the pop order: a lane that slides while mixed
// with heap traffic still runs in (time, submission) order.
func TestFifoLaneCompactionKeepsOrder(t *testing.T) {
	var s Scheduler
	r := &recorder{s: &s}
	rng := stats.NewRNG(3)
	next := int64(0)
	post := func(at Time) {
		s.Post(at, r, 1, next, nil)
		next++
	}
	for i := 0; i < 300; i++ {
		post(Time(i))
	}
	for s.Step() {
		if next < 20000 {
			// Mostly lane-extending posts, some behind the tail (heap).
			if rng.Bool(0.8) {
				post(s.Now() + 300)
			} else {
				post(s.Now() + Time(rng.Intn(200)))
			}
		}
	}
	// Arg is the submission index: within one timestamp args must ascend,
	// and timestamps must not go backward.
	for i := 1; i < len(r.got); i++ {
		if r.time[i] < r.time[i-1] || (r.time[i] == r.time[i-1] && r.got[i] < r.got[i-1]) {
			t.Fatalf("event %d (arg %d, t=%d) ran after arg %d at t=%d", i, r.got[i], r.time[i], r.got[i-1], r.time[i-1])
		}
	}
	if int64(len(r.got)) != next {
		t.Fatalf("ran %d of %d events", len(r.got), next)
	}
}

// Poster-supplied ties order simultaneous poster-tied events whatever order
// they were posted in and whichever lane holds them; simultaneous
// submission-numbered events run first, in submission order.
func TestPostTieOrders(t *testing.T) {
	var s Scheduler
	r := &recorder{s: &s}
	ties := []uint64{50, 10, 40, 1<<63 - 1, 20, 0, 30}
	for _, tie := range ties {
		s.PostTie(5, tie, r, 1, int64(tie), nil)
	}
	s.Post(5, r, 1, -1, nil) // posted after the ties, runs before them
	s.Post(5, r, 1, -2, nil)
	s.PostTie(4, 99, r, 1, 99, nil) // an earlier time beats any tie
	s.Drain(100)
	want := []int64{99, -1, -2, 0, 10, 20, 30, 40, 50, 1<<63 - 1}
	if !slices.Equal(r.got, want) {
		t.Fatalf("order %v, want %v", r.got, want)
	}
}

// The same-time rule holds at the top of the submission counter: a
// submission-numbered event runs before a simultaneous poster-tied one
// whichever is posted first and whatever the tie, in either lane, up to the
// counter's last number; the number after that panics rather than wrap.
func TestSubmissionBeforePosterTieAtCounterTop(t *testing.T) {
	for _, tiedFirst := range []bool{false, true} {
		for _, at := range []Time{5, nearWindow + 5} { // lane, heap
			var s Scheduler
			r := &recorder{s: &s}
			s.nextID = posterTie - 3
			post := func() { s.Post(at, r, 1, int64(s.nextID+1), nil) }
			if tiedFirst {
				s.PostTie(at, 0, r, 1, -1, nil)
				post()
			} else {
				post()
				s.PostTie(at, 0, r, 1, -1, nil)
			}
			post()
			s.PostTie(at, 1<<63-1, r, 1, -2, nil)
			s.Drain(10)
			want := []int64{int64(posterTie - 2), int64(posterTie - 1), -1, -2}
			if !slices.Equal(r.got, want) {
				t.Fatalf("tied first %v, at %d: order %v, want %v", tiedFirst, at, r.got, want)
			}
		}
	}
	var s Scheduler
	s.nextID = posterTie - 1
	mustPanic(t, "a submission number reaching 2^63", func() { s.At(0, func() {}) })
	mustPanic(t, "a poster tie at 2^63", func() { s.PostTie(0, posterTie, HandlerFunc(func(int32, int64, any) {}), 1, 0, nil) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// The event record is one cache line.
func TestEventRecordIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 64 {
		t.Fatalf("event record is %d bytes, want 64", n)
	}
}

// Executing is the running event's position; Horizon the deadline events
// are certain to run up to.
func TestExecutingAndHorizon(t *testing.T) {
	var s Scheduler
	if h := s.Horizon(); h != 0 {
		t.Fatalf("idle horizon %d", h)
	}
	var seen []string
	probe := HandlerFunc(func(kind int32, _ int64, _ any) {
		seen = append(seen, stringOf(s.Now(), s.Executing(), s.Horizon()))
		if kind == 1 {
			// A nested, shorter run narrows the horizon and restores it.
			s.RunUntil(s.Now() + 1)
			seen = append(seen, stringOf(s.Now(), s.Executing(), s.Horizon()))
		}
	})
	s.PostTie(10, 77, probe, 0, 0, nil)
	s.PostTie(20, 88, probe, 1, 0, nil)
	s.Post(50, probe, 0, 0, nil) // the first submission number
	s.RunUntil(100)
	s.PostTie(150, 99, probe, 0, 0, nil)
	s.Step() // outside RunUntil the horizon is the clock
	want := []string{
		stringOf(10, PosterTie(77), 100),
		stringOf(20, PosterTie(88), 100),
		stringOf(21, PosterTie(88), 100),
		stringOf(50, 1, 100),
		stringOf(150, PosterTie(99), 150),
	}
	if !slices.Equal(seen, want) {
		t.Fatalf("saw %v, want %v", seen, want)
	}
	if s.Executed() != 4 {
		t.Fatalf("executed %d events, want 4", s.Executed())
	}
}

func stringOf(now Time, tie uint64, horizon Time) string {
	return fmt.Sprintf("t=%d tie=%#x horizon=%d", now, tie, horizon)
}
