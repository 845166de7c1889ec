package des

import (
	"fmt"
	"slices"
	"testing"

	"vigil/internal/stats"
)

// A delivery stream that never idles — always one more event in the lane —
// used to grow the FIFO lane by a 72-byte slot per event for the whole run,
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

// Poster-supplied ties order simultaneous same-key events whatever order
// they were posted in and whichever lane holds them, and leave other keys'
// submission order alone.
func TestPostKeyedTieOrders(t *testing.T) {
	var s Scheduler
	r := &recorder{s: &s}
	const key = 7 << 56
	ties := []uint64{50, 10, 40, 1 << 62, 20, 30}
	for _, tie := range ties {
		s.PostKeyedTie(5, key, tie, r, 1, int64(tie), nil)
	}
	s.PostKeyed(5, key-1, r, 1, -1, nil) // a lower key runs first
	s.PostKeyed(5, key+1, r, 1, -2, nil) // a higher key last
	s.PostKeyed(5, key+1, r, 1, -3, nil)
	s.PostKeyedTie(4, key, 99, r, 1, 99, nil) // an earlier time beats any tie
	s.Drain(100)
	want := []int64{99, -1, 10, 20, 30, 40, 50, 1 << 62, -2, -3}
	if !slices.Equal(r.got, want) {
		t.Fatalf("order %v, want %v", r.got, want)
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
		key, tie := s.Executing()
		seen = append(seen, stringOf(s.Now(), key, tie, s.Horizon()))
		if kind == 1 {
			// A nested, shorter run narrows the horizon and restores it.
			s.RunUntil(s.Now() + 1)
			seen = append(seen, stringOf(s.Now(), 0, 0, s.Horizon()))
		}
	})
	s.PostKeyedTie(10, 3, 77, probe, 0, 0, nil)
	s.PostKeyedTie(20, 4, 88, probe, 1, 0, nil)
	s.RunUntil(100)
	s.PostKeyedTie(150, 5, 99, probe, 0, 0, nil)
	s.Step() // outside RunUntil the horizon is the clock
	want := []string{
		stringOf(10, 3, 77, 100),
		stringOf(20, 4, 88, 100),
		stringOf(21, 0, 0, 100),
		stringOf(150, 5, 99, 150),
	}
	if !slices.Equal(seen, want) {
		t.Fatalf("saw %v, want %v", seen, want)
	}
	if s.Executed() != 3 {
		t.Fatalf("executed %d events, want 3", s.Executed())
	}
}

func stringOf(now Time, key, tie uint64, horizon Time) string {
	return fmt.Sprintf("t=%d key=%d tie=%d horizon=%d", now, key, tie, horizon)
}
