package des

import (
	"testing"

	"vigil/internal/stats"
)

func TestOrdering(t *testing.T) {
	var s Scheduler
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Drain(100)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if s.Now() != 30 {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestFIFOAmongSimultaneous(t *testing.T) {
	var s Scheduler
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Drain(100)
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", got)
		}
	}
}

func TestAfterAndNesting(t *testing.T) {
	var s Scheduler
	var fired []Time
	s.At(s.Now()+10, func() {
		fired = append(fired, s.Now())
		s.At(s.Now()+5, func() { fired = append(fired, s.Now()) })
	})
	s.Drain(100)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestPastEventsRunNow(t *testing.T) {
	var s Scheduler
	s.At(100, func() {})
	s.Step()
	ran := false
	s.At(50, func() { ran = true }) // in the past
	s.Step()
	if !ran || s.Now() != 100 {
		t.Fatalf("past event handling wrong: ran=%v now=%v", ran, s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	var s Scheduler
	count := 0
	for i := Time(1); i <= 10; i++ {
		s.At(i*Second, func() { count++ })
	}
	s.RunUntil(5 * Second)
	if count != 5 {
		t.Fatalf("ran %d events, want 5", count)
	}
	if s.Now() != 5*Second {
		t.Fatalf("clock = %v", s.Now())
	}
	if s.Pending() != 5 {
		t.Fatalf("pending = %d", s.Pending())
	}
	// Deadline with no events advances the clock.
	s.RunUntil(20 * Second)
	if count != 10 || s.Now() != 20*Second {
		t.Fatalf("count=%d now=%v", count, s.Now())
	}
}

func TestDrainCap(t *testing.T) {
	var s Scheduler
	var reschedule func()
	n := 0
	reschedule = func() {
		n++
		s.At(s.Now()+1, reschedule)
	}
	s.At(s.Now()+1, reschedule)
	ran, complete := s.Drain(50)
	if ran != 50 || complete {
		t.Fatalf("Drain ran %d events, complete=%v", ran, complete)
	}
	// The self-rescheduling chain keeps the queue non-empty forever; a
	// bounded drain must report the cap was hit, and a drain over a finite
	// queue must report completion.
	var fin Scheduler
	fin.At(fin.Now()+1, func() {})
	if ran, complete := fin.Drain(50); ran != 1 || !complete {
		t.Fatalf("finite Drain ran %d events, complete=%v", ran, complete)
	}
}

func TestStepEmpty(t *testing.T) {
	var s Scheduler
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

// recorder is a typed-event handler that logs (kind, arg) execution order.
type recorder struct {
	s    *Scheduler
	got  []int64
	time []Time
}

func (r *recorder) HandleEvent(kind int32, arg int64, p any) {
	r.got = append(r.got, arg)
	r.time = append(r.time, r.s.Now())
}

func TestTypedEventDelivery(t *testing.T) {
	var s Scheduler
	r := &recorder{s: &s}
	s.Post(30, r, 1, 3, nil)
	s.Post(10, r, 1, 1, nil)
	s.Post(s.Now()+20, r, 1, 2, nil)
	s.Drain(100)
	if len(r.got) != 3 || r.got[0] != 1 || r.got[1] != 2 || r.got[2] != 3 {
		t.Fatalf("typed order = %v", r.got)
	}
	if r.time[0] != 10 || r.time[1] != 20 || r.time[2] != 30 {
		t.Fatalf("typed times = %v", r.time)
	}
}

func TestPostNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Post with nil handler did not panic")
		}
	}()
	var s Scheduler
	s.Post(1, nil, 0, 0, nil)
}

// TestPastTimeClampTyped pins the past-time rule for the typed path: an
// event posted behind the clock runs "now" and the clock never rewinds.
func TestPastTimeClampTyped(t *testing.T) {
	var s Scheduler
	r := &recorder{s: &s}
	s.Post(100, r, 1, 1, nil)
	s.Step()
	s.Post(50, r, 1, 2, nil) // in the past
	s.Step()
	if len(r.got) != 2 || r.got[1] != 2 {
		t.Fatalf("past typed event did not run: %v", r.got)
	}
	if s.Now() != 100 {
		t.Fatalf("clock rewound to %v", s.Now())
	}
}

// TestOrderingMatchesReferenceModel is the property test for the two-lane
// queue: a seeded mix of near deliveries, far timers, clamped past events,
// closure events and poster-tied deliveries — the exact shapes the packet
// emulation schedules — must run in the sequence a single sorted queue
// would pop. The model states the order on its own terms: by time, then,
// at one time, submission-numbered events in submission order before
// poster-tied ones in tie order.
func TestOrderingMatchesReferenceModel(t *testing.T) {
	type ref struct {
		at    Time
		tied  bool
		order uint64 // submission number, or the poster's tie
		id    int64
	}
	before := func(a, b ref) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		if a.tied != b.tied {
			return !a.tied
		}
		return a.order < b.order
	}
	for trial := uint64(0); trial < 20; trial++ {
		rng := stats.NewRNG(trial + 1)
		var s Scheduler
		var pending []ref // the model's queue
		ran := 0
		// check pops the model's minimum and holds the event that ran to it.
		check := func(id int64) {
			if len(pending) == 0 {
				t.Fatalf("trial %d: event %d ran, but the reference queue is empty", trial, id)
			}
			m := 0
			for i := range pending {
				if before(pending[i], pending[m]) {
					m = i
				}
			}
			if pending[m].id != id || pending[m].at != s.Now() {
				t.Fatalf("trial %d: position %d ran event %d at %v, reference says %+v", trial, ran, id, s.Now(), pending[m])
			}
			pending = append(pending[:m], pending[m+1:]...)
			ran++
		}
		h := HandlerFunc(func(_ int32, id int64, _ any) { check(id) })
		id, submitted := int64(0), uint64(0)
		post := func(at Time) {
			if at < s.Now() {
				at = s.Now() // the scheduler clamps; the model must too
			}
			id++
			switch x := rng.Intn(10); {
			case x < 3:
				// A poster's tie: random, distinct, anywhere below 2^63.
				tie := rng.Uint64()>>24<<23 | uint64(id)
				pending = append(pending, ref{at: at, tied: true, order: tie, id: id})
				s.PostTie(at, tie, h, 1, id, nil)
			case x < 5:
				submitted++
				pending = append(pending, ref{at: at, order: submitted, id: id})
				id := id
				s.At(at, func() { check(id) })
			default:
				submitted++
				pending = append(pending, ref{at: at, order: submitted, id: id})
				s.Post(at, h, 1, id, nil)
			}
		}
		// Seed a burst, stepping a random number of events between posts, so
		// posts land behind, between and ahead of both lanes' heads.
		for i := 0; i < 200; i++ {
			switch rng.Intn(4) {
			case 0:
				post(s.Now() + Time(rng.Intn(8))) // same-tick and near deliveries
			case 1:
				post(s.Now() + Time(rng.Intn(int(nearWindow))))
			case 2:
				post(s.Now() + nearWindow + Time(rng.Intn(int(Second)))) // far timers
			case 3:
				post(s.Now() - Time(rng.Intn(50))) // past: clamps to now
			}
			for rng.Bool(0.5) && s.Step() {
			}
		}
		s.Drain(10000)
		if ran != int(id) || len(pending) != 0 {
			t.Fatalf("trial %d: ran %d of %d events", trial, ran, id)
		}
	}
}

// TestFIFOAmongSimultaneousMixed pins the FIFO tie-break across the typed
// and closure paths and across the two internal lanes: same-time events
// run in submission order no matter how they were scheduled or which
// structure held them.
func TestFIFOAmongSimultaneousMixed(t *testing.T) {
	var s Scheduler
	r := &recorder{s: &s}
	// Force same-time events into different lanes: event 1 opens the FIFO
	// lane at 5ms and event 2 (a closure) extends its tail to 6ms, so
	// event 3 — 5ms again, behind the tail — and the far-future event 4
	// must take the heap, while event 5 at 6ms ties with the tail and
	// rides the lane. The 5ms tie (lane 1 vs heap 3) and the 6ms tie
	// (lane 2 and 5) must both resolve by submission order.
	s.Post(5*Millisecond, r, 1, 1, nil)                      // fifo
	s.At(6*Millisecond, func() { r.got = append(r.got, 2) }) // fifo (closure)
	s.Post(5*Millisecond, r, 1, 3, nil)                      // heap: behind the lane tail
	s.Post(nearWindow+Second, r, 1, 4, nil)                  // heap: far future
	s.Post(6*Millisecond, r, 1, 5, nil)                      // fifo: ties with the tail
	s.Drain(100)
	want := []int64{1, 3, 2, 5, 4}
	if len(r.got) != len(want) {
		t.Fatalf("ran %d events, want %d: %v", len(r.got), len(want), r.got)
	}
	for i := range want {
		if r.got[i] != want[i] {
			t.Fatalf("mixed-lane tie-break order = %v, want %v", r.got, want)
		}
	}
}

// TestTypedPostAllocFree is the zero-allocation contract: scheduling and
// running typed events allocates nothing once the queue's backing arrays
// are warm.
func TestTypedPostAllocFree(t *testing.T) {
	var s Scheduler
	r := &recorder{s: &s}
	r.got = make([]int64, 0, 4096)
	r.time = make([]Time, 0, 4096)
	warm := func() {
		for i := 0; i < 100; i++ {
			s.Post(s.Now()+Time(i%7), r, 1, int64(i), nil)
			s.Post(s.Now()+nearWindow+Time(i), r, 2, int64(i), nil)
		}
		s.Drain(1000)
		r.got = r.got[:0]
		r.time = r.time[:0]
	}
	warm()
	avg := testing.AllocsPerRun(10, warm)
	if avg > 0 {
		t.Fatalf("typed scheduling allocates %.1f times per cycle", avg)
	}
}

// BenchmarkScheduler measures the raw event churn of the rewritten queue:
// a fabric-like mix of near deliveries (FIFO lane) and far timers (heap),
// pushed from inside handlers exactly like packet hops scheduling packet
// hops.
func BenchmarkScheduler(b *testing.B) {
	var s Scheduler
	n := 0
	var h Handler
	h = HandlerFunc(func(kind int32, arg int64, p any) {
		if n <= 0 {
			return
		}
		n--
		// Each event reschedules itself: mostly a 5µs hop, sometimes a
		// 20ms timer — the emulation's two shapes.
		if arg%16 == 0 {
			s.Post(s.Now()+20*Millisecond, h, 1, arg+1, nil)
		} else {
			s.Post(s.Now()+5*Microsecond, h, 1, arg+1, nil)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = 10000
		for j := int64(0); j < 64; j++ {
			s.Post(s.Now()+Time(j), h, 1, j, nil)
		}
		for s.Step() {
		}
	}
}

// HandlerFunc adapts a function to Handler for tests.
type HandlerFunc func(kind int32, arg int64, p any)

func (f HandlerFunc) HandleEvent(kind int32, arg int64, p any) { f(kind, arg, p) }
