// Package des is a discrete-event scheduler with a virtual clock. The
// packet-level emulation (fabric, hosts, agents) runs entirely on virtual
// time, which makes ICMP rate limits, retransmission timeouts and epoch
// boundaries exact and deterministic regardless of wall-clock load.
//
// The queue is a monomorphic 4-ary min-heap over typed event records, so
// the hot path — scheduling a packet hop, a retransmission timeout or an
// epoch tick — allocates nothing: components implement Handler once and
// pass a kind tag, an integer argument and an optional pointer payload
// through Post. The closure form (At) remains for tests; it costs exactly
// the closure the caller builds, with no further boxing inside the
// scheduler.
//
// Events fire in (time, tie) order. The tie is the scheduler's submission
// counter (At, Post), so simultaneous events run FIFO, unless the poster
// supplies its own (PostTie): the fabric ties a delivery to the packet's
// serial, so where a delivery falls among simultaneous ones is a property of
// the packets and not of how many scheduler events their upstream hops
// happened to take. At one time every submission-numbered event fires before
// every poster-tied one: the scheduler sets a poster tie's top bit, and the
// submission counter panics before it reaches that bit.
package des

// Time is virtual time in microseconds since the start of the run.
type Time int64

// Common durations.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000 * 1000
)

// Handler consumes typed events. Implementations are long-lived objects (a
// fabric, a connection, a discovery agent): scheduling against them stores
// only the interface word pair, so no allocation happens per event. The
// kind tag is private to each handler — it only needs to disambiguate the
// events that handler itself schedules. arg carries a small integer
// (a link id, a generation counter, a flow slot); p carries an optional
// pointer-shaped payload (boxing a pointer into the any does not allocate).
type Handler interface {
	HandleEvent(kind int32, arg int64, p any)
}

// event is one queue entry, 64 bytes: one cache line. Closure events store
// the func() in p with a nil Handler; typed events use h/kind/arg/p directly.
type event struct {
	at   Time
	tie  uint64 // orders simultaneous events: the submission counter, or a poster's tie with posterTie set
	arg  int64
	h    Handler
	p    any
	kind int32
}

// less orders events by (time, tie).
func (e *event) less(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.tie < o.tie)
}

// posterTie is the bit PostTie sets in a poster's tie, placing every
// poster-tied event after every submission-numbered one at the same time.
const posterTie uint64 = 1 << 63

// PosterTie returns where an event posted with PostTie(…, tie, …) falls among
// simultaneous events, in the terms Executing reports.
func PosterTie(tie uint64) uint64 { return tie | posterTie }

// Scheduler owns the virtual clock and the pending event queue.
// The zero value is ready to use. Not safe for concurrent use: the
// emulation is single-threaded by design.
//
// The queue is two structures popped in one total (time, tie) order:
// a FIFO fast lane for the monotone stream the packet fabric generates
// (fixed link delays from a nondecreasing clock arrive already sorted,
// so they enqueue and dequeue in O(1)), and a 4-ary min-heap for
// everything else (timers, epoch ticks, spread-out flow starts). Step
// compares the two heads under the same ordering the heap alone would
// use, so the pop sequence — and with it the emulation — is bit-identical
// to a single-queue scheduler.
type Scheduler struct {
	now      Time
	nextID   uint64
	heap     []event // 4-ary min-heap
	fifo     []event // monotone fast lane; live region is fifo[fifoHead:]
	fifoHead int

	// horizon is the deadline of the RunUntil in progress (see Horizon).
	horizon Time
	// curTie is the tie of the event being executed.
	curTie   uint64
	executed uint64
}

// nearWindow bounds how far ahead of the clock an event may open an empty
// FIFO lane. Without it a lone far-future timer would squat at the lane
// head and force the monotone delivery stream back onto the heap until it
// fired. Link delays (and injected extra latency) sit well below it;
// retransmission and probe timeouts sit above.
const nearWindow = 10 * Millisecond

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Test hook: At schedules fn at absolute time t, so a test can script
// events around the components under it. Events in the past run "now": the
// clock never moves backward.
func (s *Scheduler) At(t Time, fn func()) {
	s.push(t, s.nextSeq(), nil, 0, 0, fn)
}

// Post schedules a typed event at absolute time t without allocating.
// Past times are clamped to now, like At.
func (s *Scheduler) Post(t Time, h Handler, kind int32, arg int64, p any) {
	if h == nil {
		panic("des: Post with nil Handler")
	}
	s.push(t, s.nextSeq(), h, kind, arg, p)
}

// PostTie is Post with the tie-break supplied by the poster in place of the
// submission counter: simultaneous poster-tied events fire in ascending tie
// order whatever order they were posted in, and after every simultaneous
// submission-numbered event. The tie must leave the top bit clear.
func (s *Scheduler) PostTie(t Time, tie uint64, h Handler, kind int32, arg int64, p any) {
	if h == nil {
		panic("des: PostTie with nil Handler")
	}
	if tie&posterTie != 0 {
		panic("des: PostTie with a tie at or above 2^63")
	}
	s.push(t, PosterTie(tie), h, kind, arg, p)
}

// nextSeq draws the default tie-break: the submission counter. It stops
// short of posterTie, so the same-time rule above never wraps.
func (s *Scheduler) nextSeq() uint64 {
	s.nextID++
	if s.nextID == posterTie {
		panic("des: submission counter reached 2^63")
	}
	return s.nextID
}

func (s *Scheduler) push(t Time, tie uint64, h Handler, kind int32, arg int64, p any) {
	if t < s.now {
		t = s.now
	}
	e := event{at: t, tie: tie, arg: arg, h: h, p: p, kind: kind}
	// Monotone fast lane: a near event no earlier — in (time, tie) order —
	// than the lane's tail is already in sorted position. Far events
	// are excluded even when they would extend the tail — a 20ms timer at
	// the tail would force every following 5µs delivery onto the heap until
	// it fired.
	if t-s.now <= nearWindow {
		if n := len(s.fifo); n > s.fifoHead {
			tail := &s.fifo[n-1]
			if t > tail.at || (t == tail.at && tie >= tail.tie) {
				s.fifo = append(s.fifo, e)
				return
			}
		} else {
			s.fifo = s.fifo[:0]
			s.fifoHead = 0
			s.fifo = append(s.fifo, e)
			return
		}
	}
	s.heap = append(s.heap, e)
	// Sift up.
	ev := s.heap
	i := len(ev) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !ev[i].less(&ev[parent]) {
			break
		}
		ev[i], ev[parent] = ev[parent], ev[i]
		i = parent
	}
}

// popRoot removes the minimum heap event, restoring the heap. The vacated
// tail slot is zeroed so the queue does not pin handler or payload
// references.
func (s *Scheduler) popRoot() {
	ev := s.heap
	n := len(ev) - 1
	ev[0] = ev[n]
	ev[n] = event{}
	ev = ev[:n]
	s.heap = ev
	// Sift down (4-ary: children of i are 4i+1 .. 4i+4).
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			return
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if ev[j].less(&ev[m]) {
				m = j
			}
		}
		if !ev[m].less(&ev[i]) {
			return
		}
		ev[i], ev[m] = ev[m], ev[i]
		i = m
	}
}

// Pending returns the number of queued events.
func (s *Scheduler) Pending() int { return len(s.heap) + len(s.fifo) - s.fifoHead }

// peek returns the next event in (time, tie) order without removing
// it, or nil when the queue is empty.
func (s *Scheduler) peek() *event {
	var next *event
	if s.fifoHead < len(s.fifo) {
		next = &s.fifo[s.fifoHead]
	}
	if len(s.heap) > 0 && (next == nil || s.heap[0].less(next)) {
		next = &s.heap[0]
	}
	return next
}

// Step runs the next event; it reports false when the queue is empty.
func (s *Scheduler) Step() bool {
	var e event
	if h := s.fifoHead; h < len(s.fifo) {
		if len(s.heap) > 0 && s.heap[0].less(&s.fifo[h]) {
			e = s.heap[0]
			s.popRoot()
		} else {
			e = s.fifo[h]
			s.fifo[h] = event{}
			s.popLane()
		}
	} else if len(s.heap) > 0 {
		e = s.heap[0]
		s.popRoot()
	} else {
		return false
	}
	s.now, s.curTie = e.at, e.tie
	s.executed++
	if e.h != nil {
		e.h.HandleEvent(e.kind, e.arg, e.p)
	} else {
		e.p.(func())()
	}
	return true
}

// popLane retires the FIFO lane's (already zeroed) head slot. An empty lane
// rewinds; a lane that never idles — a delivery stream with always one more
// event in flight — would otherwise grow by a slot per event for the whole
// run, so once the dead prefix is long enough (laneSlack) and outweighs the
// live part two to one, the live events slide down over it. A slide moves at
// most half as many events as were popped since the last one, so the pop
// stays amortized O(1), and the lane's order is untouched.
func (s *Scheduler) popLane() {
	s.fifoHead++
	live := len(s.fifo) - s.fifoHead
	switch {
	case live == 0:
		s.fifo = s.fifo[:0]
		s.fifoHead = 0
	case s.fifoHead >= laneSlack && s.fifoHead > 2*live:
		copy(s.fifo, s.fifo[s.fifoHead:])
		clear(s.fifo[s.fifoHead:]) // the moved events' old slots; the rest of the prefix is zero already
		s.fifo = s.fifo[:live]
		s.fifoHead = 0
	}
}

// laneSlack is the dead prefix the FIFO lane tolerates before it compacts:
// 64 KB of slots, so a lane holding a few dozen events slides once per
// thousand pops, not once per few dozen.
const laneSlack = 1024

// Test hook: Executed returns the number of events run so far, so a test
// can see how many scheduler events a run cost.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Executing returns the tie of the event being executed (of the last one
// run, between events); a poster's tie comes back as PosterTie(tie). With Now
// it is the event's position in the total order: a handler that defers work
// an unexecuted event would have done — the fabric's cut-through flights —
// uses it to tell which of that work the order has already passed.
func (s *Scheduler) Executing() uint64 { return s.curTie }

// Horizon returns the time through which the scheduler is committed to run
// without returning to its caller: the deadline of the RunUntil in progress,
// or the clock when events are being stepped one at a time. An event posted
// at or before the horizon is certain to fire before the driver regains
// control — and with it the chance to read or change state between events.
func (s *Scheduler) Horizon() Time { return max(s.horizon, s.now) }

// RunUntil executes events until the queue empties or the next event lies
// beyond deadline; the clock is then advanced to the deadline.
func (s *Scheduler) RunUntil(deadline Time) {
	outer := s.horizon
	s.horizon = deadline
	for {
		next := s.peek()
		if next == nil || next.at > deadline {
			break
		}
		s.Step()
	}
	s.horizon = outer
	if s.now < deadline {
		s.now = deadline
	}
}

// Drain runs events until none remain, with a safety cap on event count.
// It returns the number of events executed and whether the queue drained
// clean: complete is false when the cap was hit with work still pending —
// without it a caller seeing n == maxEvents could not tell a clean drain
// of exactly maxEvents events from a truncated one.
func (s *Scheduler) Drain(maxEvents int) (n int, complete bool) {
	for n < maxEvents && s.Step() {
		n++
	}
	return n, s.Pending() == 0
}
