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
// Events fire in (time, key, tie) order: keys impose a deterministic order
// between simultaneous events from different origins, and simultaneous
// events with the same key run in tie order — by default FIFO, the
// scheduler's submission counter. The key is an origin identifier chosen by
// the poster (a link, a host, a connection — see PostKeyed), so that
// simultaneous events from different subsystems fire in one deterministic
// order that does not hinge on which of them was posted first. A poster
// whose same-key events have an order of their own supplies the tie itself
// (PostKeyedTie): the fabric orders a link's simultaneous deliveries by the
// packet's serial, so the order is a property of the packets and not of how
// many scheduler events their upstream hops happened to take. Unkeyed
// events (key 0) keep the historical (time, submission order) behaviour.
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

// event is one queue entry. Closure events store the func() in p with a
// nil Handler; typed events use h/kind/arg/p directly.
type event struct {
	at   Time
	key  uint64 // origin key: orders simultaneous events across origins
	seq  uint64 // tie-break among simultaneous same-key events: submission order unless the poster supplied one
	arg  int64
	h    Handler
	p    any
	kind int32
}

// less orders events by (time, origin key, tie-break).
func (e *event) less(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	if e.key != o.key {
		return e.key < o.key
	}
	return e.seq < o.seq
}

// Scheduler owns the virtual clock and the pending event queue.
// The zero value is ready to use. Not safe for concurrent use: the
// emulation is single-threaded by design.
//
// The queue is two structures popped in one total (time, key, seq) order:
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
	// curKey/curSeq are the (key, tie) of the event being executed.
	curKey, curSeq uint64
	executed       uint64
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
	s.push(t, 0, s.nextSeq(), nil, 0, 0, fn)
}

// Post schedules a typed event at absolute time t without allocating.
// Past times are clamped to now, like At.
func (s *Scheduler) Post(t Time, h Handler, kind int32, arg int64, p any) {
	if h == nil {
		panic("des: Post with nil Handler")
	}
	s.push(t, 0, s.nextSeq(), h, kind, arg, p)
}

// PostKeyed schedules a typed event carrying an origin key. Simultaneous
// events order by key before submission sequence, so two posters that
// never observe each other's order (a link's deliveries vs a timer on
// another host) still fire in a deterministic total order. By convention
// the high byte is a per-subsystem class and the low bits an origin id (a
// link, a host).
func (s *Scheduler) PostKeyed(t Time, key uint64, h Handler, kind int32, arg int64, p any) {
	if h == nil {
		panic("des: PostKeyed with nil Handler")
	}
	s.push(t, key, s.nextSeq(), h, kind, arg, p)
}

// PostKeyedTie is PostKeyed with the tie-break supplied by the poster in
// place of the submission counter: simultaneous events under one key fire in
// ascending tie order whatever order they were posted in. A key's events
// must either all carry poster ties or none — the two numberings do not
// compare.
func (s *Scheduler) PostKeyedTie(t Time, key, tie uint64, h Handler, kind int32, arg int64, p any) {
	if h == nil {
		panic("des: PostKeyedTie with nil Handler")
	}
	s.push(t, key, tie, h, kind, arg, p)
}

// PostKeyedAfter schedules a keyed typed event d microseconds from now.
func (s *Scheduler) PostKeyedAfter(d Time, key uint64, h Handler, kind int32, arg int64, p any) {
	s.PostKeyed(s.now+d, key, h, kind, arg, p)
}

// nextSeq draws the default tie-break: the submission counter.
func (s *Scheduler) nextSeq() uint64 {
	s.nextID++
	return s.nextID
}

func (s *Scheduler) push(t Time, key, seq uint64, h Handler, kind int32, arg int64, p any) {
	if t < s.now {
		t = s.now
	}
	e := event{at: t, key: key, seq: seq, arg: arg, h: h, p: p, kind: kind}
	// Monotone fast lane: a near event no earlier — in (time, key, tie)
	// order — than the lane's tail is already in sorted position. Far events
	// are excluded even when they would extend the tail — a 20ms timer at
	// the tail would force every following 5µs delivery onto the heap until
	// it fired.
	if t-s.now <= nearWindow {
		if n := len(s.fifo); n > s.fifoHead {
			tail := &s.fifo[n-1]
			if t > tail.at || (t == tail.at && (key > tail.key || (key == tail.key && seq >= tail.seq))) {
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

// peek returns the next event in (time, key, seq) order without removing
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
	s.now, s.curKey, s.curSeq = e.at, e.key, e.seq
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
// 72 KB of slots, so a lane holding a few dozen events slides once per
// thousand pops, not once per few dozen.
const laneSlack = 1024

// Test hook: Executed returns the number of events run so far, so a test
// can see how many scheduler events a run cost.
func (s *Scheduler) Executed() uint64 { return s.executed }

// Executing returns the origin key and tie-break of the event being
// executed (of the last one run, between events). With Now it is the
// event's position in the total order: a handler that defers work an
// unexecuted event would have done — the fabric's cut-through flights —
// uses it to tell which of that work the order has already passed.
func (s *Scheduler) Executing() (key, tie uint64) { return s.curKey, s.curSeq }

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
