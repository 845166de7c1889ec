package des

import (
	"fmt"
)

// ShardedScheduler runs N inner Schedulers under conservative parallel
// discrete-event simulation. The caller partitions the emulated system into
// shards (the packet plane shards by pod) such that every cross-shard
// interaction is an event posted at least `lookahead` after the event that
// caused it — in the fabric, the link propagation delay on every
// inter-pod hop. That guaranteed gap is what lets each shard advance
// independently inside a delay-bounded window and synchronize only at
// window boundaries.
//
// The window protocol, per RunUntil iteration:
//
//  1. Every shard i gets its own horizon from its peers' earliest possible
//     activity. A peer j cannot execute anything before
//     lbts_j = min(nextAt_j, m+lookahead), where m is the global minimum
//     next-event time: either its own queue head fires, or the earliest
//     cross event any shard could emit this cycle (≥ m+lookahead) reaches
//     it. Everything j emits lands ≥ lookahead later still, so
//     horizon_i = min over j≠i of lbts_j + lookahead (capped at the
//     deadline) bounds every future arrival into i. The lbts cap is what
//     keeps relay chains safe: a shard with an empty or far-future queue
//     can still be WOKEN by a cross event and answer — bounding it by its
//     own queue alone would let its peers run past the reply. With a
//     single shard no cross traffic exists and the window is unbounded.
//     The min-over-peers is computed once per window from the global min
//     and second-min of lbts (horizon_i is m1+lookahead for every shard
//     except the argmin, which gets m2+lookahead), and nextAt is cached
//     incrementally: only shards that ran in the last window or received
//     its flushed cross events can have changed their queue head, so the
//     driver refreshes exactly those entries instead of rescanning all
//     shards every window.
//  2. Shards with work strictly before their horizon run concurrently
//     (RunBefore) on a persistent worker pool — workers park on a wake
//     gate between windows and claim busy shards from a shared atomic
//     ticket, so a window costs two atomic ops per shard instead of a
//     goroutine spawn. RunBefore is itself the batch step: a shard runs
//     every event inside its horizon without re-checking any global
//     state. Each shard buffers its cross-shard posts into a private
//     per-(src,dst) queue — single writer, no locks.
//  3. At the barrier the same pool drains the queues into the destination
//     shards in deterministic (time, key, source submission) order, one
//     worker per destination. Keys make the merge unambiguous:
//     simultaneous same-key events always come from one origin, and one
//     origin lives on one shard, so a k-way merge of the per-source
//     queues by (time, key) — each queue first stable-sorted by the same
//     relation, preserving submission order on ties — is a total order
//     independent of which goroutine finished first, and identical to
//     the order a single scheduler's seq numbers would have produced.
//     (An event posted with a tie of its own, PostCrossTie, carries it
//     into the destination scheduler, which orders by it.)
//
// Worker count only bounds concurrency; it never affects the event order,
// which is why epochs are bit-identical at any worker count.
type ShardedScheduler struct {
	shards    []*Scheduler
	lookahead Time
	workers   int

	// cross[src*n+dst] buffers shard src's posts into shard dst during a
	// window; only src's goroutine appends, only the barrier drains.
	cross [][]xevent
	// touched[src] lists the destinations src posted to since the last
	// barrier (appended on first post into an empty queue), so the flush
	// does work proportional to actual cross traffic instead of scanning
	// all n² queues; cross-free windows skip the barrier entirely.
	touched [][]int32
	// inbound[dst] is the barrier's per-destination source list, built
	// serially from touched before the parallel merge phase.
	inbound [][]int32
	// mhead[dst] is merge scratch: the per-source queue cursor.
	mhead [][]int32
	// flushDst is the window's list of destinations with inbound events.
	flushDst []int32
	// busy is the window scratch of shards scheduled to run.
	busy []int32
	// horizons[i] is shard i's current window horizon.
	horizons []Time

	// nextAt/hasNext cache each shard's queue-head time between windows;
	// refreshed in full at RunUntil entry and incrementally afterwards.
	nextAt  []Time
	hasNext []bool

	// pool is the persistent worker pool, created on the first window that
	// can actually use more than one goroutine. Its workers are daemons:
	// they park on the gate between windows and live until Close.
	pool *shardPool
}

// NewSharded builds a sharded scheduler. lookahead must be positive: a
// zero-lookahead system has no guaranteed gap between cause and cross-shard
// effect, so no window is safe to run concurrently and conservative
// parallel execution is impossible — reject it loudly rather than produce
// subtly reordered epochs. workers is clamped to [1, shards].
func NewSharded(shards int, lookahead Time, workers int) (*ShardedScheduler, error) {
	if shards < 1 {
		return nil, fmt.Errorf("des: NewSharded needs at least 1 shard, got %d", shards)
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("des: NewSharded needs positive lookahead, got %d", lookahead)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > shards {
		workers = shards
	}
	ss := &ShardedScheduler{
		shards:    make([]*Scheduler, shards),
		lookahead: lookahead,
		workers:   workers,
		cross:     make([][]xevent, shards*shards),
		touched:   make([][]int32, shards),
		inbound:   make([][]int32, shards),
		mhead:     make([][]int32, shards),
		horizons:  make([]Time, shards),
		nextAt:    make([]Time, shards),
		hasNext:   make([]bool, shards),
	}
	for i := range ss.shards {
		ss.shards[i] = &Scheduler{}
	}
	return ss, nil
}

// xevent is one buffered cross-shard post. tie is the poster's tie-break
// (PostCrossTie); an untied event draws the destination's submission counter
// as it is merged in.
type xevent struct {
	at   Time
	key  uint64
	tie  uint64
	arg  int64
	h    Handler
	p    any
	kind int32
	tied bool
}

// Shards returns the shard count.
func (ss *ShardedScheduler) Shards() int { return len(ss.shards) }

// Workers returns the concurrency bound.
func (ss *ShardedScheduler) Workers() int { return ss.workers }

// Lookahead returns the guaranteed cross-shard delay the windows rely on.
func (ss *ShardedScheduler) Lookahead() Time { return ss.lookahead }

// Shard returns inner scheduler i, for setup-time posting and per-shard
// clock reads. During RunUntil a shard's scheduler may only be touched
// from that shard's own event handlers.
func (ss *ShardedScheduler) Shard(i int) *Scheduler { return ss.shards[i] }

// Close releases the persistent worker pool, if one was ever started. The
// scheduler remains usable afterwards (a new pool is created on demand);
// Close exists so tests and short-lived embedders do not accumulate parked
// daemon goroutines. It must not be called concurrently with RunUntil.
func (ss *ShardedScheduler) Close() {
	if ss.pool != nil {
		ss.pool.close()
		ss.pool = nil
	}
}

// Now returns the globally safe virtual time: the minimum shard clock.
// Between RunUntil calls all clocks agree (the driver advances every shard
// to the deadline), so this is simply "the" time.
func (ss *ShardedScheduler) Now() Time {
	now := ss.shards[0].Now()
	for _, s := range ss.shards[1:] {
		if t := s.Now(); t < now {
			now = t
		}
	}
	return now
}

// PostCross buffers a keyed typed event from shard src's execution context
// into shard dst. It must only be called from an event handler currently
// running on shard src (or between RunUntil calls), and t must be at least
// lookahead after src's clock — the conservative contract. Same-shard
// posts should go directly to Shard(src).
func (ss *ShardedScheduler) PostCross(src, dst int, t Time, key uint64, h Handler, kind int32, arg int64, p any) {
	ss.postCross(src, dst, xevent{at: t, key: key, arg: arg, h: h, p: p, kind: kind})
}

// PostCrossTie is PostCross with a poster-supplied tie-break, the
// cross-shard form of Scheduler.PostKeyedTie.
func (ss *ShardedScheduler) PostCrossTie(src, dst int, t Time, key, tie uint64, h Handler, kind int32, arg int64, p any) {
	ss.postCross(src, dst, xevent{at: t, key: key, tie: tie, arg: arg, h: h, p: p, kind: kind, tied: true})
}

func (ss *ShardedScheduler) postCross(src, dst int, e xevent) {
	if e.h == nil {
		panic("des: PostCross with nil Handler")
	}
	q := src*len(ss.shards) + dst
	if len(ss.cross[q]) == 0 {
		ss.touched[src] = append(ss.touched[src], int32(dst))
	}
	ss.cross[q] = append(ss.cross[q], e)
}

// tMax is an unreachable virtual time, used as the min-scan sentinel.
const tMax = Time(1) << 62

// RunUntil executes events on every shard until no shard holds an event at
// or before deadline, then advances every shard clock to the deadline —
// the sharded equivalent of Scheduler.RunUntil.
func (ss *ShardedScheduler) RunUntil(deadline Time) {
	// Seed the queue-head cache; the loop maintains it incrementally.
	for i, s := range ss.shards {
		ss.nextAt[i], ss.hasNext[i] = s.NextEventAt()
	}
	for {
		// Global minimum next-event time decides whether work remains.
		m := tMax
		for i := range ss.shards {
			if ss.hasNext[i] && ss.nextAt[i] < m {
				m = ss.nextAt[i]
			}
		}
		if m == tMax || m > deadline {
			break
		}
		// Per-shard horizons from the min and second-min of lbts over all
		// shards: horizon_i = (min over j≠i of lbts_j) + lookahead, which
		// is m1+lookahead for every i except the argmin of lbts, which
		// gets m2+lookahead. deadline+1 caps the window (RunBefore is
		// strict, so events at exactly deadline still run, matching
		// RunUntil). The global-min shard's horizon is always at least
		// m+lookahead > m, so every window makes progress.
		wake := m + ss.lookahead
		m1, m2 := tMax, tMax
		arg1 := -1
		for j := range ss.shards {
			lb := wake
			if ss.hasNext[j] && ss.nextAt[j] < lb {
				lb = ss.nextAt[j]
			}
			if lb < m1 {
				m1, m2, arg1 = lb, m1, j
			} else if lb < m2 {
				m2 = lb
			}
		}
		ss.busy = ss.busy[:0]
		for i := range ss.shards {
			if !ss.hasNext[i] || ss.nextAt[i] > deadline {
				continue
			}
			peer := m1
			if i == arg1 {
				peer = m2
			}
			h := deadline + 1
			if peer != tMax && peer+ss.lookahead < h {
				h = peer + ss.lookahead
			}
			if ss.nextAt[i] < h {
				ss.horizons[i] = h
				ss.busy = append(ss.busy, int32(i))
			}
		}
		if len(ss.busy) == 0 {
			// Every runnable shard is blocked at its horizon; cannot happen
			// (the global-min shard's horizon is > its next event), but a
			// stall here would loop forever — fail loudly instead.
			panic("des: sharded window stalled")
		}
		ss.runWindow()
		ss.flush()
		// Only shards that ran or received flushed events can have a
		// changed queue head; refresh exactly those cache entries.
		for _, i := range ss.busy {
			ss.nextAt[i], ss.hasNext[i] = ss.shards[i].NextEventAt()
		}
		for _, d := range ss.flushDst {
			ss.nextAt[d], ss.hasNext[d] = ss.shards[d].NextEventAt()
		}
	}
	for _, s := range ss.shards {
		if s.now < deadline {
			s.now = deadline
		}
	}
}

// runWindow executes every busy shard up to its horizon, on the persistent
// pool when more than one shard has work and workers allow.
func (ss *ShardedScheduler) runWindow() {
	if len(ss.busy) == 1 || ss.workers == 1 {
		for _, i := range ss.busy {
			ss.shards[i].RunBefore(ss.horizons[i])
		}
		return
	}
	ss.ensurePool()
	ss.pool.dispatch(phaseWindow, len(ss.busy))
}

// flush drains the window's cross-shard buffers into their destination
// shards in deterministic (time, key, source submission) order. The
// per-destination merges touch disjoint state (the destination's scheduler
// and its inbound queues), so they run on the pool when several
// destinations have traffic.
func (ss *ShardedScheduler) flush() {
	ss.flushDst = ss.flushDst[:0]
	for src := range ss.touched {
		lst := ss.touched[src]
		if len(lst) == 0 {
			continue
		}
		for _, dst := range lst {
			if len(ss.inbound[dst]) == 0 {
				ss.flushDst = append(ss.flushDst, dst)
			}
			ss.inbound[dst] = append(ss.inbound[dst], int32(src))
		}
		ss.touched[src] = lst[:0]
	}
	switch {
	case len(ss.flushDst) == 0:
		return
	case len(ss.flushDst) == 1 || ss.workers == 1:
		for _, d := range ss.flushDst {
			ss.mergeInto(int(d))
		}
	default:
		ss.ensurePool()
		ss.pool.dispatch(phaseFlush, len(ss.flushDst))
	}
}

// mergeInto k-way merges every pending source queue for destination dst
// into its scheduler, in (time, key, source submission) order. Only one
// goroutine merges a given destination per barrier, so pushes into the
// destination scheduler are single-writer. Drained queue entries keep
// their value fields and only drop the pointer fields (h, p) — the
// backing arrays are recycled, and unpinning the payloads is all the
// zeroing that matters.
func (ss *ShardedScheduler) mergeInto(dst int) {
	n := len(ss.shards)
	srcs := ss.inbound[dst]
	d := ss.shards[dst]
	if len(srcs) == 1 {
		q := int(srcs[0])*n + dst
		ev := ss.cross[q]
		sortXQueue(ev)
		for i := range ev {
			e := &ev[i]
			d.merge(e)
		}
		ss.cross[q] = ev[:0]
		ss.inbound[dst] = srcs[:0]
		return
	}
	// Sort each source queue by (at, key) — stable, preserving submission
	// order on ties — then merge across queue heads. Same-(at,key) events
	// always share an origin and therefore a queue, so the cross-queue
	// comparison never ties and the merge is a total order.
	heads := ss.mhead[dst][:0]
	for _, src := range srcs {
		sortXQueue(ss.cross[int(src)*n+dst])
		heads = append(heads, 0)
	}
	for {
		best := -1
		var bt Time
		var bk uint64
		for si, src := range srcs {
			q := ss.cross[int(src)*n+dst]
			hd := int(heads[si])
			if hd >= len(q) {
				continue
			}
			e := &q[hd]
			if best < 0 || e.at < bt || (e.at == bt && e.key < bk) {
				best, bt, bk = si, e.at, e.key
			}
		}
		if best < 0 {
			break
		}
		q := ss.cross[int(srcs[best])*n+dst]
		d.merge(&q[heads[best]])
		heads[best]++
	}
	for _, src := range srcs {
		q := int(src)*n + dst
		ss.cross[q] = ss.cross[q][:0]
	}
	ss.mhead[dst] = heads
	ss.inbound[dst] = srcs[:0]
}

// merge pushes one drained cross event into the destination scheduler and
// unpins its payload.
func (d *Scheduler) merge(e *xevent) {
	if e.at < d.now {
		panic(fmt.Sprintf("des: flush into past: event at %d, dst clock %d", e.at, d.now))
	}
	tie := e.tie
	if !e.tied {
		tie = d.nextSeq()
	}
	d.push(e.at, e.key, tie, e.h, e.kind, e.arg, e.p)
	e.h, e.p = nil, nil
}

// sortXQueue stable insertion-sorts a cross queue by (at, key). Queues are
// nearly time-ordered already (a shard's clock only advances while it
// posts), so the adaptive sort is close to a single verification pass.
func sortXQueue(q []xevent) {
	for i := 1; i < len(q); i++ {
		e := q[i]
		j := i
		for j > 0 && (e.at < q[j-1].at ||
			(e.at == q[j-1].at && e.key < q[j-1].key)) {
			q[j] = q[j-1]
			j--
		}
		if j != i {
			q[j] = e
		}
	}
}
