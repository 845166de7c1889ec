package des

import (
	"fmt"
	"runtime"
	"testing"
)

// runChurnTrace is runTrace plus scheduled runtime.GOMAXPROCS churn: churn
// value i is applied at virtual time (i+1)*deadline/(len(churn)+1) from an
// event handler, so the parallelism of the host changes mid-epoch while
// windows are in flight. Identical traces to the unchurned single-scheduler
// run prove the pool protocol is independent of how many OS threads the
// runtime gives it.
func runChurnTrace(t *testing.T, shards, workers int, look, deadline Time, churn []int) [][]string {
	t.Helper()
	const nodesPerShard = 3
	sys := &traceSys{look: look}
	if workers == 0 {
		sys.single = &Scheduler{}
	} else {
		ss, err := NewSharded(shards, look, workers)
		if err != nil {
			t.Fatal(err)
		}
		sys.ss = ss
		defer ss.Close()
	}
	for i := 0; i < shards*nodesPerShard; i++ {
		sys.nodes = append(sys.nodes, &traceNode{id: i, shard: i % shards, budget: 200, sys: sys})
	}
	for _, n := range sys.nodes {
		at := Time(1 + n.id*7)
		if sys.ss == nil {
			sys.single.PostKeyed(at, n.key(), n, 0, 0, nil)
		} else {
			sys.ss.Shard(n.shard).PostKeyed(at, n.key(), n, 0, 0, nil)
		}
	}
	churnKey := uint64(0xC0FFEE) << 40
	churnH := HandlerFunc(func(_ int32, arg int64, _ any) {
		runtime.GOMAXPROCS(int(arg))
	})
	step := deadline / Time(len(churn)+1)
	for ci, v := range churn {
		at := step * Time(ci+1)
		if sys.ss == nil {
			sys.single.PostKeyed(at, churnKey, churnH, 9, int64(v), nil)
		} else {
			sys.ss.Shard(0).PostKeyed(at, churnKey, churnH, 9, int64(v), nil)
		}
	}
	if sys.ss == nil {
		sys.single.RunUntil(deadline)
	} else {
		sys.ss.RunUntil(deadline)
	}
	out := make([][]string, len(sys.nodes))
	for i, n := range sys.nodes {
		out[i] = n.trace
	}
	return out
}

// The pooled scheduler's per-node traces must be bit-identical while
// runtime.GOMAXPROCS churns 1→8→2 mid-epoch: parked workers, half-woken
// windows and barrier merges all keep executing correctly whatever thread
// budget the runtime grants.
func TestShardedTraceIdentityUnderGOMAXPROCSChurn(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	churn := []int{1, 8, 2}
	for _, shards := range []int{3, 8} {
		ref := runChurnTrace(t, shards, 0, 5, 100000, churn)
		for _, workers := range []int{2, 4, 8} {
			runtime.GOMAXPROCS(orig)
			got := runChurnTrace(t, shards, workers, 5, 100000, churn)
			for nd := range ref {
				if len(got[nd]) != len(ref[nd]) {
					t.Fatalf("shards=%d workers=%d node=%d: %d events vs %d single",
						shards, workers, nd, len(got[nd]), len(ref[nd]))
				}
				for i := range ref[nd] {
					if got[nd][i] != ref[nd][i] {
						t.Fatalf("shards=%d workers=%d node=%d: diverges at %d:\n  single:  %s\n  sharded: %s",
							shards, workers, nd, i, ref[nd][i], got[nd][i])
					}
				}
			}
		}
	}
}

// collideNode drives the adversarial same-time/different-key case: every
// sender shard fires in lockstep and posts TWO cross events into shard 0
// at the exact same virtual time — keys submitted in descending order, so
// the barrier must both re-order within one source queue and interleave
// across queues purely by key to match the single scheduler.
type collideNode struct {
	sys   *collideSys
	id    int
	shard int
	left  int
}

type collideSys struct {
	ss     *ShardedScheduler
	single *Scheduler
	look   Time
	period Time
	nodes  []*collideNode
	traces [][]string
}

func (c *collideNode) now() Time {
	if c.sys.ss != nil {
		return c.sys.ss.Shard(c.shard).Now()
	}
	return c.sys.single.Now()
}

func (c *collideNode) keyBase() uint64 { return uint64(c.id+1) << 32 }

func (c *collideNode) post(dst *collideNode, at Time, key uint64, kind int32, arg int64) {
	s := c.sys
	if s.ss == nil {
		s.single.PostKeyed(at, key, dst, kind, arg, nil)
	} else if dst.shard == c.shard {
		s.ss.Shard(c.shard).PostKeyed(at, key, dst, kind, arg, nil)
	} else {
		s.ss.PostCross(c.shard, dst.shard, at, key, dst, kind, arg, nil)
	}
}

func (c *collideNode) HandleEvent(kind int32, arg int64, _ any) {
	s := c.sys
	s.traces[c.id] = append(s.traces[c.id], fmt.Sprintf("t=%d id=%d kind=%d arg=%d", c.now(), c.id, kind, arg))
	if kind != 0 || c.left <= 0 {
		return
	}
	c.left--
	now := c.now()
	at := now + s.look
	recv := s.nodes[0]
	// Descending key submission at one collision instant.
	c.post(recv, at, c.keyBase()|2, 2, int64(c.id))
	c.post(recv, at, c.keyBase()|1, 1, int64(c.id))
	c.post(c, now+s.period, c.keyBase(), 0, arg+1)
}

func runCollideTrace(t *testing.T, shards, workers int, rounds int) [][]string {
	t.Helper()
	const look, period = 8, 16
	s := &collideSys{look: look, period: period}
	if workers == 0 {
		s.single = &Scheduler{}
	} else {
		ss, err := NewSharded(shards, look, workers)
		if err != nil {
			t.Fatal(err)
		}
		s.ss = ss
		defer ss.Close()
	}
	// Node 0 is the receiver on shard 0; every other shard hosts one
	// lockstep sender.
	s.nodes = append(s.nodes, &collideNode{sys: s, id: 0, shard: 0})
	for sh := 1; sh < shards; sh++ {
		s.nodes = append(s.nodes, &collideNode{sys: s, id: sh, shard: sh, left: rounds})
	}
	s.traces = make([][]string, len(s.nodes))
	for _, n := range s.nodes[1:] {
		if s.ss == nil {
			s.single.PostKeyed(period, n.keyBase(), n, 0, 0, nil)
		} else {
			s.ss.Shard(n.shard).PostKeyed(period, n.keyBase(), n, 0, 0, nil)
		}
	}
	deadline := Time(rounds+4) * period
	if s.ss == nil {
		s.single.RunUntil(deadline)
	} else {
		s.ss.RunUntil(deadline)
	}
	return s.traces
}

// Same-time, different-key cross events from many shards into one — the
// worst case for the barrier's k-way merge — must land in exactly the
// single scheduler's (time, key) order at every worker count.
func TestShardedCollidingCrossOrder(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		ref := runCollideTrace(t, shards, 0, 120)
		if len(ref[0]) < 2*120 {
			t.Fatalf("shards=%d: receiver too quiet (%d events)", shards, len(ref[0]))
		}
		for _, workers := range []int{1, 2, 4, 8} {
			got := runCollideTrace(t, shards, workers, 120)
			for nd := range ref {
				if len(got[nd]) != len(ref[nd]) {
					t.Fatalf("shards=%d workers=%d node=%d: %d events vs %d single",
						shards, workers, nd, len(got[nd]), len(ref[nd]))
				}
				for i := range ref[nd] {
					if got[nd][i] != ref[nd][i] {
						t.Fatalf("shards=%d workers=%d node=%d: diverges at %d:\n  single:  %s\n  sharded: %s",
							shards, workers, nd, i, ref[nd][i], got[nd][i])
					}
				}
			}
		}
	}
}

// TestShardedPoolChurnSoak is the -race CI job's pooled-scheduler soak:
// window batching and barrier merges under GOMAXPROCS churn and colliding
// cross traffic, at full concurrency.
func TestShardedPoolChurnSoak(t *testing.T) {
	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	runChurnTrace(t, 8, 8, 5, 150000, []int{1, 8, 2, 8, 1, 4})
	runtime.GOMAXPROCS(orig)
	runCollideTrace(t, 8, 8, 200)
}

// Close must release the pool, and the scheduler must keep working after
// it (a fresh pool spins up on demand).
func TestShardedClose(t *testing.T) {
	ss, err := NewSharded(4, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	relay := newRelayRing(ss)
	ss.RunUntil(10000)
	if ss.pool == nil {
		t.Fatal("pool never started")
	}
	ss.Close()
	if ss.pool != nil {
		t.Fatal("pool survives Close")
	}
	ss.RunUntil(20000)
	if ss.pool == nil {
		t.Fatal("pool not recreated after Close")
	}
	if relay.total() == 0 {
		t.Fatal("relay ring never ran")
	}
	ss.Close()
	ss.Close() // idempotent
}

// relayRing seeds every shard with a self-perpetuating cross-relay to its
// neighbour at exactly the lookahead bound — the densest possible window
// cadence, with every window busy on all shards and every barrier
// carrying cross traffic. It is the pool's worst case and the gate
// benchmark's workload.
type relayRing struct {
	ss        *ShardedScheduler
	ringNodes []*relayNode
}

type relayNode struct {
	ring  *relayRing
	shard int
	hops  int64 // per-node, single-writer: only this shard's goroutine
}

func (r *relayNode) HandleEvent(kind int32, arg int64, _ any) {
	r.hops++
	ss := r.ring.ss
	next := (r.shard + 1) % ss.Shards()
	at := ss.Shard(r.shard).Now() + ss.Lookahead()
	ss.PostCross(r.shard, next, at, uint64(r.shard+1)<<32, r.ring.ringNodes[next], kind, arg+1, nil)
}

// total sums per-node hop counts; only valid between RunUntil calls.
func (rr *relayRing) total() int64 {
	var n int64
	for _, nd := range rr.ringNodes {
		n += nd.hops
	}
	return n
}

func newRelayRing(ss *ShardedScheduler) *relayRing {
	rr := &relayRing{ss: ss}
	rr.ringNodes = make([]*relayNode, ss.Shards())
	for i := range rr.ringNodes {
		rr.ringNodes[i] = &relayNode{ring: rr, shard: i}
	}
	for i := range rr.ringNodes {
		ss.Shard(i).PostKeyed(Time(1), uint64(i+1)<<32, rr.ringNodes[i], 0, 0, nil)
	}
	return rr
}

// Steady-state windows and barriers must be allocation-free: after warmup
// the relay ring's cross queues, merge scratch and scheduler lanes are all
// recycled, so a full window cadence runs at zero allocs per window.
func TestShardedWindowAllocs(t *testing.T) {
	ss, err := NewSharded(4, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	newRelayRing(ss)
	var deadline Time = 20000
	ss.RunUntil(deadline) // warm pool, queues, lanes
	const span = 5000     // ~1000 windows per run
	allocs := testing.AllocsPerRun(5, func() {
		deadline += span
		ss.RunUntil(deadline)
	})
	if allocs > 8 {
		t.Fatalf("sharded window steady state allocates: %.1f allocs per %d-window run", allocs, span/5)
	}
	t.Logf("steady-state allocs per ~%d windows: %.1f", span/5, allocs)
}

// BenchmarkShardedGate times the pool's parking gate on the relay ring:
// every op is ~200 windows, each waking workers, claiming four shards, and
// merging four cross queues. (The sync.Cond gate it used to be compared
// with lost on both 2-CPU rows — BENCH_15/16 — and is gone.)
func BenchmarkShardedGate(b *testing.B) {
	ss, err := NewSharded(4, 5, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer ss.Close()
	newRelayRing(ss)
	ss.RunUntil(1000)
	b.ReportAllocs()
	b.ResetTimer()
	deadline := Time(1000)
	for i := 0; i < b.N; i++ {
		deadline += 1000
		ss.RunUntil(deadline)
	}
}
