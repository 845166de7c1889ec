package des

import "sync/atomic"

// Pool task phases. The driver publishes the phase before opening the
// gate; workers read it inside the claim loop.
const (
	phaseWindow int32 = iota
	phaseFlush
)

// shardPool is the persistent worker pool behind ShardedScheduler. It is
// created once and reused for every window and barrier of every RunUntil:
// workers park on the gate — a buffered wake-token channel each, so the
// driver wakes exactly the workers a window needs with one send apiece —
// claim tasks from a shared atomic ticket until the window is drained, then
// park again. The driver always participates in the claim loop itself, so a
// pool of w-1 goroutines yields w-way concurrency.
//
// Memory-model notes, load-bearing for the race-free claim loop:
//
//   - The driver writes phase/tasks/target and the window scratch
//     (busy/horizons or flushDst/inbound) BEFORE opening the gate. The
//     gate open (a buffered channel send per woken worker) is the
//     happens-before edge that publishes those plain writes to the
//     workers it wakes.
//   - Workers that are not woken stay parked and touch nothing, so the
//     driver's resets of next/exited never race: between dispatches every
//     previously woken worker has incremented exited and gone back to the
//     gate, which is exactly what the driver's <-finished wait proves.
//   - exited is the completion edge back: each worker's shard-state writes
//     are synchronized-before its exited.Add, the adds chain through the
//     shared atomic, and the final add's channel send publishes the whole
//     window to the driver.
type shardPool struct {
	ss *ShardedScheduler

	// next is the claim ticket; task k of the window is busy[k] or
	// flushDst[k] depending on phase.
	next atomic.Int32
	// exited counts woken workers that have drained the claim loop.
	exited atomic.Int32
	// finished carries the last exiting worker's completion signal.
	finished chan struct{}
	stopped  atomic.Bool

	// Plain fields published via the gate-open happens-before edge.
	phase  int32
	tasks  int32
	target int32

	// The gate: one buffered wake token slot per worker.
	wake []chan struct{}
}

// newShardPool starts n daemon workers parked on the gate.
func newShardPool(ss *ShardedScheduler, n int) *shardPool {
	p := &shardPool{ss: ss, finished: make(chan struct{}, 1), wake: make([]chan struct{}, n)}
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, 1)
		go p.worker(i)
	}
	return p
}

// ensurePool lazily creates the pool the first time a window can use it.
func (ss *ShardedScheduler) ensurePool() {
	if ss.pool == nil {
		ss.pool = newShardPool(ss, ss.workers-1)
	}
}

// dispatch runs ntasks tasks of the given phase across the pool plus the
// calling driver, and returns when every task has completed and every
// woken worker has left the claim loop. Callers guarantee ntasks >= 2 and
// pool size >= 1.
func (p *shardPool) dispatch(phase int32, ntasks int) {
	p.phase = phase
	p.tasks = int32(ntasks)
	p.next.Store(0)
	// Wake exactly the workers this window can use; the rest stay parked.
	// The sends never block: a worker's token slot is always empty here,
	// because the previous dispatch waited for it to consume the token and
	// exit.
	w := min(len(p.wake), ntasks-1)
	p.target = int32(w)
	for i := 0; i < w; i++ {
		p.wake[i] <- struct{}{}
	}
	p.run()
	<-p.finished
	p.exited.Store(0)
}

// run is the claim loop: grab the next ticket, execute that task, repeat
// until the window is drained. It is executed by the driver and by every
// woken worker; tickets are unique, so each task runs exactly once.
func (p *shardPool) run() {
	ss := p.ss
	tasks := p.tasks
	if p.phase == phaseWindow {
		for {
			k := p.next.Add(1) - 1
			if k >= tasks {
				return
			}
			i := ss.busy[k]
			ss.shards[i].RunBefore(ss.horizons[i])
		}
	}
	for {
		k := p.next.Add(1) - 1
		if k >= tasks {
			return
		}
		ss.mergeInto(int(ss.flushDst[k]))
	}
}

// exit records a woken worker leaving the claim loop and signals the
// driver when it is the last one out. target is the worker count captured
// at wake time: reading p.target here instead would race with the
// driver's next dispatch (a delayed worker's post-Add read has no
// happens-before edge to the reset) and could match the wrong window.
func (p *shardPool) exit(target int32) {
	if p.exited.Add(1) == target {
		p.finished <- struct{}{}
	}
}

// worker parks on its own token slot and services one generation per
// token.
func (p *shardPool) worker(id int) {
	for range p.wake[id] {
		if p.stopped.Load() {
			return
		}
		target := p.target
		p.run()
		p.exit(target)
	}
}

// close wakes every parked worker into termination. Must not run
// concurrently with dispatch; between dispatches all workers are parked,
// so every token slot is empty and the sends cannot block.
func (p *shardPool) close() {
	p.stopped.Store(true)
	for i := range p.wake {
		p.wake[i] <- struct{}{}
	}
}
