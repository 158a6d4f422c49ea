package blob

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vclock"
)

// This file implements the asynchronous group-commit pipeline behind
// Writer.Commit. The paper's §3.1 folklore blames per-operation log and
// metadata forces for database write cost; group commit is the classic
// amortization: a committing writer enqueues onto its store's commit
// queue, a batcher coalesces the pending commits, the backend issues ONE
// group force for the whole batch, and each waiting writer gets its own
// typed error (or nil) fanned back. Semantics are unchanged — nothing is
// visible under a key before that key's Commit returns — only the force
// schedule moves.
//
// How long a batch stays open follows the classic commit_siblings rule:
// a batcher holds an underfull batch only while the store has open
// writers that have not queued their commit yet (SetOpenWriters minus
// the commits already in the pipeline), and maxDelay is the CEILING on
// that wait, not its default. A lone writer therefore flushes at once
// with a batch of one, as the synchronous path would, and k concurrent
// writers flush when the last visible sibling arrives, not when the
// clock runs out. The ceiling matters more than its value suggests: in
// an otherwise idle process Go's netpoller rounds a sub-millisecond
// timer wait up to 1 ms (runtime/netpoll_epoll.go: delay < 1e6 →
// waitms = 1), so a configured 200 µs used to cost every lone commit
// ≥ 1 ms of wall time.
//
// The pipeline has three stages:
//
//	Writer.Commit ──enqueue──▶ queue ──coalesce──▶ batcher ──▶ one group force
//	      ▲                                            │
//	      └────────── per-writer typed error ──────────┘
//
// Stores construct a GroupCommitter with backend begin/end hooks: the
// database engine defers its per-transaction log forces and issues one
// sequential log write per batch (db.Database.BeginGroup/EndGroup); the
// filesystem volume defers safe-write MFT/metadata forces, writes each
// touched metadata cluster once per batch, and flushes its metadata
// database's log once (fs.Volume.BeginBatch/EndBatch). A sharded store
// gives every child its own pipeline, so batches on different shards
// force in parallel.

// pendingCommit is one writer waiting in the commit queue. Instances
// are pooled: Do owns one from checkout until the done receive, after
// which it is reset and recycled — at high stream counts the two
// allocations per commit (struct + channel) were the single largest
// allocation site in the pipeline.
type pendingCommit struct {
	// apply performs the writer's commit work (publish, accounting)
	// with the backend's per-commit forces deferred to the group hooks.
	apply func() error
	// done receives the writer's own commit error exactly once per
	// checkout (buffered, so the flusher never blocks on fan-out).
	done chan error
	// enqueuedNs is the virtual enqueue time, stamped only when an
	// observer is installed.
	enqueuedNs int64
	// err holds the apply's result between the apply loop and the
	// fan-out (replacing a per-batch error slice).
	err error
}

// pcPool recycles pendingCommit structs (and their done channels)
// across commits and across stores.
var pcPool = sync.Pool{
	New: func() any { return &pendingCommit{done: make(chan error, 1)} },
}

// CommitObserver receives the pipeline's latency split: how long each
// commit waited in the queue before its batch began, and how long each
// batch's one group force took. Both in virtual nanoseconds. The
// observability layer (internal/obs) implements this; living here keeps
// blob free of an obs dependency. Implementations must be safe for
// calls from the batcher goroutine.
type CommitObserver interface {
	// ObserveQueueWait records one commit's virtual ns between enqueue
	// and the start of its batch.
	ObserveQueueWait(ns int64)
	// ObserveForce records one batch's group-force virtual ns and the
	// number of commits it covered.
	ObserveForce(ns int64, batch int)
}

// CommitStats counts pipeline activity for one store.
type CommitStats struct {
	// Commits is the number of writer commits processed (including
	// commits whose apply failed; they rode a batch regardless).
	Commits int64
	// Batches is the number of group forces issued — one per coalesced
	// batch, or one per commit when the pipeline runs synchronously.
	Batches int64
	// MaxBatch is the largest batch coalesced.
	MaxBatch int
}

// MeanBatch returns commits per group force — the amortization factor.
func (s CommitStats) MeanBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Commits) / float64(s.Batches)
}

// GroupCommitter is one store's commit pipeline. With batching enabled
// (maxBatch > 1) a small pool of background batchers gathers commits
// from per-batcher queues and a combining flusher issues the group
// forces; otherwise Do applies commits inline, byte-for-byte matching
// the pre-pipeline stores. Safe for concurrent use.
type GroupCommitter struct {
	maxBatch int
	maxDelay time.Duration
	begin    func() // backend hook: start deferring forces
	end      func() // backend hook: issue the one group force

	// batchers are the gathering stage: Do spreads enqueues across
	// their queues round-robin (rr), each batcher coalesces its own
	// stream of commits, and finished batches meet again in the
	// combining flusher below. One batcher per ~16 commits of maxBatch,
	// capped small — gathering is cheap; the engine under begin/end is
	// the serial section.
	batchers []*batcher
	rr       atomic.Uint64
	stop     chan struct{} // closed by Close to halt all batchers
	stopped  chan struct{} // closed once every batcher has drained

	// The combining flusher: whichever batcher submits a batch while no
	// flush is running becomes the flusher and keeps draining pend —
	// including batches submitted by OTHER batchers while it held the
	// backend bracket — until none remain. Brackets therefore never
	// overlap (the backends are single-threaded under the store mutex)
	// while concurrent batchers still combine into one force; at k=256
	// this is what pushes commits/force past maxBatch.
	pendMu   sync.Mutex
	pend     []*pendingCommit
	spare    []*pendingCommit // drained buffer, swapped back under pend
	flushing bool

	// observer and obsClock are set once via SetObserver before the
	// store serves traffic; nil observer records nothing.
	observer CommitObserver
	obsClock *vclock.Clock

	// openWriters (SetOpenWriters) is the store's count of writers
	// holding an uncommitted claim; queued counts the commits that are
	// in the pipeline and whose apply has not run yet. Their difference
	// is the number of siblings a gathering batcher may still wait for.
	openWriters func() int
	queued      atomic.Int64

	// closeMu orders enqueues against Close: Do sends while holding the
	// read side, Close flips closed under the write side before halting
	// the batchers, so a commit is either enqueued before the final
	// drain (and served by it) or sees closed and applies inline —
	// never stranded in a queue after the batchers exit.
	closeMu sync.RWMutex
	closed  bool
	once    sync.Once

	mu    sync.Mutex
	stats CommitStats
}

// batcher is one gathering goroutine with its own commit queue.
type batcher struct {
	gc    *GroupCommitter
	queue chan *pendingCommit
	// wake is poked (never blocking, hence the one-slot buffer) after
	// every counted enqueue, on any batcher's queue: the sibling this
	// batcher is holding its batch open for may have arrived elsewhere.
	wake chan struct{}
}

// batcherCount sizes the gathering pool for a given maxBatch: one
// batcher per 16 commits of configured batch, between 1 and 4. The pool
// deliberately stays small — the backend bracket is serial, so extra
// batchers only help keep gathering off the flusher's critical path.
func batcherCount(maxBatch int) int { return min(max(maxBatch/16, 1), 4) }

// NewGroupCommitter builds a commit pipeline. maxBatch is the largest
// group one batcher coalesces before submitting (combined forces may
// cover more; see CommitStats.MaxBatch); maxBatch <= 1 disables
// batching and commits synchronously. maxDelay is the longest a batcher
// holds an underfull batch open for writers that are open but have not
// queued their commit (see SetOpenWriters; without that callback, or
// with no such writer, a batch never waits); 0 coalesces only commits
// already queued. begin and end bracket each group force on the
// backend.
func NewGroupCommitter(maxBatch int, maxDelay time.Duration, begin, end func()) *GroupCommitter {
	gc := &GroupCommitter{maxBatch: maxBatch, maxDelay: maxDelay, begin: begin, end: end}
	if maxBatch > 1 {
		gc.stop = make(chan struct{})
		gc.stopped = make(chan struct{})
		n := batcherCount(maxBatch)
		// Per-batcher gather target: the pool together still coalesces
		// up to maxBatch commits per wave, each batcher gathering its
		// share before handing off to the combining flusher.
		per := maxBatch / n
		if per < 2 {
			per = 2
		}
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			// The queue holds four gather targets, so writers keep
			// enqueueing while a flush is in progress.
			b := &batcher{gc: gc, queue: make(chan *pendingCommit, 4*per), wake: make(chan struct{}, 1)}
			gc.batchers = append(gc.batchers, b)
			wg.Add(1)
			go func() {
				defer wg.Done()
				b.run(per)
			}()
		}
		go func() {
			wg.Wait()
			close(gc.stopped)
		}()
	}
	return gc
}

// Batching reports whether commits are coalesced asynchronously.
func (gc *GroupCommitter) Batching() bool { return len(gc.batchers) > 0 }

// SetObserver installs a pipeline latency observer timed on the given
// virtual clock. Call before the store serves traffic (the store
// constructors do); not synchronized against in-flight commits. The
// synchronous path (Batching false) has no queue and no group force,
// so it reports nothing.
func (gc *GroupCommitter) SetObserver(clock *vclock.Clock, o CommitObserver) {
	gc.observer = o
	gc.obsClock = clock
}

// SetOpenWriters installs the store's sibling count: fn reports how
// many writers currently hold an uncommitted claim, including those
// whose commit is already queued here (the pipeline subtracts them).
// A writer that failed its apply, or crashed mid-commit, stays counted
// until the store releases its claim (Abort, Recover), so a batch can
// wait for it — never longer than maxDelay. Call before the store
// serves traffic; fn runs on batcher goroutines with no pipeline lock
// held.
func (gc *GroupCommitter) SetOpenWriters(fn func() int) { gc.openWriters = fn }

// siblings is the number of open writers that have not queued their
// commit. It may undercount for a moment (a successful apply releases
// the store's claim before queued drops), which only closes a batch
// early, or overcount (a commit is queued before it is counted), which
// the poke that follows the count corrects.
func (gc *GroupCommitter) siblings() int {
	if gc.openWriters == nil {
		return 0
	}
	return gc.openWriters() - int(gc.queued.Load())
}

// Do routes one writer's commit through the pipeline and returns that
// writer's own error. It blocks until the commit is durable (its batch's
// group force has been issued), so Commit keeps its synchronous
// contract: nothing is visible before Do returns, and after a failed
// apply the writer is still open for Abort.
func (gc *GroupCommitter) Do(apply func() error) error {
	if len(gc.batchers) == 0 {
		err := apply()
		gc.record(1)
		return err
	}
	gc.closeMu.RLock()
	if gc.closed {
		gc.closeMu.RUnlock()
		// Wait for the batchers to finish their final drain before
		// applying inline: until they exit, a begin/end bracket may be
		// open on the backend, and an inline commit running inside it
		// would get its forces deferred into someone else's batch —
		// returning before they are issued. After stopped, no bracket
		// exists and the inline apply forces its own records immediately.
		<-gc.stopped
		err := apply()
		gc.record(1)
		return err
	}
	pc := pcPool.Get().(*pendingCommit)
	pc.apply = apply
	if gc.observer != nil {
		pc.enqueuedNs = gc.obsClock.Now()
	}
	// Round-robin across the batcher queues. The send may block on a
	// full queue, but only while that batcher is alive and draining:
	// Close cannot proceed past closeMu until this read lock is
	// released.
	b := gc.batchers[gc.rr.Add(1)%uint64(len(gc.batchers))]
	b.queue <- pc
	gc.closeMu.RUnlock()
	// Count the commit only once it is in the queue, then poke every
	// batcher: one that is holding a batch open — for this very writer,
	// if it received pc before the count moved, or for a sibling that
	// landed on another batcher's queue — re-counts after the poke.
	// Counting before the send would let a batcher see "no sibling
	// left" while this commit is still on its way in, and close early.
	gc.queued.Add(1)
	for _, o := range gc.batchers {
		select {
		case o.wake <- struct{}{}:
		default:
		}
	}
	err := <-pc.done
	pc.apply = nil
	pc.enqueuedNs = 0
	pc.err = nil
	pcPool.Put(pc)
	return err
}

// Close drains the queues and stops the batchers. Commits issued after
// Close apply synchronously, so a closed store's writers still work.
func (gc *GroupCommitter) Close() {
	if len(gc.batchers) == 0 {
		return
	}
	gc.once.Do(func() {
		gc.closeMu.Lock()
		gc.closed = true
		gc.closeMu.Unlock()
		close(gc.stop)
		<-gc.stopped
	})
}

// Stats returns a snapshot of the pipeline counters.
func (gc *GroupCommitter) Stats() CommitStats {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.stats
}

// record counts one flushed batch of n commits.
func (gc *GroupCommitter) record(n int) {
	gc.mu.Lock()
	gc.stats.Commits += int64(n)
	gc.stats.Batches++
	if n > gc.stats.MaxBatch {
		gc.stats.MaxBatch = n
	}
	gc.mu.Unlock()
}

// run is one batcher: it blocks for the first pending commit on its own
// queue, coalesces up to per-1 more, and submits the batch to the
// combining flusher. On Close it drains whatever is still queued, then
// exits; stopped closes once every batcher in the pool has drained, so
// late Do calls fall back to synchronous commits only after no bracket
// can be open.
//
// Each batcher owns ONE maxDelay timer for its whole lifetime. The
// timer only runs while a batch is held open for an outstanding sibling
// — gather arms it at most once per batch and disarms it (stopping AND
// draining the fired tick) on every exit path where it did not fire, so
// an idle store can never carry a stale tick into the next batch.
// Without the drain, a tick that fired between batches would truncate
// the next batch's wait to zero: a stale "the delay elapsed" flush for
// a delay that never ran.
func (b *batcher) run(per int) {
	gc := b.gc
	var timer *time.Timer
	if gc.maxDelay > 0 {
		//fragvet:ignore vclockpurity the batcher's max-delay flush is real scheduling latency between goroutines, not simulated disk time
		timer = time.NewTimer(gc.maxDelay)
		stopTimer(timer)
		defer timer.Stop()
	}
	// The gather batch is reused across waves: submit hands the commits
	// to the flusher's pend list, so the backing array is free again by
	// the time gather refills it.
	batch := make([]*pendingCommit, 0, per)
	for {
		select {
		case pc := <-b.queue:
			gc.submit(b.gather(batch[:0], pc, per, timer))
		case <-gc.stop:
			for {
				select {
				case pc := <-b.queue:
					// Final drain: coalesce without the timer (stop has
					// fired; nothing should wait on wall time anymore).
					gc.submit(b.gather(batch[:0], pc, per, nil))
				default:
					return
				}
			}
		}
	}
}

// stopTimer disarms t between batches: Stop, plus a drain of the fired
// tick when Stop came too late. Only the batcher goroutine touches the
// timer, so the classic Stop/drain race pattern applies cleanly.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// gather coalesces queued commits behind first into batch (reused
// storage). It takes whatever is queued without blocking, then holds
// the underfull batch open only while a sibling is outstanding (and a
// timer exists: maxDelay > 0, not the final drain), re-counting after
// every arrival; the timer is armed at the first such wait, bounds the
// whole gather, and is always disarmed by exit. With no sibling left it
// yields the processor once and takes what that brought in: on a single
// P an enqueue readies the batcher ahead of every other runnable
// writer, so without the yield it would always find itself alone and
// k concurrent writers would never coalesce.
func (b *batcher) gather(batch []*pendingCommit, first *pendingCommit, per int, timer *time.Timer) []*pendingCommit {
	gc := b.gc
	batch = append(batch, first)
	armed, yielded := false, false
	for len(batch) < per {
		select {
		case pc := <-b.queue:
			batch = append(batch, pc)
			continue
		default:
		}
		if timer != nil && gc.siblings() > 0 {
			if !armed {
				timer.Reset(gc.maxDelay)
				armed = true
			}
			select {
			case pc := <-b.queue:
				batch = append(batch, pc)
			case <-b.wake:
			case <-timer.C:
				// The tick was consumed; the timer is already disarmed.
				return batch
			case <-gc.stop:
				stopTimer(timer)
				return batch
			}
			continue
		}
		if yielded {
			break
		}
		yielded = true
		runtime.Gosched()
	}
	if armed {
		stopTimer(timer)
	}
	return batch
}

// submit hands a gathered batch to the combining flusher. Exactly one
// submitter flushes at a time: the first to arrive takes the flushing
// flag and keeps draining pend — batches landed by other batchers while
// it held the backend bracket ride its next force — until the list is
// empty. The others return immediately; their writers' errors fan back
// through the done channels when the active flusher reaches them.
func (gc *GroupCommitter) submit(batch []*pendingCommit) {
	gc.pendMu.Lock()
	gc.pend = append(gc.pend, batch...)
	if gc.flushing {
		gc.pendMu.Unlock()
		return
	}
	gc.flushing = true
	// pend and spare flip-flop: the drained buffer becomes the next
	// accumulation buffer, so steady-state submission never reallocates.
	for len(gc.pend) > 0 {
		work := gc.pend
		gc.pend = gc.spare[:0]
		gc.pendMu.Unlock()
		gc.flush(work)
		gc.pendMu.Lock()
		gc.spare = work[:0]
	}
	gc.flushing = false
	gc.pendMu.Unlock()
}

// flush applies every commit in the batch inside one begin/end bracket
// — the single group force — then fans each writer its own error. One
// writer's failure (no space, metadata full) never poisons the rest of
// the batch. Only the combining flusher calls this, so brackets never
// overlap on the backend.
func (gc *GroupCommitter) flush(batch []*pendingCommit) {
	if gc.observer != nil {
		now := gc.obsClock.Now()
		for _, pc := range batch {
			gc.observer.ObserveQueueWait(now - pc.enqueuedNs)
		}
	}
	gc.begin()
	for _, pc := range batch {
		pc.err = pc.apply()
		gc.queued.Add(-1)
	}
	var forceStart int64
	if gc.observer != nil {
		forceStart = gc.obsClock.Now()
	}
	gc.end()
	if gc.observer != nil {
		gc.observer.ObserveForce(gc.obsClock.Now()-forceStart, len(batch))
	}
	gc.record(len(batch))
	for _, pc := range batch {
		pc.done <- pc.err
	}
}

// CommitStatsOf returns the group-commit pipeline counters of the first
// layer of s's chain that keeps them (both core backends and the
// sharded store do).
func CommitStatsOf(s Store) (CommitStats, bool) {
	cs, ok := As[interface{ CommitStats() CommitStats }](s)
	if !ok {
		return CommitStats{}, false
	}
	return cs.CommitStats(), true
}

// CloseStore shuts down the commit pipeline of the first layer of s's
// chain that has one. Stores remain usable after Close (commits turn
// synchronous); closing is about releasing the batcher goroutine.
func CloseStore(s Store) error {
	if c, ok := As[io.Closer](s); ok {
		return c.Close()
	}
	return nil
}
