package blob

import (
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vclock"
)

// This file implements the group-commit pipeline behind Writer.Commit.
// The paper's §3.1 folklore blames per-operation log and metadata forces
// for database write cost; group commit is the classic amortization: the
// backend issues ONE group force for a batch of commits, and each waiting
// writer gets its own typed error (or nil) back. Nothing is visible under
// a key before that key's Commit returns; only the force schedule moves.
//
// The committer runs no goroutine of its own (leader/follower group
// commit). A committer that finds no batch being led becomes the leader:
// it gathers, then applies and forces every queued commit on its own
// goroutine until none is pending. One that arrives while a batch is led
// is a follower: it queues, pokes the leader and waits for its error.
//
//	Writer.Commit ──queue──▶ pend ──gather──▶ leader ──▶ one group force
//	      ▲                                      │
//	      └────────── per-writer typed error ────┘
//
// A batch stays open by the commit_siblings rule: the leader holds an
// underfull batch only while the store has open writers that have not
// queued their commit yet (SetOpenWriters minus the queued commits), and
// maxDelay is the CEILING on that wait, not its default. A lone writer
// flushes at once with a batch of one, and k concurrent writers flush
// when the last visible sibling arrives. The ceiling matters more than
// its value suggests: in an otherwise idle process Go's netpoller rounds
// a sub-millisecond timer wait up to 1 ms (runtime/netpoll_epoll.go:
// delay < 1e6 → waitms = 1), so a 200 µs ceiling costs 1 ms when reached.
//
// The backends' begin/end hooks: the database engine defers its
// per-transaction log forces and writes its log once per batch
// (db.Database.BeginGroup/EndGroup); the filesystem volume defers
// safe-write MFT/metadata forces, writes each touched metadata cluster
// once and flushes its metadata database's log once per batch
// (fs.Volume.BeginBatch/EndBatch). A sharded store gives every child its
// own committer, so batches on different shards force in parallel.

// pendingCommit is one writer's queued commit. Do owns a pooled one from
// checkout until the done receive: at high stream counts the struct and
// channel per commit were the pipeline's largest allocation site.
type pendingCommit struct {
	// apply performs the writer's commit work (publish, accounting)
	// with the backend's per-commit forces deferred to the group hooks.
	apply func() error
	// done receives the writer's own commit error exactly once per
	// checkout (buffered, so the leader never blocks on fan-out).
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
// calls from any committing goroutine (the leader of a batch).
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

// GroupCommitter is one store's commit pipeline. With maxBatch > 1
// committers take turns leading batches; otherwise Do applies commits
// inline, as the pre-pipeline stores did. Safe for concurrent use.
type GroupCommitter struct {
	maxBatch int
	maxDelay time.Duration
	begin    func() // backend hook: start deferring forces
	end      func() // backend hook: issue the one group force

	// mu guards the fields below it up to arrived. pend holds the queued
	// commits; spare is the buffer the leader drained last, swapped back
	// in so queueing never reallocates.
	mu      sync.Mutex
	pend    []*pendingCommit
	spare   []*pendingCommit
	leading bool // a committer is gathering or flushing
	stats   CommitStats

	// arrived is poked (never blocking, hence the one slot) by every
	// follower after it queued: the sibling a leader is holding its
	// batch open for may be the one that just arrived.
	arrived chan struct{}
	// timer is the maxDelay ceiling on a leader's gather; only the leader
	// touches it. Every gather leaves it stopped, and since Go 1.23 a
	// stopped timer delivers no stale tick to the next batch.
	timer *time.Timer

	// observer and obsClock are set once via SetObserver before the
	// store serves traffic; nil observer records nothing.
	observer CommitObserver
	obsClock *vclock.Clock

	// openWriters (SetOpenWriters) is the store's count of writers
	// holding an uncommitted claim; queued counts the commits that are
	// in pend or being flushed and whose apply has not run yet. Their
	// difference is the number of siblings a leader may still wait for.
	openWriters func() int
	queued      atomic.Int64
}

// NewGroupCommitter builds a commit pipeline. maxBatch is the size at
// which a leader stops gathering and flushes (commits that queue during
// a force ride the next one, so a force may cover more; see
// CommitStats.MaxBatch); maxBatch <= 1 disables batching and commits
// synchronously. maxDelay is the longest a leader holds an underfull
// batch open for writers that are open but have not queued their commit
// (see SetOpenWriters; without that callback, or with no such writer, a
// batch never waits); 0 coalesces only commits already queued. begin
// and end bracket each group force on the backend.
func NewGroupCommitter(maxBatch int, maxDelay time.Duration, begin, end func()) *GroupCommitter {
	gc := &GroupCommitter{maxBatch: maxBatch, maxDelay: maxDelay, begin: begin, end: end,
		arrived: make(chan struct{}, 1)}
	if maxBatch > 1 && maxDelay > 0 {
		//fragvet:ignore vclockpurity the max-delay ceiling bounds real scheduling latency between committing goroutines, not simulated disk time
		gc.timer = time.NewTimer(maxDelay)
		gc.timer.Stop()
	}
	return gc
}

// SetObserver installs a pipeline latency observer timed on the given
// virtual clock. Call before the store serves traffic (the store
// constructors do). The synchronous path (maxBatch <= 1) has no queue
// and no group force, so it reports nothing.
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
// serves traffic; fn runs on a leader with no pipeline lock held.
func (gc *GroupCommitter) SetOpenWriters(fn func() int) { gc.openWriters = fn }

// siblings is the number of open writers that have not queued their
// commit. It may undercount for a moment (a successful apply releases
// the store's claim before queued drops), which only closes a batch
// early, or overcount (a sibling queues between the two reads), which
// its poke corrects.
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
// apply the writer is still open for Abort. The caller may be made the
// leader, in which case Do also applies, forces and answers the commits
// of other callers before it returns.
func (gc *GroupCommitter) Do(apply func() error) error {
	if gc.maxBatch <= 1 {
		err := apply()
		gc.record(1)
		return err
	}
	pc := pcPool.Get().(*pendingCommit)
	pc.apply = apply
	if gc.observer != nil {
		pc.enqueuedNs = gc.obsClock.Now()
	}
	gc.mu.Lock()
	gc.pend = append(gc.pend, pc)
	// Counted with the queue, never ahead of it (see siblings).
	gc.queued.Add(1)
	lead := !gc.leading
	gc.leading = true
	gc.mu.Unlock()
	if lead {
		gc.lead()
	} else {
		select {
		case gc.arrived <- struct{}{}:
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

// lead is the leader's turn: gather, then flush until nothing is
// pending. Commits that queue while a force is in progress ride the next
// force, in one bracket. The leader gives the role up in the same
// critical section as its last empty check, so a commit either lands in
// pend before that check (and is flushed here) or finds no leader and
// leads itself — never stranded in between.
func (gc *GroupCommitter) lead() {
	gc.gather()
	gc.mu.Lock()
	for len(gc.pend) > 0 {
		work := gc.pend
		gc.pend = gc.spare[:0]
		gc.mu.Unlock()
		gc.flush(work)
		gc.mu.Lock()
		gc.spare = work[:0]
	}
	gc.leading = false
	gc.mu.Unlock()
}

// gather holds the batch open until it reaches maxBatch or no sibling is
// outstanding. While a sibling is outstanding (and maxDelay > 0) it
// waits for an arrival, re-counting after each; the timer is armed at
// the first such wait, bounds the whole gather, and is disarmed on every
// exit. With no sibling left it yields the processor once and counts
// what that brought in: on a single P a writer that queues behind a
// runnable leader would otherwise never run before the flush, and k
// concurrent writers would never coalesce.
func (gc *GroupCommitter) gather() {
	armed, yielded := false, false
	for {
		gc.mu.Lock()
		n := len(gc.pend)
		gc.mu.Unlock()
		if n >= gc.maxBatch {
			break
		}
		// siblings calls back into the store with no committer lock held.
		if gc.timer != nil && gc.siblings() > 0 {
			if !armed {
				gc.timer.Reset(gc.maxDelay)
				armed = true
			}
			select {
			case <-gc.arrived:
				continue
			case <-gc.timer.C:
				// The tick was consumed; the timer is already disarmed.
				return
			}
		}
		if yielded {
			break
		}
		yielded = true
		runtime.Gosched()
	}
	if armed {
		gc.timer.Stop()
	}
}

// flush applies every commit in the batch inside one begin/end bracket
// — the single group force — then fans each writer its own error. One
// writer's failure (no space, metadata full) never poisons the rest of
// the batch. Only the leader calls this, so brackets never overlap on
// the backend.
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

// CloseStore closes the first layer of s's chain that is an io.Closer.
// No store this module builds has one (the committer runs no goroutine);
// the benchmark module still calls it.
func CloseStore(s Store) error {
	if c, ok := As[io.Closer](s); ok {
		return c.Close()
	}
	return nil
}
