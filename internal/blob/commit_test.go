package blob

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hookCounter counts begin/end bracket pairs around batches.
type hookCounter struct {
	mu          sync.Mutex
	begins      int
	ends        int
	openDepth   int
	sawImproper bool
}

func (h *hookCounter) begin() {
	h.mu.Lock()
	h.begins++
	h.openDepth++
	if h.openDepth != 1 {
		h.sawImproper = true
	}
	h.mu.Unlock()
}

func (h *hookCounter) end() {
	h.mu.Lock()
	h.ends++
	h.openDepth--
	if h.openDepth != 0 {
		h.sawImproper = true
	}
	h.mu.Unlock()
}

// TestSynchronousCommitter pins the disabled pipeline: maxBatch <= 1
// applies inline without hooks, recording batches of one.
func TestSynchronousCommitter(t *testing.T) {
	h := &hookCounter{}
	gc := NewGroupCommitter(1, 0, h.begin, h.end)
	if gc.Batching() {
		t.Fatal("maxBatch=1 should not batch")
	}
	for i := 0; i < 5; i++ {
		if err := gc.Do(func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if h.begins != 0 || h.ends != 0 {
		t.Fatalf("synchronous mode ran hooks: %d/%d", h.begins, h.ends)
	}
	st := gc.Stats()
	if st.Commits != 5 || st.Batches != 5 || st.MaxBatch != 1 {
		t.Fatalf("stats = %+v", st)
	}
	gc.Close() // no-op
}

// TestBatcherCoalescesConcurrentCommits pins the pipeline shape without
// racing a timer: n writers are open before the first commit, so the
// batcher holds its batch for exactly those siblings and closes it when
// the last one arrives — ONE batch, bracketed by one begin/end pair,
// long before the multi-second ceiling — and every commit's own error
// comes back to it.
func TestBatcherCoalescesConcurrentCommits(t *testing.T) {
	h := &hookCounter{}
	const n = 8
	const ceiling = 5 * time.Second
	gc := NewGroupCommitter(n, ceiling, h.begin, h.end)
	defer gc.Close()
	if !gc.Batching() {
		t.Fatal("pipeline should batch")
	}
	var open atomic.Int64
	gc.SetOpenWriters(func() int { return int(open.Load()) })
	open.Store(n) // every writer is open before anyone commits
	boom := errors.New("boom")
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = gc.Do(func() error {
				if i%6 == 0 {
					return boom // a failed apply leaves its writer open
				}
				open.Add(-1)
				return nil
			})
		}(i)
	}
	wg.Wait()
	if d := time.Since(start); d > ceiling/10 {
		t.Errorf("%d sibling commits took %v: the batch waited on the %v timer", n, d, ceiling)
	}
	for i, err := range errs {
		if i%6 == 0 && !errors.Is(err, boom) {
			t.Fatalf("commit %d = %v, want its own boom", i, err)
		}
		if i%6 != 0 && err != nil {
			t.Fatalf("commit %d = %v", i, err)
		}
	}
	if st := gc.Stats(); st.Commits != n || st.Batches != 1 || st.MaxBatch != n {
		t.Fatalf("stats = %+v, want %d commits in one batch", st, n)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sawImproper || h.begins != 1 || h.ends != 1 {
		t.Fatalf("hook bracketing wrong: begins=%d ends=%d improper=%v", h.begins, h.ends, h.sawImproper)
	}
}

// TestLoneCommitFlushesAtOnce pins the other half of the wait rule at
// the pipeline itself: with no sibling open (or no sibling callback at
// all) a commit never touches the timer, and a writer count that went
// stale — a failed apply nobody aborted — costs later commits at most
// maxDelay, never more.
func TestLoneCommitFlushesAtOnce(t *testing.T) {
	const ceiling = 5 * time.Second
	for _, withCallback := range []bool{false, true} {
		gc := NewGroupCommitter(8, ceiling, func() {}, func() {})
		if withCallback {
			gc.SetOpenWriters(func() int { return 1 })
		}
		start := time.Now()
		for i := 0; i < 3; i++ {
			if err := gc.Do(func() error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
		if d := time.Since(start); d > ceiling/10 {
			t.Errorf("callback=%v: three lone commits took %v", withCallback, d)
		}
		if st := gc.Stats(); st.Commits != 3 || st.Batches != 3 {
			t.Errorf("callback=%v: stats = %+v, want three batches of one", withCallback, st)
		}
		gc.Close()
	}

	const short = 20 * time.Millisecond
	gc := NewGroupCommitter(8, short, func() {}, func() {})
	defer gc.Close()
	gc.SetOpenWriters(func() int { return 2 }) // this writer plus a stale claim
	start := time.Now()
	if err := gc.Do(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < short || d > ceiling/10 {
		t.Errorf("commit beside a stale claim took %v, want about the %v ceiling", d, short)
	}
}

// TestCommitterCloseDrainsAndStaysUsable pins shutdown: Close waits for
// queued commits, and later commits fall back to synchronous mode.
func TestCommitterCloseDrainsAndStaysUsable(t *testing.T) {
	h := &hookCounter{}
	gc := NewGroupCommitter(4, time.Millisecond, h.begin, h.end)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := gc.Do(func() error { return nil }); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	gc.Close()
	gc.Close() // idempotent
	if err := gc.Do(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if st := gc.Stats(); st.Commits != 9 {
		t.Fatalf("commits = %d, want 9", st.Commits)
	}
}

// TestDoCloseRaceNeverStrands hammers Do against Close: every commit
// must return (served by the batcher's final drain or applied inline),
// never strand in the queue after the batcher exits.
func TestDoCloseRaceNeverStrands(t *testing.T) {
	for round := 0; round < 50; round++ {
		gc := NewGroupCommitter(4, 0, func() {}, func() {})
		const n = 16
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := gc.Do(func() error { return nil }); err != nil {
					t.Error(err)
				}
			}()
		}
		gc.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: commits stranded after Close", round)
		}
		if st := gc.Stats(); st.Commits != n {
			t.Fatalf("round %d: %d commits recorded, want %d", round, st.Commits, n)
		}
	}
}

// TestIdleBatcherNoStaleTimerFlush is the regression test for the
// batcher's maxDelay timer lifetime: the batcher reuses ONE timer
// across batches, so a tick left armed (or fired and undrained) after
// one batch could poison the next. It pins that (a) an idle pipeline
// issues no flush at all — the timer only runs while a batch is being
// gathered, so idling can never force a stale empty flush — and (b)
// commits arriving after long idle gaps still form well-formed batches:
// every flush carries at least one commit (Batches <= Commits) and
// every commit is acknowledged exactly once.
func TestIdleBatcherNoStaleTimerFlush(t *testing.T) {
	h := &hookCounter{}
	gc := NewGroupCommitter(4, time.Millisecond, h.begin, h.end)
	defer gc.Close()
	// A phantom sibling that never commits: every round's underfull
	// batch is held open and closed by the timer firing, the path whose
	// leftover tick this test is about.
	gc.SetOpenWriters(func() int { return 4 })

	// Idle well past several maxDelay periods: no batch may form.
	time.Sleep(10 * time.Millisecond)
	if st := gc.Stats(); st.Batches != 0 || st.Commits != 0 {
		t.Fatalf("idle pipeline flushed: %+v", st)
	}

	// Rounds of commits separated by idle gaps longer than maxDelay —
	// the window where a stale tick from the previous batch would fire
	// a fresh gather instantly.
	const rounds, perRound = 5, 3
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for i := 0; i < perRound; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := gc.Do(func() error { return nil }); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		time.Sleep(3 * time.Millisecond)
	}

	st := gc.Stats()
	if st.Commits != rounds*perRound {
		t.Fatalf("commits = %d, want %d", st.Commits, rounds*perRound)
	}
	// An empty (stale-tick) flush would record a zero-commit batch,
	// pushing Batches past Commits; a healthy pipeline never can.
	if st.Batches > st.Commits || st.Batches == 0 {
		t.Fatalf("batch ledger wrong: %d batches for %d commits", st.Batches, st.Commits)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sawImproper || h.begins != h.ends || int64(h.begins) != st.Batches {
		t.Fatalf("hook bracketing wrong after idle gaps: begins=%d ends=%d batches=%d improper=%v",
			h.begins, h.ends, st.Batches, h.sawImproper)
	}
}
