package blob

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
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
}

// TestBatcherCoalescesConcurrentCommits pins the pipeline shape without
// racing a timer: n writers are open before the first commit, so the
// leader holds its batch for exactly those siblings and closes it when
// the last one arrives — ONE batch, bracketed by one begin/end pair,
// long before the multi-second ceiling — and every commit's own error
// comes back to it.
func TestBatcherCoalescesConcurrentCommits(t *testing.T) {
	h := &hookCounter{}
	const n = 8
	const ceiling = 5 * time.Second
	gc := NewGroupCommitter(n, ceiling, h.begin, h.end)
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
	}

	const short = 20 * time.Millisecond
	gc := NewGroupCommitter(8, short, func() {}, func() {})
	gc.SetOpenWriters(func() int { return 2 }) // this writer plus a stale claim
	start := time.Now()
	if err := gc.Do(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < short || d > ceiling/10 {
		t.Errorf("commit beside a stale claim took %v, want about the %v ceiling", d, short)
	}
}

// TestCommitterRunsNoGoroutine pins that group commit is led by the
// committing callers themselves: once a burst of concurrent commits has
// returned, no goroutine is left running pipeline code.
func TestCommitterRunsNoGoroutine(t *testing.T) {
	gc := NewGroupCommitter(8, time.Millisecond, func() {}, func() {})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := gc.Do(func() error { return nil }); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// The burst's goroutines may still be unwinding; give them a moment.
	var stacks []string
	for try := 0; try < 100; try++ {
		stacks = pipelineGoroutines()
		if len(stacks) == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%d goroutine(s) still run pipeline code after every commit returned:\n\n%s",
		len(stacks), strings.Join(stacks, "\n\n"))
}

// pipelineGoroutines returns the stacks of goroutines, other than the
// test driver's, that have a frame in this package.
func pipelineGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "repro/internal/blob.") &&
			!strings.Contains(g, "testing.tRunner") && !strings.Contains(g, "testing.(*M).Run") {
			out = append(out, g)
		}
	}
	return out
}

// TestLeaderFlushesWhatQueuedDuringItsForce pins the leader's flush
// loop: commits that queue while the leader's bracket is open all ride
// its next force — one bracket, even past maxBatch — and each follower
// gets its own error back.
func TestLeaderFlushesWhatQueuedDuringItsForce(t *testing.T) {
	h := &hookCounter{}
	gc := NewGroupCommitter(8, 0, h.begin, h.end)
	entered, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		leaderDone <- gc.Do(func() error {
			close(entered)
			<-release
			return nil
		})
	}()
	<-entered
	const followers = 12
	own := make([]error, followers)
	got := make([]error, followers)
	var wg sync.WaitGroup
	for i := range own {
		own[i] = fmt.Errorf("follower %d", i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = gc.Do(func() error { return own[i] })
		}(i)
	}
	// The leader's commit is still counted: its apply has not returned.
	for gc.queued.Load() != followers+1 {
		runtime.Gosched()
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, err := range got {
		if err != own[i] {
			t.Errorf("follower %d got %v, want its own error", i, err)
		}
	}
	if st := gc.Stats(); st.Commits != followers+1 || st.Batches != 2 || st.MaxBatch != followers {
		t.Errorf("stats = %+v, want the leader's batch of 1 then one batch of %d", st, followers)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.sawImproper || h.begins != 2 || h.ends != 2 {
		t.Errorf("brackets: begins=%d ends=%d improper=%v, want 2", h.begins, h.ends, h.sawImproper)
	}
}

// TestDoNeverStrands runs seeded rounds of concurrent commits, some of
// whose applies fail, with and without a maxDelay ceiling and with a
// store-like open-writer count (a failed writer stays open until its
// caller gives up on it). Every commit must return exactly its own
// error, every apply must run exactly once inside one open bracket,
// brackets must never overlap, and the counters must see every call.
func TestDoNeverStrands(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 60; round++ {
		delay := time.Duration(round%2) * time.Millisecond
		h := &hookCounter{}
		gc := NewGroupCommitter(2+rng.Intn(8), delay, h.begin, h.end)
		var open atomic.Int64
		gc.SetOpenWriters(func() int { return int(open.Load()) })
		n := 1 + rng.Intn(24)
		fail := make([]bool, n)
		for i := range fail {
			fail[i] = rng.Intn(4) == 0
		}
		applies := make([]atomic.Int32, n)
		var outside atomic.Int32
		var wg sync.WaitGroup
		open.Store(int64(n))
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				own := fmt.Errorf("commit %d", i)
				err := gc.Do(func() error {
					applies[i].Add(1)
					h.mu.Lock()
					if h.openDepth != 1 {
						outside.Add(1)
					}
					h.mu.Unlock()
					if fail[i] {
						return own
					}
					open.Add(-1)
					return nil
				})
				if fail[i] {
					open.Add(-1) // the caller aborts its failed writer
					if err != own {
						t.Errorf("round %d: failed commit %d got %v, want its own error", round, i, err)
					}
				} else if err != nil {
					t.Errorf("round %d: commit %d got %v", round, i, err)
				}
			}(i)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: commits stranded", round)
		}
		for i := range applies {
			if c := applies[i].Load(); c != 1 {
				t.Fatalf("round %d: commit %d applied %d times", round, i, c)
			}
		}
		if c := outside.Load(); c != 0 {
			t.Fatalf("round %d: %d applies ran outside one open bracket", round, c)
		}
		if st := gc.Stats(); st.Commits != int64(n) {
			t.Fatalf("round %d: %d commits recorded, want %d", round, st.Commits, n)
		}
		h.mu.Lock()
		if h.sawImproper || h.begins != h.ends || int64(h.begins) != gc.Stats().Batches {
			t.Fatalf("round %d: brackets begins=%d ends=%d batches=%d improper=%v",
				round, h.begins, h.ends, gc.Stats().Batches, h.sawImproper)
		}
		h.mu.Unlock()
	}
}

// TestIdleLeaderNoStaleTimerFlush is the regression test for the
// leader's maxDelay timer lifetime: every leader reuses the committer's
// ONE timer, so a tick left armed (or fired and undrained) after one
// batch could poison the next. It pins that (a) an idle pipeline
// issues no flush at all — the timer only runs while a batch is being
// gathered, so idling can never force a stale empty flush — and (b)
// commits arriving after long idle gaps still form well-formed batches:
// every flush carries at least one commit (Batches <= Commits) and
// every commit is acknowledged exactly once.
func TestIdleLeaderNoStaleTimerFlush(t *testing.T) {
	h := &hookCounter{}
	gc := NewGroupCommitter(4, time.Millisecond, h.begin, h.end)
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
