package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/blob/conformance"
	"repro/internal/disk"
	"repro/internal/units"
	"repro/internal/vclock"
)

// groupOpts enables batching up to 8 commits with a short ceiling on
// the wait for open siblings.
func groupOpts(extra ...blob.Option) []blob.Option {
	return append([]blob.Option{
		blob.WithCapacity(256 * units.MB),
		blob.WithDiskMode(disk.MetadataMode),
		blob.WithGroupCommit(8, 2*time.Millisecond),
	}, extra...)
}

// ceilingOpts is groupOpts with a ceiling no test could sit out: a
// batch that closes does so because the writers were counted, not
// because a timer ran.
func ceilingOpts(extra ...blob.Option) []blob.Option {
	return groupOpts(append([]blob.Option{
		blob.WithGroupCommit(8, conformance.GroupCommitCeiling)}, extra...)...)
}

// roundKeys names the writers of one CommitTogether round.
func roundKeys(round, writers int) []string {
	keys := make([]string, writers)
	for w := range keys {
		keys[w] = fmt.Sprintf("w%02d-o%04d", w, round)
	}
	return keys
}

// TestGroupCommitBatchesUnderConcurrency pins the acceptance criterion
// deterministically: 8 writers open on a maxBatch-8 store and commit at
// once, round after round; each round is exactly one group force on
// both backends, closed when the last sibling arrives and long before
// the multi-second ceiling, and the committed objects are all there.
func TestGroupCommitBatchesUnderConcurrency(t *testing.T) {
	const writers, rounds = 8, 4
	fsStore := mustFileStore(t, ceilingOpts()...)
	dbStore := mustDBStore(t, ceilingOpts()...)
	for _, s := range []blob.Store{fsStore, dbStore} {
		t.Run(s.Name(), func(t *testing.T) {
			var total time.Duration
			for r := 0; r < rounds; r++ {
				total += conformance.CommitTogether(t, s, roundKeys(r, writers), 1*units.MB)
			}
			if total > conformance.GroupCommitCeiling/10 {
				t.Errorf("%d rounds of sibling commits took %v: batches waited on the timer", rounds, total)
			}
			if got := s.ObjectCount(); got != writers*rounds {
				t.Fatalf("committed %d objects, want %d", got, writers*rounds)
			}
			cs, ok := blob.CommitStatsOf(s)
			if !ok {
				t.Fatal("store exposes no CommitStats")
			}
			if cs.Commits != writers*rounds || cs.Batches != rounds || cs.MaxBatch != writers {
				t.Errorf("pipeline stats %+v, want %d commits in %d batches of %d",
					cs, writers*rounds, rounds, writers)
			}
		})
	}
}

// TestGroupCommitReducesLogForces pins the amortization itself: the same
// rounds of 8 sibling commits issue fewer forced log flushes with
// batching on than off.
func TestGroupCommitReducesLogForces(t *testing.T) {
	const writers, rounds = 8, 4
	drive := func(s blob.Store) {
		for r := 0; r < rounds; r++ {
			conformance.CommitTogether(t, s, roundKeys(r, writers), 1*units.MB)
		}
	}
	run := func(opts ...blob.Option) int64 {
		s := mustDBStore(t, opts...)
		drive(s)
		return s.Engine().Stats().LogForces
	}
	unbatched := run(blob.WithCapacity(256*units.MB), blob.WithDiskMode(disk.MetadataMode))
	batched := run(ceilingOpts()...)
	if batched >= unbatched {
		t.Errorf("log forces with batching = %d, without = %d; group commit saved nothing", batched, unbatched)
	}
	// Without batching every commit forces at least once.
	if unbatched < writers*rounds {
		t.Errorf("unbatched run forced %d times for %d commits", unbatched, writers*rounds)
	}

	// Filesystem counterpart: forced MFT writes per commit shrink too.
	runFS := func(opts ...blob.Option) int64 {
		s := mustFileStore(t, opts...)
		drive(s)
		return s.Volume().Stats().MetaWrites
	}
	fsUnbatched := runFS(blob.WithCapacity(256*units.MB), blob.WithDiskMode(disk.MetadataMode))
	fsBatched := runFS(ceilingOpts()...)
	if fsBatched >= fsUnbatched {
		t.Errorf("MFT forces with batching = %d, without = %d", fsBatched, fsUnbatched)
	}
}

// TestLoneCommitDoesNotWait pins the lone-writer rule on both backends:
// with nobody else open, a commit is a batch of one and never sleeps on
// the batch timer.
func TestLoneCommitDoesNotWait(t *testing.T) {
	fsStore := mustFileStore(t, ceilingOpts()...)
	dbStore := mustDBStore(t, ceilingOpts()...)
	for _, s := range []blob.Store{fsStore, dbStore} {
		t.Run(s.Name(), func(t *testing.T) {
			for _, key := range []string{"a", "b", "c"} {
				conformance.LoneCommitDoesNotWait(t, s, conformance.PutKey(s, key))
			}
		})
	}
}

// TestLoneCommitAfterRecoverDoesNotWait guards the sibling count against
// going stale: a crash-armed commit leaves its writer claim behind, as a
// process death would, and a writer that is aborted (before committing,
// or after a failed one) was counted as open. Once Recover or Abort has
// released the claim, a later lone commit must again flush at once —
// a leftover count would silently reinstate the full wait on every
// commit that follows.
func TestLoneCommitAfterRecoverDoesNotWait(t *testing.T) {
	ctx := context.Background()
	t.Run("filesystem/Recover", func(t *testing.T) {
		s := mustFileStore(t, ceilingOpts()...)
		s.ArmCommitCrash("doomed")
		w, err := s.Create(ctx, "doomed", 64*units.KB)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(64*units.KB, nil); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); !errors.Is(err, blob.ErrCrashed) {
			t.Fatalf("armed commit = %v, want ErrCrashed", err)
		}
		s.Recover()
		conformance.LoneCommitDoesNotWait(t, s, conformance.PutKey(s, "after-recover"))
	})
	fsStore := mustFileStore(t, ceilingOpts()...)
	dbStore := mustDBStore(t, ceilingOpts()...)
	for _, s := range []blob.Store{fsStore, dbStore} {
		t.Run(s.Name()+"/Abort", func(t *testing.T) {
			w, err := s.Create(ctx, "abandoned", 64*units.KB)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Abort(); err != nil {
				t.Fatal(err)
			}
			// A short stream fails its commit and stays open until Abort.
			w, err = s.Create(ctx, "short", 64*units.KB)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Commit(); !errors.Is(err, blob.ErrInvalidSize) {
				t.Fatalf("short commit = %v, want ErrInvalidSize", err)
			}
			if err := w.Abort(); err != nil {
				t.Fatal(err)
			}
			conformance.LoneCommitDoesNotWait(t, s, conformance.PutKey(s, "after-abort"))
		})
	}
}

// TestGroupCommitErrorFansBackToOwner pins per-writer error fan-out: in
// one batch, a writer that cannot commit (its stream is short) fails
// with its own typed error while the rest of the batch lands.
func TestGroupCommitErrorFansBackToOwner(t *testing.T) {
	ctx := context.Background()
	s := mustFileStore(t, groupOpts()...)

	// A batch of one doomed writer among healthy ones: the doomed key's
	// temp stream crashes mid-commit via the armed crash hook.
	s.ArmCommitCrash("doomed")
	var wg sync.WaitGroup
	errs := make(map[string]error)
	var mu sync.Mutex
	for _, key := range []string{"a", "b", "doomed", "c"} {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			w, err := s.Create(ctx, key, 1*units.MB)
			if err == nil {
				if err = w.Append(1*units.MB, nil); err == nil {
					err = w.Commit()
				}
			}
			mu.Lock()
			errs[key] = err
			mu.Unlock()
		}(key)
	}
	wg.Wait()
	if !errors.Is(errs["doomed"], blob.ErrCrashed) {
		t.Fatalf("doomed commit = %v, want ErrCrashed", errs["doomed"])
	}
	for _, key := range []string{"a", "b", "c"} {
		if errs[key] != nil {
			t.Fatalf("healthy writer %s failed: %v", key, errs[key])
		}
		if _, err := s.Stat(ctx, key); err != nil {
			t.Fatalf("committed object %s missing: %v", key, err)
		}
	}
	if _, err := s.Stat(ctx, "doomed"); !errors.Is(err, blob.ErrNotFound) {
		t.Fatalf("crashed object visible: %v", err)
	}
}

// TestCrashMidBatchRecovery is the concurrent-stream crash drill: 8
// streams replace their objects through the group-commit pipeline, one
// stream crashes between its safe write's write and rename mid-batch, and
// after Recover the crashed key still serves its OLD bytes while every
// other stream's NEW version survives — the safe-write durability
// contract under batching.
func TestCrashMidBatchRecovery(t *testing.T) {
	ctx := context.Background()
	const streams = 8
	s := mustFileStore(t, groupOpts(blob.WithDiskMode(disk.DataMode))...)

	oldBody := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 64*1024) }
	newBody := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 101)}, 64*1024) }
	keys := make([]string, streams)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj-%d", i)
		if err := blob.Put(ctx, s, keys[i], 64*units.KB, oldBody(i)); err != nil {
			t.Fatal(err)
		}
	}

	const victim = 3
	s.ArmCommitCrash(keys[victim])
	var wg sync.WaitGroup
	errs := make([]error, streams)
	for i := range keys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := s.Replace(ctx, keys[i], 64*units.KB)
			if err == nil {
				if err = w.Append(64*units.KB, newBody(i)); err == nil {
					err = w.Commit()
				}
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	if !errors.Is(errs[victim], blob.ErrCrashed) {
		t.Fatalf("victim commit = %v, want ErrCrashed", errs[victim])
	}

	// Restart: sweep the victim's orphaned temp, release writer claims.
	if swept := s.Recover(); swept != 1 {
		t.Fatalf("Recover swept %d temps, want 1", swept)
	}

	for i := range keys {
		want := newBody(i)
		if i == victim {
			want = oldBody(i)
		}
		_, got, err := blob.Get(ctx, s, keys[i])
		if err != nil {
			t.Fatalf("read %s after recovery: %v", keys[i], err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: wrong version after recovery (stream %d, victim %d)", keys[i], i, victim)
		}
	}
	// The victim's key is writable again after recovery.
	if err := blob.Replace(ctx, s, keys[victim], 64*units.KB, newBody(victim)); err != nil {
		t.Fatalf("replace after recovery: %v", err)
	}
}

// TestConstructorsReturnErrBadOption pins the typed construction
// errors: missing capacity and negative group commit parameters all
// surface blob.ErrBadOption instead of panicking.
func TestConstructorsReturnErrBadOption(t *testing.T) {
	cases := []struct {
		name string
		opts []blob.Option
	}{
		{"MissingCapacity", nil},
		{"NegativeBatch", []blob.Option{blob.WithCapacity(64 * units.MB), blob.WithGroupCommit(-1, 0)}},
		{"NegativeDelay", []blob.Option{blob.WithCapacity(64 * units.MB), blob.WithGroupCommit(4, -time.Second)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewFileStore(vclock.New(), tc.opts...); !errors.Is(err, blob.ErrBadOption) {
				t.Errorf("NewFileStore = %v, want ErrBadOption", err)
			}
			if _, err := NewDBStore(vclock.New(), tc.opts...); !errors.Is(err, blob.ErrBadOption) {
				t.Errorf("NewDBStore = %v, want ErrBadOption", err)
			}
		})
	}
}
