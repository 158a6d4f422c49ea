package core

import (
	"context"
	"sync"

	"repro/internal/blob"
)

// refAgeTracker is the reference for the stores' retired and live
// bytes and for AgeTracker: the per-key ledger the tracker kept before
// the stores counted both themselves. It records the last committed
// size of every key it routes (a dead entry once it deletes one), and
// charges retired and live bytes against that ledger when a write
// commits. A key it has never routed
// falls back to the size a Stat returned when the write opened. Slow
// and exact; TestAgeTrackerMatchesReference holds the stores and the
// tracker to it.
type refAgeTracker struct {
	store        blob.Store
	retiredBytes int64
	liveBytes    int64

	mu    sync.Mutex
	sizes map[string]refSize
}

// refSize is one entry of refAgeTracker.sizes.
type refSize struct {
	size int64
	live bool
}

func newRefAgeTracker(store blob.Store) *refAgeTracker {
	return &refAgeTracker{store: store, sizes: make(map[string]refSize)}
}

func (a *refAgeTracker) Age() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.liveBytes == 0 {
		return 0
	}
	return float64(a.retiredBytes) / float64(a.liveBytes)
}

func (a *refAgeTracker) LiveBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.liveBytes
}

func (a *refAgeTracker) RetiredBytes() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.retiredBytes
}

// swap records next as key's entry and returns the previous one.
func (a *refAgeTracker) swap(key string, next refSize) (refSize, bool) {
	prev, known := a.sizes[key]
	a.sizes[key] = next
	return prev, known
}

// write routes one whole-buffer create or safe replace and charges it
// at commit.
func (a *refAgeTracker) write(ctx context.Context, key string, size int64, data []byte, replace bool) error {
	var snapSize int64
	var snapOK bool
	var w blob.Writer
	var err error
	if replace {
		if info, err := a.store.Stat(ctx, key); err == nil {
			snapSize, snapOK = info.Size, true
		}
		w, err = a.store.Replace(ctx, key, size)
	} else {
		w, err = a.store.Create(ctx, key, size)
	}
	if err != nil {
		return err
	}
	if err := blob.WriteAll(w, size, data); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	old, existed := snapSize, snapOK
	if prev, known := a.swap(key, refSize{size: size, live: true}); known {
		old, existed = prev.size, prev.live
	}
	if existed {
		a.retiredBytes += old
		a.liveBytes -= old
	}
	a.liveBytes += size
	return nil
}

func (a *refAgeTracker) Put(ctx context.Context, key string, size int64, data []byte) error {
	return a.write(ctx, key, size, data, false)
}

func (a *refAgeTracker) Replace(ctx context.Context, key string, size int64, data []byte) error {
	return a.write(ctx, key, size, data, true)
}

func (a *refAgeTracker) Delete(ctx context.Context, key string) error {
	info, err := a.store.Stat(ctx, key)
	if err != nil {
		return err
	}
	if err := a.store.Delete(ctx, key); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	old := info.Size
	if prev, known := a.swap(key, refSize{}); known && prev.live {
		old = prev.size
	}
	a.retiredBytes += old
	a.liveBytes -= old
	return nil
}
