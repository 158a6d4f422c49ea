package blob

import (
	"testing"

	"repro/internal/disk"
)

func TestOptionsCompose(t *testing.T) {
	o := NewOptions(
		WithCapacity(1<<30),
		WithDiskMode(disk.DataMode),
		WithWriteRequestSize(1<<16),
		WithSizeHint(),
		WithDelayedAllocation(),
		WithOwnerMap(),
	)
	if o.Capacity != 1<<30 || o.DiskMode != disk.DataMode {
		t.Fatalf("capacity/mode: %+v", o)
	}
	if o.WriteRequestSize != 1<<16 || !o.SizeHint || !o.DelayedAllocation {
		t.Fatalf("write path opts: %+v", o)
	}
	if !o.OwnerMap {
		t.Fatalf("backend knobs: %+v", o)
	}
	if zero := NewOptions(); zero != (Options{}) {
		t.Fatalf("no options must yield the zero value: %+v", zero)
	}
}

func TestKeyLocksStableStripes(t *testing.T) {
	kl := NewKeyLocks()
	// The same key must always land on the same stripe.
	for _, key := range []string{"", "a", "obj-00000001", "album-003/img-0001.jpg"} {
		if kl.stripe(key) != kl.stripe(key) {
			t.Fatalf("key %q hashed to different stripes", key)
		}
	}
	// Many keys must spread over more than one stripe.
	seen := map[*paddedRWMutex]bool{}
	for _, key := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"} {
		seen[kl.stripe(key)] = true
	}
	if len(seen) < 2 {
		t.Fatal("ten keys collapsed onto one stripe")
	}
}

func TestKeyLocksExcludeSameKey(t *testing.T) {
	kl := NewKeyLocks()
	kl.Lock("k")
	acquired := make(chan struct{})
	go func() {
		kl.Lock("k")
		close(acquired)
		kl.Unlock("k")
	}()
	select {
	case <-acquired:
		t.Fatal("second Lock of the same key succeeded while held")
	default:
	}
	kl.Unlock("k")
	<-acquired
}
