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
