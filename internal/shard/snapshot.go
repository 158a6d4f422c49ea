package shard

import (
	"fmt"
	"sync"

	"repro/internal/blob"
	"repro/internal/frag"
	"repro/internal/stats"
	"repro/internal/units"
)

// ShardInfo is one shard's stats snapshot.
type ShardInfo struct {
	// Index is the shard's position in the store; ID its rendezvous
	// identity; Backend the child's Name().
	Index   int
	ID      string
	Backend string

	// Objects and LiveBytes count the shard's live population;
	// RetiredBytes the object versions the child replaced or deleted
	// since it was built (0 for a child that does not count them).
	Objects      int
	LiveBytes    int64
	RetiredBytes int64

	// FreeBytes and CapacityBytes describe the shard's free pool — the
	// space one writer on this shard allocates from, the governing
	// variable of the paper's Figure 6.
	FreeBytes     int64
	CapacityBytes int64

	// MeanFragments is mean fragments/object on this shard alone.
	MeanFragments float64
}

// Occupancy returns the shard's live fraction of capacity.
func (si ShardInfo) Occupancy() float64 {
	if si.CapacityBytes == 0 {
		return 0
	}
	return float64(si.LiveBytes) / float64(si.CapacityBytes)
}

// FreePoolObjects returns how many objects of the given size fit in the
// shard's free space — the paper's "number of free objects" axis.
func (si ShardInfo) FreePoolObjects(objectBytes int64) float64 {
	if objectBytes <= 0 {
		return 0
	}
	return float64(si.FreeBytes) / float64(objectBytes)
}

func (si ShardInfo) String() string {
	return fmt.Sprintf("%s[%s]: %d objects, %s live, %s retired, %s free, %.2f frags/obj",
		si.ID, si.Backend, si.Objects, units.FormatBytes(si.LiveBytes),
		units.FormatBytes(si.RetiredBytes), units.FormatBytes(si.FreeBytes), si.MeanFragments)
}

// Snapshot aggregates the per-shard stats behind one value the harness
// consumes.
type Snapshot struct {
	// Shards holds one entry per shard, in shard order.
	Shards []ShardInfo

	// Aggregates over the whole store.
	Objects       int
	LiveBytes     int64
	RetiredBytes  int64
	FreeBytes     int64
	CapacityBytes int64

	// MeanFragments is mean fragments/object across every shard's
	// objects together (object-weighted, not a mean of shard means).
	MeanFragments float64

	// LiveImbalance is the coefficient of variation of per-shard live
	// bytes: 0 for a perfectly balanced fleet, growing as rendezvous
	// placement or size skew piles data onto few shards.
	LiveImbalance float64
}

// Snapshot gathers every shard's stats, fanning the per-shard
// fragmentation analysis out to one goroutine per shard (children are
// independent stores with independent engine mutexes, so the scans
// genuinely run in parallel).
func (s *Store) Snapshot() Snapshot {
	snap := Snapshot{Shards: make([]ShardInfo, len(s.children))}
	var wg sync.WaitGroup
	for i, c := range s.children {
		wg.Add(1)
		go func(i int, c blob.Store) {
			defer wg.Done()
			rep := frag.Analyze(c)
			snap.Shards[i] = ShardInfo{
				Index:         i,
				ID:            s.ids[i],
				Backend:       c.Name(),
				Objects:       c.ObjectCount(),
				LiveBytes:     c.LiveBytes(),
				RetiredBytes:  c.RetiredBytes(),
				FreeBytes:     c.FreeBytes(),
				CapacityBytes: c.CapacityBytes(),
				MeanFragments: rep.MeanFragments(),
			}
		}(i, c)
	}
	wg.Wait()

	totalFragments := 0.0
	liveByShard := make([]float64, len(snap.Shards))
	for i, si := range snap.Shards {
		snap.Objects += si.Objects
		snap.LiveBytes += si.LiveBytes
		snap.RetiredBytes += si.RetiredBytes
		snap.FreeBytes += si.FreeBytes
		snap.CapacityBytes += si.CapacityBytes
		totalFragments += si.MeanFragments * float64(si.Objects)
		liveByShard[i] = float64(si.LiveBytes)
	}
	if snap.Objects > 0 {
		snap.MeanFragments = totalFragments / float64(snap.Objects)
	}
	snap.LiveImbalance = stats.CV(liveByShard)
	return snap
}
