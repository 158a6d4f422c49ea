package main

import "runtime"

// simParams sizes a sim_* workload. The counts are frozen: a faster
// commit does the same work in less time, it does not do more work.
type simParams struct {
	volumes        int // independent volumes aged per round, one after another
	capacity       int64
	occupancy      float64
	sizeLo, sizeHi int64
	startAge       float64
	cycles         int
	writesPerCycle int
	readsPerCycle  int
}

// servedParams sizes a served_* workload. objects, warmReads and
// itersPerSegment are totals, split evenly over the clients.
type servedParams struct {
	objects         int
	sizeLo, sizeHi  int64
	payload         bool // send and verify real bytes
	zipf            bool // Zipf(1.0) read popularity; uniform otherwise
	warmReads       int
	segments        int
	itersPerSegment int // one iteration = 1 replace + 2 whole reads
	extrasEvery     int // every n-th iteration adds ranged read, delete+create, stat; 0 = never
	sweepWrites     int // replaces in the end-of-round virtual write sweep
}

// workloadDef is one named workload.
type workloadDef struct {
	name, why string
	stack     stackSpec
	sim       *simParams
	served    *servedParams
}

// The simulator workloads share one op list; only the engine differs.
var agedSim = simParams{
	volumes:   4,
	capacity:  8 << 30,
	occupancy: 0.5,
	// 256 KB-1 MB is the band where the paper says fragmentation starts
	// to dominate.
	sizeLo: 256 << 10, sizeHi: 1 << 20,
	startAge:       2,
	cycles:         5,
	writesPerCycle: 4000,
	readsPerCycle:  8000,
}

var workloads = []workloadDef{
	{
		name:  "sim_fs_aged",
		why:   "aged 8 GB volume on the filesystem engine at k=1: alloc, extent, fs, disk, core and workload do all the work, server and client none",
		stack: stackSpec{backend: "file", capacity: 8 << 30, shards: 1},
		sim:   &agedSim,
	},
	{
		name:  "sim_db_aged",
		why:   "the identical op list on the database engine (db, btree, GAM allocator, log drive): an fs-only change predicts no movement here",
		stack: stackSpec{backend: "db", capacity: 8 << 30, shards: 1},
		sim:   &agedSim,
	},
	{
		name:  "served_small_meta",
		why:   "fragserve's default stack under many small metadata-only requests: per-request cost in client, HTTP and server dominates, the engine is a few percent",
		stack: stackSpec{backend: "file", capacity: 4 << 30, shards: 1, dataMode: true},
		served: &servedParams{
			objects: 2048,
			sizeLo:  64 << 10, sizeHi: 64 << 10,
			segments:        5,
			itersPerSegment: 1800,
			extrasEvery:     16,
			sweepWrites:     2048,
		},
	},
	{
		name:  "served_large_payload",
		why:   "few large bodies with real bytes through shard, cache and group commit, working set 4x the cache: body copies and data-mode storage dominate, not request count",
		stack: stackSpec{backend: "file", capacity: 128 << 20, shards: 4, cacheBytes: 32 << 20, groupCommit: true, dataMode: true},
		served: &servedParams{
			objects: 512,
			sizeLo:  128 << 10, sizeHi: 384 << 10,
			payload:         true,
			zipf:            true,
			warmReads:       1024,
			segments:        5,
			itersPerSegment: 200,
			sweepWrites:     256,
		},
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// clientCount is the closed loop's size: one goroutine and one
// connection per client, never more clients than the CPUs the process may
// use. A run pins itself to one CPU (proc.go), so it has one client.
func clientCount() int { return min(runtime.NumCPU(), 4) }
