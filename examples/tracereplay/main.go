// Trace replay: record a real workload as an operation log, write it to
// disk in the v2 trace format, then replay the SAME log two ways — as
// one sequential stream (k=1, reproducing the recorded layout exactly)
// and as 8 concurrent writer streams through the shared
// workload.Executor. This is the §6 measurement driven by a recorded log
// instead of synthetic churn.
//
// The example prints only what its seed fixes, so its test can pin the
// output. The k=8 layout is not among it: which stream appends next is
// up to the Go scheduler, and the k=8 fragments/object land above the
// k=1 figure on some runs and below it on others (README, "Operation
// streams").
//
// Run with:
//
//	go run ./examples/tracereplay
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/blob"
	"repro/internal/frag"
	"repro/internal/stack"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/vclock"
	"repro/internal/workload"
)

func newStore() blob.Store {
	s, err := stack.Build(vclock.New(), stack.Spec{Backends: []string{stack.File}, Capacity: 256 * units.MB})
	if err != nil {
		log.Fatal(err)
	}
	return s
}

func main() {
	ctx := context.Background()

	// 1. Record: drive the classic churn workload through a Recorder.
	// Every committed mutation and completed read lands in the log.
	origin := newStore()
	rec := trace.NewRecorder(origin)
	runner := workload.NewRunner(rec, workload.Constant{Size: 1 * units.MB}, 42)
	if _, err := runner.BulkLoad(0.5); err != nil {
		log.Fatal(err)
	}
	if _, err := runner.ChurnToAge(3, workload.ChurnOptions{ReadsPerWrite: 1}); err != nil {
		log.Fatal(err)
	}
	ops := rec.Ops()
	originFrags := frag.Analyze(origin).MeanFragments()
	fmt.Printf("recorded %d ops from a churn run (age %.1f, %.2f frags/obj)\n",
		len(ops), runner.Tracker().Age(), originFrags)

	// 2. Persist: the log round-trips through the line-oriented trace
	// format — the artifact you would ship from a production system.
	dir, err := os.MkdirTemp("", "tracereplay")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "churn.trace")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := trace.Write(f, ops); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote the log (%s)\n\n", units.FormatBytes(fi.Size()))

	// 3. Replay sequentially, STREAMING the log from disk — the Source
	// never materializes it. One stream preserves the recorded
	// allocation order, so the layout reproduces exactly.
	f, err = os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	solo := newStore()
	res, err := trace.Replay(ctx, solo, trace.NewSource(f))
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	soloFrags := frag.Analyze(solo).MeanFragments()
	fmt.Printf("replay k=1: %d ops, %.2f frags/obj (recorded run had %.2f)\n",
		res.Ops, soloFrags, originFrags)

	// 4. Replay the SAME log as 8 concurrent writer streams: Partition
	// routes each key's ops to one stream (per-key order survives), the
	// Executor interleaves the streams' appends in allocation order.
	res, err = trace.Replay(ctx, newStore(), trace.OpsSources(trace.Partition(ops, 8)...)...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replay k=8: %d ops\n", res.Ops)
	fmt.Println("\nrun `go run ./cmd/fragbench -streams 1,4,16 tracereplay` for the full sweep")
}
