// Quickstart: store, read, safely replace, and delete large objects on
// both store backends through the streaming blob.Store API, then compare
// what the paper's folklore (§3.1) predicts with what the virtual clock
// actually measured.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"repro/internal/blob"
	"repro/internal/disk"
	"repro/internal/frag"
	"repro/internal/stack"
	"repro/internal/units"
	"repro/internal/vclock"
)

func main() {
	ctx := context.Background()

	// A store is a simple get/put abstraction (§4). Build one over the
	// NTFS-analog filesystem and one over the SQL-Server-analog database,
	// each on its own simulated 1 GB drive, described by a stack.Spec.
	// DataMode retains payloads so reads return real bytes.
	for _, backend := range []string{stack.File, stack.DB} {
		store, err := stack.Build(vclock.New(),
			stack.Spec{Backends: []string{backend}, Capacity: 1 * units.GB, Mode: disk.DataMode})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- %s backend ---\n", store.Name())

		// Create: stream a 256 KB object in. Appends flow to the
		// allocator in request-sized chunks; nothing is visible until
		// Commit.
		photo := make([]byte, 256*units.KB)
		for i := range photo {
			photo[i] = byte(i % 251)
		}
		w, err := store.Create(ctx, "vacation.jpg", int64(len(photo)))
		if err != nil {
			log.Fatal(err)
		}
		if _, err := w.Write(photo); err != nil {
			log.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			log.Fatal(err)
		}

		// Open: read it back, whole and ranged. The ranged read touches
		// only the fragments covering the requested bytes.
		r, err := store.Open(ctx, "vacation.jpg")
		if err != nil {
			log.Fatal(err)
		}
		data, err := r.ReadAll()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("read %s back (%d bytes, first byte %d)\n",
			"vacation.jpg", r.Size(), data[0])
		tail, err := r.ReadAt(r.Size()-4*units.KB, 4*units.KB)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("ranged read of the final 4 KB (last byte %d)\n", tail[len(tail)-1])
		r.Close()

		// Replace: a safe write — the old version survives any crash or
		// abort before Commit (§4).
		edited := append([]byte(nil), photo...)
		edited[0] = 0xFF
		if err := blob.Replace(ctx, store, "vacation.jpg", int64(len(edited)), edited); err != nil {
			log.Fatal(err)
		}
		_, data, _ = blob.Get(ctx, store, "vacation.jpg")
		fmt.Printf("after safe replace, first byte = %#x\n", data[0])

		// Failures are typed: dispatch with errors.Is, never by message.
		if _, err := store.Open(ctx, "no-such-object"); errors.Is(err, blob.ErrNotFound) {
			fmt.Println("missing objects report blob.ErrNotFound")
		}

		// Fragmentation analysis: how is the object laid out on disk?
		rep := frag.Analyze(store)
		fmt.Printf("layout: %s\n", rep)

		// The virtual clock has been charging every seek, rotation,
		// transfer and CPU cost along the way.
		fmt.Printf("virtual time consumed: %.2f ms\n\n",
			store.Clock().Seconds()*1000)

		if err := store.Delete(ctx, "vacation.jpg"); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("folklore check (§3.1): database wins small objects, filesystem wins large —")
	fmt.Println("run `go run ./cmd/fragbench fig1` to see where the break-even point sits.")
}
