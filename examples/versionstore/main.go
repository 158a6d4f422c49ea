// Versionstore: a SharePoint/WebDAV-style document archive doing
// whole-object replacement (§1: "typical archives either store multiple
// versions of the objects ... or simply do wholesale replacement").
//
// A working set of office documents is edited continuously; every save
// is a safe-write replacement. The example runs the same archive on both
// backends, measures storage age as the paper defines it ("safe writes
// per object", §4.4), and prints the read-throughput trajectory — a
// miniature of the paper's headline break-even experiment, using the
// 256 KB - 1 MB range where storage age decides the winner (§6).
//
// Run with:
//
//	go run ./examples/versionstore
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/blob"
	"repro/internal/disk"
	"repro/internal/frag"
	"repro/internal/stack"
	"repro/internal/units"
	"repro/internal/vclock"
	"repro/internal/workload"
)

func main() {
	const docSize = 512 * units.KB // squarely inside the contested range

	fmt.Println("document archive: 512KB documents, safe-write saves, 2GB volumes")
	fmt.Println()
	fmt.Println("backend     age   MB/s(read)  frags/doc")

	type point struct{ age, mbps, frags float64 }
	results := map[string][]point{}

	for _, backend := range []string{stack.DB, stack.File} {
		repo, err := stack.Build(vclock.New(), stack.Spec{Backends: []string{backend}, Capacity: 2 * units.GB})
		if err != nil {
			log.Fatal(err)
		}
		runner := workload.NewRunner(repo, workload.Constant{Size: docSize}, 11)
		if _, err := runner.BulkLoad(0.5); err != nil {
			log.Fatal(err)
		}
		for _, age := range []float64{0, 1, 2, 3, 4} {
			if age > 0 {
				if _, err := runner.ChurnToAge(age, workload.ChurnOptions{ReadsPerWrite: 1}); err != nil {
					log.Fatal(err)
				}
			}
			res, err := runner.MeasureRead(150, workload.ReadOptions{})
			if err != nil {
				log.Fatal(err)
			}
			fr := frag.Analyze(repo).MeanFragments()
			fmt.Printf("%-10s %4.0f   %9.2f   %8.2f\n", repo.Name(), age, res.MBps, fr)
			results[repo.Name()] = append(results[repo.Name()], point{age, res.MBps, fr})
		}
		fmt.Println()
	}

	// Where does the archive's break-even land?
	db, fs := results["database"], results["filesystem"]
	crossed := false
	for i := range db {
		if db[i].mbps < fs[i].mbps {
			fmt.Printf("=> at storage age %.0f the filesystem overtakes the database for 512KB documents\n", db[i].age)
			crossed = true
			break
		}
	}
	if !crossed {
		fmt.Println("=> the database held its lead for 512KB documents over this horizon")
	}
	fmt.Println("   (§6: \"Between 256KB and 1MB, storage age determines which system performs better.\")")

	// Demonstrate per-document version history retention as WebDAV would:
	// keep the last 3 versions of one hot document by key suffix.
	ctx := context.Background()
	repo, err := stack.Build(vclock.New(),
		stack.Spec{Backends: []string{stack.File}, Capacity: 256 * units.MB, Mode: disk.DataMode})
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for v := 1; v <= 5; v++ {
		body := make([]byte, 64*units.KB)
		rng.Read(body)
		key := fmt.Sprintf("budget.xls;v%d", v)
		if err := blob.Put(ctx, repo, key, int64(len(body)), body); err != nil {
			log.Fatal(err)
		}
		if v > 3 {
			if err := repo.Delete(ctx, fmt.Sprintf("budget.xls;v%d", v-3)); err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("\nversioned store keeps %d live versions of budget.xls (WebDAV-style, §1)\n", repo.Usage().Objects)
}
