// Photoshare: a photo-sharing web service in the style the paper's
// introduction motivates — grouped uploads and grouped deletions.
//
// Section 3.2 observes that "pictures shared for an event are often
// uploaded and later deleted as a group" and that "using a large,
// contiguous region for a collection of related allocations tends to
// preserve the contiguous region for eventual reuse". This example
// uploads albums as groups, deletes whole albums, and shows how the two
// backends' free space and fragmentation respond — and why random
// (uncorrelated) churn, which the paper's main workload uses, is the
// harder case.
//
// Run with:
//
//	go run ./examples/photoshare
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"slices"

	"repro/internal/blob"
	"repro/internal/frag"
	"repro/internal/stack"
	"repro/internal/units"
	"repro/internal/vclock"
)

const (
	albums         = 24
	photosPerAlbum = 48
	photoSize      = 512 * units.KB // a 2006-era camera JPEG
)

func albumKey(album, photo int) string {
	return fmt.Sprintf("album-%03d/img-%04d.jpg", album, photo)
}

func uploadAlbum(ctx context.Context, repo blob.Store, album int) {
	for p := 0; p < photosPerAlbum; p++ {
		if err := blob.Put(ctx, repo, albumKey(album, p), photoSize, nil); err != nil {
			log.Fatalf("upload: %v", err)
		}
	}
}

func deleteAlbum(ctx context.Context, repo blob.Store, album int) {
	for p := 0; p < photosPerAlbum; p++ {
		if err := repo.Delete(ctx, albumKey(album, p)); err != nil {
			log.Fatalf("delete: %v", err)
		}
	}
}

func main() {
	ctx := context.Background()
	for _, backend := range []string{stack.File, stack.DB} {
		repo, err := stack.Build(vclock.New(), stack.Spec{Backends: []string{backend}, Capacity: 2 * units.GB})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- %s backend ---\n", repo.Name())

		// Event season: every album uploaded as one contiguous burst.
		for a := 0; a < albums; a++ {
			uploadAlbum(ctx, repo, a)
		}
		fmt.Printf("uploaded %d albums (%d photos, %s): %.2f fragments/object\n",
			albums, albums*photosPerAlbum,
			units.FormatBytes(int64(albums*photosPerAlbum)*photoSize),
			frag.Analyze(repo).MeanFragments())

		// Grouped deletion: whole albums expire together. Temporal
		// clustering means each deletion releases one large contiguous
		// region (§3.2).
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < albums/2; i++ {
			deleteAlbum(ctx, repo, i*2) // every other album
		}
		// Re-upload new events into the reclaimed space.
		for i := 0; i < albums/2; i++ {
			uploadAlbum(ctx, repo, albums+i)
		}
		grouped := frag.Analyze(repo).MeanFragments()
		fmt.Printf("after grouped delete + re-upload: %.2f fragments/object\n", grouped)

		// Now the uncorrelated case the paper's main workload models:
		// individual photos replaced at random ("safe writes").
		keys := repo.Keys()
		slices.Sort(keys) // Keys is map-ordered; the seeded picks below must not be
		for op := 0; op < len(keys); op++ {
			k := keys[rng.Intn(len(keys))]
			if err := blob.Replace(ctx, repo, k, photoSize, nil); err != nil {
				log.Fatalf("replace: %v", err)
			}
		}
		random := frag.Analyze(repo).MeanFragments()
		fmt.Printf("after one generation of random replacement: %.2f fragments/object\n", random)
		if random > grouped {
			fmt.Println("=> uncorrelated churn fragments more than grouped churn, as §3.2 predicts")
		}
		fmt.Println()
	}
}
