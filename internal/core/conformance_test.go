package core_test

import (
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/blob/conformance"
	"repro/internal/core"
	"repro/internal/vclock"
)

// TestFileStoreConformance runs the cross-backend contract suite against
// the filesystem backend.
func TestFileStoreConformance(t *testing.T) {
	conformance.Run(t, func(opts ...blob.Option) blob.Store {
		s, err := core.NewFileStore(vclock.New(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

// TestDBStoreConformance runs the cross-backend contract suite against
// the database backend.
func TestDBStoreConformance(t *testing.T) {
	conformance.Run(t, func(opts ...blob.Option) blob.Store {
		s, err := core.NewDBStore(vclock.New(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

// TestFileStoreGroupCommitConformance re-runs the whole contract suite
// with the group-commit pipeline enabled: batching may only
// move the force schedule, never the visible semantics.
func TestFileStoreGroupCommitConformance(t *testing.T) {
	conformance.Run(t, func(opts ...blob.Option) blob.Store {
		s, err := core.NewFileStore(vclock.New(),
			append(opts, blob.WithGroupCommit(8, 200*time.Microsecond))...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

// TestDBStoreGroupCommitConformance is the database-backend twin.
func TestDBStoreGroupCommitConformance(t *testing.T) {
	conformance.Run(t, func(opts ...blob.Option) blob.Store {
		s, err := core.NewDBStore(vclock.New(),
			append(opts, blob.WithGroupCommit(8, 200*time.Microsecond))...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}
