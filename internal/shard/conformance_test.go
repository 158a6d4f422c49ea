package shard_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/blob/conformance"
	"repro/internal/stack"
	"repro/internal/vclock"
)

// shardedFactory adapts a sharded stack to the conformance suite's
// Factory: n children of the given backend(s), round-robin, each built
// with the per-store options the suite asks for, all sharing one clock.
// gcBatch above 1 gives every child an asynchronous commit pipeline.
func shardedFactory(t *testing.T, n, gcBatch int, backends ...string) conformance.Factory {
	spec := stack.Spec{Shards: n, GroupCommitBatch: gcBatch, GroupCommitDelay: 200 * time.Microsecond}
	for i := 0; i < n; i++ {
		spec.Backends = append(spec.Backends, backends[i%len(backends)])
	}
	return func(opts ...blob.Option) blob.Store {
		spec := spec
		spec.Options = opts
		s, err := stack.Build(vclock.New(), spec)
		if err != nil {
			panic(err)
		}
		return s
	}
}

// TestShardConformance pins the sharded store to the exact cross-backend
// contract both single-volume backends satisfy, at shard counts 1, 4,
// and 16 over each backend type and a mixed fleet — the acceptance bar
// for routing, fan-out, and error pass-through adding no dialect of
// their own.
func TestShardConformance(t *testing.T) {
	fleets := []struct {
		name     string
		backends []string
	}{
		{"Filesystem", []string{stack.File}},
		{"Database", []string{stack.DB}},
		{"Mixed", []string{stack.File, stack.DB}},
	}
	for _, fl := range fleets {
		for _, n := range []int{1, 4, 16} {
			t.Run(fmt.Sprintf("%s/N=%d", fl.name, n), func(t *testing.T) {
				conformance.Run(t, shardedFactory(t, n, 0, fl.backends...))
			})
		}
	}
}

// TestShardGroupCommitConformance re-runs the contract suite over a
// 4-shard mixed fleet whose children all batch commits asynchronously:
// per-shard group forces must not change any visible semantics.
func TestShardGroupCommitConformance(t *testing.T) {
	conformance.Run(t, shardedFactory(t, 4, 8, stack.File, stack.DB))
}
