package obs_test

import (
	"testing"

	"repro/internal/blob"
	"repro/internal/blob/conformance"
	"repro/internal/obs"
	"repro/internal/stack"
	"repro/internal/units"
	"repro/internal/vclock"
)

// TestLoneCommitDoesNotWait: the observability wrapper, above the shard
// fan-out where stack.Build puts none, and the commit observer only
// watch the pipeline; a lone writer through them still flushes at once.
func TestLoneCommitDoesNotWait(t *testing.T) {
	for name, spec := range map[string]stack.Spec{
		"Filesystem":    {Backends: []string{stack.File}},
		"Database":      {Backends: []string{stack.DB}},
		"Sharded4Mixed": {Backends: []string{stack.File, stack.DB, stack.File, stack.DB}, Shards: 4},
	} {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			spec.Capacity = 64 * units.MB
			spec.GroupCommitBatch, spec.GroupCommitDelay = 8, conformance.GroupCommitCeiling
			spec.Options = []blob.Option{blob.WithCommitObserver(obs.NewCommitObserver(reg, "store"))}
			inner, err := stack.Build(vclock.New(), spec)
			if err != nil {
				t.Fatal(err)
			}
			s := obs.Wrap(inner, "store", reg)
			for _, key := range []string{"a", "b", "c"} {
				conformance.LoneCommitDoesNotWait(t, s, conformance.PutKey(s, key))
			}
		})
	}
}
