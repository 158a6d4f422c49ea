package harness

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine running.
// An arm's stores start none (group commit is led by the committing
// writers), so only an experiment's own streams could leak.
func TestMain(m *testing.M) { leakcheck.Main(m) }
