package harness

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine running:
// every arm closes its store, group-commit batcher included.
func TestMain(m *testing.M) { leakcheck.Main(m) }
