package compact_test

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine running:
// the compactor starts none of its own.
func TestMain(m *testing.M) { leakcheck.Main(m) }
