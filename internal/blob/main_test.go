package blob

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine running —
// the group-commit pipeline starts none.
func TestMain(m *testing.M) { leakcheck.Main(m) }
