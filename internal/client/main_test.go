package client_test

import (
	"testing"

	"repro/internal/leakcheck"
)

// TestMain fails the binary if any goroutine survives the tests. The
// client starts none of its own, but every conformance subtest stands up
// a live listener, so a missed server or store Close shows up here.
func TestMain(m *testing.M) { leakcheck.Main(m) }
