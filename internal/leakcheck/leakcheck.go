// Package leakcheck fails a test binary that exits with goroutines
// still running — a dependency-free stand-in for go.uber.org/goleak.
// The stores start no goroutine (group commit is led by the committing
// writers, the compactor is a step); the goroutines that do run —
// executor streams, served connections, load-generator clients — all
// promise to finish when their run or server ends, and a test that
// leaks one hides a missing shutdown path that a soak run eventually
// pays for.
//
// Wire it into a package's TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// After the tests pass, Main snapshots all goroutine stacks, filters
// the runtime's and test driver's own goroutines, and retries briefly
// so goroutines already unwinding (closed channels, canceled contexts)
// get off stage. Anything still running fails the binary with the
// offending stacks.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// maxWait bounds how long Main waits for in-flight goroutines to
// unwind before declaring them leaked.
const maxWait = 2 * time.Second

// Main runs the package's tests and then fails the binary if any
// non-benign goroutine survives them.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if bad := waitForDrain(); len(bad) > 0 {
			fmt.Fprintf(os.Stderr,
				"leakcheck: %d goroutine(s) still running after tests:\n\n%s\n",
				len(bad), strings.Join(bad, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// waitForDrain polls the goroutine set until it is clean or maxWait
// elapses, returning the surviving stacks.
func waitForDrain() []string {
	//fragvet:ignore vclockpurity test-harness deadline: leak detection waits on real goroutine scheduling, not simulated time
	deadline := time.Now().Add(maxWait)
	for {
		bad := leaked()
		//fragvet:ignore vclockpurity test-harness deadline check on real time
		if len(bad) == 0 || time.Now().After(deadline) {
			return bad
		}
		//fragvet:ignore vclockpurity real backoff while goroutines unwind
		time.Sleep(10 * time.Millisecond)
	}
}

// leaked returns the stacks of goroutines that are neither the
// runtime's nor the test driver's.
func leaked() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var bad []string
	for _, s := range strings.Split(string(buf[:n]), "\n\n") {
		s = strings.TrimSpace(s)
		if s == "" || benign(s) {
			continue
		}
		bad = append(bad, s)
	}
	return bad
}

// benign reports whether stack belongs to the runtime, the testing
// driver, or leakcheck itself.
func benign(stack string) bool {
	for _, marker := range []string{
		"leakcheck.leaked",       // the snapshotting goroutine (us)
		"testing.(*M).Run",       // the test driver, if sampled elsewhere
		"testing.(*T).Run",       // parked parents of parallel subtests
		"testing.runTests",       // driver plumbing
		"testing.runFuzzing",     // fuzz workers parked by the driver
		"runtime.goexit0",        // goroutines mid-teardown
		"runtime/pprof.",         // profiler writers
		"runtime.ReadTrace",      // execution tracer
		"signal.signal_recv",     // os/signal watcher
		"runtime.ensureSigM",     // signal mask goroutine
		"runtime.gcBgMarkWorker", // GC workers
	} {
		if strings.Contains(stack, marker) {
			return true
		}
	}
	return false
}
