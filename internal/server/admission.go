package server

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/blob"
	"repro/internal/obs"
)

// admission is the connection-level admission controller: a bounded
// in-flight limit with a bounded wait queue in front of it, so the
// service sheds overload with typed errors instead of queueing without
// bound (the tail-latency failure mode a storage front-end must not
// have).
//
// The policy is two thresholds:
//
//   - At most MaxInFlight operations run against the store at once.
//   - At most MaxQueue further operations wait for a slot. An arrival
//     beyond in-flight+queued is shed immediately with ErrOverloaded
//     (HTTP 429): the client should back off and retry.
//   - A queued operation that waits longer than QueueTimeout is
//     refused with ErrUnavailable (HTTP 503): the service is saturated
//     beyond its latency budget, not merely bursty.
//
// Caller cancellation passes through: an op whose own context ended
// before or while it queued reports the context's error, not a shed.
type admission struct {
	slots   chan struct{} // capacity MaxInFlight; holding a token = running
	pending atomic.Int64  // running + queued
	limit   int64         // MaxInFlight + MaxQueue
	timeout time.Duration // max queue wait; 0 = wait as long as the caller's ctx allows

	shed, timedOut *obs.Counter // admission.shed, admission.timeout
	// inflight is the level the last acquire or release left, so it
	// reads 0 once a load has drained; peak is its high-water mark.
	inflight, peak *obs.Gauge // admission.inflight, admission.inflight_peak
}

// newAdmission builds the controller, recording into reg;
// maxInFlight must be positive.
func newAdmission(maxInFlight, maxQueue int, timeout time.Duration, reg *obs.Registry) *admission {
	return &admission{
		slots:    make(chan struct{}, maxInFlight),
		limit:    int64(maxInFlight + maxQueue),
		timeout:  timeout,
		shed:     reg.Counter("admission.shed"),
		timedOut: reg.Counter("admission.timeout"),
		inflight: reg.Gauge("admission.inflight"),
		peak:     reg.Gauge("admission.inflight_peak"),
	}
}

// acquire admits one operation, blocking in the queue if the service
// is at its in-flight limit. On success the caller must run release
// when the operation finishes. On refusal it returns the typed reason:
// ErrOverloaded (queue full), ErrUnavailable (queue wait exceeded the
// budget), or the caller context's own error.
func (a *admission) acquire(ctx context.Context) error {
	// A dead context takes no slot (a select would pick one at random).
	if err := ctx.Err(); err != nil {
		return err
	}
	if a.pending.Add(1) > a.limit {
		a.pending.Add(-1)
		a.shed.Inc()
		return blob.ErrOverloaded
	}
	select {
	case a.slots <- struct{}{}: // a free slot arms no QueueTimeout timer
		a.admitted()
		return nil
	default:
	}
	wait := ctx
	if a.timeout > 0 {
		var cancel context.CancelFunc
		wait, cancel = context.WithTimeout(ctx, a.timeout)
		defer cancel()
	}
	select {
	case a.slots <- struct{}{}:
		a.admitted()
		return nil
	case <-wait.Done():
		a.pending.Add(-1)
		if err := ctx.Err(); err != nil {
			// The caller gave up (cancel or deadline) — report that, not
			// a service condition.
			return err
		}
		a.timedOut.Inc()
		return blob.ErrUnavailable
	}
}

// admitted records the in-flight level after an acquire took a slot.
func (a *admission) admitted() {
	n := float64(len(a.slots))
	a.inflight.Set(n)
	a.peak.SetMax(n)
}

// release returns one slot and retires the op from the pending count.
func (a *admission) release() {
	<-a.slots
	a.pending.Add(-1)
	a.inflight.Set(float64(len(a.slots)))
}
