package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/vclock"
)

// Executor drives k operation streams from any mix of Sources against
// one blob.Store — the single engine behind the Runner (one stream or
// k), trace replay and the load generator, which runs it over a
// client.Store. Each Stream runs on its own goroutine drawing
// ops from its Source with its own RNG, so appends
// from different streams genuinely interleave in allocation order (the
// §6 regime) while each stream's op sequence stays reproducible per
// seed. One stream runs inline on the caller's goroutine, so a k=1
// phase is byte-for-byte the classic sequential workload.
//
// Every stream writes straight to the store, whose own live and retired
// bytes are the storage age (a property of the volume, not of any
// writer), and phase timing is read from the store's virtual clock.
// Nothing but the streams runs during a Run: store maintenance such as
// online compaction is a step the caller takes between runs
// (compact.Compactor.CatchUp), never a concurrent worker.
type Executor struct {
	ctx       context.Context
	store     blob.Store
	collector *obs.Collector
	payload   bool
}

// NewExecutor creates an executor over store.
func NewExecutor(store blob.Store) *Executor {
	return &Executor{ctx: context.Background(), store: store}
}

// WithContext sets the context every stream's operations carry, for
// cancelling a long phase from outside.
func (e *Executor) WithContext(ctx context.Context) *Executor {
	e.ctx = ctx
	return e
}

// WithPayload makes every create and replace send real bytes: each
// stream writes a prefix of one patterned buffer (byte i is byte(i)),
// grown to the largest write the stream has made. Without it (the
// default) a write is metadata-only: sizes travel, bytes do not.
func (e *Executor) WithPayload(on bool) *Executor {
	e.payload = on
	return e
}

// WithCollector installs per-op observability: every op of every
// stream is timed end to end on the collector's clock, recorded in its
// registry and traced with its per-layer spans when the store chain is
// obs-wrapped. A nil collector (the default) records nothing.
func (e *Executor) WithCollector(c *obs.Collector) *Executor {
	e.collector = c
	return e
}

// Tracker reads the store's storage age.
func (e *Executor) Tracker() *core.AgeTracker { return core.NewAgeTracker(e.store) }

// Store returns the store under test.
func (e *Executor) Store() blob.Store { return e.store }

// Stream pairs a Source with the RNG that drives it. RNGs are
// caller-owned so they can persist across phases (the classic Runner
// semantics: bulk load and churn continue one random sequence).
type Stream struct {
	// Source produces the stream's operations.
	Source Source
	// RNG drives the source's draws. Each stream needs its own; sharing
	// one RNG across concurrent streams would race.
	RNG *rand.Rand
	// SkipLimit aborts the stream when more than this many CONSECUTIVE
	// writes are skipped under SkipNoSpace (0 = no limit).
	SkipLimit int
}

// ErrorPolicy says what a stream does when one of its ops fails. Under
// every policy an observing source (SourceObserver) hears of each op
// once, after any retries.
type ErrorPolicy int

const (
	// FailFast, the zero value, ends the stream at its first failed op.
	FailFast ErrorPolicy = iota
	// SkipNoSpace skips a create or replace refused with
	// blob.ErrNoSpaceLeft, counting it in Counts.Skipped — the sharded
	// regime, where one nearly-full shard can refuse a replace while the
	// fleet has room. A stream still fails once Stream.SkipLimit
	// consecutive writes are refused, so a genuinely full store cannot
	// spin forever, and any other failure ends it.
	//
	// A run of one stream also charges the virtual time burned by each
	// skipped write to Counts.SkippedSeconds (a refused safe write still
	// pays for the allocation attempt and its rollback), so refused
	// writes stay out of throughput means. With k concurrent streams a
	// skipped op's interval overlaps other streams' useful work, so there
	// is no idle time to subtract.
	SkipNoSpace
	// Continue goes on after any failed op: the failure is a measurement
	// (a served step under overload), which the collector counts.
	Continue
	// RetryShed runs an op refused by admission control
	// (blob.ErrOverloaded, blob.ErrUnavailable) again until it lands or
	// the run's context ends, then goes on as Continue does: a setup
	// phase that must converge even against a tiny admission limit.
	RetryShed
)

// RunOptions controls one Executor.Run. The zero value fails fast.
type RunOptions struct {
	// Errors is what a stream does when an op fails.
	Errors ErrorPolicy
}

// Counts is the raw per-stream operation accounting of one run.
type Counts struct {
	Creates, Replaces, Deletes, Reads int
	// Skipped counts writes refused with ErrNoSpaceLeft under
	// SkipNoSpace.
	Skipped int
	// BytesWritten is payload bytes of successful creates and replaces.
	BytesWritten int64
	// BytesRead is payload bytes returned by reads (a ranged read counts
	// its range length).
	BytesRead int64
	// SkippedSeconds is virtual time consumed by skipped writes in a
	// one-stream run under SkipNoSpace.
	SkippedSeconds float64
}

// Ops returns the number of operations that executed successfully.
func (c Counts) Ops() int { return c.Creates + c.Replaces + c.Deletes + c.Reads }

func (c *Counts) add(o Counts) {
	c.Creates += o.Creates
	c.Replaces += o.Replaces
	c.Deletes += o.Deletes
	c.Reads += o.Reads
	c.Skipped += o.Skipped
	c.BytesWritten += o.BytesWritten
	c.BytesRead += o.BytesRead
	c.SkippedSeconds += o.SkippedSeconds
}

// RunResult is one Executor.Run's accounting: per-stream counts plus
// the phase's span on the store's virtual clock.
type RunResult struct {
	// Streams holds one Counts per input stream, in order.
	Streams []Counts
	// Seconds is the virtual time the whole run spanned.
	Seconds float64
}

// Total sums the per-stream counts.
func (r RunResult) Total() Counts {
	var t Counts
	for _, c := range r.Streams {
		t.add(c)
	}
	return t
}

// MaxStreams bounds the stream count one Run accepts. The limit is
// deliberately independent of NumCPU — k is a workload parameter (how
// many writers interleave in the simulation), not a parallelism hint —
// and exists only to catch a garbage k before it allocates a goroutine
// fleet.
const MaxStreams = 4096

// Run drives every stream to exhaustion (or error) concurrently and
// returns the per-stream accounting. A failing stream does not cancel
// its siblings — they run to their own completion, as k independent
// writers would — and all stream errors are joined. Partial counts are
// returned even on error.
//
// A stream count outside [1, MaxStreams] is refused with an error
// wrapping blob.ErrBadOption.
//
// One stream runs inline: a k=1 phase is byte-for-byte the classic
// sequential workload.
func (e *Executor) Run(streams []Stream, opts RunOptions) (RunResult, error) {
	if len(streams) < 1 {
		return RunResult{}, fmt.Errorf("workload: %d streams (want at least 1): %w",
			len(streams), blob.ErrBadOption)
	}
	if len(streams) > MaxStreams {
		return RunResult{}, fmt.Errorf("workload: %d streams exceeds MaxStreams %d: %w",
			len(streams), MaxStreams, blob.ErrBadOption)
	}
	res := RunResult{Streams: make([]Counts, len(streams))}
	w := vclock.StartWatch(e.store.Clock())
	var err error
	if len(streams) == 1 {
		// One stream runs inline: no goroutine between the caller and
		// the classic sequential workload.
		err = e.runStream(0, streams[0], opts, true, &res.Streams[0])
	} else {
		errs := make([]error, len(streams))
		// The streams start together, once all exist: a stream that ran
		// while its siblings were still being spawned could drain a
		// shared budget (the bulk load's) alone, leaving k-1 idle streams.
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range streams {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				errs[i] = e.runStream(i, streams[i], opts, false, &res.Streams[i])
			}(i)
		}
		close(start)
		wg.Wait()
		err = errors.Join(errs...)
	}
	res.Seconds = w.Seconds()
	return res, err
}

// runStream drains one source, executing each op against the store
// and handling a failed op as opts.Errors says. A refused write skipped
// under SkipNoSpace charges its virtual time to c.SkippedSeconds when
// the stream runs alone.
func (e *Executor) runStream(id int, st Stream, opts RunOptions, alone bool, c *Counts) error {
	trackSkips := opts.Errors == SkipNoSpace && alone
	src := st.Source
	obs, observes := src.(SourceObserver)
	var payload []byte // the stream's patterned write buffer under WithPayload
	consecutiveSkips := 0
	for opIdx := 0; ; opIdx++ {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		op, ok := src.Next(st.RNG)
		if !ok {
			if es, hasErr := src.(sourceErr); hasErr {
				if err := es.Err(); err != nil {
					return fmt.Errorf("stream %d (%s): %w", id, src.Name(), err)
				}
			}
			return nil
		}
		write := op.Kind == OpCreate || op.Kind == OpReplace
		var data []byte
		if e.payload && write {
			payload = patterned(payload, op.Size)
			data = payload[:op.Size]
		}
		var opWatch vclock.Stopwatch
		if trackSkips {
			opWatch = vclock.StartWatch(e.store.Clock())
		}
		opCtx, tr := e.collector.StartOp(e.ctx, id, op.Kind.String(), op.Key)
		err := e.execOp(opCtx, op, data, c)
		for opts.Errors == RetryShed && Shed(err) && e.ctx.Err() == nil {
			err = e.execOp(opCtx, op, data, c)
		}
		e.collector.FinishOp(tr, err)
		if observes {
			obs.Observe(op, err)
		}
		switch {
		case err == nil:
			consecutiveSkips = 0
		case opts.Errors == Continue || opts.Errors == RetryShed:
		case opts.Errors == SkipNoSpace && write && errors.Is(err, blob.ErrNoSpaceLeft):
			c.Skipped++
			if trackSkips {
				c.SkippedSeconds += opWatch.Seconds()
			}
			consecutiveSkips++
			if st.SkipLimit > 0 && consecutiveSkips > st.SkipLimit {
				return fmt.Errorf("stream %d (%s) op %d: store full on every try: %w",
					id, src.Name(), opIdx, err)
			}
		default:
			return fmt.Errorf("stream %d (%s) op %d (%s): %w", id, src.Name(), opIdx, op, err)
		}
	}
}

// Shed reports whether err is an admission refusal (blob.ErrOverloaded
// or blob.ErrUnavailable): what RetryShed runs again.
func Shed(err error) bool {
	return err != nil && (errors.Is(err, blob.ErrOverloaded) || errors.Is(err, blob.ErrUnavailable))
}

// patterned returns buf, or a longer replacement, holding at least n
// bytes of the payload pattern. Byte i is always byte(i), so a prefix
// of a longer buffer is what a buffer of its own length would be.
func patterned(buf []byte, n int64) []byte {
	if int64(len(buf)) >= n {
		return buf
	}
	buf = make([]byte, n)
	for i := range buf {
		buf[i] = byte(i)
	}
	return buf
}

// execOp executes one op, charging c only on success; a write sends
// data, nil for a metadata-only write. ctx carries the op's trace (when
// a collector is installed) so obs-wrapped layers of the store chain
// can attribute their spans to it. A replace or delete first makes the
// application's metadata lookup, a Stat charged like one.
func (e *Executor) execOp(ctx context.Context, op Op, data []byte, c *Counts) error {
	switch op.Kind {
	case OpCreate:
		if err := blob.Put(ctx, e.store, op.Key, op.Size, data); err != nil {
			return err
		}
		c.Creates++
		c.BytesWritten += op.Size
	case OpReplace:
		e.store.Stat(ctx, op.Key)
		if err := blob.Replace(ctx, e.store, op.Key, op.Size, data); err != nil {
			return err
		}
		c.Replaces++
		c.BytesWritten += op.Size
	case OpDelete:
		if _, err := e.store.Stat(ctx, op.Key); err != nil {
			return err
		}
		if err := e.store.Delete(ctx, op.Key); err != nil {
			return err
		}
		c.Deletes++
	case OpRead:
		if op.Len > 0 {
			r, err := e.store.Open(ctx, op.Key)
			if err != nil {
				return err
			}
			_, err = r.ReadAt(op.Off, op.Len)
			r.Close()
			if err != nil {
				return err
			}
			c.Reads++
			c.BytesRead += op.Len
		} else {
			n, _, err := blob.Get(ctx, e.Store(), op.Key)
			if err != nil {
				return err
			}
			c.Reads++
			c.BytesRead += n
		}
	default:
		return fmt.Errorf("workload: unknown op kind %v", op.Kind)
	}
	return nil
}
