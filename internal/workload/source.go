package workload

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"

	"repro/internal/units"
)

// This file defines the operation-source API: every workload — synthetic
// churn, popularity-weighted reads, or a recorded trace — is a Source
// producing a stream of typed Ops, and any Source mix can drive any
// blob.Store composition through the Executor. It is the repo's
// counterpart to SEARS's separation of object workload from placement
// policy: the op stream says WHAT happens to objects, the store
// underneath decides WHERE the bytes land.

// OpKind enumerates the operation types a Source can emit.
type OpKind int

const (
	// OpCreate creates a new object of Size bytes.
	OpCreate OpKind = iota
	// OpReplace safe-writes an existing (or new) object with Size bytes.
	OpReplace
	// OpDelete removes an object.
	OpDelete
	// OpRead reads an object: the whole object when Len == 0, otherwise
	// the range [Off, Off+Len).
	OpRead
)

var opKindNames = [...]string{"create", "replace", "delete", "read"}

func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// Op is one operation drawn from a Source.
type Op struct {
	Kind OpKind
	Key  string
	// Size is the object's new logical size, for OpCreate and OpReplace.
	Size int64
	// Off and Len select a ranged read for OpRead; Len == 0 reads the
	// whole object.
	Off, Len int64
}

func (o Op) String() string {
	switch o.Kind {
	case OpCreate, OpReplace:
		return fmt.Sprintf("%s %s %d", o.Kind, o.Key, o.Size)
	case OpRead:
		if o.Len > 0 {
			return fmt.Sprintf("%s %s @%d+%d", o.Kind, o.Key, o.Off, o.Len)
		}
		return fmt.Sprintf("%s %s", o.Kind, o.Key)
	default:
		return fmt.Sprintf("%s %s", o.Kind, o.Key)
	}
}

// Source produces one stream of operations. Next draws the next op
// using the stream's RNG — a Source must consume randomness ONLY
// through this rng, so a fixed seed replays a fixed op sequence — and
// returns ok=false when the stream is exhausted. Sources are driven by
// one goroutine at a time; they need no internal locking.
//
// Two optional interfaces extend the contract:
//
//   - Err() error — a source that ends early because of an internal
//     failure (a malformed trace line, an invalid popularity draw)
//     returns ok=false and reports the cause through Err, like
//     bufio.Scanner.
//   - Observe(op, err) — the Executor reports every executed op back to
//     a source that implements it, so feedback-driven sources (churn
//     interleaving reads only after successful writes) see what actually
//     happened without consuming randomness out of order.
type Source interface {
	// Name identifies the source in reports and error chains.
	Name() string
	// Next draws the next operation.
	Next(rng *rand.Rand) (Op, bool)
}

// SourceObserver is the optional execution-feedback half of the Source
// contract; see Source.
type SourceObserver interface {
	Observe(op Op, err error)
}

// sourceErr is the optional sticky-error half of the Source contract.
type sourceErr interface {
	Err() error
}

// ByteBudget is a byte allowance shared by the load streams of one
// phase: each stream claims object sizes from it until the target is
// reached, so k concurrent loaders race for one volume-wide budget and
// a single loader degenerates to the sequential live-bytes check.
type ByteBudget struct {
	target  int64
	planned atomic.Int64
}

// NewByteBudget returns a budget of target bytes.
func NewByteBudget(target int64) *ByteBudget {
	return &ByteBudget{target: target}
}

// Reserve consumes n bytes of the budget unconditionally — the bytes
// already live in the store before the phase starts.
func (b *ByteBudget) Reserve(n int64) { b.planned.Add(n) }

// Claim atomically claims n bytes, returning false (and leaving the
// budget untouched) when the claim would overshoot the target.
func (b *ByteBudget) Claim(n int64) bool {
	if b.planned.Add(n) > b.target {
		b.planned.Add(-n)
		return false
	}
	return true
}

// LoadSource emits creates of fresh objects until its byte budget is
// exhausted — the bulk-load phase as a Source. Sizes are drawn from
// Dist and rounded up to 4 KB so file and database cluster accounting
// line up.
type LoadSource struct {
	// Dist draws object sizes.
	Dist SizeDist
	// Budget is the (possibly shared) byte allowance; the source stops
	// at the first size that no longer fits.
	Budget *ByteBudget
	// Key names the next fresh object. It is called once per emitted op,
	// only after the budget claim succeeds.
	Key func() string
	// OnCreate, when non-nil, observes each key whose create COMMITTED —
	// the caller's live-key bookkeeping.
	OnCreate func(key string)

	// primed holds the outcome of a claim made by prime; Next returns it
	// before drawing again.
	primed  bool
	first   Op
	firstOK bool
}

// prime draws and claims the source's first op now, ahead of the phase.
// Runner.BulkLoadBytes primes its load streams in stream order before
// any starts, so each of k streams holds a share of a budget of k or
// more objects whatever the Go scheduler does: left to race, a stream
// whose goroutine first ran after its siblings had drained the budget
// sat the whole load out.
func (s *LoadSource) prime(rng *rand.Rand) {
	s.first, s.firstOK = s.Next(rng)
	s.primed = true
}

// Name implements Source.
func (s *LoadSource) Name() string { return "load" }

// Next implements Source.
func (s *LoadSource) Next(rng *rand.Rand) (Op, bool) {
	if s.primed {
		s.primed = false
		return s.first, s.firstOK
	}
	size := units.RoundUp(s.Dist.Sample(rng), 4*units.KB)
	if !s.Budget.Claim(size) {
		return Op{}, false
	}
	return Op{Kind: OpCreate, Key: s.Key(), Size: size}, true
}

// Observe implements SourceObserver: successful creates are reported to
// OnCreate.
func (s *LoadSource) Observe(op Op, err error) {
	if err == nil && op.Kind == OpCreate && s.OnCreate != nil {
		s.OnCreate(op.Key)
	}
}

// ChurnSource safe-writes uniformly chosen objects from its keyspace
// until the storage age reaches TargetAge, optionally interleaving
// whole-object reads after each successful write (the paper's §4.3
// get/put mix). Age is polled through the Age func so k concurrent
// churn streams reading one store's storage age all stop at the
// volume-wide target.
type ChurnSource struct {
	// Keys is the stream's keyspace; every write and interleaved read
	// targets a uniformly drawn member.
	Keys []string
	// Dist draws replacement sizes (rounded up to 4 KB).
	Dist SizeDist
	// TargetAge stops the stream once Age() reaches it.
	TargetAge float64
	// Age reports the current storage age (normally AgeTracker.Age,
	// which reads the store's retired and live bytes on every poll).
	Age func() float64
	// ReadsPerWrite interleaves this many whole-object reads per
	// SUCCESSFUL safe write; a skipped or failed write interleaves none,
	// exactly as the pre-Source churn loop behaved.
	ReadsPerWrite int

	pendingReads int
}

// Name implements Source.
func (s *ChurnSource) Name() string { return "churn" }

// Next implements Source: queued interleaved reads drain first, then
// the age gate is re-checked before each write.
func (s *ChurnSource) Next(rng *rand.Rand) (Op, bool) {
	if s.pendingReads > 0 {
		s.pendingReads--
		return Op{Kind: OpRead, Key: s.Keys[rng.Intn(len(s.Keys))]}, true
	}
	if len(s.Keys) == 0 || s.Age() >= s.TargetAge {
		return Op{}, false
	}
	key := s.Keys[rng.Intn(len(s.Keys))]
	size := units.RoundUp(s.Dist.Sample(rng), 4*units.KB)
	return Op{Kind: OpReplace, Key: key, Size: size}, true
}

// Observe implements SourceObserver: only a write that actually
// succeeded queues its interleaved reads, so the rng sequence matches
// the classic loop under TolerateNoSpace skips (which drew no read keys
// for skipped writes).
func (s *ChurnSource) Observe(op Op, err error) {
	if op.Kind == OpReplace && err == nil {
		s.pendingReads = s.ReadsPerWrite
	}
}

// ReadSource emits Samples whole-object reads over a fixed keyspace,
// drawn by Popularity (uniform when nil) — the read-throughput
// measurement phase as a Source.
type ReadSource struct {
	// Keys is the live-object population to read from.
	Keys []string
	// Samples is the number of reads to emit.
	Samples int
	// Popularity picks which object each read targets; nil reads
	// uniformly.
	Popularity Popularity

	emitted int
	pick    func() int
	err     error
}

// Name implements Source.
func (s *ReadSource) Name() string {
	if s.Popularity != nil {
		return "read " + s.Popularity.Name()
	}
	return "read"
}

// Next implements Source.
func (s *ReadSource) Next(rng *rand.Rand) (Op, bool) {
	if s.err != nil || s.emitted >= s.Samples || len(s.Keys) == 0 {
		return Op{}, false
	}
	if s.pick == nil {
		s.pick = func() int { return rng.Intn(len(s.Keys)) }
		if s.Popularity != nil {
			s.pick = s.Popularity.Picker(rng, len(s.Keys))
		}
	}
	idx := s.pick()
	if s.Popularity != nil && (idx < 0 || idx >= len(s.Keys)) {
		s.err = fmt.Errorf("%w: popularity %s picked %d of %d objects",
			ErrBadDist, s.Popularity.Name(), idx, len(s.Keys))
		return Op{}, false
	}
	s.emitted++
	return Op{Kind: OpRead, Key: s.Keys[idx]}, true
}

// Err implements the optional sticky-error contract: a popularity draw
// outside [0, len(Keys)) ends the stream with ErrBadDist.
func (s *ReadSource) Err() error { return s.err }

// ParseDist parses a size-distribution spec of the form the fragbench
// -dist flag accepts:
//
//	constant:SIZE   every object SIZE bytes (e.g. constant:10M)
//	uniform:MIN-MAX sizes uniform on [MIN, MAX] (e.g. uniform:5M-15M)
//	SIZE            shorthand for constant:SIZE
//
// Sizes use units.ParseBytes notation. Malformed specs are refused with
// an error wrapping ErrBadDist.
func ParseDist(spec string) (SizeDist, error) {
	name, arg, ok := strings.Cut(spec, ":")
	if !ok {
		size, err := units.ParseBytes(spec)
		if err != nil || size <= 0 {
			return nil, fmt.Errorf("%w: bad size %q", ErrBadDist, spec)
		}
		return Constant{Size: size}, nil
	}
	switch name {
	case "constant":
		size, err := units.ParseBytes(arg)
		if err != nil || size <= 0 {
			return nil, fmt.Errorf("%w: bad constant size %q", ErrBadDist, arg)
		}
		return Constant{Size: size}, nil
	case "uniform":
		lo, hi, ok := strings.Cut(arg, "-")
		if !ok {
			return nil, fmt.Errorf("%w: uniform needs MIN-MAX, got %q", ErrBadDist, arg)
		}
		min, err := units.ParseBytes(lo)
		if err != nil || min <= 0 {
			return nil, fmt.Errorf("%w: bad uniform min %q", ErrBadDist, lo)
		}
		max, err := units.ParseBytes(hi)
		if err != nil || max < min {
			return nil, fmt.Errorf("%w: bad uniform max %q (min %q)", ErrBadDist, hi, lo)
		}
		return Uniform{Min: min, Max: max}, nil
	default:
		return nil, fmt.Errorf("%w: unknown distribution %q (want constant:SIZE or uniform:MIN-MAX)", ErrBadDist, name)
	}
}

var (
	_ Source         = (*LoadSource)(nil)
	_ Source         = (*ChurnSource)(nil)
	_ Source         = (*ReadSource)(nil)
	_ SourceObserver = (*LoadSource)(nil)
	_ SourceObserver = (*ChurnSource)(nil)
)
