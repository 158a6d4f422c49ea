package blob

import "context"

// As returns the first layer of s's wrapper chain that implements T:
// s itself, else whatever s.Inner() returns, and so on down — the
// errors.As idiom for store capabilities. A wrapper layer that only
// changes some operations exposes the store beneath it through
// Inner() Store and need not forward capabilities it does not alter;
// the walk stops at the first layer without an Inner method.
func As[T any](s Store) (T, bool) {
	for s != nil {
		if t, ok := s.(T); ok {
			return t, true
		}
		in, ok := s.(interface{ Inner() Store })
		if !ok {
			break
		}
		s = in.Inner()
	}
	var zero T
	return zero, false
}

// Rewriter is the single-object rewrite capability a store exposes to
// the compactor. The rewrite must publish a fresh version (readers
// pinned to the old layout fail typed) and return the bytes moved —
// 0 when the object was already contiguous or could not be placed.
type Rewriter interface {
	CompactObject(ctx context.Context, key string) (int64, error)
}
