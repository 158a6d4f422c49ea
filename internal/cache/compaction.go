package cache

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/blob"
)

// This file makes the cache layer observe compactor rewrites. A
// relocation at the store level publishes a fresh version, which kills
// store-level readers — but a cache hit never touches the store, so
// without a version bump here a pinned hit-reader (or a later fill
// check) would keep serving the old layout's bytes forever: the ABA
// hazard. Routing the rewrite through these wrappers brackets it with
// the same beginWrite/endWrite protocol commits use, so the version
// bump and entry drop happen atomically with the relocation becoming
// visible, and concurrent fills are suppressed for the duration.

// CompactObject forwards a compactor rewrite to the wrapped store,
// bumping key's version when the object actually moved.
func (s *Store) CompactObject(ctx context.Context, key string) (int64, error) {
	rw, ok := blob.As[blob.Rewriter](s.Store)
	if !ok {
		return 0, fmt.Errorf("%w: %s cannot compact objects", errors.ErrUnsupported, s.Store.Name())
	}
	s.beginWrite(key)
	n, err := rw.CompactObject(ctx, key)
	s.endWrite(key, err == nil && n > 0)
	return n, err
}

// PackObjects forwards a pack attempt to the wrapped store, bumping the
// version of every key that was actually packed (relocated).
func (s *Store) PackObjects(ctx context.Context, keys []string) ([]string, error) {
	pk, ok := blob.As[blob.Packer](s.Store)
	if !ok {
		return nil, fmt.Errorf("%w: %s cannot pack objects", errors.ErrUnsupported, s.Store.Name())
	}
	for _, k := range keys {
		s.beginWrite(k)
	}
	packed, err := pk.PackObjects(ctx, keys)
	moved := make(map[string]bool, len(packed))
	for _, k := range packed {
		moved[k] = true
	}
	for _, k := range keys {
		s.endWrite(k, moved[k])
	}
	return packed, err
}
