package shard

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/blob"
)

// This file routes compactor rewrites through the shard layer: a
// rewrite goes to the key's owning child (the same rendezvous routing
// every other operation uses). A compact.Compactor over the shard store
// scans every child through EachObjectRuns and meters all of them under
// one duty account; the shard layer itself stays a pure router.

// CompactObject forwards a compactor rewrite to key's owning shard.
func (s *Store) CompactObject(ctx context.Context, key string) (int64, error) {
	child := s.owner(key)
	rw, ok := blob.As[blob.Rewriter](child)
	if !ok {
		return 0, fmt.Errorf("%w: shard backend %s cannot compact objects", errors.ErrUnsupported, child.Name())
	}
	return rw.CompactObject(ctx, key)
}
