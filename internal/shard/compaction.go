package shard

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/blob"
)

// This file routes compactor rewrites through the shard layer: a
// rewrite goes to the key's owning child (the same rendezvous routing
// every other operation uses), and a pack attempt is split per shard so
// each pack extent stays inside one child volume. Aggregated
// CompactStats come from the compact.Fleet driving one compactor per
// child; the shard layer itself stays a pure router.

// CompactObject forwards a compactor rewrite to key's owning shard.
func (s *Store) CompactObject(ctx context.Context, key string) (int64, error) {
	child := s.owner(key)
	rw, ok := blob.As[blob.Rewriter](child)
	if !ok {
		return 0, fmt.Errorf("%w: shard backend %s cannot compact objects", errors.ErrUnsupported, child.Name())
	}
	return rw.CompactObject(ctx, key)
}

// PackObjects splits the keys by owning shard and forwards each group,
// so members of one pack always share a child volume. Children without
// the pack capability, or whose wrapper reports errors.ErrUnsupported,
// are skipped; the packed keys are concatenated.
func (s *Store) PackObjects(ctx context.Context, keys []string) ([]string, error) {
	groups := make(map[int][]string)
	for _, k := range keys {
		idx := s.ShardFor(k)
		groups[idx] = append(groups[idx], k)
	}
	var packed []string
	for idx, group := range groups {
		pk, ok := blob.As[blob.Packer](s.children[idx])
		if !ok {
			continue
		}
		p, err := pk.PackObjects(ctx, group)
		packed = append(packed, p...)
		if err != nil && !errors.Is(err, errors.ErrUnsupported) {
			return packed, err
		}
	}
	return packed, nil
}
