package blob

import (
	"sync"
	"unsafe"
)

// DefaultKeyStripes is the stripe count of every KeyLocks. Power of two
// so the hash folds with a mask.
const DefaultKeyStripes = 64

// KeyLocks is a striped per-key reader/writer lock: keys hash onto a
// fixed array of RWMutexes, giving per-key mutual exclusion without a
// lock per live object. The shard router orders same-key mutations
// through the key's stripe across its child calls; the core stores need
// none, as one store-level mutex already serializes every engine call.
//
// Locks are held for the duration of one store call, never across a
// Reader's or Writer's lifetime, so callers cannot deadlock themselves
// by interleaving handles.
//
// Build a KeyLocks with NewKeyLocks; the zero value has no stripes and
// must not be used.
type KeyLocks struct {
	stripes []paddedRWMutex
	mask    uint64
}

// paddedRWMutex gives each stripe its own cache line: with hundreds of
// streams hashing across the array, adjacent stripes packed 24 bytes
// apart would false-share every lock word.
type paddedRWMutex struct {
	sync.RWMutex
	_ [64 - unsafe.Sizeof(sync.RWMutex{})%64]byte
}

// NewKeyLocks builds a KeyLocks of DefaultKeyStripes stripes.
func NewKeyLocks() *KeyLocks {
	return &KeyLocks{
		stripes: make([]paddedRWMutex, DefaultKeyStripes),
		mask:    DefaultKeyStripes - 1,
	}
}

// stripe returns the lock shard for key (FNV-1a, folded to the stripe
// count).
func (kl *KeyLocks) stripe(key string) *paddedRWMutex {
	return &kl.stripes[fnv1a(key)&kl.mask]
}

// fnv1a hashes s with 64-bit FNV-1a.
func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Lock acquires key's stripe exclusively.
func (kl *KeyLocks) Lock(key string) { kl.stripe(key).Lock() }

// Unlock releases key's exclusive stripe lock.
func (kl *KeyLocks) Unlock(key string) { kl.stripe(key).Unlock() }

// RLock acquires key's stripe shared.
func (kl *KeyLocks) RLock(key string) { kl.stripe(key).RLock() }

// RUnlock releases key's shared stripe lock.
func (kl *KeyLocks) RUnlock(key string) { kl.stripe(key).RUnlock() }
