// Package blob is a miniature stand-in for the repo's internal/blob:
// just enough surface (KeyLocks, GroupCommitter, Writer) for the
// lockorder fixtures to type-check.
package blob

type KeyLocks struct{}

func (*KeyLocks) Lock(key string)    {}
func (*KeyLocks) Unlock(key string)  {}
func (*KeyLocks) RLock(key string)   {}
func (*KeyLocks) RUnlock(key string) {}

type GroupCommitter struct{}

func (*GroupCommitter) Do(apply func() error) error { return nil }

type Writer interface {
	Append(n int64, data []byte) error
	Commit() error
	Abort() error
}
