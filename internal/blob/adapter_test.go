package blob

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// dyingStore opens readers whose version dies before the read (a
// commit between Open and ReadAll) until dying runs out, then live
// ones; with openErr set, every Open fails.
type dyingStore struct {
	Store
	opens, dying int
	openErr      error
}

func (s *dyingStore) Open(context.Context, string) (Reader, error) {
	s.opens++
	if s.openErr != nil {
		return nil, s.openErr
	}
	s.dying--
	return &dyingReader{dead: s.dying >= 0}, nil
}

type dyingReader struct {
	Reader
	dead bool
}

func (r *dyingReader) Size() int64  { return 3 }
func (r *dyingReader) Close() error { return nil }
func (r *dyingReader) ReadAll() ([]byte, error) {
	if r.dead {
		return nil, fmt.Errorf("%w: k (version replaced or deleted)", ErrNotFound)
	}
	return []byte("abc"), nil
}

// TestGetOpensAgainWhenItsVersionDies: a get whose version dies between
// its Open and its read opens again and returns the live version; an
// Open that fails ends it.
func TestGetOpensAgainWhenItsVersionDies(t *testing.T) {
	ctx := context.Background()
	s := &dyingStore{dying: 2}
	if n, data, err := Get(ctx, s, "k"); err != nil || n != 3 || string(data) != "abc" || s.opens != 3 {
		t.Fatalf("Get = %d, %q, %v after %d opens; want the live version on the third", n, data, err, s.opens)
	}
	s = &dyingStore{openErr: fmt.Errorf("%w: k", ErrNotFound)}
	if _, _, err := Get(ctx, s, "k"); !errors.Is(err, ErrNotFound) || s.opens != 1 {
		t.Fatalf("Get of a deleted key = %v after %d opens; want ErrNotFound after one", err, s.opens)
	}
}
