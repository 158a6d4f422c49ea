package client

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server/wire"
)

// TestDoJSONIsBounded drives the one JSON reader every listing and
// stats call goes through: a body within the limit decodes, and one
// past it, or one that does not decode, fails with ErrBadResponse
// instead of being buffered whole.
func TestDoJSONIsBounded(t *testing.T) {
	keys := `{"keys":["a","b","c"]}`
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case wire.PathStats:
			fmt.Fprint(rw, `{"name":"small"}`)
		case wire.PathKeys:
			fmt.Fprint(rw, keys)
		default:
			fmt.Fprint(rw, `{"keys":`) // cut short
		}
	}))
	defer ts.Close()
	s, err := Dial(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := t.Context()
	limit := int64(len(keys))

	var kr wire.KeysResponse
	if err := s.doJSON(ctx, wire.PathKeys, limit, &kr); err != nil || strings.Join(kr.Keys, ",") != "a,b,c" {
		t.Fatalf("keys body of exactly the limit = %v, %v; want a,b,c", kr.Keys, err)
	}
	if err := s.doJSON(ctx, wire.PathKeys, limit-1, &kr); !errors.Is(err, ErrBadResponse) {
		t.Fatalf("keys body one byte over the limit = %v, want ErrBadResponse", err)
	}
	if err := s.doJSON(ctx, wire.PathLayout, 1<<10, &kr); !errors.Is(err, ErrBadResponse) {
		t.Fatalf("truncated body = %v, want ErrBadResponse", err)
	}
}
