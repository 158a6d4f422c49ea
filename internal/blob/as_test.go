package blob

import (
	"context"
	"testing"
)

// engine is a bottom-of-chain store with every capability the walk is
// asked for. Its embedded Store is nil: the tests only probe types.
type engine struct {
	Store
	closed bool
}

func (e *engine) CommitStats() CommitStats { return CommitStats{Commits: 7, Batches: 3} }
func (e *engine) Close() error             { e.closed = true; return nil }
func (e *engine) CompactObject(context.Context, string) (int64, error) {
	return 0, nil
}

// layer has the shape of cache.Store and obs.Store after this change:
// it embeds the store it wraps, forwards nothing by hand, and exposes
// the wrapped store through Inner.
type layer struct{ Store }

func (l layer) Inner() Store { return l.Store }

// opaque wraps without Inner: the walk must stop at it.
type opaque struct{ Store }

// shim has the shape of bench/span.go's spanStore: no Inner, but it
// forwards the two pipeline capabilities itself.
type shim struct{ Store }

func (s shim) CommitStats() CommitStats {
	cs, _ := CommitStatsOf(s.Store)
	return cs
}
func (s shim) Close() error { return CloseStore(s.Store) }

func TestAsWalksInner(t *testing.T) {
	e := &engine{}
	cases := []struct {
		name  string
		store Store
		want  bool
	}{
		{"at the top", e, true},
		{"below one layer", layer{e}, true},
		{"below two layers", layer{layer{e}}, true},
		{"past a layer without Inner", layer{opaque{e}}, false},
		{"nil store", nil, false},
	}
	for _, tc := range cases {
		rw, ok := As[Rewriter](tc.store)
		if ok != tc.want {
			t.Errorf("%s: As[Rewriter] found = %v, want %v", tc.name, ok, tc.want)
		}
		if ok && rw != Rewriter(e) {
			t.Errorf("%s: As[Rewriter] = %v, want the engine", tc.name, rw)
		}
	}
	// The first layer that implements T wins, so a layer that changes a
	// capability (obs's timed CompactObject) shadows the engine's.
	if got, ok := As[interface{ Inner() Store }](layer{layer{e}}); !ok || got != any(layer{layer{e}}) {
		t.Errorf("As returned %v, want the outermost implementer", got)
	}
	if _, ok := As[CommitObserver](layer{e}); ok {
		t.Error("As[CommitObserver] found a capability no layer has")
	}
}

// TestPipelineCapabilitiesThroughWrappers pins CommitStatsOf and
// CloseStore over the two wrapper shapes in the tree: one that defines
// neither method and exposes Inner, and the benchmark's shim, which
// defines both itself and has no Inner.
func TestPipelineCapabilitiesThroughWrappers(t *testing.T) {
	for name, wrap := range map[string]func(Store) Store{
		"layer":           func(s Store) Store { return layer{s} },
		"layer over shim": func(s Store) Store { return layer{shim{layer{s}}} },
	} {
		e := &engine{}
		s := wrap(e)
		if cs, ok := CommitStatsOf(s); !ok || cs.Commits != 7 || cs.Batches != 3 {
			t.Errorf("%s: CommitStatsOf = %+v, %v; want the engine's counters", name, cs, ok)
		}
		if err := CloseStore(s); err != nil || !e.closed {
			t.Errorf("%s: CloseStore = %v, engine closed = %v", name, err, e.closed)
		}
	}
	if cs, ok := CommitStatsOf(opaque{&engine{}}); ok {
		t.Errorf("CommitStatsOf saw through a layer without Inner: %+v", cs)
	}
	if err := CloseStore(opaque{&engine{}}); err != nil {
		t.Errorf("CloseStore of a chain with no reachable pipeline = %v, want nil", err)
	}
}
