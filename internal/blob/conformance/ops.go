package conformance

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/blob"
	"repro/internal/compact"
	"repro/internal/db"
	"repro/internal/disk"
	"repro/internal/fs"
	"repro/internal/units"
)

// MaxOps bounds one sequence. Each volume holds 16 MB, so an oversized
// write asks for 64.
const (
	MaxOps      = 64
	opsCapacity = 16 * units.MB
)

// opKeys are the keys a sequence draws from: safe-write temp names
// beside their keys, and a key the filesystem has to escape.
var opKeys = []string{"k", "k.tmp~", "k~", "a", "a.tmp~", "b", "c.tmp~", "d"}

var opSizes = []int64{0, 1, 4 * units.KB, 5000, 64 * units.KB, 130 * units.KB, 300 * units.KB, -1}

// RunOps decodes ops into at most MaxOps operations over opKeys and four
// handle slots (see step; missing bytes read as zero), runs them on a
// fresh data-mode store from mk and on a Model, and fails t at the
// first result or sentinel that differs. After every operation
// the objects, live bytes and retired bytes of one Usage, and Keys,
// must be the model's.
// Every payload view must have cap == len and keep its bytes to the
// end; a second goroutine re-reads the views after each operation, so
// under -race a store that writes into a view it handed out is a
// reported race. The sequence ends with the engine's invariant check
// (the database's or the filesystem volume's).
func RunOps(t *testing.T, mk Factory, ops []byte) {
	t.Helper()
	d := &opRun{t: t, in: ops, m: NewModel(), seen: map[string][2]uint64{},
		s:    mk(blob.WithCapacity(opsCapacity), blob.WithDiskMode(disk.DataMode)),
		tick: make(chan struct{}, 1), done: make(chan struct{})}
	go d.watch()
	defer func() { close(d.tick); <-d.done }()
	for i := 0; i < MaxOps && len(d.in) > 0; i++ {
		d.step(i)
		u := d.s.Usage()
		u.FreeBytes, u.CapacityBytes = 0, 0 // the model has no layout
		d.expectEqual("Usage", u, d.m.Usage())
		d.expectEqual("Keys", strings.Join(slices.Sorted(slices.Values(d.s.Keys())), " "), strings.Join(d.m.Keys(), " "))
		select {
		case d.tick <- struct{}{}:
		default:
		}
	}
	if what := d.changed(); what != "" {
		d.fail("the view read at %s changed", what)
	}
	if e, ok := blob.As[interface{ Engine() *db.Database }](d.s); ok {
		e.Engine().CheckInvariants()
	}
	if e, ok := blob.As[interface{ Volume() *fs.Volume }](d.s); ok {
		e.Volume().CheckInvariants()
	}
}

// opRun is one RunOps sequence: the store and the model it runs on,
// the handle table they share, and the views the store handed out.
type opRun struct {
	t    *testing.T
	s    blob.Store
	m    *Model
	in   []byte
	log  []string
	h    [4]handle
	ids  int                  // handles issued, which number them for the model
	seen map[string][2]uint64 // key -> {model version, Info.Version} at its last Stat

	mu         sync.Mutex
	views      []view
	tick, done chan struct{}
}

// handle is one slot of the handle table.
type handle struct {
	id     int
	r      blob.Reader
	w      blob.Writer
	closed int // d.ids when it was released; -1 while open
}

type view struct {
	what      string
	got, want []byte
}

func (d *opRun) next() (b byte) {
	if len(d.in) > 0 {
		b, d.in = d.in[0], d.in[1:]
	}
	return b
}

func (d *opRun) key() string { return opKeys[int(d.next())%len(opKeys)] }

// slot returns the handle an op names, and whether the op may use it:
// a new handle goes only where none is open, and an old one is used
// while it is open or released with no newer handle issued (after that
// the store may have recycled it).
func (d *opRun) slot(fresh bool) (*handle, bool) {
	h := &d.h[d.next()%4]
	if fresh {
		return h, h.closed >= 0
	}
	return h, h.closed < 0 || h.closed == d.ids && h.id > 0
}

func (d *opRun) note(format string, args ...any) {
	d.log = append(d.log, fmt.Sprintf(format, args...))
}

func (d *opRun) fail(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("%s: %s\nops:\n  %s", d.s.Name(), fmt.Sprintf(format, args...), strings.Join(d.log, "\n  "))
}

// expect fails unless got carries want's sentinel, or both are nil.
func (d *opRun) expect(got, want error) {
	d.t.Helper()
	if want == nil && got != nil || want != nil && !errors.Is(got, want) {
		d.fail("got error %v, want %v", got, want)
	}
}

func (d *opRun) expectEqual(what string, got, want any) {
	d.t.Helper()
	if got != want {
		d.fail("%s = %+v, want %+v", what, got, want)
	}
}

// step runs operation i. Its opcode, mod 16, selects Create or Replace
// (key, size, slot), Append (slot, kind: mod 4 the rest of the stream,
// half of it, one byte over or nothing; nil data for kind&4; a short
// buffer for kind&8), Commit or Abort (slot), Delete or Stat (key), Open
// (key, slot), ReadAll or ReadAt (slot, offset, length), Close (slot),
// an oversized write (key), CompactObject (key, two opcodes), and with
// no argument a compactor pass or Recover.
func (d *opRun) step(i int) {
	d.t.Helper()
	ctx := context.Background()
	switch op := d.next() % 16; op {
	case 0, 1:
		create, key, size := op == 0, d.key(), opSizes[d.next()%8]
		h, ok := d.slot(true)
		if !ok {
			return
		}
		id := d.ids + 1
		d.note("w%d = create=%v %q %d", id, create, key, size)
		open := d.s.Replace
		if create {
			open = d.s.Create
		}
		w, err := open(ctx, key, size)
		if d.expect(err, d.m.Begin(id, key, size, create)); err == nil {
			d.ids, *h = id, handle{id: id, w: w, closed: -1}
		}
	case 2:
		h, ok := d.slot(false)
		kind := d.next()
		if !ok || h.w == nil {
			return
		}
		ws := d.m.writers[h.id]
		rest := ws.size - ws.written
		n := [4]int64{rest, max(1, rest/2), rest + 1, 0}[kind%4]
		var data []byte
		if kind&4 == 0 {
			data = payload(max(n, 0))
			for j := range data {
				data[j] ^= byte(i)
			}
			data = data[:len(data)>>(kind>>3&1)]
		}
		d.note("w%d.Append(%d, %d bytes, nil=%v)", h.id, n, len(data), data == nil)
		d.expect(h.w.Append(n, data), d.m.Append(h.id, n, data))
	case 3, 4:
		h, ok := d.slot(false)
		if !ok || h.w == nil {
			return
		}
		if d.note("w%d commit=%v", h.id, op == 3); op == 3 {
			d.expect(h.w.Commit(), d.m.Commit(h.id))
		} else {
			d.expect(h.w.Abort(), d.m.Abort(h.id))
		}
		if d.m.writers[h.id].closed && h.closed < 0 {
			h.closed = d.ids
		}
	case 5:
		key := d.key()
		d.note("Delete %q", key)
		d.expect(d.s.Delete(ctx, key), d.m.Delete(key))
	case 6:
		d.stat(d.key())
	case 7:
		key := d.key()
		h, ok := d.slot(true)
		if !ok {
			return
		}
		id := d.ids + 1
		d.note("r%d = Open %q", id, key)
		r, err := d.s.Open(ctx, key)
		size, want := d.m.Open(id, key)
		if d.expect(err, want); err == nil {
			d.expectEqual("Size()", r.Size(), size)
			d.ids, *h = id, handle{id: id, r: r, closed: -1}
		}
	case 8, 9:
		h, ok := d.slot(false)
		off, length := d.next(), d.next()
		if ok && h.r != nil {
			n := h.r.Size()
			at := func(b byte) int64 { return []int64{0, 1, n / 3, n, n + 1, -1, math.MaxInt64 - 10}[b%7] }
			d.read(h, op == 8, at(off), at(length))
		}
	case 10:
		h, ok := d.slot(false)
		if !ok || h.r == nil {
			return
		}
		d.note("r%d.Close", h.id)
		d.expect(h.r.Close(), d.m.Close(h.id))
		if h.closed < 0 {
			h.closed = d.ids
		}
	case 11: // more than a volume holds fails at Replace, Append or Commit
		key, size := d.key(), 4*opsCapacity
		if d.m.writing(key) {
			return
		}
		d.note("oversized Replace %q", key)
		w, err := d.s.Replace(ctx, key, size)
		if err == nil {
			d.ids++
			if err = w.Append(size, nil); err == nil {
				err = w.Commit()
			}
			w.Abort()
		}
		d.expect(err, blob.ErrNoSpaceLeft)
	case 12, 13:
		key := d.key()
		if rw, ok := blob.As[blob.Rewriter](d.s); ok {
			d.note("CompactObject %q", key)
			n, err := rw.CompactObject(ctx, key)
			if d.expect(err, d.m.Compact(key)); n > 0 {
				d.relocate(key)
			}
		}
	case 14: // which versions a compactor pass moved is Stat's to tell
		if comp, err := compact.New(d.s, 1); err == nil {
			d.note("compact.RunOnce")
			before := map[string]uint64{}
			for _, key := range d.m.Keys() {
				before[key] = d.stat(key)
			}
			comp.RunOnce(ctx)
			for _, key := range d.m.Keys() {
				if info, err := d.s.Stat(ctx, key); err != nil || info.Version != before[key] {
					d.relocate(key)
				}
				d.stat(key)
			}
		}
	case 15: // with no writer open, Recover keeps every committed version
		rec, ok := blob.As[interface{ Recover() int }](d.s)
		for _, w := range d.m.writers {
			ok = ok && w.closed
		}
		if ok {
			d.note("Recover")
			d.expectEqual("temp files Recover swept", rec.Recover(), 0)
		}
	}
}

// read checks one ReadAll or ReadAt of h against the model and holds on
// to the view it returns.
func (d *opRun) read(h *handle, whole bool, off, length int64) {
	d.t.Helper()
	var got []byte
	var err error
	if d.note("r%d.Read whole=%v [%d, +%d)", h.id, whole, off, length); whole {
		got, err = h.r.ReadAll()
	} else {
		got, err = h.r.ReadAt(off, length)
	}
	want, wantErr := d.m.Read(h.id, whole, off, length)
	d.expect(err, wantErr)
	if !bytes.Equal(got, want) || want == nil && len(got) > 0 {
		d.fail("read %d bytes, want %d (equal: %v)", len(got), len(want), bytes.Equal(got, want))
	}
	d.expectEqual("cap(view)", cap(got), len(got))
	if len(got) > 0 {
		d.mu.Lock()
		d.views = append(d.views, view{d.log[len(d.log)-1], got, want})
		d.mu.Unlock()
	}
}

// stat checks Stat(key) against the model and the version rule:
// Info.Version stays put while the model's version does, and grows when
// it changes. It returns the version.
func (d *opRun) stat(key string) uint64 {
	d.t.Helper()
	d.note("Stat %q", key)
	info, err := d.s.Stat(context.Background(), key)
	size, version, want := d.m.Stat(key)
	if d.expect(err, want); err != nil {
		return 0
	}
	d.expectEqual("Stat", info, blob.Info{Key: key, Size: size, Version: info.Version})
	now := [2]uint64{uint64(version), info.Version}
	if was, ok := d.seen[key]; ok && ((was[0] == now[0]) != (was[1] == now[1]) || now[1] < was[1]) {
		d.fail("Info.Version went %d -> %d while the model's went %d -> %d", was[1], now[1], was[0], now[0])
	}
	d.seen[key] = now
	return info.Version
}

func (d *opRun) relocate(key string) {
	d.t.Helper()
	d.note("  moved %q", key)
	if err := d.m.Relocate(key); err != nil {
		d.fail("%v", err)
	}
}

// changed names the first held view whose bytes changed, or is "".
func (d *opRun) changed() string {
	d.mu.Lock()
	views := d.views
	d.mu.Unlock()
	for _, v := range views {
		if !bytes.Equal(v.got, v.want) {
			return v.what
		}
	}
	return ""
}

// watch re-reads the held views after every operation, concurrently
// with the next one, as a server writing a view to a socket does.
func (d *opRun) watch() {
	defer close(d.done)
	for range d.tick {
		if what := d.changed(); what != "" {
			d.t.Errorf("%s: the view read at %s changed under a concurrent reader", d.s.Name(), what)
			return
		}
	}
}
