package db

import (
	"fmt"

	"repro/internal/blob"
	"repro/internal/disk"
	"repro/internal/extent"
	"repro/internal/units"
)

// Errors returned by engine operations. Each is the corresponding blob
// sentinel, so errors.Is(err, blob.ErrNotFound) and friends hold through
// the database layer without translation.
var (
	ErrNotFound = blob.ErrNotFound
	ErrExists   = blob.ErrAlreadyExists
	ErrNoSpace  = blob.ErrNoSpaceLeft
	ErrCrashed  = blob.ErrCrashed
)

// The engine's fixed costs. ghostHorizon is the number of committed
// operations after which a deleted object's pages rejoin the free pool
// (SQL Server's deferred ghost cleanup). The host CPU charges are in
// microseconds: pageCPUUs per page on the BLOB read/write path — the
// §3.1 folklore that "database client interfaces are not designed for
// large objects" — and rowCPUUs per operation for the B-tree descent and
// row handling. bufferPoolPages is the metadata cache's capacity.
const (
	ghostHorizon    = 8
	pageCPUUs       = 100
	rowCPUUs        = 500
	bufferPoolPages = 4096
)

// Config describes a database instance. The zero value is SQL Server as
// the paper ran it: bulk-logged, with 64 KB write requests (§4.1, §5.3).
type Config struct {
	// WriteRequestSize is the client write-request size in bytes; each
	// request is one allocation. 0 takes blob.DefaultWriteRequestSize;
	// negative means one request per object.
	WriteRequestSize int64
}

// layout is where one version of an out-of-row BLOB lives: the leaf level
// of its Exodus-style fragment tree as page runs, and the tree's node
// pages. A published layout is immutable — the row, the ghost entry that
// later inherits it and begin's saved copy of the row share its slices.
type layout struct {
	runs  []PageRun // data pages in logical order, maximal contiguous runs
	pages int64     // data-page count: the sum of runs' lengths
	nodes []PageID  // fragment-tree node pages
}

// row is one object's metadata: the clustered-index entry plus the layout
// of its BLOB.
type row struct {
	key  string
	size int64
	tag  uint32
	layout
	data []byte // retained payload (data mode only)
}

// ghostEntry is a deferred deallocation: a dropped version's layout.
type ghostEntry struct {
	seq int64
	layout
}

// txn tracks an in-flight operation's effects for crash rollback, and
// accumulates the version it is writing. allocated and runs are scratch
// reused from one operation to the next; nodes is freshly owned, because
// the published version keeps it.
type txn struct {
	allocated []PageRun // everything to free on abort, in allocation order
	runs      []PageRun // the new version's data runs so far
	pages     int64     // and their page count
	nodes     []PageID  // the new version's fragment-tree node pages
	savedRow  *row      // prior row value (nil if key was absent)
	key       string
	hadRow    bool
}

// Database is the storage engine. Not safe for concurrent use.
type Database struct {
	cfg   Config
	data  *disk.Drive
	log   *disk.Drive
	alloc *Allocator
	rows  map[string]*row
	pool  *bufferPool

	clustersPerPage int64
	dataStart       int64 // first data-region cluster
	logHead         int64 // next log cluster (wraps)

	ghosts []ghostEntry
	opSeq  int64

	// Group-commit state: while groupDepth > 0 the per-transaction log
	// forces are deferred — record bytes accumulate in pendingLogBytes
	// and EndGroup issues them as ONE sequential log write, the group
	// force that amortizes §3.1's per-operation cost.
	groupDepth      int
	pendingLogBytes int64
	statLogForces   int64

	rowCount     int64
	rowPageSlots int64    // free row slots in the current row page
	rowPages     []PageID // heap pages backing the row table
	nextTag      uint32

	inflight *txn

	// txnScratch and savedRowScratch back begin's per-op transaction
	// state: the engine is single-threaded, so one txn (with its run
	// buffers) serves every operation without a fresh alloc.
	txnScratch      txn
	savedRowScratch row

	statPuts, statGets, statDeletes, statReplaces, statCompacts int64
}

// Open creates a database on dataDrive with its transaction log on
// logDrive: the paper gave SQL Server dedicated drives (§4.1).
func Open(dataDrive, logDrive *disk.Drive, cfg Config) *Database {
	if logDrive == nil {
		panic("db: no log drive")
	}
	if cfg.WriteRequestSize == 0 {
		cfg.WriteRequestSize = blob.DefaultWriteRequestSize
	}
	cs := dataDrive.Geometry().ClusterSize
	cpp := PageSize / cs
	if cpp < 1 {
		panic("db: cluster size larger than page size")
	}
	const systemClusters = 64 // boot page, GAM chain, allocation metadata
	usable := dataDrive.Geometry().Clusters - systemClusters
	extents := usable / (cpp * PagesPerExtent)
	if extents < 1 {
		panic("db: volume too small")
	}
	d := &Database{
		cfg:             cfg,
		data:            dataDrive,
		log:             logDrive,
		alloc:           NewAllocator(extents),
		rows:            make(map[string]*row),
		pool:            newBufferPool(bufferPoolPages),
		clustersPerPage: cpp,
		dataStart:       systemClusters,
		nextTag:         1,
	}
	return d
}

// DataDrive returns the data drive.
func (d *Database) DataDrive() *disk.Drive { return d.data }

// LogDrive returns the log drive.
func (d *Database) LogDrive() *disk.Drive { return d.log }

// FreeBytes reports free space in the data file.
func (d *Database) FreeBytes() int64 { return d.alloc.FreePages() * PageSize }

// CapacityBytes reports the data file's page capacity.
func (d *Database) CapacityBytes() int64 {
	return d.alloc.Extents() * PagesPerExtent * PageSize
}

// ObjectCount returns the number of live objects.
func (d *Database) ObjectCount() int { return len(d.rows) }

// clusterRun converts a page run to the disk cluster run backing it.
func (d *Database) clusterRun(r PageRun) extent.Run {
	return extent.Run{
		Start: d.dataStart + int64(r.Start)*d.clustersPerPage,
		Len:   r.Len * d.clustersPerPage,
	}
}

// logAppend makes n bytes of log records durable. Outside a group each
// call is its own force; inside a group the bytes accumulate and
// EndGroup forces them all in one sequential write.
func (d *Database) logAppend(n int64) {
	if d.groupDepth > 0 {
		d.pendingLogBytes += n
		return
	}
	d.forceLog(n)
}

// forceLog charges one sequential log write of n bytes on the log
// device — a forced flush.
func (d *Database) forceLog(n int64) {
	clusters := units.CeilDiv(n, d.log.Geometry().ClusterSize)
	if d.logHead+clusters >= d.log.Geometry().Clusters {
		d.logHead = 0
	}
	d.log.WriteRun(extent.Run{Start: d.logHead, Len: clusters}, 0, 0, nil)
	d.logHead += clusters
	d.statLogForces++
}

// BeginGroup starts deferring log forces. Groups nest; only the
// outermost EndGroup forces.
//
// The deferral is engine-wide, as in a real group-commit log manager:
// any operation that appends log records while the group is open — a
// concurrent Delete or metadata mutation slipping between the group's
// transactions — piggybacks on the group force instead of forcing
// alone. Its records are never lost (EndGroup always flushes the
// accumulated bytes); it just returns before they are forced, which
// only the commit pipeline's own waiters need stronger ordering for.
func (d *Database) BeginGroup() { d.groupDepth++ }

// EndGroup closes a group; at depth zero the accumulated log records
// are forced in one sequential write.
func (d *Database) EndGroup() {
	if d.groupDepth == 0 {
		return
	}
	d.groupDepth--
	if d.groupDepth == 0 && d.pendingLogBytes > 0 {
		n := d.pendingLogBytes
		d.pendingLogBytes = 0
		d.forceLog(n)
	}
}

// begin opens the implicit transaction for one engine operation. The
// engine runs one operation at a time, so a single txn struct (and its
// run buffers) is reused across operations; abort copies the saved row
// out before reinstalling it, so the scratch row is safe too.
func (d *Database) begin(key string) *txn {
	t := &d.txnScratch
	*t = txn{key: key, allocated: t.allocated[:0], runs: t.runs[:0]}
	if old, ok := d.rows[key]; ok {
		d.savedRowScratch = *old
		t.savedRow = &d.savedRowScratch
		t.hadRow = true
	}
	d.inflight = t
	return t
}

// built returns the layout of the version t wrote, its runs copied out of
// the scratch at their exact length.
func (t *txn) built() layout {
	return layout{runs: append([]PageRun(nil), t.runs...), pages: t.pages, nodes: t.nodes}
}

// commit makes the operation durable: the log record is forced (bulk
// logged: metadata only) and the replaced version, if any, is ghosted —
// its layout handed over as is, not copied.
func (d *Database) commit(t *txn, freed layout, logBytes int64) {
	d.logAppend(logBytes)
	if freed.pages > 0 {
		d.ghosts = append(d.ghosts, ghostEntry{seq: d.opSeq, layout: freed})
	}
	d.opSeq++
	d.inflight = nil
	d.ghostCleanup()
}

// ghostCleanup frees pages whose horizon has passed — SQL Server's
// background ghost/deferred-drop task.
func (d *Database) ghostCleanup() {
	cut := d.opSeq - ghostHorizon
	i := 0
	for ; i < len(d.ghosts) && d.ghosts[i].seq < cut; i++ {
		d.free(d.ghosts[i].layout)
	}
	if i > 0 {
		d.ghosts = append(d.ghosts[:0], d.ghosts[i:]...)
	}
}

// free returns a dropped version's pages to the pool — its data runs in
// logical order, then its nodes, which is the order the deallocation
// cache fills in. Only node pages can be resident in the buffer pool.
func (d *Database) free(l layout) {
	d.freeRuns(l.runs)
	for _, p := range l.nodes {
		d.pool.Invalidate(p)
		d.alloc.FreePage(p)
		d.data.ClearOwner(d.clusterRun(PageRun{Start: p, Len: 1}))
	}
}

// freeRuns frees the runs and untags their clusters.
func (d *Database) freeRuns(runs []PageRun) {
	d.alloc.FreeRuns(runs)
	for _, r := range runs {
		d.data.ClearOwner(d.clusterRun(r))
	}
}

// FlushGhosts immediately reclaims all deferred pages (checkpoint).
func (d *Database) FlushGhosts() {
	cut := d.opSeq
	d.opSeq += ghostHorizon + 1
	d.ghostCleanup()
	d.opSeq = cut
}

// writeChunk allocates and writes one client write request's pages — one
// disk write per run the allocator returned — and appends them to the
// version t is building, merging across the request seam. The
// allocator's runs are its scratch, so they are copied here, before its
// next call.
func (d *Database) writeChunk(t *txn, tag uint32, chunk int64, seq *int64) error {
	pageCount := units.CeilDiv(chunk, PageSize)
	runs, ok := d.alloc.AllocRequest(pageCount)
	if !ok {
		return fmt.Errorf("%w: need %d pages, %d free", ErrNoSpace, pageCount, d.alloc.FreePages())
	}
	for _, r := range runs {
		cr := d.clusterRun(r)
		d.data.WriteRun(cr, tag, *seq, nil)
		*seq += cr.Len
		t.runs = appendRun(t.runs, r)
		t.allocated = appendRun(t.allocated, r)
	}
	t.pages += pageCount
	d.data.ChargeCPU(pageCPUUs * float64(pageCount))
	return nil
}

// growBlobTree allocates fragment-tree node pages as leaf pages
// accumulate — single-page allocations from the shared pool, interleaved
// with the data stream, which is how object layouts drift off extent
// alignment even for constant-size objects (§5.4).
func (d *Database) growBlobTree(t *txn) error {
	for int64(len(t.nodes)) < units.CeilDiv(t.pages, BlobTreeFanout) {
		runs, ok := d.alloc.AllocPages(1)
		if !ok {
			return fmt.Errorf("%w: blob tree node", ErrNoSpace)
		}
		t.nodes = append(t.nodes, runs[0].Start)
		t.allocated = appendRun(t.allocated, runs[0])
		d.data.WriteRun(d.clusterRun(runs[0]), 0, 0, nil)
	}
	return nil
}

// rowInsertCosts charges the clustered-index insert: CPU plus a new row
// page from the shared pool every RowsPerPage inserts.
func (d *Database) rowInsertCosts() error {
	d.data.ChargeCPU(rowCPUUs)
	if d.rowPageSlots == 0 {
		runs, ok := d.alloc.AllocPages(1)
		if !ok {
			return ErrNoSpace
		}
		d.data.WriteRun(d.clusterRun(runs[0]), 0, 0, nil)
		d.rowPages = append(d.rowPages, runs[0].Start)
		d.rowPageSlots = RowsPerPage
	}
	d.rowPageSlots--
	return nil
}

// Put stores a new object. data may be nil for metadata-only simulation.
func (d *Database) Put(key string, size int64, data []byte) error {
	if _, ok := d.rows[key]; ok {
		return fmt.Errorf("%w: %s", ErrExists, key)
	}
	return d.write(key, size, data, false)
}

// Replace transactionally overwrites an existing object (or creates it):
// the new BLOB is written and forced, then the old pages are ghosted.
// This is the database counterpart of the filesystem safe write.
func (d *Database) Replace(key string, size int64, data []byte) error {
	return d.write(key, size, data, true)
}

func (d *Database) write(key string, size int64, data []byte, replace bool) error {
	if size <= 0 {
		return fmt.Errorf("%w: write of %d bytes to %s", blob.ErrInvalidSize, size, key)
	}
	if data != nil && int64(len(data)) != size {
		return fmt.Errorf("%w: data length %d != size %d", blob.ErrInvalidSize, len(data), size)
	}
	t := d.begin(key)
	tag := d.nextTag
	d.nextTag++
	req := d.cfg.WriteRequestSize
	if req < 0 || req > size {
		req = size
	}
	var seq int64
	for remaining := size; remaining > 0; {
		chunk := min(req, remaining)
		if err := d.writeChunk(t, tag, chunk, &seq); err != nil {
			d.abort(t)
			return err
		}
		remaining -= chunk
		if err := d.growBlobTree(t); err != nil {
			d.abort(t)
			return err
		}
	}
	if err := d.rowInsertCosts(); err != nil {
		d.abort(t)
		return err
	}

	var freed layout
	if old, ok := d.rows[key]; ok {
		if !replace {
			d.abort(t)
			return fmt.Errorf("%w: %s", ErrExists, key)
		}
		freed = old.layout
	}
	r := &row{key: key, size: size, tag: tag, layout: t.built()}
	if data != nil && d.data.Mode() == disk.DataMode {
		// Callers (the store's pooled writer buffer) reuse theirs.
		r.data = append([]byte(nil), data...)
	}
	d.rows[key] = r
	if replace && t.hadRow {
		d.statReplaces++
	} else {
		d.statPuts++
	}
	d.commit(t, freed, 256) // bulk-logged: metadata-only record
	return nil
}

// abort rolls back an in-flight operation, freeing what it allocated in
// allocation order.
func (d *Database) abort(t *txn) {
	d.freeRuns(t.allocated)
	if t.hadRow {
		saved := *t.savedRow
		d.rows[t.key] = &saved
	} else {
		delete(d.rows, t.key)
	}
	d.inflight = nil
}

// SimulateCrash aborts any in-flight operation, modelling recovery after
// a crash before commit: bulk-logged mode guarantees the old version is
// intact because the new pages were never linked until commit.
func (d *Database) SimulateCrash() {
	if d.inflight != nil {
		d.abort(d.inflight)
	}
}

// Get reads an object whole — a full-range GetRange, so the two read
// paths can never drift on simulated costs. The returned payload is
// non-nil only in data mode, and is a view as GetRange describes.
func (d *Database) Get(key string) ([]byte, error) {
	r, ok := d.rows[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return d.GetRange(key, 0, r.size)
}

// GetRange reads the byte range [off, off+length) of an object, charging
// the row lookup, the fragment-tree node reads, and one disk request per
// physically contiguous run of the pages covering the range — the
// engine-side half of the v2 store's ranged reads. The returned payload
// is non-nil only in data mode, and is then a capacity-clipped read-only
// view of the row's retained bytes, which are written once, when the row
// is built: replace, delete and Compact drop or move the slice only.
func (d *Database) GetRange(key string, off, length int64) ([]byte, error) {
	r, ok := d.rows[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	// length > r.size-off rather than off+length > r.size: the sum can
	// overflow int64 for hostile offsets, the subtraction cannot.
	if off < 0 || length < 0 || length > r.size-off {
		return nil, fmt.Errorf("%w: [%d,+%d) beyond size %d of %s", blob.ErrOutOfRange, off, length, r.size, key)
	}
	d.data.ChargeCPU(rowCPUUs)
	if length == 0 {
		return nil, nil
	}
	for _, p := range r.nodes {
		if !d.pool.Access(p) {
			d.data.ChargeRead(d.clusterRun(PageRun{Start: p, Len: 1}))
		}
	}
	// Map the byte range onto logical pages [firstP, lastP]. Write
	// requests that are not page multiples allocate a fresh page per
	// request, so there can be more pages than CeilDiv(size, PageSize);
	// a range reaching the object's end therefore covers every trailing
	// page.
	firstP := off / PageSize
	lastP := (off + length - 1) / PageSize
	if last := r.pages - 1; lastP > last || off+length == r.size {
		lastP = last
	}
	// Clip each run to the range; pos is the run's first logical page.
	pos := int64(0)
	for _, pr := range r.runs {
		if pos > lastP {
			break
		}
		lo, hi := max(pos, firstP), min(pos+pr.Len-1, lastP)
		if lo <= hi {
			d.data.ChargeRead(d.clusterRun(PageRun{Start: pr.Start + PageID(lo-pos), Len: hi - lo + 1}))
		}
		pos += pr.Len
	}
	d.data.ChargeCPU(pageCPUUs * float64(lastP-firstP+1))
	d.statGets++
	if off+length <= int64(len(r.data)) {
		return r.data[off : off+length : off+length], nil
	}
	return nil, nil
}

// Has reports whether key exists: Stat's row probe — including its CPU
// charge on a hit — without constructing a not-found error on a miss.
// The store's create path probes a miss once per operation, and a
// discarded fmt.Errorf there is measurable at hundreds of streams.
func (d *Database) Has(key string) bool {
	if _, ok := d.rows[key]; !ok {
		return false
	}
	d.data.ChargeCPU(rowCPUUs)
	return true
}

// Size is Stat without its row probe's CPU charge (see blob.Resume).
func (d *Database) Size(key string) (int64, bool) {
	if r, ok := d.rows[key]; ok {
		return r.size, true
	}
	return 0, false
}

// Stat returns an object's size.
func (d *Database) Stat(key string) (int64, error) {
	r, ok := d.rows[key]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	d.data.ChargeCPU(rowCPUUs)
	return r.size, nil
}

// Delete removes an object; its pages are reclaimed after the ghost
// horizon.
func (d *Database) Delete(key string) error {
	r, ok := d.rows[key]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	t := d.begin(key)
	d.data.ChargeCPU(rowCPUUs)
	delete(d.rows, key)
	d.statDeletes++
	d.commit(t, r.layout, 128)
	return nil
}

// Compact rewrites an object's BLOB through a fresh bulk append so its
// pages land (as) contiguously (as free space allows), returning the
// bytes rewritten. Unlike the client write path, the engine knows the
// object's full size here, so the rewrite is allocated as ONE request —
// the §6 interface fix applied internally. The old layout is read and
// the new one written at full disk cost, the old pages are ghosted, and
// the commit record rides whatever log-force group is open, exactly
// like a Replace. An already-contiguous object returns (0, nil).
func (d *Database) Compact(key string) (int64, error) {
	r, ok := d.rows[key]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if len(r.runs) <= 1 {
		return 0, nil
	}
	// Read the old layout: row lookup, tree nodes, then the data runs.
	d.data.ChargeCPU(rowCPUUs)
	for _, p := range r.nodes {
		if !d.pool.Access(p) {
			d.data.ChargeRead(d.clusterRun(PageRun{Start: p, Len: 1}))
		}
	}
	for _, pr := range r.runs {
		d.data.ChargeRead(d.clusterRun(pr))
	}
	d.data.ChargeCPU(pageCPUUs * float64(r.pages))

	t := d.begin(key)
	tag := d.nextTag
	d.nextTag++
	var seq int64
	if err := d.writeChunk(t, tag, r.size, &seq); err != nil {
		d.abort(t)
		return 0, err
	}
	// The allocator draws from the same free pool churn fragmented; a
	// rewrite that does not clearly beat the old layout only burns log
	// bandwidth and reshuffles free space (the §3.4 warning, applied per
	// object) — publish only when the fragment count drops by at least a
	// quarter.
	oldFrags, newFrags := len(r.runs), len(t.runs)
	if oldFrags-newFrags < (oldFrags+3)/4 {
		d.abort(t)
		return 0, nil
	}
	if err := d.growBlobTree(t); err != nil {
		d.abort(t)
		return 0, err
	}
	d.rows[key] = &row{key: key, size: r.size, tag: tag, layout: t.built(), data: r.data}
	d.statCompacts++
	d.commit(t, r.layout, 256) // bulk-logged: metadata-only record
	return r.size, nil
}

// Keys returns all live object keys in arbitrary order.
func (d *Database) Keys() []string {
	out := make([]string, 0, len(d.rows))
	for k := range d.rows {
		out = append(out, k)
	}
	return out
}

// Fragments returns the number of physically discontiguous data-page runs
// of an object — the engine-internal fragment count the paper's marker
// tool measured externally.
func (d *Database) Fragments(key string) (int, error) {
	r, ok := d.rows[key]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return len(r.runs), nil
}

// ObjectRuns returns the disk cluster runs of an object's data pages, for
// the fragmentation analyzer.
func (d *Database) ObjectRuns(key string) ([]extent.Run, error) {
	r, ok := d.rows[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return d.clusterRuns(r.runs), nil
}

func (d *Database) clusterRuns(prs []PageRun) []extent.Run {
	out := make([]extent.Run, len(prs))
	for i, pr := range prs {
		out[i] = d.clusterRun(pr)
	}
	return out
}

// Tag returns the owner tag an object's data pages carry on disk, or 0
// when the object does not exist.
func (d *Database) Tag(key string) uint32 {
	if r, ok := d.rows[key]; ok {
		return r.tag
	}
	return 0
}

// EachObject calls fn for every live object with its data-page cluster
// runs.
func (d *Database) EachObject(fn func(key string, size int64, runs []extent.Run)) {
	for k, r := range d.rows {
		fn(k, r.size, d.clusterRuns(r.runs))
	}
}

// Stats reports engine counters.
type Stats struct {
	Puts, Gets, Deletes, Replaces int64
	// Compactions counts Compact rewrites.
	Compactions    int64
	LogForces      int64
	FreePages      int64
	PartialExtents int
	GhostedPages   int
	PoolHitRate    float64
}

// Stats returns engine counters.
func (d *Database) Stats() Stats {
	ghosted := 0
	for _, g := range d.ghosts {
		ghosted += int(g.pages) + len(g.nodes)
	}
	return Stats{
		Puts: d.statPuts, Gets: d.statGets, Deletes: d.statDeletes, Replaces: d.statReplaces,
		Compactions:    d.statCompacts,
		LogForces:      d.statLogForces,
		FreePages:      d.alloc.FreePages(),
		PartialExtents: d.alloc.PartialExtents(),
		GhostedPages:   ghosted,
		PoolHitRate:    d.pool.HitRate(),
	}
}

// ResetPoolStats zeroes the buffer pool's hit/miss counters while
// keeping resident pages, so a measurement phase's PoolHitRate
// excludes another phase's misses (e.g. the readcache experiment's
// churn-phase hit rate must not blend in bulk-load misses).
func (d *Database) ResetPoolStats() { d.pool.Reset() }

// CheckInvariants cross-checks allocation bitmaps against the row table.
// Intended for tests.
func (d *Database) CheckInvariants() {
	d.alloc.CheckInvariants()
	seen := make(map[PageID]string)
	own := func(key string, p PageID) {
		if prev, dup := seen[p]; dup {
			panic(fmt.Sprintf("db: page %d owned by both %s and %s", p, prev, key))
		}
		seen[p] = key
	}
	record := func(key string, l layout) {
		var pages int64
		for i, r := range l.runs {
			if r.Len <= 0 || i > 0 && l.runs[i-1].End() == r.Start {
				panic(fmt.Sprintf("db: %s run %d, %v, is empty or adjacent to its predecessor", key, i, r))
			}
			for p := r.Start; p < r.End(); p++ {
				own(key, p)
			}
			pages += r.Len
		}
		if pages != l.pages {
			panic(fmt.Sprintf("db: %s counts %d data pages, its runs hold %d", key, l.pages, pages))
		}
		for _, p := range l.nodes {
			own(key+"(nodes)", p)
		}
	}
	for k, r := range d.rows {
		record(k, r.layout)
	}
	for _, g := range d.ghosts {
		record("(ghost)", g.layout)
	}
}
