// Package db implements the database substrate of the comparison — a
// SQL-Server-analog storage engine with the mechanisms the paper
// identifies on the database side:
//
//   - 8 KB pages grouped into 64 KB extents: fresh extents are handed
//     out in address order, freed ones come back FIFO through a
//     deallocation cache;
//   - out-of-row BLOB storage (§4.2) as an Exodus-style fragment tree
//     (§2), so BLOB data pages do not decluster row data;
//   - bulk-logged transactions (§4): BLOB pages are written to the data
//     file and forced at commit, while only metadata goes to a dedicated
//     log drive — "SQL was given a dedicated log and data drive" (§4.1);
//   - deferred (ghost) deallocation, so a replaced object's old pages
//     rejoin the free pool only after the operation commits and the ghost
//     cleanup horizon passes;
//   - no BLOB defragmentation other than a full table rebuild, the
//     recommended practice reported in §5.3.
//
// The allocation policy is deliberately page- and extent-granular: the
// paper traces SQL Server's unbounded fragmentation growth to piecemeal
// lowest-first reuse of freed space, in contrast to NTFS's
// largest-run-first cache. The bookkeeping is run-granular: a row, a
// ghost entry and a transaction's undo list hold contiguous page runs,
// never page lists, and the allocator's PFS is a byte per extent as in
// the engine modelled — what an operation costs the host follows the
// number of fragments, not the number of 8 KB pages.
//
// The paper ran SQL Server bulk-logged with a dedicated log drive (§4.1,
// Table 1), so Open always takes a log drive and Config has one setting,
// WriteRequestSize, which §5.3 varies (blob.DefaultWriteRequestSize, 64 KB,
// when zero). The rest are constants: a dropped version's pages rejoin
// the free pool 8 committed operations later; each BLOB page read or
// written charges 100 µs of host CPU and each row operation 500 µs; the
// buffer pool holds 4096 metadata pages.
package db

import (
	"fmt"

	"repro/internal/units"
)

// Fixed engine geometry, matching SQL Server's on-disk units.
const (
	// PageSize is the size of one database page in bytes.
	PageSize = 8 * units.KB
	// PagesPerExtent is the number of pages in one allocation extent.
	PagesPerExtent = 8
	// ExtentSize is the size of one extent in bytes (64 KB — the same
	// number that shows up as the convergent fragment size in Figure 3).
	ExtentSize = PageSize * PagesPerExtent
	// BlobTreeFanout is the number of leaf-page pointers one interior
	// node page of the Exodus-style blob fragment tree holds. Node pages
	// are allocated from the same pool as data pages, interleaved with
	// the data stream — one of the reasons object layouts drift off
	// extent alignment even for constant-size objects (§5.4).
	BlobTreeFanout = 500
	// RowsPerPage is how many metadata rows fit a heap page; a new row
	// page is allocated from the shared pool every RowsPerPage inserts.
	RowsPerPage = 64
)

// PageID identifies a database page. Pages map to disk clusters via the
// engine's data-region offset: page p occupies clusters
// [dataStart + p*clustersPerPage, ...+clustersPerPage).
type PageID int64

// PageRun is a contiguous range of pages [Start, Start+Len).
type PageRun struct {
	Start PageID
	Len   int64
}

// End returns the first page after the run.
func (r PageRun) End() PageID { return r.Start + PageID(r.Len) }

func (r PageRun) String() string { return fmt.Sprintf("pages[%d,+%d)", r.Start, r.Len) }

// appendRun appends r to a run list kept in logical order, merging it
// into its predecessor when the two are physically adjacent. A list built
// through it holds the maximal contiguous runs of its page sequence, so
// its length is the fragment count the paper's marker tool would measure.
func appendRun(runs []PageRun, r PageRun) []PageRun {
	if n := len(runs); n > 0 && runs[n-1].End() == r.Start {
		runs[n-1].Len += r.Len
		return runs
	}
	return append(runs, r)
}
