package db

import "sort"

// RebuildReport summarises a table rebuild.
type RebuildReport struct {
	Objects         int
	BytesMoved      int64
	FragmentsBefore int
	FragmentsAfter  int
}

// Rebuild performs the only BLOB defragmentation SQL Server offered
// (§5.3): "The recommended way to defragment a large BLOB table is to
// create a new table in a new file group, copy the old records to the
// new table and drop the old table." All objects are read, their pages
// released, and every object rewritten in key order into freshly
// allocated space; full read+write disk time is charged, so the harness
// can weigh the §6 warning that defragmentation costs "can outweigh its
// benefits".
func (d *Database) Rebuild() RebuildReport {
	var rep RebuildReport
	keys := make([]string, 0, len(d.rows))
	for k, r := range d.rows {
		keys = append(keys, k)
		rep.FragmentsBefore += len(r.runs)
	}
	sort.Strings(keys)
	rep.Objects = len(keys)

	// Read every object out (the copy's read half).
	for _, k := range keys {
		r := d.rows[k]
		for _, pr := range r.runs {
			d.data.ChargeRead(d.clusterRun(pr))
		}
		d.data.ChargeCPU(d.cfg.PageCPUUs * float64(r.pages))
		rep.BytesMoved += r.size
	}

	// Drop: release every page (old table dropped whole — no ghosting).
	d.FlushGhosts()
	for _, k := range keys {
		d.free(d.rows[k].layout)
	}
	// The old table's heap pages go with the drop too.
	for _, p := range d.rowPages {
		d.alloc.FreePage(p)
	}
	d.rowPages = d.rowPages[:0]
	d.rowPageSlots = 0
	// The new filegroup starts clean: reset the scan cursor and drain the
	// deallocation cache so the copy lays out sequentially.
	d.alloc.ResetReuse()

	// Copy in key order (the write half), reusing the normal write path
	// so costs and structures are identical to a fresh bulk load.
	for _, k := range keys {
		r := d.rows[k]
		size, data := r.size, r.data
		delete(d.rows, k)
		if err := d.Put(k, size, data); err != nil {
			// Space for the copy is guaranteed: we just freed at least
			// as much as we are writing.
			panic("db: rebuild copy failed: " + err.Error())
		}
	}
	for _, r := range d.rows {
		rep.FragmentsAfter += len(r.runs)
	}
	return rep
}
