package db

// MetaTable models a plain row table without BLOB columns. The paper's
// file-based configuration stores "object names and other metadata in SQL
// server tables" (§4.1) while object data lives in NTFS files; MetaTable
// charges the row-path costs of that arrangement (B-tree descent CPU, a
// new heap page per RowsPerPage inserts, a log record per mutation)
// without any BLOB allocation. It keeps no keys: which objects exist is
// the caller's book (the file store's is its volume), and a MetaTable
// only charges for reading and writing their rows.
type MetaTable struct {
	d *Database
}

// NewMetaTable creates a metadata table on the database.
func (d *Database) NewMetaTable() *MetaTable {
	return &MetaTable{d: d}
}

// Insert charges a row insert: the only row operation that can fail,
// when a new row page does not fit (ErrNoSpace).
func (mt *MetaTable) Insert() error {
	if err := mt.d.rowInsertCosts(); err != nil {
		return err
	}
	mt.d.logAppend(128)
	return nil
}

// Lookup charges a row read.
func (mt *MetaTable) Lookup() { mt.d.data.ChargeCPU(rowCPUUs) }

// Update charges an in-place row update.
func (mt *MetaTable) Update() {
	mt.d.data.ChargeCPU(rowCPUUs)
	mt.d.logAppend(128)
}

// Delete charges a row removal.
func (mt *MetaTable) Delete() {
	mt.d.data.ChargeCPU(rowCPUUs)
	mt.d.logAppend(128)
}
