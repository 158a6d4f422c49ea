package db

import "fmt"

// MetaTable models a plain row table without BLOB columns. The paper's
// file-based configuration stores "object names and other metadata in SQL
// server tables" (§4.1) while object data lives in NTFS files; MetaTable
// charges the row-path costs of that arrangement (B-tree descent CPU, a
// new heap page per RowsPerPage inserts, a log record per mutation)
// without any BLOB allocation.
type MetaTable struct {
	d    *Database
	name string
	keys map[string]struct{}
}

// NewMetaTable creates a metadata table on the database.
func (d *Database) NewMetaTable(name string) *MetaTable {
	return &MetaTable{d: d, name: name, keys: make(map[string]struct{})}
}

// Insert adds a metadata row.
func (mt *MetaTable) Insert(key string) error {
	if _, ok := mt.keys[key]; ok {
		return fmt.Errorf("%w: %s.%s", ErrExists, mt.name, key)
	}
	if err := mt.d.rowInsertCosts(); err != nil {
		return err
	}
	mt.d.logAppend(128)
	mt.keys[key] = struct{}{}
	return nil
}

// Lookup charges a row read and reports whether the key exists.
func (mt *MetaTable) Lookup(key string) bool {
	mt.d.data.ChargeCPU(rowCPUUs)
	_, ok := mt.keys[key]
	return ok
}

// Update charges an in-place row update.
func (mt *MetaTable) Update(key string) error {
	if _, ok := mt.keys[key]; !ok {
		return fmt.Errorf("%w: %s.%s", ErrNotFound, mt.name, key)
	}
	mt.d.data.ChargeCPU(rowCPUUs)
	mt.d.logAppend(128)
	return nil
}

// Delete removes a metadata row.
func (mt *MetaTable) Delete(key string) error {
	if _, ok := mt.keys[key]; !ok {
		return fmt.Errorf("%w: %s.%s", ErrNotFound, mt.name, key)
	}
	mt.d.data.ChargeCPU(rowCPUUs)
	mt.d.logAppend(128)
	delete(mt.keys, key)
	return nil
}

// Len returns the row count.
func (mt *MetaTable) Len() int { return len(mt.keys) }
