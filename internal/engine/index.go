package engine

import (
	"fmt"
	"strings"

	"mtbase/internal/sqltypes"
)

// hashIndex maps encoded key-column values to row ordinals of a heap
// snapshot. Indexes are built lazily on first use and live inside the
// tableData they were built over, so a pinned snapshot's indexes always
// agree with its heap — writers publish fresh snapshots with no indexes
// instead of invalidating anything in place.
type hashIndex struct {
	cols []int
	m    map[string][]int
}

// index returns (building if necessary) a hash index of the current
// snapshot on the named columns. Callers that pinned a snapshot should use
// tableData.index directly so heap and index stay paired.
func (t *Table) index(cols []string) (*hashIndex, error) {
	return t.data.Load().index(t, cols)
}

// index returns (building if necessary) a hash index over this snapshot's
// heap. idxMu serializes the build so concurrent readers of one snapshot
// construct each index exactly once; the built index is immutable.
func (d *tableData) index(t *Table, cols []string) (*hashIndex, error) {
	key := strings.ToLower(strings.Join(cols, ","))
	d.idxMu.Lock()
	defer d.idxMu.Unlock()
	if idx, ok := d.indexes[key]; ok {
		return idx, nil
	}
	ordinals := make([]int, len(cols))
	for i, c := range cols {
		ordinals[i] = t.ColIndex(c)
		if ordinals[i] < 0 {
			return nil, fmt.Errorf("engine: no column %s in %s", c, t.Name)
		}
	}
	idx := &hashIndex{cols: ordinals, m: make(map[string][]int, len(d.rows))}
	var buf []byte
	for rowID, row := range d.rows {
		buf = buf[:0]
		null := false
		for _, o := range ordinals {
			if row[o].IsNull() {
				null = true
				break
			}
			buf = sqltypes.AppendKey(buf, row[o])
		}
		if null {
			continue // NULL keys never match an equi-probe
		}
		idx.m[string(buf)] = append(idx.m[string(buf)], rowID)
	}
	if d.indexes == nil {
		d.indexes = make(map[string]*hashIndex)
	}
	d.indexes[key] = idx
	return idx, nil
}

// probe returns the row ordinals matching the given key values.
func (ix *hashIndex) probe(vals []sqltypes.Value) []int {
	var buf []byte
	for _, v := range vals {
		if v.IsNull() {
			return nil
		}
		buf = sqltypes.AppendKey(buf, v)
	}
	return ix.m[string(buf)]
}
