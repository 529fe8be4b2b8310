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
//
// Every bucket is a window of one backing array: bucket n is
// rows[offs[n]:offs[n+1]], its ordinals in heap order — the order a
// transient join build over the same rows would insert them in.
type hashIndex struct {
	cols    []int
	buckets map[string]int32 // encoded key -> bucket number
	offs    []int32
	rows    []int
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
	idx := buildHashIndex(ordinals, d.rows)
	if d.indexes == nil {
		d.indexes = make(map[string]*hashIndex)
	}
	d.indexes[key] = idx
	return idx, nil
}

// buildHashIndex counts every key's rows, then carves the buckets out of one
// array: a pass over the heap numbers the keys, a pass over those numbers
// places the ordinals.
func buildHashIndex(ordinals []int, heap [][]sqltypes.Value) *hashIndex {
	idx := &hashIndex{cols: ordinals, buckets: make(map[string]int32)}
	bucketOf := make([]int32, len(heap)) // -1: a NULL key, which no equi-probe matches
	var counts []int32
	var buf []byte
	indexed := 0
	for rowID, row := range heap {
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
			bucketOf[rowID] = -1
			continue
		}
		n, ok := idx.buckets[string(buf)]
		if !ok {
			n = int32(len(counts))
			idx.buckets[string(buf)] = n
			counts = append(counts, 0)
		}
		counts[n]++
		bucketOf[rowID] = n
		indexed++
	}
	idx.offs = make([]int32, len(counts)+1)
	for n, c := range counts {
		idx.offs[n+1] = idx.offs[n] + c
	}
	idx.rows = make([]int, indexed)
	next := counts // reused: where each bucket's next ordinal goes
	copy(next, idx.offs)
	for rowID, n := range bucketOf {
		if n >= 0 {
			idx.rows[next[n]] = rowID
			next[n]++
		}
	}
	return idx
}

// bucket returns the row ordinals whose key columns encode to key.
func (ix *hashIndex) bucket(key []byte) []int {
	n, ok := ix.buckets[string(key)]
	if !ok {
		return nil
	}
	return ix.rowsOf(n)
}

// rowsOf returns the row ordinals of bucket n.
func (ix *hashIndex) rowsOf(n int32) []int {
	return ix.rows[ix.offs[n]:ix.offs[n+1]:ix.offs[n+1]]
}

// candidates is how many row ordinals n probes reach if each finds a bucket
// of the mean length.
func (ix *hashIndex) candidates(n int) int {
	if len(ix.buckets) == 0 {
		return 0
	}
	return n * len(ix.rows) / len(ix.buckets)
}

// probe returns the row ordinals matching the given key values, and the key
// buffer it encoded them in for the caller to keep.
func (ix *hashIndex) probe(buf []byte, vals []sqltypes.Value) ([]int, []byte) {
	buf = buf[:0]
	for _, v := range vals {
		if v.IsNull() {
			return nil, buf
		}
		buf = sqltypes.AppendKey(buf, v)
	}
	return ix.bucket(buf), buf
}
