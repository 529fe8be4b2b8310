package engine

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"mtbase/internal/sqltypes"
)

// hashIndex maps encoded key-column values to row ordinals of a table's
// rows. Indexes are built lazily on first use and live inside the tableData
// they serve. One built over a snapshot covers its n rows; a write that
// leaves those rows and their key columns where they are — INSERT, UPDATE of
// other columns — publishes a snapshot that carries the index on, its new
// rows a tail past the covered prefix that a probe scans (DESIGN.md
// ADR-032). DELETE and ReplaceRows move ordinals and carry none. A built
// index is immutable; a snapshot whose tail outgrows tailBound builds its own.
//
// Every bucket is a window of one backing array: bucket n is
// rows[offs[n]:offs[n+1]], its ordinals in heap order. A join's transient
// build (vecJoinBuild) is the same type over its build rows, keyed by its
// key expressions (cols nil), so a join probes either one alike.
type hashIndex struct {
	cols []int
	n    int      // rows covered: ordinals 0..n-1
	keys keyTable // encoded key -> bucket number
	offs []int32
	rows []int
}

// tailBound is how many rows past its covered prefix a carried index may
// leave to a scan before the snapshot rebuilds it: an eighth of the prefix,
// so a rebuild over n rows follows at least n/8 appended ones, and never
// fewer than one short table's worth.
func tailBound(covered int) int { return max(256, covered/8) }

// index returns (building if necessary) a hash index of the current
// snapshot on the named columns, covering all of its rows. Callers that
// pinned a snapshot should use tableData.index directly so heap and index
// stay paired.
func (t *Table) index(cols []string) (*hashIndex, error) {
	return t.data.Load().index(t, cols, false)
}

// index returns the hash index that serves this snapshot on cols. A carried
// index is kept while its tail is within tailBound and the caller scans one
// (tail: a source's one lookup); a caller that looks up once per row — a
// join, FK validation — gets an index covering every row. Otherwise the index
// is built over this snapshot, which its successors then carry. idxMu
// serializes the build so concurrent readers of one snapshot construct each
// index exactly once.
func (d *tableData) index(t *Table, cols []string, tail bool) (*hashIndex, error) {
	key := strings.ToLower(strings.Join(cols, ","))
	d.idxMu.Lock()
	defer d.idxMu.Unlock()
	if idx, ok := d.indexes[key]; ok && (idx.n == d.n || tail && d.n-idx.n <= tailBound(idx.n)) {
		return idx, nil
	}
	ordinals := make([]int, len(cols))
	for i, c := range cols {
		ordinals[i] = t.ColIndex(c)
		if ordinals[i] < 0 {
			return nil, fmt.Errorf("engine: no column %s in %s", c, t.Name)
		}
	}
	idx := buildHashIndex(ordinals, d)
	if d.indexes == nil {
		d.indexes = make(map[string]*hashIndex)
	}
	d.indexes[key] = idx
	return idx, nil
}

// carry returns the indexes a snapshot derived from d by a write keeps: every
// one keyed on none of the assigned column ordinals.
func (d *tableData) carry(assigned []int) map[string]*hashIndex {
	d.idxMu.Lock()
	defer d.idxMu.Unlock()
	var kept map[string]*hashIndex
	for k, idx := range d.indexes {
		if slices.ContainsFunc(idx.cols, func(c int) bool { return slices.Contains(assigned, c) }) {
			continue
		}
		if kept == nil {
			kept = make(map[string]*hashIndex, len(d.indexes))
		}
		kept[k] = idx
	}
	return kept
}

// buildHashIndex numbers the keys of a table's rows and carves the buckets
// out of one array.
func buildHashIndex(ordinals []int, d *tableData) *hashIndex {
	c := newCarver(d.n, 0)
	c.ix.cols, c.ix.n = ordinals, d.n
	var buf []byte
	id := 0
	for _, page := range d.pages {
		for _, row := range page {
			var ok bool
			if buf, ok = c.ix.key(buf[:0], row); ok {
				c.add(id, buf)
			}
			id++
		}
	}
	return c.carve()
}

// carver builds a hashIndex in two passes: add numbers each row's key in
// arrival order and counts its bucket's rows, carve places the ordinals. The
// table's index and a join's transient build (vecJoinBuild) are both carved
// here, so their buckets list rows in the same order.
type carver struct {
	ix       *hashIndex
	bucketOf []int32 // per row ordinal: its bucket number + 1; 0, in none (a NULL key)
	counts   []int32
}

// newCarver sizes a carver for n rows and room for keys keys.
func newCarver(n, keys int) carver {
	return carver{ix: &hashIndex{keys: newKeyTable(keys)}, bucketOf: make([]int32, n)}
}

// add puts row ordinal id in the bucket of key.
func (c *carver) add(id int, key []byte) {
	n, found := c.ix.keys.id(key, true)
	if !found {
		c.counts = append(c.counts, 0)
	}
	c.counts[n]++
	c.bucketOf[id] = n + 1
}

// carve lays the buckets out in one array, each window in ordinal order.
func (c *carver) carve() *hashIndex {
	ix := c.ix
	ix.offs = make([]int32, len(c.counts)+1)
	for n, k := range c.counts {
		ix.offs[n+1] = ix.offs[n] + k
	}
	ix.rows = make([]int, ix.offs[len(c.counts)])
	next := c.counts // reused: where each bucket's next ordinal goes
	copy(next, ix.offs)
	for id, n := range c.bucketOf {
		if n > 0 {
			ix.rows[next[n-1]] = id
			next[n-1]++
		}
	}
	return ix
}

// key appends the encoding of row's key columns to buf; ok is false when one
// is NULL, a key no equi-probe matches.
func (ix *hashIndex) key(buf []byte, row []sqltypes.Value) (_ []byte, ok bool) {
	for _, o := range ix.cols {
		if row[o].IsNull() {
			return buf, false
		}
		buf = sqltypes.AppendKey(buf, row[o])
	}
	return buf, true
}

// tail appends to ids the ordinals of d's rows past the prefix ix covers
// whose key columns encode to one of keys, in heap order.
func (ix *hashIndex) tail(d *tableData, ids []int, keys ...[]byte) []int {
	if len(keys) == 0 {
		return ids
	}
	var buf []byte
	for id := ix.n; id < d.n; id++ {
		var ok bool
		if buf, ok = ix.key(buf[:0], d.row(id)); !ok {
			continue
		}
		for _, k := range keys {
			if bytes.Equal(buf, k) {
				ids = append(ids, id)
				break
			}
		}
	}
	return ids
}

// bucket returns the row ordinals whose key columns encode to key.
func (ix *hashIndex) bucket(key []byte) []int {
	n, ok := ix.keys.id(key, false)
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
	if ix.keys.len() == 0 {
		return 0
	}
	return n * len(ix.rows) / ix.keys.len()
}

// probe returns the ordinals of d's rows whose key columns equal vals, in
// heap order — the bucket of the covered prefix, then the matches in d's
// tail — and the key buffer it encoded them in for the caller to keep.
func (ix *hashIndex) probe(d *tableData, buf []byte, vals []sqltypes.Value) ([]int, []byte) {
	buf = buf[:0]
	for _, v := range vals {
		if v.IsNull() {
			return nil, buf
		}
		buf = sqltypes.AppendKey(buf, v)
	}
	return ix.tail(d, ix.bucket(buf), buf), buf
}
