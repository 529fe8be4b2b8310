package engine

// Deterministic gather: combine several independent cursors into one Rows.
// This is the merge side of the sharding layer's scatter/gather — each part
// is a cursor over one shard's result, and the gather must be byte-stable:
// MergeRows performs an ordered k-way merge under the statement's ORDER BY
// keys (ties broken by part rank, so the output never depends on goroutine
// scheduling); ConcatRows emits parts whole, in rank order.
//
// Each part is drained by its own feeder goroutine so shards produce rows
// concurrently, but every row crosses the goroutine boundary through a
// bounded channel and is chosen by the single consumer — ordering decisions
// never race. Feeders copy rows before sending (cursor rows may be reused
// by the engine between Next calls) and own their cursor's Close; closing
// the gathered Rows closes the done channel and then drains every feeder
// channel, so by the time Close returns all shard cursors are closed and
// their spill files released — a LIMIT short-circuit or an early Close
// cancels in-flight shard work synchronously.

import (
	"mtbase/internal/sqltypes"
)

// MergeKey names one ORDER BY key of a gathered result by output column
// position. Comparison follows the engine's sort order exactly:
// NULLs first, descending negated (NULLs last under DESC).
type MergeKey struct {
	Col  int
	Desc bool
}

// feedChunk is one hop across the feeder boundary: a run of copied rows,
// plus the cursor's terminal error on the final chunk.
type feedChunk struct {
	rows [][]sqltypes.Value
	err  error
}

// feederChunk bounds rows per channel hop; feederDepth bounds buffered
// chunks per part, so a fast shard cannot run unboundedly ahead of the
// consumer.
const (
	feederChunk = 64
	feederDepth = 4
)

// feeder drains one part cursor on its own goroutine. The consumer side
// (fill/next) owns buf, pos, eof and err; the goroutine only sends.
type feeder struct {
	ch  chan feedChunk
	buf [][]sqltypes.Value
	pos int
	eof bool
	err error
}

func startFeeder(r *Rows, done <-chan struct{}) *feeder {
	f := &feeder{ch: make(chan feedChunk, feederDepth)}
	go func() {
		defer close(f.ch) // runs after Close: channel closure implies cursor+spills released
		defer r.Close()
		rows := make([][]sqltypes.Value, 0, feederChunk)
		send := func(c feedChunk) bool {
			select {
			case f.ch <- c:
				return true
			case <-done:
				return false
			}
		}
		var err error
		defer func() {
			if err != nil {
				send(feedChunk{err: err})
			}
		}()
		defer r.db.Recover(&err)
		for r.Next() {
			cp := make([]sqltypes.Value, len(r.Row()))
			copy(cp, r.Row())
			rows = append(rows, cp)
			if len(rows) == feederChunk {
				if !send(feedChunk{rows: rows}) {
					return
				}
				rows = make([][]sqltypes.Value, 0, feederChunk)
			}
		}
		send(feedChunk{rows: rows, err: r.Err()})
	}()
	return f
}

// fill ensures the feeder's head row is available, blocking on the channel
// as needed. It reports false on exhaustion or error (f.err set). A chunk
// carrying an error surfaces the error and discards its rows: the gathered
// statement failed, partial output would be nondeterministic.
func (f *feeder) fill() bool {
	for !f.eof && f.pos >= len(f.buf) {
		c, ok := <-f.ch
		if !ok {
			f.eof = true
			break
		}
		if c.err != nil {
			f.err = c.err
			f.eof = true
			break
		}
		f.buf, f.pos = c.rows, 0
	}
	return !f.eof && f.pos < len(f.buf)
}

// gatherSrc is the state shared by both gather shapes: the feeders in part
// rank order, the cross-part LIMIT and the shutdown plumbing.
type gatherSrc struct {
	feeders []*feeder
	done    chan struct{}
	limit   int64 // -1: unlimited
	emitted int64
	closed  bool
}

func (g *gatherSrc) limited() bool { return g.limit >= 0 && g.emitted >= g.limit }

// Close cancels every feeder and waits for each to finish: after it
// returns, all part cursors are closed and their spill files gone.
func (g *gatherSrc) Close() error {
	if g.closed {
		return nil
	}
	g.closed = true
	close(g.done)
	for _, f := range g.feeders {
		for range f.ch {
		}
	}
	return nil
}

// concatSrc emits each part whole, in rank order.
type concatSrc struct {
	gatherSrc
	idx int
}

func (c *concatSrc) Next() ([]sqltypes.Value, error) {
	if c.limited() {
		return nil, nil
	}
	for c.idx < len(c.feeders) {
		f := c.feeders[c.idx]
		if f.fill() {
			row := f.buf[f.pos]
			f.pos++
			c.emitted++
			return row, nil
		}
		if f.err != nil {
			return nil, f.err
		}
		c.idx++
	}
	return nil, nil
}

// kwayMergeSrc performs the ordered k-way merge. Each call compares the head
// row of every live part under the merge keys and emits the least; ties go
// to the lowest part rank, making the interleaving deterministic.
type kwayMergeSrc struct {
	gatherSrc
	keys []MergeKey
}

func (m *kwayMergeSrc) Next() ([]sqltypes.Value, error) {
	if m.limited() {
		return nil, nil
	}
	best := -1
	for i, f := range m.feeders {
		if !f.fill() {
			if f.err != nil {
				return nil, f.err
			}
			continue
		}
		if best < 0 || m.less(f, m.feeders[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil, nil
	}
	f := m.feeders[best]
	row := f.buf[f.pos]
	f.pos++
	m.emitted++
	return row, nil
}

// less orders two head rows under the merge keys with the engine's sort
// comparator (compareNullsFirst, negated on Desc). Equal keys return
// false, so the caller's rank-order scan keeps the earlier part.
func (m *kwayMergeSrc) less(a, b *feeder) bool {
	ra, rb := a.buf[a.pos], b.buf[b.pos]
	for _, k := range m.keys {
		c := compareNullsFirst(ra[k.Col], rb[k.Col])
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return false
}

// ConcatRows gathers parts into one cursor in stable part-rank order:
// every row of parts[0], then every row of parts[1], and so on. limit < 0
// means no cross-part limit; otherwise iteration stops after limit rows
// and closing the cursor cancels the remaining parts.
func ConcatRows(cols []string, limit int64, parts ...*Rows) *Rows {
	src := &concatSrc{gatherSrc: newGatherSrc(limit, parts)}
	return &Rows{cols: cols, db: partsDB(parts), src: src}
}

// MergeRows gathers sorted parts into one globally sorted cursor by
// ordered k-way merge under keys. Every part must already be sorted under
// the same keys (each shard ran the same ORDER BY); ties across parts are
// broken by part rank. limit < 0 means no cross-part limit.
func MergeRows(cols []string, keys []MergeKey, limit int64, parts ...*Rows) *Rows {
	src := &kwayMergeSrc{gatherSrc: newGatherSrc(limit, parts), keys: keys}
	return &Rows{cols: cols, db: partsDB(parts), src: src}
}

// partsDB is the DB a gathered cursor counts its own panics on: the first
// part's (nil for a gather over nothing, which runs no statement code).
func partsDB(parts []*Rows) *DB {
	if len(parts) == 0 {
		return nil
	}
	return parts[0].db
}

func newGatherSrc(limit int64, parts []*Rows) gatherSrc {
	done := make(chan struct{})
	feeders := make([]*feeder, len(parts))
	for i, p := range parts {
		feeders[i] = startFeeder(p, done)
	}
	return gatherSrc{feeders: feeders, done: done, limit: limit}
}
