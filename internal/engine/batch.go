package engine

// This file implements the batch-at-a-time execution infrastructure.
// Operators exchange fixed-size windows of tuples (a batch) together with a
// selection vector of surviving row indices, and expressions run as batch
// programs over those vectors (vector.go) — compiled kernels in production,
// the lifted interpreter in the evaluator check; the operators cannot tell.
// Filters refine the selection vector instead of copying rows — a column
// compared with a row-free operand by a kernel that reads the column where
// it lies and appends the rows it keeps (DESIGN.md ADR-046); join and
// group-by keys are computed into per-batch key columns and encoded from
// there, while ORDER BY keys ride at the end of each projected row, past its
// output columns, until the sort cuts them off (DESIGN.md ADR-040).
//
// Error discipline: batched evaluation must abort with exactly the error
// row-at-a-time evaluation would raise — the one belonging to the first
// failing row in row order, with later conjuncts/projectors of that row
// short-circuited exactly as the interpreter short-circuits them. Batch
// programs therefore never return an error directly; they poison the failing
// row in batch.errs and drop it from subsequent evaluation, and the driving
// operator picks the first poisoned row of the batch once the batch is
// complete. The differential suites hold this to the reference executor
// (exec.go), which really is row-at-a-time.

import "mtbase/internal/sqltypes"

// batchSize is the number of rows operators exchange per step in batched
// execution; a power of two, so the reference executor's cancellation polls
// can mask with it.
const batchSize = 1024

// identSel is the shared identity selection vector; operators slice it to
// the window length for freshly scanned batches. It must never be written.
var identSel = func() []int32 {
	s := make([]int32, batchSize)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}()

// batch is one unit of work flowing between operators: a window of up to
// batchSize tuples, the selection vector of still-live local row indices
// (always ascending), and per-row error slots for poisoned rows.
type Batch struct {
	rows   [][]sqltypes.Value // window into the source relation
	base   int                // ordinal of rows[0] within the source
	sel    []int32            // selected local row indices
	errs   []error            // errs[i] poisons local row i
	anyErr bool               // fast check: any errs entry non-nil
}

// window prepares b as a dense batch over rows: the identity selection, no
// poisoned rows. len(rows) must not exceed batchSize.
func (b *Batch) window(rows [][]sqltypes.Value) {
	n := len(rows)
	b.rows = rows
	b.base = 0
	b.sel = identSel[:n]
	b.reset(n)
}

// reset prepares the batch for a new window of n rows.
func (b *Batch) reset(n int) {
	if cap(b.errs) < n {
		b.errs = make([]error, n)
	}
	e := b.errs[:n]
	if b.anyErr {
		for i := range e {
			e[i] = nil
		}
	}
	b.errs = e
	b.anyErr = false
}

// firstErr returns the error of the first poisoned row in row order — the
// error row-at-a-time execution would have raised.
func (b *Batch) firstErr() error {
	if !b.anyErr {
		return nil
	}
	for _, e := range b.errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// poison marks local row i failed.
func (b *Batch) poison(i int32, err error) {
	b.errs[i] = err
	b.anyErr = true
}

// compactSel drops poisoned rows from sel, writing into dst (dst may alias
// sel; compaction never writes ahead of its read position). When the batch is
// clean, sel is returned untouched — the common case costs one flag check.
func (b *Batch) compactSel(dst, sel []int32) []int32 {
	if !b.anyErr {
		return sel
	}
	dst = dst[:0]
	for _, i := range sel {
		if b.errs[i] == nil {
			dst = append(dst, i)
		}
	}
	return dst
}

// growVals returns a value column of length n, reusing buf when possible.
// Contents are not preserved; callers only read indices they wrote this
// batch. Allocation is exact: windows are already batchSize-capped, and
// small relations (correlated subqueries re-plan per execution) must not pay
// full-batch scratch.
func growVals(buf []sqltypes.Value, n int) []sqltypes.Value {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]sqltypes.Value, n)
}

// growSel returns a selection scratch buffer with capacity for n entries.
func growSel(buf []int32, n int) []int32 {
	if cap(buf) >= n {
		return buf[:0]
	}
	return make([]int32, 0, n)
}

// encodeKeyCols appends the canonical encoding of the i-th entry of each key
// column to buf — the batched replacement for per-row key evaluation in hash
// join builds, group-by bucketing and index probes.
func encodeKeyCols(buf []byte, cols [][]sqltypes.Value, i int32) []byte {
	for _, c := range cols {
		buf = sqltypes.AppendKey(buf, c[i])
	}
	return buf
}

// ---------------------------------------------------------------- operators

// scanOp is the engine's one row cursor (DESIGN.md ADR-042): it reads rows,
// or with ids rows[ids[0]], rows[ids[1]], …, in windows of at most
// batchSize. A window of rows is a slice of them; a window of ordinals is
// gathered into one buffer the cursor reuses, sized at the first window.
// b.base is the window's first position in the sequence the cursor reads —
// an ordinal of rows, or a position in ids.
type scanOp struct {
	rows [][]sqltypes.Value
	ids  []int
	pos  int
	buf  [][]sqltypes.Value
}

// len is the number of rows the cursor reads, from its start.
func (s *scanOp) len() int {
	if s.ids != nil {
		return len(s.ids)
	}
	return len(s.rows)
}

func (s *scanOp) next(b *Batch) bool {
	n := min(s.len()-s.pos, batchSize)
	if n <= 0 {
		return false
	}
	if s.ids == nil {
		b.rows = s.rows[s.pos : s.pos+n]
	} else {
		if cap(s.buf) < n {
			s.buf = make([][]sqltypes.Value, 0, min(batchSize, max(n, 2*cap(s.buf))))
		}
		s.buf = s.buf[:0]
		for _, id := range s.ids[s.pos : s.pos+n] {
			s.buf = append(s.buf, s.rows[id])
		}
		b.rows = s.buf
	}
	b.base = s.pos
	s.pos += n
	b.sel = identSel[:n]
	b.reset(n)
	return true
}

// filterOp refines a batch's selection vector with a conjunct list, one
// selection program per conjunct (selCompileAll): each keeps the rows it
// holds for, and the next sees only those. On a poisoned row it records the
// first failing row's error in failed; the driving operator stops there.
type filterOp struct {
	progs  []selExpr
	selBuf []int32
	failed error
}

func (f *filterOp) apply(b *Batch) {
	sel := b.sel
	for _, prog := range f.progs {
		if len(sel) == 0 {
			break
		}
		f.selBuf = growSel(f.selBuf, len(sel))
		sel = prog(b, sel, f.selBuf)
	}
	b.sel = sel
	f.failed = b.firstErr()
}

// ---------------------------------------------------------------- row chunks

// rowChunk hands out result tuples of one fixed capacity from one pre-sized
// allocation. Batch drivers count their output rows before materializing
// (projection emits the selection vector, joins sum their hash buckets), so
// a batch's tuples cost exactly one allocation with zero slack.
type rowChunk struct {
	buf []sqltypes.Value
}

func newRowChunk(rows, width int) rowChunk {
	return rowChunk{buf: make([]sqltypes.Value, 0, rows*width)}
}

func (c *rowChunk) alloc(width int) []sqltypes.Value {
	if width == 0 {
		return nil
	}
	off := len(c.buf)
	c.buf = c.buf[:off+width]
	return c.buf[off : off+width : off+width]
}

// concat returns l ++ r as one output tuple of capacity rowCap: the tail
// beyond len(l)+len(r) is reserved for whoever the tuple is handed to (the
// next join of a chain), and the capacity bound keeps a later extension
// from reaching the neighbouring tuple.
func (c *rowChunk) concat(l, r []sqltypes.Value, rowCap int) []sqltypes.Value {
	off := len(c.buf)
	c.buf = c.buf[:off+rowCap]
	row := c.buf[off : off+len(l)+len(r) : off+rowCap]
	copy(row[copy(row, l):], r)
	return row
}

// ---------------------------------------------------------------- sorting

// byTail compares two rows by the ORDER BY keys at their tail, key k at
// row[width+k]: NULLs first, desc[k] flips key k, ties compare equal. Both
// executors sort with it, stably (DESIGN.md ADR-040).
func byTail(width int, desc []bool) func(a, b []sqltypes.Value) int {
	return func(a, b []sqltypes.Value) int {
		for k, d := range desc {
			c := compareNullsFirst(a[width+k], b[width+k])
			if d {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	}
}

// stableSortIdx stably sorts a permutation vector with an explicit
// comparator: bottom-up merge sort over insertion-sorted runs. The spiller,
// every ORDER BY's buffer, orders its records with it: a permutation moves
// four bytes a step where a record moves seven words, and there is no
// reflection-based swapper, which showed up in sort.SliceStable's Q1/Q22
// profiles.
func stableSortIdx(idx []int32, less func(a, b int32) bool) {
	n := len(idx)
	if n < 2 {
		return
	}
	const run = 32
	for lo := 0; lo < n; lo += run {
		hi := lo + run
		if hi > n {
			hi = n
		}
		for i := lo + 1; i < hi; i++ {
			for j := i; j > lo && less(idx[j], idx[j-1]); j-- {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			}
		}
	}
	if n <= run {
		return
	}
	tmp := make([]int32, n)
	for width := run; width < n; width *= 2 {
		for lo := 0; lo+width < n; lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if hi > n {
				hi = n
			}
			// merge idx[lo:mid] and idx[mid:hi] into tmp, left wins ties
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if less(idx[j], idx[i]) {
					tmp[k] = idx[j]
					j++
				} else {
					tmp[k] = idx[i]
					i++
				}
				k++
			}
			copy(tmp[k:], idx[i:mid])
			k += mid - i
			copy(tmp[k:], idx[j:hi])
			copy(idx[lo:hi], tmp[lo:hi])
		}
	}
}
