package engine

// This file implements morsel-driven intra-query parallelism (ADR-005,
// ADR-029). Two sections fan out, the two the workloads enter: the fused
// scan+filter over a base-table heap, and the grouped projection's windows of
// gathered rows. Join builds and sorts run serially inside a parallel
// statement. Scans split the pinned table heap into morsels — batch-aligned
// contiguous row ranges — assigned to a bounded worker pool by static
// striping: worker w owns morsels w, w+par, w+2·par, … (see parallelFor for
// why striping beats dynamic claiming here). Each worker owns a workerClone
// of the statement's exec — private caches, scratch stack and compiled
// programs — and shares only immutable statement state: the plan, the pinned
// catalog and heap snapshots, the bind values.
//
// Determinism discipline: morsels partition the heap in row order and all
// merges fold per-morsel results back in morsel order, so every parallel
// path produces byte-identical output to the serial one (parallelism 1 is
// the differential oracle):
//   - aggregate argument columns are computed per-morsel, then folded
//     serially in row order — float sums see the same addition order,
//     DISTINCT sets and MIN/MAX ties resolve identically;
//   - filters emit survivors in morsel order, matching the serial stream.
// Error parity: each worker walks its stripe in increasing morsel order and
// stops once its next morsel is at or past the lowest failing index seen so
// far (parallelFor's minFail protocol), so the surfaced error is always the
// one the serial path would have hit first (lowest failing morsel, first
// failing batch within it).
//
// Grouped projections keep the hash table serial (DESIGN.md ADR-021): group
// ids in first-seen order and accumulators folded in arrival order are part
// of the output contract. What feeds the table — group keys and aggregate
// arguments, conversion UDFs included — is computed in one parallel section
// per window of gathered rows (groupOperator.drainParallel).

import (
	"runtime/debug"
	"sync"
	"sync/atomic"

	"mtbase/internal/sqltypes"
)

// morselSize is the number of rows one worker claims at a time. It is a
// multiple of batchSize so parallel workers see exactly the batch
// boundaries the serial path would, which keeps error reporting and scratch
// behaviour aligned. Package-level and atomic: tests shrink it to force
// parallel paths on small tables.
var morselSize int64 = 4 * batchSize

func morselLen() int { return int(atomic.LoadInt64(&morselSize)) }

// SetMorselSize overrides the scheduling granule (rows per morsel), rounded
// up to a whole number of batches; n <= 0 restores the default. Parallel
// paths engage only for inputs of at least two morsels, so lowering this
// lets tests exercise them on small heaps.
func SetMorselSize(n int) {
	if n <= 0 {
		atomic.StoreInt64(&morselSize, 4*batchSize)
		return
	}
	if n < batchSize {
		n = batchSize
	}
	n = (n + batchSize - 1) / batchSize * batchSize
	atomic.StoreInt64(&morselSize, int64(n))
}

// parallelFor runs fn(worker, item) for every item in [0, n) on up to par
// goroutines. Assignment is striped: worker w processes items w, w+par,
// w+2·par, … in increasing order. The static stripe — rather than dynamic
// claiming — is deliberate: a statement runs many parallel sections over
// the same heap (one per scan, window of aggregate input), and striping
// sends the same rows to the same worker every time, so per-worker memo
// caches (conversion-UDF results above all) hit across sections instead of
// every worker redundantly computing every distinct value. Morsel work is
// uniform per row, so stealing would buy little against that cache loss.
//
// Error protocol: minFail tracks the lowest failing item index. Workers
// process their stripe in increasing order and stop once their next item is
// at or past minFail, so when parallelFor returns, every item below the
// final minFail has fully completed — the returned error is exactly the one
// a serial in-order loop would have surfaced first.
func parallelFor(par, n int, fn func(worker, item int) error) error {
	if n <= 0 {
		return nil
	}
	if par > n {
		par = n
	}
	if par <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	minFail := int64(n)
	errs := make([]error, n)
	var panicked atomic.Pointer[workerPanic]
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &workerPanic{val: r, stack: debug.Stack()})
					atomic.StoreInt64(&minFail, 0) // stop the other workers
				}
			}()
			for i := w; i < n; i += par {
				if int64(i) >= atomic.LoadInt64(&minFail) {
					return
				}
				if err := fn(w, i); err != nil {
					errs[i] = err
					for {
						m := atomic.LoadInt64(&minFail)
						if int64(i) >= m || atomic.CompareAndSwapInt64(&minFail, m, int64(i)) {
							break
						}
					}
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
	if m := atomic.LoadInt64(&minFail); m < int64(n) {
		return errs[m]
	}
	return nil
}

// workerPanic carries a panic off a worker goroutine — where it would end the
// process whatever the statement's caller defers — to the goroutine waiting in
// parallelFor, which raises it again for the statement's DB.Recover to report
// with the worker's stack.
type workerPanic struct {
	val   any
	stack []byte
}

// workerPool lazily materializes one workerClone per pool slot; workers are
// only built for slots that actually claim work. The pool lives on the exec
// (ex.workerPool) for the whole statement, so worker-owned caches —
// compiled UDF projections, scratch stacks, entry memos — persist across
// parallel sections instead of being rebuilt per operator.
type workerPool struct {
	ex      *exec
	workers []*exec
}

// workerPool returns the statement's persistent pool. Parallel sections run
// one at a time within a statement (the consumer pulls batches serially and
// each section blocks until its parallelFor returns), so reusing the same
// workers across sections never overlaps two users of one clone.
func (ex *exec) workerPool() *workerPool {
	if ex.pool == nil {
		ex.pool = &workerPool{ex: ex, workers: make([]*exec, ex.par)}
	}
	return ex.pool
}

func (p *workerPool) worker(w int) *exec {
	if p.workers[w] == nil {
		p.workers[w] = p.ex.workerClone()
	}
	return p.workers[w]
}

// ---------------------------------------------------------------- scan+filter

// parallelScanFilter is the fused morsel-parallel scan+filter operator: it
// replaces the scanOperator→filterOperator pair over a base-table heap when
// the execution runs parallel. Open fans the morsels out to the pool — each
// worker filters its morsels with privately lowered conjunct programs — and
// Next streams the surviving rows in heap order.
//
// On a poisoned row the serial pipeline emits every batch before the
// failing one and then surfaces the row's error; this operator reproduces
// that: survivors of morsels (and batches within the failing morsel) ahead
// of the first error are emitted, then Next returns the same error.
type parallelScanFilter struct {
	ex     *exec
	rows   [][]sqltypes.Value
	rel    *relation
	conjs  []*conjunct
	parent *scope

	// kept holds the survivors not yet emitted, morsel by morsel, up to and
	// including the first failing morsel, whose error err is.
	kept [][][]sqltypes.Value
	err  error
	out  Batch

	// Memory-limited statements: the retained survivor references are
	// charged against the shared statement budget (workers fold into one
	// accountant via workerClone), so parallel execution observes the same
	// limit as serial — spills themselves only happen in serial breaker
	// code, which keeps every parallelism setting byte-identical.
	acct    *memAccountant
	charged int64
}

func newParallelScanFilter(ex *exec, rows [][]sqltypes.Value, rel *relation, conjs []*conjunct, parent *scope) *parallelScanFilter {
	return &parallelScanFilter{ex: ex, rows: rows, rel: rel, conjs: conjs, parent: parent}
}

func (o *parallelScanFilter) Open(ex *exec) error {
	morsel := morselLen()
	n := len(o.rows)
	ex.db.Stats.ScanRows.Add(int64(n))
	nm := (n + morsel - 1) / morsel
	o.kept = make([][][]sqltypes.Value, nm)
	merrs := make([]error, nm)
	pool := o.ex.workerPool()
	filters := make([]*filterOp, o.ex.par)
	idxs := make([][]int32, o.ex.par) // a morsel's survivors so far, as offsets into it
	parallelFor(o.ex.par, nm, func(w, m int) error {
		we := pool.worker(w)
		if filters[w] == nil {
			f := we.newFilterOp(o.conjs, o.rel, o.parent)
			filters[w] = &f
		}
		lo := m * morsel
		src := scanOp{rows: o.rows[lo:min(lo+morsel, n)]}
		f := filters[w]
		var b Batch
		idx := idxs[w][:0]
		for f.failed == nil && src.next(&b) {
			if err := we.cancelled(); err != nil {
				merrs[m] = err
				return err
			}
			f.apply(&b)
			if f.failed == nil {
				for _, i := range b.sel {
					idx = append(idx, int32(b.base)+i)
				}
			}
		}
		// Sized once, by the count; survivors ahead of a failing batch still emit.
		kept := make([][]sqltypes.Value, len(idx))
		for j, i := range idx {
			kept[j] = src.rows[i]
		}
		o.kept[m], idxs[w] = kept, idx
		merrs[m] = f.failed
		return f.failed
	})
	survivors := 0
	for m := 0; m < nm && o.err == nil; m++ {
		survivors += len(o.kept[m])
		if o.err = merrs[m]; o.err != nil {
			o.kept = o.kept[:m+1]
		}
	}
	if ex.acct != nil {
		o.acct = ex.acct
		o.charged = int64(survivors) * rowRefBytes
		ex.acct.charge(o.charged)
	}
	return nil
}

func (o *parallelScanFilter) Next(ex *exec) (*Batch, error) {
	if err := ex.cancelled(); err != nil {
		return nil, err
	}
	for len(o.kept) > 0 && len(o.kept[0]) == 0 {
		o.kept = o.kept[1:]
	}
	if len(o.kept) == 0 {
		return nil, o.err
	}
	n := min(len(o.kept[0]), batchSize)
	o.out.window(o.kept[0][:n])
	o.kept[0] = o.kept[0][n:]
	ex.noteStream(n)
	return &o.out, nil
}

func (o *parallelScanFilter) Close() {
	o.kept = nil
	o.err = nil
	o.acct.release(o.charged)
	o.charged = 0
}
