package engine

// This file implements the pull-based physical operator layer: every query
// shape — scans, filters, joins, grouping, ordering, DISTINCT, LIMIT —
// executes as a tree of Operators exchanging Batches, so memory scales with
// batch size plus pipeline-breaker state (hash tables, group buckets, sort
// buffers) rather than with intermediate result size. The tree is built per
// execution from the Plan's AST (join order and index choices are
// data-dependent, so the physical tree itself is not cached; the Plan
// contributes the parsed AST, the per-Select conjunct analysis and the UDF
// body lowerings), and both the materializing Result consumers and the
// streaming Rows cursor drain the same root.
//
// Contracts:
//   - Open acquires per-execution state and opens children. Pipeline
//     breakers (hash-join build, group bucketing, sort) drain their inputs
//     here; everything else stays lazy.
//   - Next returns the next Batch or (nil, nil) on exhaustion. The batch is
//     owned by the operator and valid until the next Next/Close call; row
//     slices ([]sqltypes.Value) inside it are stable and may be retained.
//     Every Next polls ctx cancellation before producing work.
//   - Close releases operator state and closes children; it is idempotent.
//
// Relation-shaped streams (FROM/WHERE pipelines) emit window batches whose
// selection vector may be refined by filters. Result-shaped streams
// (project, group, sort, limit) emit dense batches — sel is the
// identity. Below an ORDER BY a projected row ends in its sort keys, past
// its output columns; the sort cuts them off (DESIGN.md ADR-040).
//
// Every operator has one arm: expressions arrive as batch programs
// (vecCompile), and whether a program is a compiled kernel or the lifted
// interpreter is decided there, never here (DESIGN.md ADR-010).
//
// Row-order equivalence with the reference executor (exec.go, behind
// DB.SetStreamExec(false); it shares no operator and no kernel with this
// file) is by construction: filters refine selection vectors in row order, joins probe
// in input order and expand hash buckets in build insertion order, groups
// are emitted in first-seen key order, and the sort operator orders rows
// stably by the same comparator over the same keys at their tail.

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"

	"mtbase/internal/sqlast"
	"mtbase/internal/sqltypes"
)

// Operator is the pull-based physical operator interface. One tree executes
// one statement: operators capture their compiled programs at build time
// and receive the executing exec on every call (cancellation, scratch
// stack, statement caches).
type Operator interface {
	Open(ex *exec) error
	Next(ex *exec) (*Batch, error)
	Close()
}

// noteStream records one emitted batch in the engine counters: total rows
// streamed between operators and the largest single batch seen. Counters
// are updated atomically — parallel workers and concurrent statements all
// stream batches at once.
func (ex *exec) noteStream(n int) {
	st := &ex.db.Stats
	st.RowsStreamed.Add(int64(n))
	for {
		peak := st.PeakBatch.Load()
		if int64(n) <= peak || st.PeakBatch.CompareAndSwap(peak, int64(n)) {
			return
		}
	}
}

// pipe is one streaming source under construction: an operator plus the
// schema of the batches it emits. rel carries bindings/width/base; rel.rows
// is non-nil only when the pipe's full output is already materialized (base
// table scans, cross-product sizing).
type pipe struct {
	op  Operator
	rel *relation
}

// queryRoot is a built operator tree plus its output column names.
type queryRoot struct {
	op   Operator
	cols []string
}

// ---------------------------------------------------------------- sources

// scanOperator streams a materialized row set through the row cursor: whole,
// or — an index scan (filterPipe) — the heap rows an index range selects, in
// heap order, gathered a window at a time. base says the rows are a base
// table's heap, which Stats.ScanRows counts; err is an index range's probe
// error, which Open reports.
type scanOperator struct {
	src  scanOp
	base bool
	err  error
	b    Batch
}

func (s *scanOperator) Open(ex *exec) error {
	s.src.pos = 0
	return s.err
}

func (s *scanOperator) Next(ex *exec) (*Batch, error) {
	if err := ex.cancelled(); err != nil {
		return nil, err
	}
	if !s.src.next(&s.b) {
		return nil, nil
	}
	if s.base {
		ex.db.Stats.ScanRows.Add(int64(len(s.b.sel)))
	}
	ex.noteStream(len(s.b.sel))
	return &s.b, nil
}

func (s *scanOperator) Close() { s.src.buf = nil }

// errWrapOperator prefixes every error of its subtree — the streaming
// counterpart of the "in view X" wrapping of the materializing executor.
type errWrapOperator struct {
	child  Operator
	prefix string
}

func (w *errWrapOperator) wrap(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("engine: in %s: %w", w.prefix, err)
}

func (w *errWrapOperator) Open(ex *exec) error { return w.wrap(w.child.Open(ex)) }

func (w *errWrapOperator) Next(ex *exec) (*Batch, error) {
	b, err := w.child.Next(ex)
	return b, w.wrap(err)
}

func (w *errWrapOperator) Close() { w.child.Close() }

// ---------------------------------------------------------------- filter

// filterOperator refines each input batch's selection vector with a
// conjunct list through the batched filter kernel (batch.go). Batches are
// passed through (never copied); empty batches are skipped.
type filterOperator struct {
	child Operator
	f     filterOp
}

// newFilterOp lowers conjuncts against a stream's schema, one selection
// program each, in orderConjuncts' order: every filter of the operator tree
// is one.
func (ex *exec) newFilterOp(conjs []*conjunct, rel *relation, parent *scope) filterOp {
	conjs, _ = ex.orderConjuncts(conjs, rel, parent)
	exprs := make([]sqlast.Expr, len(conjs))
	for i, c := range conjs {
		exprs[i] = c.expr
	}
	return filterOp{progs: ex.selCompileAll(exprs, rel.bindings, rel.scopeFor(parent))}
}

func (o *filterOperator) Open(ex *exec) error { return o.child.Open(ex) }

func (o *filterOperator) Next(ex *exec) (*Batch, error) {
	if o.f.failed != nil {
		return nil, o.f.failed
	}
	for {
		if err := ex.cancelled(); err != nil {
			return nil, err
		}
		b, err := o.child.Next(ex)
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		o.f.apply(b)
		if o.f.failed != nil {
			return nil, o.f.failed
		}
		if len(b.sel) > 0 {
			ex.noteStream(len(b.sel))
			return b, nil
		}
	}
}

func (o *filterOperator) Close() { o.child.Close() }

// ---------------------------------------------------------------- joins

// joinOperator is the hash join, inner or LEFT OUTER (degrading to the cross
// product with no equi pairs): Open materializes only the build side — the
// hash table, or nothing at all when it probes a base table's persistent
// index — and Next streams probe batches, expanding each into at most
// batch-size output windows.
//
// The outer kind is the inner one except at three points, each marked
// "outer (n)" where outer is read: (1) a probe row with a NULL key or an
// empty bucket stays in the probe instead of dropping out (probeBatch, and
// addProbe on the spilled path); (2) the residual ON conjuncts decide
// whether a candidate counts as a match; (3) a probe row without a match is
// emitted null-extended — (2) and (3) in fillPending, which the spilled path
// runs too. An inner join's residual ON conjuncts filter its output instead
// (buildJoinExprPipe).
//
// Row ownership (DESIGN.md ADR-011). Rows this operator allocates are
// chunk-allocated per fill with capacity rowCap — the final width of the
// join chain it belongs to — and handed to exactly one consumer, the next
// join of that chain. That join (extends) therefore owns the reserved tail
// of each probe row: a row's first match is written in place behind the
// prefix, only further matches of a 1:N bucket copy. Whether a given probe
// row really has the capacity is read off cap(row) — a row that came back
// from a spilled join has none and is copied like any foreign row. The
// prefix of a row is never rewritten, so copies of it stay valid whenever
// they are made. An outer join is never part of a chain (extends is false):
// it copies every row it emits.
//
// The index path (DESIGN.md ADR-022). A build side that is a base table
// keyed on plain columns is not built at all: the table's persistent index
// is the hash table, and the build side's own conjuncts (own) — only ones
// that cannot raise, since they now see just the rows a probe reaches — run
// over each probe batch's candidates. Buckets stay in heap order either way,
// so the output is the eager build's, row for row. The regret is bounded:
// once the candidates evaluated would pass 1/indexJoinShare of the heap the
// join builds eagerly after all (eagerBuild), between two probe batches, and
// it starts that way when the probe side's known size already says so.
type joinOperator struct {
	ex     *exec
	left   Operator
	right  Operator
	lrel   *relation
	rrel   *relation
	orel   *relation
	pairs  []equiPair
	parent *scope

	outer bool
	on    *windowFilter    // outer: the residual ON conjuncts
	nulls []sqltypes.Value // outer: the right-width null extension

	rowCap  int  // capacity of the output rows allocated here (>= orel.width)
	extends bool // probe rows come from the previous join of the same chain

	lcols, rcols []int // what an output row holds of the probe and the build row; all where nil

	// The index path: the key columns of the persistent index (nil: this join
	// builds eagerly from the start), the build side's own conjuncts — not
	// applied to right, which eagerBuild filters if it comes to that — and
	// their filter over candidates, lowered once Open takes the path.
	idxCols []string
	own     []*conjunct
	cand    candidateFilter

	// Build state: the build rows and the hash table over them — a base
	// table's persistent index on the index path (idxCols != nil), else the
	// transient one vecJoinBuild carves, whose pair-less form has one bucket,
	// the empty key's, holding every build row.
	idx       *hashIndex
	rightRows [][]sqltypes.Value

	lks *vecKeySet
	buf []byte

	// Probe state: the probe batch being expanded, its selected rows with
	// their buckets, how far the expansion got (row selPos of sel, match
	// bktPos of its bucket, and for an outer join whether an earlier fill
	// already found that row a match) and how many output rows it still
	// allocates.
	probe   *Batch
	sel     []int32
	buckets [][]int
	selPos  int
	bktPos  int
	matched bool
	fresh   int

	pending [][]sqltypes.Value
	pendPos int
	out     Batch

	// Memory-limited statements: build-side charge and, after an overflow,
	// the spilled join's state (spilljoin.go).
	acct    *memAccountant
	charged int64
	spilled *spillJoin
}

// indexJoinShare bounds what the index path may cost over the eager build:
// a join stops filtering candidates once it would have evaluated more than
// 1/indexJoinShare of the build table's rows. Chosen by measurement
// (EXPERIMENTS.md "The join probes through its filters").
const indexJoinShare = 4

// newJoinPipe joins l and r on the equi pairs; outer makes it a LEFT OUTER
// join whose matches the residual ON conjuncts decide. own are the build
// side's own conjuncts, which the caller has not applied to r: the join
// evaluates them over index candidates when r is a base table keyed on plain
// columns and none of them can raise (orderConjuncts counts them all safe),
// and filters r with them first otherwise. A join of a FROM-list chain
// (joinChain) says whether l is the chain's previous join and writes only
// the columns whose names keep holds (chainReads.cut); a standalone join
// passes false and nil reads. Its rows are its own width until Open.
func (ex *exec) newJoinPipe(l, r *pipe, own []*conjunct, pairs []equiPair, outer bool, residual []*conjunct, parent *scope, extends bool, reads *chainReads, keep uint64) *pipe {
	jo := &joinOperator{
		ex: ex, lrel: l.rel,
		pairs: pairs, parent: parent, outer: outer, extends: extends,
	}
	jo.orel, jo.lcols, jo.rcols = reads.cut(l.rel, r.rel, keep, extends)
	jo.rowCap = jo.orel.width
	cols, indexable := indexableBuild(r.rel, pairs)
	if _, safe := ex.orderConjuncts(own, r.rel, parent); indexable && safe == len(own) {
		jo.idxCols, jo.own = cols, own
	} else if len(own) > 0 {
		r = ex.filterPipe(r, own, parent)
	}
	jo.left, jo.right, jo.rrel = l.op, r.op, r.rel
	if outer {
		jo.on = &windowFilter{f: ex.newFilterOp(residual, jo.orel, parent)}
		jo.nulls = make([]sqltypes.Value, r.rel.width)
	}
	return &pipe{op: jo, rel: jo.orel}
}

// indexableBuild reports whether build side r is an unfiltered base table
// and every right key a plain column of it — the shape served by the
// table's persistent index instead of a transient hash table — and returns
// the key columns.
func indexableBuild(r *relation, pairs []equiPair) ([]string, bool) {
	if r.base == nil || len(r.bindings) != 1 || len(pairs) == 0 {
		return nil, false
	}
	cols := make([]string, 0, len(pairs))
	for _, p := range pairs {
		cr, ok := p.right.(*sqlast.ColumnRef)
		if !ok || !relationHasRef(r, cr) {
			return nil, false
		}
		cols = append(cols, cr.Name)
	}
	return cols, true
}

// windowFilter runs conjuncts (one selection program each, ADR-046) over
// candidate rows, window by window through the row cursor: an outer join's
// residual ON conjuncts over the joined candidates of one probe row, the
// index path's own conjuncts over the build rows a probe batch reaches
// (candidateFilter), and an EXISTS subquery's other conjuncts over the rows
// its key reaches (semiJoin).
type windowFilter struct {
	f   filterOp
	cur scanOp
	win Batch
}

// each calls keep with the position of every candidate all conjuncts
// accept, in order. The candidates are rows, or with ids rows[ids[0]],
// rows[ids[1]], …. A failing candidate aborts with the error of the first
// one in candidate order, as a row loop would.
func (w *windowFilter) each(rows [][]sqltypes.Value, ids []int, keep func(int)) error {
	w.cur.rows, w.cur.ids, w.cur.pos = rows, ids, 0
	for w.cur.next(&w.win) {
		w.f.apply(&w.win)
		if w.f.failed != nil {
			return w.f.failed
		}
		for _, i := range w.win.sel {
			keep(w.win.base + int(i))
		}
	}
	return nil
}

// candidateFilter runs a build side's own conjuncts over the candidates of
// one probe batch — the rows of the build table the batch's keys reach — and
// counts what it has evaluated against the join's budget.
type candidateFilter struct {
	windowFilter
	ids []int // the batch's candidates, bucket after bucket; -1 once rejected

	seen, budget int // candidates evaluated so far, over all batches, and how many may be
}

// keep narrows buckets[i], for each probe row i of keyed, to the candidates
// every conjunct accepts, in bucket order. The narrowed buckets are windows
// of c.ids and last until the next call.
func (c *candidateFilter) keep(heap [][]sqltypes.Value, keyed []int32, buckets [][]int) error {
	c.ids = c.ids[:0]
	for _, i := range keyed {
		c.ids = append(c.ids, buckets[i]...)
	}
	if len(c.ids) == 0 {
		return nil // every bucket is empty; nil ids would read the whole heap
	}
	c.seen += len(c.ids)
	next := 0 // the candidates before next are decided
	reject := func(end int) {
		for ; next < end; next++ {
			c.ids[next] = -1
		}
	}
	if err := c.each(heap, c.ids, func(k int) { reject(k); next++ }); err != nil {
		return err
	}
	reject(len(c.ids))
	pos := 0
	for _, i := range keyed {
		seg := c.ids[pos : pos+len(buckets[i])]
		pos += len(seg)
		kept := seg[:0]
		for _, id := range seg {
			if id >= 0 {
				kept = append(kept, id) // never ahead of the read position
			}
		}
		buckets[i] = kept
	}
	return nil
}

func (j *joinOperator) Open(ex *exec) error {
	if l, ok := j.left.(*joinOperator); ok && j.extends {
		l.rowCap = j.rowCap // its rows reserve what this join writes in place
	}
	if err := j.left.Open(ex); err != nil {
		return err
	}
	j.lks = ex.vecKeys(pairExprs(j.pairs, false), j.lrel.bindings, j.lrel.scopeFor(j.parent))
	if j.idxCols == nil {
		return j.eagerBuild(ex)
	}
	// The table's persistent lazy index already is the hash table (same key
	// encoding, buckets in heap order); no transient one is built — unless
	// the probe side's size is known (a materialized source) and says the
	// own conjuncts would meet more candidates than the budget allows.
	heap := j.rrel.rows
	j.cand.budget = len(heap) / indexJoinShare
	sized := len(j.own) > 0 && j.lrel.rows != nil
	if sized && len(j.lrel.rows) >= j.cand.budget {
		return j.eagerBuild(ex) // a probe row reaches a candidate or more: no need for the index to tell
	}
	idx, err := ex.tableIndex(j.rrel.base, j.idxCols)
	if err != nil {
		return err
	}
	if sized && idx.candidates(len(j.lrel.rows)) >= j.cand.budget {
		return j.eagerBuild(ex)
	}
	ex.db.Stats.JoinIndexProbes.Add(1)
	j.idx, j.rightRows = idx, heap
	j.cand.f = ex.newFilterOp(j.own, j.rrel, j.parent)
	return nil
}

// eagerBuild drains the build side — filtered by its own conjuncts first, if
// the join was to run them over candidates — and carves its hash table (base
// scans are already materialized as the table heap). Under a memory limit
// the drain charges the heap window by window or the stream batch by batch,
// and an equi build that leaves the statement over budget releases its
// charge and overflows into a spilled join (spilljoin.go), which takes the
// rows held so far and then the rest. The pair-less join (cross product,
// LEFT JOIN without an equi conjunct) has one key group, so it stays in
// memory, charged once it is whole.
func (j *joinOperator) eagerBuild(ex *exec) error {
	if len(j.own) > 0 {
		p := ex.filterPipe(&pipe{op: j.right, rel: j.rrel}, j.own, j.parent)
		j.right, j.rrel, j.own = p.op, p.rel, nil
	}
	j.idx, j.idxCols, j.acct = nil, nil, ex.acct
	heap := j.rrel.rows
	if j.rrel.base != nil {
		ex.db.Stats.ScanRows.Add(int64(len(heap))) // the heap, read without its scan
	}
	if heap == nil {
		if err := j.right.Open(ex); err != nil {
			return err
		}
	}
	rks := ex.vecKeys(pairExprs(j.pairs, true), j.rrel.bindings, j.rrel.scopeFor(j.parent))
	src, rows := scanOp{rows: heap}, heap
	var win Batch
	var add int64
	for {
		b := &win
		if heap == nil {
			var err error
			if b, err = j.right.Next(ex); err != nil {
				return err
			}
		} else if j.acct == nil || !src.next(b) {
			b = nil // an uncharged heap needs no drain
		}
		if b == nil {
			break
		}
		if j.spilled != nil {
			if err := ex.cancelled(); err != nil {
				return err
			}
			if err := j.spilled.addBuild(ex, b, rks); err != nil {
				return err
			}
			continue
		}
		if heap == nil {
			for _, i := range b.sel {
				rows = append(rows, b.rows[i])
			}
		}
		if j.acct == nil {
			continue
		}
		for _, i := range b.sel {
			add += rowBytes(b.rows[i])
		}
		if len(j.pairs) == 0 {
			continue
		}
		add += joinBucketBytes * int64(len(b.sel))
		j.acct.charge(add)
		j.charged, add = j.charged+add, 0
		if j.acct.over() {
			j.acct.release(j.charged)
			j.charged = 0
			j.spilled = newSpillJoin(ex, j)
			if heap != nil {
				rows = heap[:src.pos]
			}
			if err := j.spilled.addBuildRows(ex, rows, rks); err != nil {
				return err
			}
		}
	}
	if j.spilled != nil {
		return j.spilled.build.flush()
	}
	j.acct.charge(add)
	j.charged += add
	j.rightRows = rows
	var err error
	j.idx, err = ex.vecJoinBuild(rks, rows)
	return err
}

// vecJoinBuild carves the hash table over the build rows, keyed by rks — the
// right-side key expressions; NULL keys never participate in an equi join,
// and with no pairs every row has the empty key. Keys are computed
// column-wise per batch, so buckets keep build row order.
func (ex *exec) vecJoinBuild(rks *vecKeySet, rows [][]sqltypes.Value) (*hashIndex, error) {
	if len(rks.progs) > 0 { // a pair-less build hashes no key: JoinBuildRows counts keyed builds
		ex.db.Stats.JoinBuildRows.Add(int64(len(rows)))
	}
	c := newCarver(len(rows), len(rows))
	c.ix.n = len(rows)
	var buf []byte
	src := scanOp{rows: rows}
	var b Batch
	for src.next(&b) {
		if err := ex.cancelled(); err != nil {
			return nil, err
		}
		m := ex.vs.mark()
		sel := rks.compute(&b, true)
		if err := b.firstErr(); err != nil {
			return nil, err
		}
		for _, i := range sel {
			buf = encodeKeyCols(buf[:0], rks.cols, i)
			c.add(b.base+int(i), buf)
		}
		ex.vs.release(m)
	}
	return c.carve(), nil
}

func (j *joinOperator) Next(ex *exec) (*Batch, error) {
	for j.spilled == nil && j.pendPos >= len(j.pending) {
		if err := ex.cancelled(); err != nil {
			return nil, err
		}
		if j.selPos >= len(j.sel) {
			b, err := j.left.Next(ex)
			if err != nil {
				return nil, err
			}
			if b == nil {
				return nil, nil
			}
			if err := j.probeBatch(ex, b); err != nil {
				return nil, err
			}
			continue // an index join may have fallen back, into a spilled join even
		}
		if err := j.fillPending(); err != nil {
			return nil, err
		}
	}
	if j.spilled != nil {
		return j.spilledNext(ex)
	}
	n := len(j.pending) - j.pendPos
	if n > batchSize {
		n = batchSize
	}
	j.out.window(j.pending[j.pendPos : j.pendPos+n])
	j.pendPos += n
	ex.noteStream(n)
	return &j.out, nil
}

// joinFillRows bounds the candidates one fill expands, and with them the
// output rows it holds. A probe batch whose buckets are wide — a cross
// product, a skewed 1:N key — expands over several fills, so cancellation
// is polled and memory bounded per fill rather than per probe batch times
// build side, whether or not an outer join's residual lets any candidate
// through.
const joinFillRows = 16 * batchSize

// probeBatch looks up the buckets of one probe batch: the probe keys fill
// per-batch key columns (NULL-key rows drop out of the selection vector; a
// pair-less join's rows all have the empty key) and every key is looked up
// in j.idx. On the index path its candidates are counted and filtered, and
// past the budget the join falls back to the eager build, whose table then
// replaces j.idx.
func (j *joinOperator) probeBatch(ex *exec, b *Batch) error {
	if cap(j.buckets) < len(b.rows) {
		j.buckets = make([][]int, len(b.rows))
	}
	m := ex.vs.mark()
	defer ex.vs.release(m)
	keyed := j.lks.compute(b, true)
	if err := b.firstErr(); err != nil {
		return err
	}
	sel := keyed
	if j.outer {
		// outer (1): every incoming row stays selected; a NULL key has no
		// candidates. Rows an upstream filter dropped stay dropped.
		sel = b.sel
		for _, i := range sel {
			j.buckets[i] = nil
		}
	}
	cands := j.lookup(keyed)
	if j.idxCols != nil {
		ex.db.Stats.ScanRows.Add(int64(cands))
		switch {
		case len(j.own) == 0:
		case j.cand.seen+cands <= j.cand.budget:
			if err := j.cand.keep(j.rightRows, keyed, j.buckets); err != nil {
				return err
			}
		default:
			// Over budget: build eagerly after all; this batch, none of
			// whose rows is out yet, is the first to probe the result.
			ex.db.Stats.JoinEagerFallbacks.Add(1)
			if err := j.eagerBuild(ex); err != nil {
				return err
			}
			if j.spilled != nil {
				return j.spilled.addProbe(ex, b)
			}
			j.lookup(keyed)
		}
	}
	j.pend(b, sel)
	return nil
}

// lookup points the bucket of each probe row of keyed at its rows of j.idx
// and returns how many candidates they hold.
func (j *joinOperator) lookup(keyed []int32) int {
	cands := 0
	for _, i := range keyed {
		j.buf = encodeKeyCols(j.buf[:0], j.lks.cols, i)
		j.buckets[i] = j.idx.bucket(j.buf)
		cands += len(j.buckets[i])
	}
	return cands
}

// pend makes rows sel of probe batch b, their buckets looked up, the
// expansion fillPending works through; the matches are counted so the rows
// that need allocating come from exactly-sized chunks.
func (j *joinOperator) pend(b *Batch, sel []int32) {
	j.fresh = 0 // rows to allocate: every match but the in-place ones
	for _, i := range sel {
		j.fresh += len(j.buckets[i])
		if len(j.buckets[i]) > 0 && j.owns(b.rows[i]) {
			j.fresh--
		}
	}
	if j.outer {
		j.fresh += len(sel) // and each row's null extension
	}
	// The selection vector may live in scratch released on return.
	j.probe, j.sel = b, append(j.sel[:0], sel...)
	j.selPos, j.bktPos = 0, 0
}

// fillPending expands the probe batch into joined output rows, from where
// the previous fill stopped until the batch is exhausted or joinFillRows
// candidates are expanded.
func (j *joinOperator) fillPending() error {
	j.pending, j.pendPos = j.pending[:0], 0
	ck := newRowChunk(min(j.fresh, joinFillRows), j.rowCap)
	room := joinFillRows
	pos, k := j.selPos, j.bktPos
	for pos < len(j.sel) && room > 0 {
		l, bucket := j.probe.rows[j.sel[pos]], j.buckets[j.sel[pos]]
		first := len(j.pending)
		end := min(len(bucket), k+room)
		room -= end - k
		for ; k < end; k++ {
			r := j.rightRows[bucket[k]]
			if k == 0 && j.owns(l) {
				row := l[:j.orel.width]
				pick(row[len(l):], r, j.rcols)
				j.pending = append(j.pending, row)
			} else {
				row := ck.concat(nil, nil, j.rowCap)[:j.orel.width]
				pick(row[pick(row, l, j.lcols):], r, j.rcols)
				j.pending = append(j.pending, row)
				j.fresh--
			}
		}
		if j.outer {
			// outer (2): the residual decides which candidates are matches.
			cands, n := j.pending[first:], 0
			err := j.on.each(cands, nil, func(i int) {
				cands[n] = cands[i] // never ahead of the read position
				n++
			})
			if err != nil {
				return err
			}
			j.pending = j.pending[:first+n]
			j.matched = j.matched || n > 0
		}
		if k < len(bucket) {
			break // resume at match k of this row
		}
		if j.outer {
			// outer (3): a row without a match is emitted null-extended.
			if !j.matched {
				if room == 0 {
					break // resume at the null extension
				}
				j.pending = append(j.pending, ck.concat(l, j.nulls, j.rowCap))
				room--
			}
			j.fresh--
			j.matched = false
		}
		pos, k = pos+1, 0
	}
	j.selPos, j.bktPos = pos, k
	return nil
}

// pick copies the columns cols of src, all of src where cols is nil, to the
// front of dst and returns how many.
func pick(dst, src []sqltypes.Value, cols []int) int {
	if cols == nil {
		return copy(dst, src)
	}
	for i, c := range cols {
		dst[i] = src[c]
	}
	return len(cols)
}

// owns reports whether this join may write probe row l's first match into
// l's reserved tail instead of copying l.
func (j *joinOperator) owns(l []sqltypes.Value) bool {
	return j.extends && cap(l) >= j.orel.width
}

func (j *joinOperator) Close() {
	j.left.Close()
	j.right.Close()
	j.idx, j.rightRows = nil, nil
	j.probe, j.sel, j.pending = nil, nil, nil
	if j.spilled != nil {
		j.spilled.close()
		j.spilled = nil
	}
	j.acct.release(j.charged)
	j.charged = 0
}

// ---------------------------------------------------------------- project

// projectOperator evaluates the SELECT list (and ORDER BY key expressions)
// batch-at-a-time over its input rows.
type projectOperator struct {
	child Operator
	cols  []string
	projection
}

// projection builds result-shaped batches from the selected rows of a batch:
// the SELECT list's values and star segments as dense, freshly
// chunk-allocated output tuples of capacity width + len(plans), the ORDER BY
// keys at row[width:] (DESIGN.md ADR-040). The project operator runs it over
// its input rows, the group operator over its groups' first rows.
type projection struct {
	projs []projector
	plans []orderPlan
	width int

	vprojs []vecExpr // nil entries are star segments
	vkeys  []vecExpr // key expressions (outCol plans stay nil)

	colBuf [][]sqltypes.Value
	keyBuf [][]sqltypes.Value
	rowBuf [][]sqltypes.Value
	out    Batch
	err    error // a failed row's: raised once the rows ahead of it are handed on
}

func (ex *exec) newProjectOperator(child Operator, rel *relation, sel *sqlast.Select, parent *scope, a *selAnalysis) (*projectOperator, error) {
	sc := rel.scopeFor(parent)
	cols, err := ex.outputShape(sel, rel)
	if err != nil {
		return nil, err
	}
	plans, err := buildOrderPlan(sel, cols, sc, a.aliases)
	if err != nil {
		return nil, err
	}
	o := &projectOperator{child: child, cols: cols}
	o.lowerItems(ex, sel, rel, sc, plans)
	return o, nil
}

// lowerItems builds the programs of sel's items and of the sort keys over
// rel's rows.
func (o *projection) lowerItems(ex *exec, sel *sqlast.Select, rel *relation, sc *scope, plans []orderPlan) {
	o.projs, o.width = ex.buildProjectors(sel, rel)
	o.plans = plans
	o.colBuf, o.keyBuf = make([][]sqltypes.Value, len(o.projs)), make([][]sqltypes.Value, len(plans))
	exprs := make([]sqlast.Expr, 0, len(o.projs)+len(plans))
	for i := range o.projs {
		exprs = append(exprs, o.projs[i].expr) // nil: a star segment
	}
	for k := range plans {
		exprs = append(exprs, plans[k].expr) // nil: sorts by an output column
	}
	progs, _ := ex.vecCompileAll(exprs, rel.bindings, sc, nil, nil)
	o.vprojs, o.vkeys = progs[:len(o.projs)], progs[len(o.projs):]
}

func (o *projectOperator) Open(ex *exec) error { return o.child.Open(ex) }

func (o *projectOperator) Next(ex *exec) (*Batch, error) {
	if err := ex.cancelled(); err != nil {
		return nil, err
	}
	if o.err != nil {
		return nil, o.err
	}
	b, err := o.child.Next(ex)
	if err != nil || b == nil {
		return nil, err
	}
	o.rowBuf = o.rowBuf[:0]
	o.err = o.project(ex, b)
	return o.batch(ex)
}

// batch hands on the rows projected since rowBuf was emptied — or, with
// none ahead of a failed row left, its error.
func (o *projection) batch(ex *exec) (*Batch, error) {
	if len(o.rowBuf) == 0 && o.err != nil {
		return nil, o.err
	}
	o.out.window(o.rowBuf)
	ex.noteStream(len(o.rowBuf))
	return &o.out, nil
}

// project evaluates the items, then the keys, over b's selected rows — each
// program compacts the selection, so a row's first failure is its error —
// and appends their output rows; if a row failed, only those ahead of it,
// and it returns that row's error.
func (o *projection) project(ex *exec, b *Batch) error {
	n := len(b.rows)
	sel := b.sel
	m := ex.vs.mark()
	defer ex.vs.release(m)
	selBuf := ex.vs.takeSel(len(sel))
	for i, vp := range o.vprojs {
		if vp == nil {
			continue
		}
		o.colBuf[i] = ex.vs.takeVals(n)
		vp(b, sel, o.colBuf[i])
		sel = b.compactSel(selBuf, sel)
	}
	for k, vk := range o.vkeys {
		if vk == nil {
			continue
		}
		o.keyBuf[k] = ex.vs.takeVals(n)
		vk(b, sel, o.keyBuf[k])
		sel = b.compactSel(selBuf, sel)
	}
	err := b.firstErr()
	if err != nil {
		f := int32(slices.IndexFunc(b.errs, func(e error) bool { return e != nil }))
		n, _ := slices.BinarySearch(sel, f)
		sel = sel[:n]
	}
	width := o.width + len(o.plans)
	ck := newRowChunk(len(sel), width)
	for _, i := range sel {
		row := ck.alloc(width)
		pos := 0
		for j := range o.projs {
			p := &o.projs[j]
			if p.star {
				for _, seg := range p.segs {
					pos += copy(row[pos:pos+seg[1]], b.rows[i][seg[0]:seg[0]+seg[1]])
				}
				continue
			}
			row[pos] = o.colBuf[j][i]
			pos++
		}
		o.rowBuf = append(o.rowBuf, row)
		for k := range o.plans {
			if c := o.plans[k].outCol; c >= 0 {
				row[o.width+k] = row[c]
			} else {
				row[o.width+k] = o.keyBuf[k][i]
			}
		}
	}
	return err
}

func (o *projectOperator) Close() { o.child.Close() }

// ---------------------------------------------------------------- group

// groupOperator is the grouped projection, a streaming hash aggregate
// (DESIGN.md ADR-021): a pipeline breaker that at Open gives each arriving
// row the dense id of its group (first-seen key order) and folds its
// aggregate arguments into the group's accumulators in arrival order — so
// sums, MIN/MAX ties and DISTINCT sets come out as evalAggregate's row
// loop, the specification, computes them — then runs HAVING, the SELECT list
// and ORDER BY keys as batch programs over its groups (DESIGN.md ADR-035): a
// batch's rows are up to batchSize groups' first rows, and an aggregate call
// reads the accumulator of its row's group. It keeps a group's first row and
// accumulators, never its rows. SELECT DISTINCT is this operator too, a
// grouping by the output columns with no aggregates (newDistinctOperator).
//
// Under a memory limit that state is charged as groups are admitted; once
// over, the table freezes (DESIGN.md ADR-039): resident groups keep folding,
// and a row of a key the table never admitted spills keyed by (key,
// arrival). The merge of those runs yields each such key's rows together in
// arrival order; they fold into one group, whose output row — if HAVING
// passes it — spills keyed by the group's first arrival, and comes back
// behind the resident groups in first-seen order. Nothing of a key outside
// the table stays resident.
type groupOperator struct {
	groupedShape
	child  Operator
	rel    *relation
	calls  []*sqlast.FuncCall // the outermost aggregate calls: what evalAggregate is invoked on
	siteOf []int32            // calls[i]'s site: calls of one family and argument share one (shared.go)
	sites  []*sqlast.FuncCall // a call of each site
	proto  []aggAcc           // the sites' empty accumulators
	shared *sharedExprs       // what gexprs and the sites' arguments share
	progs  groupProgs         // this exec's lowering of them

	ids   keyTable           // resident group key -> dense first-seen id
	first [][]sqltypes.Value // resident group id -> its first row
	accs  []aggAcc           // resident group id × site
	gids  []int32
	pos   int
	g     groupCtx

	in   []aggInput         // the current window, a chunk of at most batchSize rows each
	win  [][]sqltypes.Value // parallel executions: the rows gathered for it
	aggB Batch

	projection          // the output side: select items and ORDER BY keys
	cond       filterOp // HAVING
	grp        Batch    // the groups being emitted

	// Memory-limited statements only.
	acct     *memAccountant
	charged  int64
	frozen   bool
	sp       *spiller   // rows of keys the frozen table never admitted, by (key, arrival)
	arrivals int64      // rows sp took
	outSp    *spiller   // the merged groups' output rows, by first arrival
	merge    *mergeIter // outSp drained: what Next emits behind the resident groups
	merr     error      // the failure of the merged group first seen earliest
	errSeq   int64      // its first arrival
	macc     []aggAcc   // the merged group being folded
	mfirst   [1][]sqltypes.Value
	chunk    [][]sqltypes.Value
}

// groupProgs is one exec's lowering of the input side: the group keys, per
// site the argument (nil for COUNT(*) and a wrong argument count), and the
// slots of what they share.
type groupProgs struct {
	gks   *vecKeySet
	args  []vecExpr
	slots *exprSlots
}

// aggInput is what the fold reads of one chunk of input rows: the encoded
// keys, and per site the argument column and, if any row failed, the errors.
type aggInput struct {
	rows [][]sqltypes.Value
	sel  []int32
	keys []byte  // the keys of sel's rows, back to back
	ends []int32 // ends[j]: where the key of row sel[j] ends
	args [][]sqltypes.Value
	errs [][]error
}

var zeroGids [batchSize]int32 // every row of a chunk to the one group the merge is on

func (ex *exec) newGroupOperator(child Operator, rel *relation, sel *sqlast.Select, parent *scope, a *selAnalysis) (*groupOperator, error) {
	gs, err := ex.groupedShape(sel, rel, parent, a.aliases)
	if err != nil {
		return nil, err
	}
	o := &groupOperator{groupedShape: gs, child: child, rel: rel}
	for _, it := range sel.Items {
		o.collectAggCalls(it.Expr)
	}
	o.collectAggCalls(o.having)
	for _, p := range gs.plans {
		o.collectAggCalls(p.expr)
	}
	if o.shared = ex.sharedExprs(a, o.gexprs, o.calls); o.shared != nil {
		o.siteOf = o.shared.siteOf
	} else { // every call a site of its own
		o.siteOf = make([]int32, len(o.calls))
		for i := range o.siteOf {
			o.siteOf[i] = int32(i)
		}
	}
	for i, c := range o.calls {
		if int(o.siteOf[i]) == len(o.sites) {
			o.sites, o.proto = append(o.sites, c), append(o.proto, newAggAcc(c, true))
		}
	}
	o.progs = o.lower(ex, o.sc)
	o.g.calls, o.g.siteOf, o.g.sites = o.calls, o.siteOf, len(o.sites)
	// The output side is lowered in the group: an aggregate call becomes a
	// kernel reading the accumulators of the group each row stands for.
	o.sc.group = &o.g
	o.lowerItems(ex, sel, rel, o.sc, gs.plans)
	if o.having != nil {
		o.cond.progs = ex.selCompileAll([]sqlast.Expr{o.having}, rel.bindings, o.sc)
	}
	o.sc.group = nil
	return o, nil
}

// collectAggCalls adds the outermost aggregate calls of e. A nested
// aggregate is its outer one's argument (and fails there, in both
// executors); subqueries are walk boundaries, their aggregates their own.
func (o *groupOperator) collectAggCalls(e sqlast.Expr) {
	sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
		fc, ok := n.(*sqlast.FuncCall)
		if !ok || !sqlast.IsAggregate(fc.Name) {
			return true
		}
		if !slices.Contains(o.calls, fc) {
			o.calls = append(o.calls, fc)
		}
		return false
	})
}

// lower builds ex's programs — one lowering for the keys and the sites'
// arguments, so what they share has one slot; sc is the scope lifted
// interpretation runs in.
func (o *groupOperator) lower(ex *exec, sc *scope) groupProgs {
	nk := len(o.gexprs)
	exprs := slices.Grow(slices.Clone(o.gexprs), len(o.sites))
	for s, a := range o.proto {
		var arg sqlast.Expr
		if a.op != aggCountStar && a.err == nil {
			arg = o.sites[s].Args[0]
		}
		exprs = append(exprs, arg)
	}
	progs, slots := ex.vecCompileAll(exprs, o.rel.bindings, sc, o.shared, nil)
	gks := &vecKeySet{ex: ex, progs: progs[:nk], cols: make([][]sqltypes.Value, nk)}
	return groupProgs{gks: gks, args: progs[nk:], slots: slots}
}

// evalKeys starts on b — rows the programs have not seen — and encodes the
// keys of its selected rows; a failing key is the statement's error.
func (p *groupProgs) evalKeys(b *Batch, in *aggInput) error {
	p.slots.nextBatch()
	st := p.gks.ex.vs
	m := st.mark()
	p.gks.compute(b, false)
	err := b.firstErr()
	in.rows, in.sel = b.rows, b.sel
	in.keys, in.ends = in.keys[:0], slices.Grow(in.ends[:0], len(b.sel))
	if err == nil {
		for j, i := range b.sel {
			in.keys = encodeKeyCols(in.keys, p.gks.cols, i)
			if j == 0 { // predicts the rest; append's steps allocate the buffer five times over
				in.keys = slices.Grow(in.keys, len(in.keys)*(len(b.sel)-1))
			}
			in.ends = append(in.ends, int32(len(in.keys)))
		}
	}
	st.release(m)
	return err
}

// evalArgs computes every site's argument column. Each site starts from a
// clean batch, so one site's failing rows are still evaluated by the next —
// or, where the next shares what failed, poisoned again from the slot.
func (p *groupProgs) evalArgs(b *Batch, in *aggInput) {
	n := len(b.rows)
	in.args = slices.Grow(in.args, len(p.args))[:len(p.args)]
	in.errs = slices.Grow(in.errs, len(p.args))[:len(p.args)]
	for s, prog := range p.args {
		in.errs[s] = nil
		if prog == nil {
			continue
		}
		in.args[s] = growVals(in.args[s], n)
		prog(b, b.sel, in.args[s])
		if b.anyErr {
			in.errs[s] = append([]error(nil), b.errs...)
			b.reset(n)
		}
	}
}

func (o *groupOperator) Open(ex *exec) error {
	if err := o.child.Open(ex); err != nil {
		return err
	}
	o.acct, o.ids, o.in = ex.acct, newKeyTable(0), make([]aggInput, 1)
	// A DISTINCT set grows with its input, not with the number of groups, and
	// has no image a spill could resume from: under a limit no group of such
	// a projection is resident and every row takes the spill route.
	o.frozen = o.acct != nil && slices.ContainsFunc(o.proto, func(a aggAcc) bool { return a.distinct })
	drain := o.drain
	if ex.par > 1 && ex.depth == 0 && o.acct == nil { // a window is state no limit accounts for
		drain = o.drainParallel
	}
	err := drain(ex)
	if err != nil {
		return err
	}
	if o.sp != nil {
		return o.mergeSpilled(ex)
	}
	// A global aggregate (no GROUP BY) over zero rows still yields one group.
	// Its first row is all NULL: the bare columns beside its aggregates read
	// NULL, as they do in the interpreter's group without rows.
	if len(o.gexprs) == 0 && len(o.first) == 0 {
		o.admit(make([]sqltypes.Value, o.rel.width))
	}
	return nil
}

// drain folds the input a batch at a time, on this exec.
func (o *groupOperator) drain(ex *exec) error {
	in := &o.in[0]
	for {
		if err := ex.cancelled(); err != nil {
			return err
		}
		b, err := o.child.Next(ex)
		if b == nil {
			return err
		}
		if err := o.progs.evalKeys(b, in); err != nil {
			return err
		}
		if len(o.first) > 0 || !o.frozen { // else nothing is resident to fold into
			o.progs.evalArgs(b, in)
		}
		o.fold(ex, in)
		if o.sp != nil && ex.acct.over() {
			if err := o.sp.flush(); err != nil {
				return err
			}
		}
	}
}

// drainParallel gathers the input into windows of one morsel per worker,
// computes a window's keys and argument columns in one parallel section — a
// worker does every site of its morsel, so its UDF memo serves them all —
// and folds the window serially, in arrival order. What fails in a gathered
// row is raised before the error that ended the gathering, as when serial.
func (o *groupOperator) drainParallel(ex *exec) error {
	morsel := morselLen()
	pool := ex.workerPool()
	progs := make([]*groupProgs, ex.par)
	wb := make([]Batch, ex.par)
	var childErr error
	for more := true; more; {
		o.win = o.win[:0]
		for len(o.win) < ex.par*morsel {
			if childErr = ex.cancelled(); childErr != nil {
				break
			}
			var b *Batch
			if b, childErr = o.child.Next(ex); b == nil {
				break
			}
			for _, i := range b.sel {
				o.win = append(o.win, b.rows[i])
			}
		}
		more = len(o.win) >= ex.par*morsel
		n := len(o.win)
		nc := (n + batchSize - 1) / batchSize
		for len(o.in) < nc {
			o.in = append(o.in, aggInput{})
		}
		err := parallelFor(ex.par, (n+morsel-1)/morsel, func(w, m int) error {
			we := pool.worker(w)
			if progs[w] == nil {
				p := o.lower(we, &scope{parent: o.sc.parent, bindings: o.sc.bindings})
				progs[w] = &p
			}
			for c := m * morsel / batchSize; c < min((m+1)*morsel/batchSize, nc); c++ {
				if err := we.cancelled(); err != nil {
					return err
				}
				wb[w].window(o.win[c*batchSize : min((c+1)*batchSize, n)])
				if err := progs[w].evalKeys(&wb[w], &o.in[c]); err != nil {
					return err
				}
				progs[w].evalArgs(&wb[w], &o.in[c])
			}
			return nil
		})
		if err != nil {
			return err
		}
		for c := 0; c < nc; c++ {
			o.fold(ex, &o.in[c])
		}
		if childErr != nil {
			return childErr
		}
	}
	return nil
}

// admit makes a resident group of a key first seen on row. The slices
// double: append's 1.25x steps allocate five times what a big table holds.
func (o *groupOperator) admit(row []sqltypes.Value) {
	if len(o.first) == cap(o.first) {
		groups := max(2*cap(o.first), 16)
		o.first = append(make([][]sqltypes.Value, 0, groups), o.first...)
		o.accs = append(make([]aggAcc, 0, groups*len(o.sites)), o.accs...)
	}
	o.first, o.accs = append(o.first, row), append(o.accs, o.proto...)
}

// fold gives every row of in its group — admitting unseen keys in arrival
// order until the budget freezes the table, spilling the rows of keys it
// never admitted after — and folds the resident groups' argument values.
func (o *groupOperator) fold(ex *exec, in *aggInput) {
	o.gids = slices.Grow(o.gids[:0], len(in.rows))
	gids := o.gids[:len(in.rows)]
	lo := int32(0)
	for j, i := range in.sel {
		key := in.keys[lo:in.ends[j]]
		lo = in.ends[j]
		gid, seen := o.ids.id(key, !o.frozen)
		if !seen {
			if o.frozen {
				if o.sp == nil {
					o.sp = newSpiller(ex, byKey)
				}
				o.sp.add(spillRec{seq: o.arrivals, key: slices.Clone(key), row: in.rows[i]}, int64(len(key))+rowBytes(in.rows[i]))
				o.arrivals++
				gids[i] = -1
				continue
			}
			o.admit(in.rows[i])
			if o.acct != nil {
				cost := int64(len(key)) + groupEntryBytes + int64(len(o.sites))*aggAccBytes + rowBytes(in.rows[i])
				o.acct.charge(cost)
				o.charged += cost
				o.frozen = o.acct.over()
			}
		}
		gids[i] = gid
	}
	if len(o.first) > 0 {
		o.foldSites(in, gids, o.accs)
	}
}

// foldSites is the one fold kernel: site by site, in row order. Row i goes
// to the accumulators at accs[gids[i]*len(sites)], nowhere if gids[i] < 0;
// the first row of a group a site's argument failed on latches its error.
func (o *groupOperator) foldSites(in *aggInput, gids []int32, accs []aggAcc) {
	ns := len(o.sites)
	for s := range o.sites {
		proto := &o.proto[s]
		switch {
		case proto.op == aggCountStar:
			for _, i := range in.sel {
				if g := gids[i]; g >= 0 {
					accs[int(g)*ns+s].count++
				}
			}
		case proto.err == nil:
			col, errs := in.args[s], in.errs[s]
			for _, i := range in.sel {
				g := gids[i]
				if g < 0 {
					continue
				}
				acc := &accs[int(g)*ns+s]
				if errs != nil && errs[i] != nil {
					if acc.err == nil {
						acc.err = errs[i]
					}
					continue
				}
				acc.add(&col[i])
			}
		}
	}
}

// mergeSpilled folds the spilled keys a run at a time — the merge, stable
// on the key, yields each key's rows together in arrival order — through
// the resident programs into one accumulator row, and runs the group's
// output at once: a row HAVING passes spills keyed by the group's first
// arrival, a failure is kept if its group was first seen before every other
// failing one. Next emits the rows behind the resident groups.
func (o *groupOperator) mergeSpilled(ex *exec) error {
	m, err := o.sp.drain()
	if err != nil {
		return err
	}
	defer func() {
		m.close()
		o.sp.close()
		o.sp = nil
	}()
	o.outSp = newSpiller(ex, bySeq)
	in := &o.in[0]
	rec, err := m.next()
	for rec != nil {
		if err := ex.cancelled(); err != nil {
			return err
		}
		head := *rec
		o.macc = append(o.macc[:0], o.proto...)
		for same := true; same; {
			o.chunk = append(o.chunk, rec.row)
			if rec, err = m.next(); err != nil {
				return err
			}
			same = rec != nil && bytes.Equal(rec.key, head.key)
			if len(o.chunk) == batchSize || !same {
				o.aggB.window(o.chunk)
				in.sel = o.aggB.sel
				o.progs.slots.nextBatch()
				o.progs.evalArgs(&o.aggB, in)
				o.foldSites(in, zeroGids[:], o.macc)
				o.chunk = o.chunk[:0]
			}
		}
		o.rowBuf = o.rowBuf[:0]
		o.mfirst[0] = head.row
		o.grp.window(o.mfirst[:])
		o.g.accs = o.macc
		if err := o.output(ex); err != nil {
			if o.merr == nil || head.seq < o.errSeq {
				o.merr, o.errSeq = err, head.seq
			}
			continue
		}
		if len(o.rowBuf) == 0 { // HAVING rejected it
			continue
		}
		o.outSp.add(spillRec{seq: head.seq, row: o.rowBuf[0]}, rowBytes(o.rowBuf[0]))
		if len(o.outSp.recs) >= batchSize && ex.acct.over() { // a batch at a time, as the input spilled
			if err := o.outSp.flush(); err != nil {
				return err
			}
		}
	}
	if err != nil {
		return err
	}
	o.merge, err = o.outSp.drain()
	return err
}

// output runs HAVING, the items and the ORDER BY keys over the groups grp
// windows, appending their rows to the output batch.
func (o *groupOperator) output(ex *exec) error {
	o.sc.group = &o.g // not before: a merged group's arguments are evaluated outside any group
	o.cond.apply(&o.grp)
	err := o.project(ex, &o.grp)
	o.sc.group = nil
	return err
}

// Next hands on the resident groups' rows in first-seen order, a failing
// group's error behind the rows of the groups ahead of it, then the merged
// groups' rows up to the first-seen failing one, then its error.
func (o *groupOperator) Next(ex *exec) (*Batch, error) {
	o.rowBuf = o.rowBuf[:0]
	for ns := len(o.sites); o.err == nil && len(o.rowBuf) < batchSize && o.pos < len(o.first); {
		if err := ex.cancelled(); err != nil {
			return nil, err
		}
		n := min(len(o.first)-o.pos, batchSize-len(o.rowBuf))
		o.grp.window(o.first[o.pos : o.pos+n])
		o.g.accs = o.accs[o.pos*ns : (o.pos+n)*ns]
		o.pos += n
		o.err = o.output(ex)
	}
	for o.err == nil && o.merge != nil && len(o.rowBuf) < batchSize {
		rec, err := o.merge.next()
		if err != nil {
			return nil, err
		}
		if rec == nil || (o.merr != nil && rec.seq > o.errSeq) {
			o.merge.close()
			o.merge = nil
			o.err = o.merr
			break
		}
		o.rowBuf = append(o.rowBuf, rec.row)
	}
	if len(o.rowBuf) == 0 && o.err == nil {
		return nil, nil
	}
	return o.batch(ex)
}

func (o *groupOperator) Close() {
	o.child.Close()
	o.ids, o.first, o.accs, o.macc, o.pos = keyTable{}, nil, nil, nil, 0
	o.in, o.win, o.chunk, o.mfirst[0] = nil, nil, nil, nil
	if o.merge != nil {
		o.merge.close()
		o.merge = nil
	}
	if o.sp != nil {
		o.sp.close()
		o.sp = nil
	}
	if o.outSp != nil {
		o.outSp.close()
		o.outSp = nil
	}
	o.acct.release(o.charged)
	o.charged = 0
}

// newDistinctOperator is SELECT DISTINCT as what it is, a grouping with no
// aggregates (DESIGN.md ADR-039). child's rows are the block's w output
// columns followed by its ORDER BY keys (ADR-040); they are grouped by the
// output columns, and a group's first row — the first arrival of its key,
// with that arrival's keys — is the survivor. The grouping is the block
//
//	SELECT #0, …, #(w-1) FROM child GROUP BY #0, …, #(w-1) ORDER BY #w, …
//
// over names no query spells, so a repeated output name is no ambiguity.
func (ex *exec) newDistinctOperator(child Operator, w int, desc []bool) (*groupOperator, error) {
	cols := make([]string, w+len(desc))
	for i := range cols {
		cols[i] = fmt.Sprintf("#%d", i)
	}
	rel := &relation{bindings: []*binding{newBinding("", cols)}, width: len(cols)}
	sel := &sqlast.Select{Limit: -1}
	for i, c := range cols {
		ref := &sqlast.ColumnRef{Name: c}
		if i < w {
			sel.Items = append(sel.Items, sqlast.SelectItem{Expr: ref})
			sel.GroupBy = append(sel.GroupBy, ref)
		} else {
			sel.OrderBy = append(sel.OrderBy, sqlast.OrderItem{Expr: ref, Desc: desc[i-w]})
		}
	}
	if w == 0 { // every row is the one empty row: a key, or no rows would still be a group
		sel.GroupBy = []sqlast.Expr{&sqlast.Literal{Val: sqltypes.Null}}
	}
	return ex.newGroupOperator(child, rel, sel, nil, &selAnalysis{})
}

// ---------------------------------------------------------------- sort

// sortOperator is the ORDER BY pipeline breaker. Its child's rows end in
// their sort keys, past width (DESIGN.md ADR-040); Open drains the child
// into a spiller ordered by those keys, and Next hands on each row cut back
// to width, so nothing above a sort sees a key. Under a memory limit the
// spiller writes its buffer as a stably sorted run whenever an input batch
// leaves the statement over budget; a sort within it writes nothing and
// drains the sorted buffer. Runs are contiguous arrival-order segments and
// earlier runs win merge ties, so either way the order is one global stable
// sort's — byte-identical at every limit and parallelism setting.
type sortOperator struct {
	child Operator
	width int
	desc  []bool

	sp     *spiller
	merge  *mergeIter
	rowBuf [][]sqltypes.Value
	out    Batch
}

func newSortOperator(child Operator, width int, desc []bool) *sortOperator {
	return &sortOperator{child: child, width: width, desc: desc}
}

func (o *sortOperator) Open(ex *exec) error {
	if err := o.child.Open(ex); err != nil {
		return err
	}
	cmp := byTail(o.width, o.desc)
	o.sp = newSpiller(ex, func(a, b *spillRec) bool { return cmp(a.row, b.row) < 0 })
	for {
		if err := ex.cancelled(); err != nil {
			return err
		}
		b, err := o.child.Next(ex)
		if b == nil {
			if err == nil {
				o.merge, err = o.sp.drain()
			}
			return err
		}
		for _, i := range b.sel {
			o.sp.add(spillRec{row: b.rows[i]}, rowBytes(b.rows[i]))
		}
		if ex.acct.over() {
			if err := o.sp.flush(); err != nil {
				return err
			}
		}
	}
}

func (o *sortOperator) Next(ex *exec) (*Batch, error) {
	if err := ex.cancelled(); err != nil {
		return nil, err
	}
	o.rowBuf = o.rowBuf[:0]
	for len(o.rowBuf) < batchSize {
		rec, err := o.merge.next()
		if err != nil {
			return nil, err
		}
		if rec == nil {
			break
		}
		o.rowBuf = append(o.rowBuf, rec.row[:o.width:o.width])
	}
	if len(o.rowBuf) == 0 {
		return nil, nil
	}
	o.out.window(o.rowBuf)
	ex.noteStream(len(o.rowBuf))
	return &o.out, nil
}

func (o *sortOperator) Close() {
	o.child.Close()
	if o.merge != nil {
		o.merge.close()
		o.merge = nil
	}
	if o.sp != nil {
		o.sp.close()
		o.sp = nil
	}
	o.rowBuf = nil
}

// ---------------------------------------------------------------- limit

// limitOperator counts down a LIMIT, truncating the final batch and
// cutting off the child without draining it.
type limitOperator struct {
	child  Operator
	remain int64
}

func (o *limitOperator) Open(ex *exec) error { return o.child.Open(ex) }

func (o *limitOperator) Next(ex *exec) (*Batch, error) {
	if o.remain <= 0 {
		return nil, nil
	}
	b, err := o.child.Next(ex)
	if err != nil || b == nil {
		return nil, err
	}
	if int64(len(b.sel)) > o.remain {
		b.sel = b.sel[:o.remain]
	}
	o.remain -= int64(len(b.sel))
	return b, nil
}

func (o *limitOperator) Close() { o.child.Close() }

// ---------------------------------------------------------------- builder

// buildQueryOp lowers one SELECT level into a physical operator tree:
// FROM/WHERE pipeline, then grouped or plain projection, then DISTINCT (a
// second grouping), ORDER BY and LIMIT. The tree's structure mirrors the reference executor's
// evaluation order exactly.
func (ex *exec) buildQueryOp(sel *sqlast.Select, parent *scope) (*queryRoot, error) {
	src, err := ex.buildSourcePipe(sel, parent)
	if err != nil {
		return nil, err
	}
	a := ex.selectAnalysis(sel)

	var op Operator
	var cols []string
	var out *projection
	if a.grouped {
		g, err := ex.newGroupOperator(src.op, src.rel, sel, parent, a)
		if err != nil {
			return nil, err
		}
		op, cols, out = g, g.cols, &g.projection
	} else {
		p, err := ex.newProjectOperator(src.op, src.rel, sel, parent, a)
		if err != nil {
			return nil, err
		}
		op, cols, out = p, p.cols, &p.projection
	}
	var desc []bool
	for _, p := range out.plans {
		desc = append(desc, p.desc)
	}
	if sel.Distinct {
		if op, err = ex.newDistinctOperator(op, out.width, desc); err != nil {
			return nil, err
		}
	}
	if len(desc) > 0 {
		op = newSortOperator(op, out.width, desc)
	}
	if sel.Limit >= 0 {
		op = &limitOperator{child: op, remain: sel.Limit}
	}
	return &queryRoot{op: op, cols: cols}, nil
}

// buildSourcePipe lowers the FROM/WHERE part of one query level into a
// streaming pipeline, mirroring buildFromWhere over the same placement
// (placeConjuncts): single-relation conjuncts filter their source (index
// probes where a base table allows), the greedy equi-join order composes
// join operators, and the residual conjuncts filter the joined stream.
func (ex *exec) buildSourcePipe(sel *sqlast.Select, parent *scope) (*pipe, error) {
	if len(sel.From) == 0 {
		rel, err := ex.fromless(sel, parent)
		if err != nil {
			return nil, err
		}
		return &pipe{op: &scanOperator{src: scanOp{rows: rel.rows}}, rel: rel}, nil
	}

	pipes := make([]*pipe, len(sel.From))
	for i, te := range sel.From {
		p, err := ex.buildTablePipe(te, parent)
		if err != nil {
			return nil, err
		}
		pipes[i] = p
	}
	rels := make([]*relation, len(pipes))
	for i, p := range pipes {
		rels[i] = p.rel
	}
	pl, err := ex.placeConjuncts(sel, rels, parent)
	if err != nil {
		return nil, err
	}
	if pl.empty {
		rel := &relation{bindings: allBindings(rels), width: totalWidth(rels)}
		return &pipe{op: &scanOperator{}, rel: rel}, nil
	}
	// A source's own conjuncts filter it before any join — except the plain
	// ones of a source that becomes a join's build side, which are handed to
	// that join (newJoinPipe): it may run them over index candidates instead.
	// Closed-subquery conjuncts get a serial filter of their own: inside the
	// morsel-parallel scan every worker would run the subquery again.
	filtered := func(i int) *pipe {
		p := pipes[i]
		if len(pl.plain[i]) > 0 {
			p = ex.filterPipe(p, pl.plain[i], parent)
		}
		if len(pl.closed[i]) > 0 {
			fo := &filterOperator{child: p.op, f: ex.newFilterOp(pl.closed[i], p.rel, parent)}
			p = &pipe{op: fo, rel: &relation{bindings: p.rel.bindings, width: p.rel.width}}
		}
		return p
	}

	// Greedy hash-join order: prefer sources connected by equi-conjuncts.
	// joinChain composes the sequence into one left-deep chain that
	// materializes each output row once (joinOperator, ADR-011).
	cur := filtered(0)
	remaining := make([]int, 0, len(pipes)-1)
	for i := 1; i < len(pipes); i++ {
		remaining = append(remaining, i)
	}
	steps := make([]chainStep, 0, len(remaining))
	chained := relation{bindings: slices.Clip(cur.rel.bindings)} // the sources joined so far, by name
	for len(remaining) > 0 {
		pick := -1
		var s chainStep
		for k, i := range remaining {
			if pr := equiPairsBetween(pl.conjs, &chained, rels[i]); len(pr) > 0 {
				pick, s.pairs = k, pr
				break
			}
		}
		if pick >= 0 {
			s.src = remaining[pick]
			if len(pl.closed[s.src]) == 0 {
				s.next, s.own = pipes[s.src], pl.plain[s.src]
			} else {
				s.next = filtered(s.src)
			}
		} else {
			// No connection: the cross product takes the smallest source,
			// measured like the materializing path — on the filtered row
			// count, so unsized pipes are drained first (they would be
			// materialized as a join build side anyway).
			for _, i := range remaining {
				// Filtered for good: a later join gets it with nothing of its own left.
				pipes[i], pl.plain[i], pl.closed[i] = filtered(i), nil, nil
				if err := ex.materializePipe(pipes[i]); err != nil {
					return nil, err
				}
			}
			pick = 0
			for k, i := range remaining {
				if len(pipes[i].rel.rows) < len(pipes[remaining[pick]].rel.rows) {
					pick = k
				}
			}
			s.src, s.next = remaining[pick], pipes[remaining[pick]]
		}
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		for _, p := range s.pairs {
			p.src.used = true
		}
		steps, chained.bindings = append(steps, s), append(chained.bindings, rels[s.src].bindings...)
	}
	residual := pl.residual()
	reads, keep := pl.reads, uint64(0)
	if reads != nil {
		keep = reads.above
		for _, c := range residual {
			keep |= c.reads
		}
	}
	if cur, err = ex.joinChain(cur, steps, rels, parent, reads, keep); err != nil {
		return nil, err
	}
	if len(residual) > 0 {
		cur = ex.filterPipe(cur, residual, parent)
	}
	return cur, nil
}

// filterPipe applies conjuncts to a streaming source, mirroring
// filterRelation: over an unfiltered base table, what its persistent index
// serves becomes an index scan — the heap's cursor over the range's
// ordinals (indexSource, ADR-042); everything else becomes a filter operator
// refining the stream's selection vectors.
func (ex *exec) filterPipe(p *pipe, conjs []*conjunct, parent *scope) *pipe {
	src, rel := p.op, p.rel
	rng, served, rest := ex.indexSource(rel, conjs, parent)
	if served {
		ids := rng.ids
		if ids == nil {
			ids = []int{} // an empty range reads no row, not the heap
		}
		src = &scanOperator{src: scanOp{rows: rel.rows, ids: ids}, base: true, err: rng.err}
		rel = &relation{bindings: rel.bindings, width: rel.width}
	}
	if len(rest) == 0 {
		return &pipe{op: src, rel: rel}
	}
	// Morsel-parallel fused scan+filter: engages only for a whole heap scan
	// that is large enough to split, on a parallel top-level execution; an
	// index scan, whose relation has no base, stays serial.
	if sc, isScan := src.(*scanOperator); isScan && rel.base != nil && len(rel.bindings) == 1 &&
		ex.par > 1 && ex.depth == 0 && sc.src.len() >= 2*morselLen() {
		po := newParallelScanFilter(ex, sc.src.rows, rel, rest, parent)
		return &pipe{op: po, rel: &relation{bindings: rel.bindings, width: rel.width}}
	}
	fo := &filterOperator{child: src, f: ex.newFilterOp(rest, rel, parent)}
	return &pipe{op: fo, rel: &relation{bindings: rel.bindings, width: rel.width}}
}

// buildTablePipe lowers one FROM item: a base table scans its heap, views
// and derived tables mount their own operator subtree inline (streaming end
// to end), and JOIN expressions compose join operators.
func (ex *exec) buildTablePipe(te sqlast.TableExpr, parent *scope) (*pipe, error) {
	switch t := te.(type) {
	case *sqlast.TableName:
		key := strings.ToLower(t.Name)
		if view, ok := ex.cat.views[key]; ok {
			sub := sqlast.CloneSelect(view)
			root, err := ex.buildQueryOp(sub, &scope{parent: parent})
			if err != nil {
				return nil, fmt.Errorf("engine: in view %s: %w", t.Name, err)
			}
			b := newBinding(t.Binding(), root.cols)
			return &pipe{
				op:  &errWrapOperator{child: root.op, prefix: "view " + t.Name},
				rel: &relation{bindings: []*binding{b}, width: len(root.cols)},
			}, nil
		}
		tab := ex.cat.tables[key]
		if tab == nil {
			return nil, fmt.Errorf("engine: no such table %s", t.Name)
		}
		heap := ex.heap(tab)
		b := tab.bind(t.Binding())
		return &pipe{
			op:  &scanOperator{src: scanOp{rows: heap}, base: true},
			rel: &relation{bindings: []*binding{b}, rows: heap, width: len(tab.Cols), base: tab},
		}, nil
	case *sqlast.DerivedTable:
		root, err := ex.buildQueryOp(t.Sub, &scope{parent: parent})
		if err != nil {
			return nil, err
		}
		b := newBinding(t.Alias, root.cols)
		return &pipe{op: root.op, rel: &relation{bindings: []*binding{b}, width: len(root.cols)}}, nil
	case *sqlast.JoinExpr:
		return ex.buildJoinExprPipe(t, parent)
	}
	return nil, fmt.Errorf("engine: unsupported FROM item %T", te)
}

func (ex *exec) buildJoinExprPipe(j *sqlast.JoinExpr, parent *scope) (*pipe, error) {
	l, err := ex.buildTablePipe(j.L, parent)
	if err != nil {
		return nil, err
	}
	r, err := ex.buildTablePipe(j.R, parent)
	if err != nil {
		return nil, err
	}
	switch j.Kind {
	case sqlast.JoinCross:
		return ex.newJoinPipe(l, r, nil, nil, false, nil, parent, false, nil, 0), nil
	case sqlast.JoinInner, sqlast.JoinLeftOuter:
	default:
		return nil, fmt.Errorf("engine: unsupported join kind %v", j.Kind)
	}
	pairs, residual := splitOn(j.On, l.rel, r.rel)
	// An outer join's residual decides matches inside the join (a probe row
	// it rejects everywhere still comes out, null-extended); an inner join's
	// filters the joined stream.
	if j.Kind == sqlast.JoinLeftOuter {
		return ex.newJoinPipe(l, r, nil, pairs, true, residual, parent, false, nil, 0), nil
	}
	joined := ex.newJoinPipe(l, r, nil, pairs, false, nil, parent, false, nil, 0)
	if len(residual) == 0 {
		return joined, nil
	}
	return ex.filterPipe(joined, residual, parent), nil
}

// materializePipe drains a pipe into a buffered row set so its size is
// known (cross-product ordering) and its rows can be rescanned; the drained
// operator is closed, so a breaker below it gives back its charge and its
// spill files now, not when the statement ends.
func (ex *exec) materializePipe(p *pipe) error {
	if p.rel.rows != nil {
		return nil
	}
	rows, err := drainRows(ex, p.op, math.MaxInt)
	if err != nil {
		return err
	}
	p.rel = &relation{bindings: p.rel.bindings, width: p.rel.width, rows: rows}
	p.op = &scanOperator{src: scanOp{rows: rows}}
	return nil
}

// drainRows is the engine's one drain (ADR-042): it opens op, collects
// every selected row and closes op, whatever happens. The row slices are
// stable (heap rows or chunk allocations) and outlive the close; only the
// windows are transient. A drain that yields more than limit rows stops at
// the batch that passes it and returns nil; the rows are never nil
// otherwise.
func drainRows(ex *exec, op Operator, limit int) ([][]sqltypes.Value, error) {
	defer op.Close()
	if err := op.Open(ex); err != nil {
		return nil, err
	}
	rows := [][]sqltypes.Value{}
	for {
		b, err := op.Next(ex)
		if err != nil || b == nil {
			return rows, err
		}
		if len(rows)+len(b.sel) > limit {
			return nil, nil
		}
		for _, i := range b.sel {
			rows = append(rows, b.rows[i])
		}
	}
}

// runQueryStream executes one SELECT by building and draining its operator
// tree.
func (ex *exec) runQueryStream(sel *sqlast.Select, parent *scope) (*Result, error) {
	root, err := ex.buildQueryOp(sel, parent)
	if err != nil {
		return nil, err
	}
	rows, err := drainRows(ex, root.op, math.MaxInt)
	if err != nil {
		return nil, err
	}
	return &Result{Cols: root.cols, Rows: rows}, nil
}

// fromWhereRelation materializes the FROM/WHERE part of one query level —
// the shape UDF body planning caches per parameter tuple (production only:
// an interpreting execution plans no UDF bodies) — by draining the streaming
// pipeline.
func (ex *exec) fromWhereRelation(sel *sqlast.Select, parent *scope) (*relation, error) {
	p, err := ex.buildSourcePipe(sel, parent)
	if err != nil {
		return nil, err
	}
	if p.rel.rows != nil {
		return p.rel, nil
	}
	rows, err := drainRows(ex, p.op, math.MaxInt)
	if err != nil {
		return nil, err
	}
	return &relation{bindings: p.rel.bindings, width: p.rel.width, rows: rows}, nil
}
