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
// (project, group, distinct, sort, limit) emit dense batches — sel is the
// identity — optionally carrying ORDER BY key columns in Batch.keys.
//
// Every operator has one arm: expressions arrive as batch programs
// (vecCompile), and whether a program is a compiled kernel or the lifted
// interpreter is decided there, never here (DESIGN.md ADR-010).
//
// Row-order equivalence with the reference executor (exec.go, behind
// DB.SetStreamExec(false); it shares no operator and no kernel with this
// file) is by construction: filters refine selection vectors in row order, joins probe
// in input order and expand hash buckets in build insertion order, groups
// are emitted in first-seen key order, and the sort operator runs the same
// stable merge over the same precomputed key columns.

import (
	"bytes"
	"fmt"
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

// resetKeyCols returns a key-column set of n empty columns, reusing the
// backing arrays. Safe because batches are owned by their producer until
// the next pull: every consumer (sort, distinct) copies key values out
// before pulling again.
func resetKeyCols(cols [][]sqltypes.Value, n int) [][]sqltypes.Value {
	if n == 0 {
		return nil
	}
	if cols == nil {
		return make([][]sqltypes.Value, n)
	}
	for k := range cols {
		cols[k] = cols[k][:0]
	}
	return cols
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

// scanOperator streams a materialized row set in fixed-size windows; base
// says the rows are a base table's heap, which Stats.ScanRows counts.
type scanOperator struct {
	rows [][]sqltypes.Value
	base bool
	src  scanOp
	b    Batch
}

func (s *scanOperator) Open(ex *exec) error {
	s.src = scanOp{rows: s.rows}
	return nil
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

func (s *scanOperator) Close() {}

// indexScanOperator streams the heap rows a base table's persistent index
// selects (indexSource) in windows of at most batchSize, gathered from their
// ordinals into one buffer the operator reuses: the rows stay in heap order
// and nothing is copied up front.
type indexScanOperator struct {
	heap [][]sqltypes.Value
	rng  indexRange
	pos  int
	buf  [][]sqltypes.Value
	b    Batch
}

func (s *indexScanOperator) Open(ex *exec) error {
	s.pos = 0
	s.buf = make([][]sqltypes.Value, 0, min(len(s.rng.ids), batchSize))
	return s.rng.err
}

func (s *indexScanOperator) Next(ex *exec) (*Batch, error) {
	if err := ex.cancelled(); err != nil {
		return nil, err
	}
	ids := s.rng.ids[s.pos:]
	if len(ids) == 0 {
		return nil, nil
	}
	ids = ids[:min(len(ids), batchSize)]
	s.pos += len(ids)
	s.buf = s.buf[:0]
	for _, id := range ids {
		s.buf = append(s.buf, s.heap[id])
	}
	s.b.window(s.buf)
	ex.db.Stats.ScanRows.Add(int64(len(ids)))
	ex.noteStream(len(ids))
	return &s.b, nil
}

func (s *indexScanOperator) Close() { s.buf = nil }

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

// newFilterOp lowers conjuncts against a stream's schema, one batch program
// each; what WHERE conjuncts share between them is evaluated once per row
// (shared.go).
func (ex *exec) newFilterOp(conjs []*conjunct, rel *relation, parent *scope) filterOp {
	exprs := make([]sqlast.Expr, len(conjs))
	for i, c := range conjs {
		exprs[i] = c.expr
	}
	var shared *sharedExprs
	if len(conjs) > 0 && conjs[0].an != nil {
		shared = ex.sharedExprs(conjs[0].an, sharedFilter+conjs[0].idx, exprs, nil)
	}
	var f filterOp
	f.progs, f.slots = ex.vecCompileAll(exprs, rel.bindings, rel.scopeFor(parent), shared)
	return f
}

func newFilterOperator(ex *exec, child Operator, rel *relation, conjs []*conjunct, parent *scope) *filterOperator {
	return &filterOperator{child: child, f: ex.newFilterOp(conjs, rel, parent)}
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
// partitionProbeBatch on the Grace path); (2) the residual ON conjuncts
// decide whether a candidate counts as a match; (3) a probe row without a
// match is emitted null-extended (fillPending, and processPartition on the
// Grace path). An inner join's residual ON conjuncts filter its output
// instead (buildJoinExprPipe).
//
// Row ownership (DESIGN.md ADR-011). Rows this operator allocates are
// chunk-allocated per fill with capacity rowCap — the final width of the
// join chain it belongs to — and handed to exactly one consumer, the next
// join of that chain. That join (extends) therefore owns the reserved tail
// of each probe row: a row's first match is written in place behind the
// prefix, only further matches of a 1:N bucket copy. Whether a given probe
// row really has the capacity is read off cap(row) — a row that came back
// from a Grace spill has none and is copied like any foreign row. The
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
	on    *onResidual      // outer: the residual ON conjuncts
	nulls []sqltypes.Value // outer: the right-width null extension

	rowCap  int  // capacity of the output rows allocated here (>= orel.width)
	extends bool // probe rows come from the previous join of the same chain

	// The index path: the key columns of the persistent index (nil: this join
	// builds eagerly from the start), the build side's own conjuncts — not
	// applied to right, which eagerBuild filters if it comes to that — and
	// their filter over candidates, lowered once Open takes the path.
	idxCols []string
	own     []*conjunct
	cand    candidateFilter

	// Build state: the build rows and, for an equi join, the hash table over
	// them — a base table's persistent index (idx) or a transient table
	// (build); for the cross product, the one bucket that holds every build
	// row.
	idx       *hashIndex
	build     map[string][]int
	cross     []int
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
	// the Grace hash join state (gracejoin.go).
	acct    *memAccountant
	charged int64
	grace   *graceState
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
// columns and none of them can raise, and filters r with them first
// otherwise. A join of a FROM-list chain (buildSourcePipe) passes the chain's
// final width as rowCap and whether l is the chain's previous join; a
// standalone join passes 0, false and allocates exactly its own width.
func (ex *exec) newJoinPipe(l, r *pipe, own []*conjunct, pairs []equiPair, outer bool, residual []*conjunct, parent *scope, rowCap int, extends bool) *pipe {
	orel := joinRel(l.rel, r.rel)
	if rowCap < orel.width {
		rowCap = orel.width
	}
	jo := &joinOperator{
		ex: ex, lrel: l.rel, orel: orel,
		pairs: pairs, parent: parent, outer: outer,
		rowCap: rowCap, extends: extends,
	}
	if cols, ok := indexableBuild(r.rel, pairs); ok && ex.neverRaise(own, r.rel, parent) {
		jo.idxCols, jo.own = cols, own
	} else if len(own) > 0 {
		r = ex.filterPipe(r, own, parent)
	}
	jo.left, jo.right, jo.rrel = l.op, r.op, r.rel
	if outer {
		jo.on = &onResidual{f: ex.newFilterOp(residual, orel, parent)}
		jo.nulls = make([]sqltypes.Value, r.rel.width)
	}
	return &pipe{op: jo, rel: orel}
}

// neverRaise reports whether evaluating conjs over rows of the base relation
// rel cannot raise, whatever the row: each is a comparison, BETWEEN, IN list,
// LIKE or IS NULL — or AND, OR, NOT over those — between bare columns of rel
// and operands that read no row. Anything else (column arithmetic, a function
// or UDF call, CASE, a subquery) may raise on a row no probe reaches, and the
// reference executor, which filters every row, would report it.
func (ex *exec) neverRaise(conjs []*conjunct, rel *relation, parent *scope) bool {
	for _, c := range conjs {
		if !ex.predicateNeverRaises(c.expr, rel, parent) {
			return false
		}
	}
	return true
}

func (ex *exec) predicateNeverRaises(e sqlast.Expr, rel *relation, parent *scope) bool {
	operands := func(es ...sqlast.Expr) bool {
		for _, e := range es {
			if !ex.operandNeverRaises(e, rel, parent) {
				return false
			}
		}
		return true
	}
	switch x := e.(type) {
	case *sqlast.BinaryExpr:
		switch x.Op {
		case "AND", "OR":
			return ex.predicateNeverRaises(x.L, rel, parent) && ex.predicateNeverRaises(x.R, rel, parent)
		case "=", "<>", "<", "<=", ">", ">=":
			return operands(x.L, x.R)
		}
	case *sqlast.UnaryExpr:
		return x.Op == "NOT" && ex.predicateNeverRaises(x.X, rel, parent)
	case *sqlast.BetweenExpr:
		return operands(x.X, x.Lo, x.Hi)
	case *sqlast.InExpr:
		return x.Sub == nil && operands(x.X) && operands(x.List...)
	case *sqlast.LikeExpr:
		return operands(x.X, x.Pattern)
	case *sqlast.IsNullExpr:
		return operands(x.X)
	}
	return false
}

// operandNeverRaises accepts a bare column of rel, and an expression over
// literals, binds and intervals alone — which is evaluated here, once: what
// reads no row and raises (1/0, an unbound $2) raises on every row.
func (ex *exec) operandNeverRaises(e sqlast.Expr, rel *relation, parent *scope) bool {
	if cr, ok := e.(*sqlast.ColumnRef); ok {
		return relationHasRef(rel, cr)
	}
	if ok, _ := rowFree(e); !ok {
		return false
	}
	_, err := ex.eval(e, &scope{parent: parent})
	return err == nil
}

// onResidual is what is left of an outer join's ON clause once the equi
// pairs are taken out: a filter over the joined row layout (one batch
// program per conjunct — vecCompile never returns nil, ADR-010) and the
// window it runs candidates through.
type onResidual struct {
	f   filterOp
	win Batch
}

// keep compacts the candidate tuples of one probe row, in place and in
// order, to those every residual conjunct accepts. The conjuncts run over
// batch windows of the candidates; a failing candidate aborts with the
// error of the first one in candidate order, as a row loop would.
func (r *onResidual) keep(cands [][]sqltypes.Value) ([][]sqltypes.Value, error) {
	if len(r.f.progs) == 0 {
		return cands, nil
	}
	kept := cands[:0]
	for len(cands) > 0 {
		n := min(len(cands), batchSize)
		r.win.window(cands[:n])
		r.f.apply(&r.win)
		if r.f.failed != nil {
			return nil, r.f.failed
		}
		for _, i := range r.win.sel {
			kept = append(kept, cands[i]) // never ahead of the read position
		}
		cands = cands[n:]
	}
	return kept, nil
}

// candidateFilter runs a build side's own conjuncts over the candidates of
// one probe batch — the rows of the build table the batch's keys reach — and
// counts what it has evaluated against the join's budget.
type candidateFilter struct {
	f    filterOp
	win  Batch
	rows [][]sqltypes.Value
	ids  []int // the batch's candidates, bucket after bucket; -1 once rejected

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
	c.seen += len(c.ids)
	for lo := 0; lo < len(c.ids); lo += batchSize {
		ids := c.ids[lo:min(lo+batchSize, len(c.ids))]
		c.rows = c.rows[:0]
		for _, id := range ids {
			c.rows = append(c.rows, heap[id])
		}
		c.win.window(c.rows)
		c.f.apply(&c.win)
		if c.f.failed != nil {
			return c.f.failed
		}
		k := 0
		for _, s := range c.win.sel {
			for ; k < int(s); k++ {
				ids[k] = -1
			}
			k++
		}
		for ; k < len(ids); k++ {
			ids[k] = -1
		}
	}
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
	if err := j.left.Open(ex); err != nil {
		return err
	}
	if len(j.pairs) > 0 {
		j.lks = ex.vecKeys(pairExprs(j.pairs, false), j.lrel.bindings, j.lrel.scopeFor(j.parent))
	}
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
// the join was to run them over candidates — and hashes it on the join keys
// (base scans are already materialized as the table heap). Under a memory
// limit the equi build is charged and may overflow into a Grace hash join;
// the pair-less join (cross product, LEFT JOIN without an equi conjunct)
// would degenerate to one partition, so it stays in-memory but charged.
func (j *joinOperator) eagerBuild(ex *exec) error {
	if len(j.own) > 0 {
		p := ex.filterPipe(&pipe{op: j.right, rel: j.rrel}, j.own, j.parent)
		j.right, j.rrel, j.own = p.op, p.rel, nil
	}
	j.idx, j.idxCols = nil, nil
	if j.rrel.base != nil {
		ex.db.Stats.ScanRows.Add(int64(len(j.rrel.rows))) // the heap, read without its scan
	}
	if len(j.pairs) > 0 && ex.acct != nil {
		return j.openChargedBuild(ex)
	}
	rows := j.rrel.rows
	if rows == nil {
		var err error
		rows, err = drainRows(ex, j.right)
		if err != nil {
			return err
		}
	}
	j.rightRows = rows
	if ex.acct != nil {
		j.acct = ex.acct
		for _, row := range rows {
			j.charged += rowBytes(row)
		}
		ex.acct.charge(j.charged)
	}
	if len(j.pairs) == 0 {
		j.cross = make([]int, len(rows))
		for i := range j.cross {
			j.cross[i] = i
		}
		return nil
	}
	build, err := ex.vecJoinBuild(j.rrel, rows, j.pairs, j.parent)
	if err != nil {
		return err
	}
	j.build = build
	return nil
}

// vecJoinBuild hashes the build rows of rrel on the right-side key
// expressions; NULL keys never participate in an equi join. Keys are
// computed column-wise per batch and encoded from the key columns, so bucket
// lists keep build row order.
func (ex *exec) vecJoinBuild(rrel *relation, rows [][]sqltypes.Value, pairs []equiPair, parent *scope) (map[string][]int, error) {
	ex.db.Stats.JoinBuildRows.Add(int64(len(rows)))
	r := &relation{bindings: rrel.bindings, rows: rows, width: rrel.width}
	build := make(map[string][]int, len(rows))
	// Morsel-parallel build: workers encode the key column for disjoint row
	// ranges, then the map inserts run serially in row order — bucket
	// contents and order match the serial build exactly.
	if ex.par > 1 && ex.depth == 0 && len(rows) >= 2*morselLen() {
		keys, err := ex.parallelJoinKeys(r, pairs, parent)
		if err != nil {
			return nil, err
		}
		for i, k := range keys {
			if k == nil {
				continue // NULL key
			}
			build[string(k)] = append(build[string(k)], i)
		}
		return build, nil
	}
	rks := ex.vecKeys(pairExprs(pairs, true), r.bindings, r.scopeFor(parent))
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
			build[string(buf)] = append(build[string(buf)], b.base+int(i))
		}
		ex.vs.release(m)
	}
	return build, nil
}

func (j *joinOperator) Next(ex *exec) (*Batch, error) {
	for j.grace == nil && j.pendPos >= len(j.pending) {
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
			continue // an index join may have fallen back, into a Grace join even
		}
		if err := j.fillPending(); err != nil {
			return nil, err
		}
	}
	if j.grace != nil {
		return j.graceNext(ex)
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
// per-batch key columns (NULL-key rows drop out of the selection vector; the
// cross product matches every row with every build row), and the matches
// are counted so the rows that need allocating come from exactly-sized
// chunks.
func (j *joinOperator) probeBatch(ex *exec, b *Batch) error {
	if cap(j.buckets) < len(b.rows) {
		j.buckets = make([][]int, len(b.rows))
	}
	sel := b.sel
	if len(j.pairs) == 0 {
		for _, i := range sel {
			j.buckets[i] = j.cross
		}
	} else {
		m := ex.vs.mark()
		defer ex.vs.release(m)
		keyed := j.lks.compute(b, true)
		if err := b.firstErr(); err != nil {
			return err
		}
		if j.outer {
			// outer (1): every incoming row stays selected; a NULL key has
			// no candidates. Rows an upstream filter dropped stay dropped.
			for _, i := range sel {
				j.buckets[i] = nil
			}
		} else {
			sel = keyed
		}
		if j.idx != nil {
			cands := 0
			for _, i := range keyed {
				j.buf = encodeKeyCols(j.buf[:0], j.lks.cols, i)
				j.buckets[i] = j.idx.bucket(j.buf)
				cands += len(j.buckets[i])
			}
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
				if j.grace != nil {
					return j.grace.partitionProbeBatch(ex, b, j.lks)
				}
			}
		}
		if j.idx == nil {
			for _, i := range keyed {
				j.buf = encodeKeyCols(j.buf[:0], j.lks.cols, i)
				j.buckets[i] = j.build[string(j.buf)]
			}
		}
	}
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
	return nil
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
				row := l[:len(l)+len(r)]
				copy(row[len(l):], r)
				j.pending = append(j.pending, row)
			} else {
				j.pending = append(j.pending, ck.concat(l, r, j.rowCap))
				j.fresh--
			}
		}
		if j.outer {
			// outer (2): the residual decides which candidates are matches.
			kept, err := j.on.keep(j.pending[first:])
			if err != nil {
				return err
			}
			j.pending = j.pending[:first+len(kept)]
			j.matched = j.matched || len(kept) > 0
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

// owns reports whether this join may write probe row l's first match into
// l's reserved tail instead of copying l.
func (j *joinOperator) owns(l []sqltypes.Value) bool {
	return j.extends && cap(l) >= j.orel.width
}

func (j *joinOperator) Close() {
	j.left.Close()
	j.right.Close()
	j.idx, j.build, j.cross = nil, nil, nil
	j.rightRows = nil
	j.probe, j.sel, j.pending = nil, nil, nil
	if j.grace != nil {
		j.grace.close()
		j.grace = nil
	}
	j.acct.release(j.charged)
	j.charged = 0
}

// ---------------------------------------------------------------- project

// projectOperator evaluates the SELECT list (and ORDER BY key expressions)
// batch-at-a-time, emitting dense batches of freshly chunk-allocated output
// tuples with key columns attached.
type projectOperator struct {
	child Operator
	projs []projector
	plans []orderPlan
	width int
	cols  []string

	vprojs []vecExpr  // nil entries are star segments
	vkeys  []vecExpr  // key expressions (outCol plans stay nil)
	slots  *exprSlots // what the two share

	colBuf  [][]sqltypes.Value
	keyBuf  [][]sqltypes.Value
	rowBuf  [][]sqltypes.Value
	keyCols [][]sqltypes.Value
	out     Batch
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
	projs, width := ex.buildProjectors(sel, rel)
	o := &projectOperator{
		child: child, projs: projs, plans: plans, width: width, cols: cols,
		colBuf: make([][]sqltypes.Value, len(projs)), keyBuf: make([][]sqltypes.Value, len(plans)),
	}
	// One lowering for the select items and the sort keys: an expression of
	// one that the other repeats is evaluated once per row (shared.go).
	exprs := make([]sqlast.Expr, 0, len(projs)+len(plans))
	for i := range projs {
		exprs = append(exprs, projs[i].expr) // nil: a star segment
	}
	for k := range plans {
		exprs = append(exprs, plans[k].expr) // nil: sorts by an output column
	}
	progs, slots := ex.vecCompileAll(exprs, rel.bindings, sc, ex.sharedExprs(a, sharedProject, exprs, nil))
	o.vprojs, o.vkeys, o.slots = progs[:len(projs)], progs[len(projs):], slots
	return o, nil
}

func (o *projectOperator) Open(ex *exec) error { return o.child.Open(ex) }

func (o *projectOperator) Next(ex *exec) (*Batch, error) {
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
	o.rowBuf = o.rowBuf[:0]
	o.keyCols = resetKeyCols(o.keyCols, len(o.plans))
	if err := o.project(ex, b); err != nil {
		return nil, err
	}
	o.out.window(o.rowBuf)
	o.out.keys = o.keyCols
	ex.noteStream(len(o.rowBuf))
	return &o.out, nil
}

func (o *projectOperator) project(ex *exec, b *Batch) error {
	n := len(b.rows)
	sel := b.sel
	o.slots.nextBatch()
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
	if err := b.firstErr(); err != nil {
		return err
	}
	ck := newRowChunk(len(sel), o.width)
	for _, i := range sel {
		row := ck.alloc(o.width)
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
			if o.plans[k].outCol >= 0 {
				o.keyCols[k] = append(o.keyCols[k], row[o.plans[k].outCol])
			} else {
				o.keyCols[k] = append(o.keyCols[k], o.keyBuf[k][i])
			}
		}
	}
	return nil
}

func (o *projectOperator) Close() { o.child.Close() }

// ---------------------------------------------------------------- group

// groupOperator is the grouped projection, a streaming hash aggregate
// (DESIGN.md ADR-021): a pipeline breaker that at Open gives each arriving
// row the dense id of its group (first-seen key order) and folds its
// aggregate arguments into the group's accumulators in arrival order — so
// sums, MIN/MAX ties and DISTINCT sets come out as evalAggregate's row
// loop, the specification, computes them — then evaluates HAVING, the SELECT
// list and ORDER BY keys group-at-a-time. It keeps a group's first row and
// accumulators, never its rows. Under a memory limit that state is charged
// as groups are admitted; once over, the table freezes: resident groups keep
// folding, a key not seen before is ranked (ids keeps counting: above every
// resident id) and its rows spill, to come back from the rank-ordered merge
// a group at a time behind the resident ones — in first-seen order, each
// group folded entirely here or entirely there.
type groupOperator struct {
	groupedShape
	child  Operator
	rel    *relation
	sel    *sqlast.Select
	calls  []*sqlast.FuncCall // the outermost aggregate calls: what evalAggregate is invoked on
	siteOf []int32            // calls[i]'s site: structurally equal calls share one (shared.go)
	sites  []*sqlast.FuncCall // a call of each site
	proto  []aggAcc           // the sites' empty accumulators
	shared *sharedExprs       // what gexprs and the sites' arguments share
	progs  groupProgs         // this exec's lowering of them

	ids   map[string]int32   // group key -> dense first-seen id (rank, once frozen)
	first [][]sqltypes.Value // resident group id -> its first row
	accs  []aggAcc           // resident group id × site
	gids  []int32
	pos   int
	g     groupCtx

	in   []aggInput         // the current window, a chunk of at most batchSize rows each
	win  [][]sqltypes.Value // parallel executions: the rows gathered for it
	aggB Batch

	ck      rowChunk
	rowBuf  [][]sqltypes.Value
	keyCols [][]sqltypes.Value
	out     Batch

	// Memory-limited statements only.
	acct    *memAccountant
	charged int64
	frozen  bool
	sp      *spiller
	merge   *mergeIter
	mrec    spillRec
	mhave   bool
	macc    []aggAcc // the merged group being emitted
	chunk   [][]sqltypes.Value
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
	o := &groupOperator{groupedShape: gs, child: child, rel: rel, sel: sel}
	for _, it := range sel.Items {
		o.collectAggCalls(it.Expr)
	}
	o.collectAggCalls(o.having)
	for _, p := range o.plans {
		o.collectAggCalls(p.expr)
	}
	if o.shared = ex.sharedExprs(a, sharedGroup, o.gexprs, o.calls); o.shared != nil {
		o.siteOf = o.shared.siteOf
	} else { // every call a site of its own
		o.siteOf = make([]int32, len(o.calls))
		for i := range o.siteOf {
			o.siteOf[i] = int32(i)
		}
	}
	for i, c := range o.calls {
		if int(o.siteOf[i]) == len(o.sites) {
			o.sites, o.proto = append(o.sites, c), append(o.proto, newAggAcc(c))
		}
	}
	o.progs = o.lower(ex, o.sc)
	o.g.calls, o.g.siteOf = o.calls, o.siteOf
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
	progs, slots := ex.vecCompileAll(exprs, o.rel.bindings, sc, o.shared)
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
	o.acct, o.ids, o.in = ex.acct, make(map[string]int32), make([]aggInput, 1)
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
	if o.sp != nil { // the rows of every key first seen after the freeze, rank by rank
		if o.merge, err = o.sp.drain(); err != nil {
			return err
		}
		return o.advance()
	}
	// A global aggregate (no GROUP BY) over zero rows still yields one group.
	if len(o.gexprs) == 0 && len(o.first) == 0 {
		o.admit(nil)
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
// order until the budget freezes the table, ranking them and spilling their
// rows after — and folds the resident groups' argument values.
func (o *groupOperator) fold(ex *exec, in *aggInput) {
	o.gids = slices.Grow(o.gids[:0], len(in.rows))
	gids := o.gids[:len(in.rows)]
	lo := int32(0)
	for j, i := range in.sel {
		key := in.keys[lo:in.ends[j]]
		lo = in.ends[j]
		gid, seen := o.ids[string(key)]
		if !seen {
			gid = int32(len(o.ids))
			o.ids[string(key)] = gid
			if !o.frozen {
				o.admit(in.rows[i])
			}
			if o.acct != nil {
				cost := int64(len(key)) + rankEntryBytes
				if !o.frozen {
					cost = int64(len(key)) + groupEntryBytes + int64(len(o.sites))*aggAccBytes + rowBytes(in.rows[i])
				}
				o.acct.charge(cost)
				o.charged += cost
				o.frozen = o.frozen || o.acct.over()
			}
		}
		if int(gid) >= len(o.first) {
			if o.sp == nil {
				o.sp = newSpiller(ex, func(a, b *spillRec) bool { return a.seq < b.seq })
			}
			o.sp.add(spillRec{seq: int64(gid), row: in.rows[i]}, rowBytes(in.rows[i]))
			gid = -1
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

func (o *groupOperator) Next(ex *exec) (*Batch, error) {
	if err := ex.cancelled(); err != nil {
		return nil, err
	}
	o.rowBuf = o.rowBuf[:0]
	o.keyCols = resetKeyCols(o.keyCols, len(o.plans))
	o.ck = rowChunk{}
	for len(o.rowBuf) < batchSize {
		ok, err := o.nextGroup(ex)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		o.sc.group = &o.g // not before: a merged group's arguments are evaluated outside any group
		err = o.emitGroup(ex)
		o.sc.group = nil
		if err != nil {
			return nil, err
		}
	}
	if len(o.rowBuf) == 0 {
		return nil, nil
	}
	o.out.window(o.rowBuf)
	o.out.keys = o.keyCols
	ex.noteStream(len(o.rowBuf))
	return &o.out, nil
}

// nextGroup points o.sc.row at the next group's first row and o.g at its
// accumulators: a resident group's or, behind them, those of the next rank
// the merge streams past. false at the end.
func (o *groupOperator) nextGroup(ex *exec) (bool, error) {
	if ns := len(o.sites); o.pos < len(o.first) {
		o.sc.row = o.first[o.pos]
		o.g.accs = o.accs[o.pos*ns : (o.pos+1)*ns]
		o.pos++
		return true, nil
	}
	if !o.mhave {
		return false, nil
	}
	if err := ex.cancelled(); err != nil {
		return false, err
	}
	return true, o.nextMerged(ex)
}

// emitGroup evaluates HAVING, the select items and the ORDER BY keys of the
// group o.sc is positioned on, in that order, and appends the output row
// unless HAVING rejects the group.
func (o *groupOperator) emitGroup(ex *exec) error {
	sc := o.sc
	if o.having != nil {
		hv, err := ex.eval(o.having, sc)
		if err != nil {
			return err
		}
		if truth, _ := sqltypes.Truthy(hv); !truth {
			return nil
		}
	}
	width := len(o.sel.Items)
	if len(o.ck.buf)+width > cap(o.ck.buf) {
		rows := batchSize - len(o.rowBuf) // what the batch still takes, or the resident groups left
		if left := len(o.first) - o.pos + 1; o.merge == nil && left < rows {
			rows = left
		}
		o.ck = newRowChunk(rows, width)
	}
	out := o.ck.alloc(width)
	for j, it := range o.sel.Items {
		v, err := ex.eval(it.Expr, sc)
		if err != nil {
			return err
		}
		out[j] = v
	}
	o.rowBuf = append(o.rowBuf, out)
	for k := range o.plans {
		p := &o.plans[k]
		var v sqltypes.Value
		if p.outCol >= 0 {
			v = out[p.outCol]
		} else {
			var err error
			if v, err = ex.eval(p.expr, sc); err != nil {
				return err
			}
		}
		o.keyCols[k] = append(o.keyCols[k], v)
	}
	return nil
}

// nextMerged consumes the next group (one run of equal-rank records) from
// the merge, folding its rows chunk by chunk through the resident kernel.
func (o *groupOperator) nextMerged(ex *exec) error {
	seq := o.mrec.seq
	o.sc.row = o.mrec.row
	o.macc = append(o.macc[:0], o.proto...)
	o.g.accs = o.macc
	in := &o.in[0]
	for o.mhave && o.mrec.seq == seq {
		o.chunk = append(o.chunk, o.mrec.row)
		if err := o.advance(); err != nil {
			return err
		}
		if len(o.chunk) == batchSize || !o.mhave || o.mrec.seq != seq {
			o.aggB.window(o.chunk)
			in.sel = o.aggB.sel
			o.progs.slots.nextBatch()
			o.progs.evalArgs(&o.aggB, in)
			o.foldSites(in, zeroGids[:], o.macc)
			o.chunk = o.chunk[:0]
		}
	}
	return nil
}

// advance steps the merge: mrec is its head while mhave.
func (o *groupOperator) advance() error {
	rec, err := o.merge.next()
	if o.mhave = rec != nil; o.mhave {
		o.mrec = *rec
	}
	return err
}

func (o *groupOperator) Close() {
	o.child.Close()
	o.ids, o.first, o.accs, o.macc, o.pos = nil, nil, nil, nil, 0
	o.in, o.win, o.chunk = nil, nil, nil
	if o.merge != nil {
		o.merge.close()
		o.merge = nil
	}
	if o.sp != nil {
		o.sp.close()
		o.sp = nil
	}
	o.acct.release(o.charged)
	o.charged = 0
}

// ---------------------------------------------------------------- distinct

// distinctOperator streams DISTINCT: each output row is emitted the first
// time its encoding is seen, so state is bounded by the number of distinct
// output rows, not the input size. ORDER BY key columns travel with their
// surviving rows.
//
// Under a memory limit the seen-set is charged per new entry. When the
// budget overflows, streaming stops: the set's keys spill as marker records
// (seq -1), every remaining input row spills keyed by its encoding with its
// arrival sequence, and at child end a sort-by-(key, seq) merge picks each
// key's survivor — skipping keys whose group holds a marker (already
// emitted pre-spill) and otherwise keeping the earliest arrival. Survivors
// re-sort by arrival sequence, so the post-spill emissions continue the
// pre-spill arrival order exactly and output stays byte-identical.
type distinctOperator struct {
	child Operator
	seen  map[string]bool
	buf   []byte

	rowBuf  [][]sqltypes.Value
	keyCols [][]sqltypes.Value
	out     Batch

	acct    *memAccountant
	charged int64
	sp      *spiller // records keyed by row encoding, ordered (key, seq)
	outSp   *spiller // survivors, ordered by arrival seq
	merge   *mergeIter
	seq     int64
}

// distinctEntryBytes approximates the per-entry overhead of the seen-set
// (map bucket share plus string header) beyond the key bytes themselves.
const distinctEntryBytes = 48

func (o *distinctOperator) Open(ex *exec) error {
	o.seen = make(map[string]bool)
	o.acct = ex.acct
	return o.child.Open(ex)
}

func (o *distinctOperator) Next(ex *exec) (*Batch, error) {
	if o.merge != nil {
		return o.emitMerged(ex)
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
			if o.sp == nil {
				return nil, nil
			}
			if err := o.mergeSurvivors(ex); err != nil {
				return nil, err
			}
			return o.emitMerged(ex)
		}
		if o.sp != nil {
			for _, i := range b.sel {
				row := b.rows[i]
				o.buf = o.buf[:0]
				for _, v := range row {
					o.buf = sqltypes.AppendKey(o.buf, v)
				}
				rec := spillRec{
					seq:  o.seq,
					key:  append([]byte(nil), o.buf...),
					row:  row,
					keys: keyRow(b.keys, i, len(b.keys)),
				}
				o.seq++
				o.sp.add(rec, int64(len(rec.key))+recCost(rec.row, rec.keys))
			}
			if ex.acct.over() {
				if err := o.sp.flush(); err != nil {
					return nil, err
				}
			}
			continue
		}
		o.rowBuf = o.rowBuf[:0]
		o.keyCols = resetKeyCols(o.keyCols, len(b.keys))
		var add int64
		for _, i := range b.sel {
			row := b.rows[i]
			o.buf = o.buf[:0]
			for _, v := range row {
				o.buf = sqltypes.AppendKey(o.buf, v)
			}
			if o.seen[string(o.buf)] {
				continue
			}
			o.seen[string(o.buf)] = true
			if ex.acct != nil {
				add += int64(len(o.buf)) + distinctEntryBytes
			}
			o.rowBuf = append(o.rowBuf, row)
			for k := range b.keys {
				o.keyCols[k] = append(o.keyCols[k], b.keys[k][i])
			}
		}
		ex.acct.charge(add)
		o.charged += add
		if ex.acct.over() {
			if err := o.engageSpill(ex); err != nil {
				return nil, err
			}
		}
		if len(o.rowBuf) > 0 {
			o.out.window(o.rowBuf)
			o.out.keys = o.keyCols
			ex.noteStream(len(o.rowBuf))
			return &o.out, nil
		}
	}
}

// engageSpill converts the seen-set into marker records (seq -1 sorts
// before every real arrival, so a marker group head means "already
// emitted") and frees the map.
func (o *distinctOperator) engageSpill(ex *exec) error {
	o.sp = newSpiller(ex, func(a, b *spillRec) bool {
		if c := bytes.Compare(a.key, b.key); c != 0 {
			return c < 0
		}
		return a.seq < b.seq
	})
	for k := range o.seen {
		o.sp.add(spillRec{seq: -1, key: []byte(k)}, int64(len(k))+16)
	}
	o.seen = nil
	ex.acct.release(o.charged)
	o.charged = 0
	return o.sp.flush()
}

// mergeSurvivors scans the (key, seq)-ordered merge of all spilled records
// group by group: the head record of each key group is either a pre-spill
// marker (skip the group) or the key's earliest post-spill arrival (the
// survivor). Survivors feed a second spiller ordered by arrival sequence.
func (o *distinctOperator) mergeSurvivors(ex *exec) error {
	m, err := o.sp.drain()
	if err != nil {
		return err
	}
	defer m.close()
	o.outSp = newSpiller(ex, func(a, b *spillRec) bool { return a.seq < b.seq })
	var curKey []byte
	have := false
	for {
		rec, err := m.next()
		if err != nil {
			return err
		}
		if rec == nil {
			break
		}
		if have && bytes.Equal(rec.key, curKey) {
			continue
		}
		curKey = append(curKey[:0], rec.key...)
		have = true
		if rec.seq < 0 {
			continue
		}
		o.outSp.add(spillRec{seq: rec.seq, row: rec.row, keys: rec.keys},
			recCost(rec.row, rec.keys))
		if err := o.outSp.maybeFlush(); err != nil {
			return err
		}
	}
	o.merge, err = o.outSp.drain()
	return err
}

// emitMerged streams the arrival-ordered survivors in batch windows,
// re-attaching their ORDER BY key columns.
func (o *distinctOperator) emitMerged(ex *exec) (*Batch, error) {
	if err := ex.cancelled(); err != nil {
		return nil, err
	}
	o.rowBuf = o.rowBuf[:0]
	nk := -1
	for len(o.rowBuf) < batchSize {
		rec, err := o.merge.next()
		if err != nil {
			return nil, err
		}
		if rec == nil {
			break
		}
		if nk < 0 {
			nk = len(rec.keys)
			o.keyCols = resetKeyCols(o.keyCols, nk)
		}
		o.rowBuf = append(o.rowBuf, rec.row)
		for k, v := range rec.keys {
			o.keyCols[k] = append(o.keyCols[k], v)
		}
	}
	if len(o.rowBuf) == 0 {
		return nil, nil
	}
	o.out.window(o.rowBuf)
	o.out.keys = o.keyCols
	ex.noteStream(len(o.rowBuf))
	return &o.out, nil
}

func (o *distinctOperator) Close() {
	o.child.Close()
	o.seen = nil
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

// ---------------------------------------------------------------- sort

// sortOperator is the ORDER BY pipeline breaker: Open drains the child,
// collecting rows and their precomputed key columns, stable-sorts them
// (morsel-parallel runs merged in run order when the input is large), and
// Next emits windows of the sorted result.
//
// Under a memory limit the buffer is charged per input batch; when the
// budget overflows, buffered rows move into an external merge sort
// (spill.go): stably-sorted runs on disk, remainder in memory, k-way
// merge on Next. Runs are contiguous arrival-order segments and earlier
// runs win merge ties, so the merged order equals one global stable sort —
// byte-identical to the in-memory path at every parallelism setting.
type sortOperator struct {
	child Operator
	desc  []bool

	rows    [][]sqltypes.Value
	keyCols [][]sqltypes.Value
	pos     int
	out     Batch

	acct    *memAccountant
	charged int64
	sp      *spiller
	merge   *mergeIter
	rowBuf  [][]sqltypes.Value
}

func newSortOperator(child Operator, desc []bool) *sortOperator {
	return &sortOperator{child: child, desc: desc}
}

// sortRecLess orders spill records by the operator's key columns with the
// exact comparator of orderByKeyCols; ties report false so the
// stable run sort and the earlier-run-wins merge preserve arrival order.
func sortRecLess(desc []bool) func(a, b *spillRec) bool {
	return func(a, b *spillRec) bool {
		for k := range desc {
			c := compareNullsFirst(a.keys[k], b.keys[k])
			if desc[k] {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	}
}

func (o *sortOperator) Open(ex *exec) error {
	if err := o.child.Open(ex); err != nil {
		return err
	}
	o.acct = ex.acct
	o.rows = o.rows[:0]
	o.keyCols = make([][]sqltypes.Value, len(o.desc))
	o.pos = 0
	for {
		if err := ex.cancelled(); err != nil {
			return err
		}
		b, err := o.child.Next(ex)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if o.sp != nil {
			for _, i := range b.sel {
				rec := spillRec{row: b.rows[i], keys: keyRow(b.keys, i, len(o.desc))}
				o.sp.add(rec, recCost(rec.row, rec.keys))
			}
			if ex.acct.over() {
				if err := o.sp.flush(); err != nil {
					return err
				}
			}
			continue
		}
		var add int64
		for _, i := range b.sel {
			o.rows = append(o.rows, b.rows[i])
			for k := range b.keys {
				o.keyCols[k] = append(o.keyCols[k], b.keys[k][i])
			}
			if ex.acct != nil {
				add += rowBytes(b.rows[i])
				for k := range b.keys {
					add += valueSize + int64(len(b.keys[k][i].S))
				}
			}
		}
		ex.acct.charge(add)
		o.charged += add
		if ex.acct.over() {
			if err := o.engageSpill(ex); err != nil {
				return err
			}
		}
	}
	if o.sp != nil {
		m, err := o.sp.drain()
		if err != nil {
			return err
		}
		o.merge = m
		return nil
	}
	// Parallel sorted runs merge into the same order a global stable sort
	// produces (earlier run wins ties).
	sortIdx := stableSortIdx
	if ex.par > 1 && ex.depth == 0 && len(o.rows) >= 2*morselLen() {
		sortIdx = func(idx []int32, less func(a, b int32) bool) { parallelSortIdx(ex.par, idx, less) }
	}
	o.rows = orderByKeyCols(o.rows, o.keyCols, o.desc, sortIdx)
	return nil
}

// engageSpill moves the buffered rows into a spiller (transferring their
// charge) and writes them as the first run — a contiguous arrival-order
// prefix, so stability is preserved across the switch.
func (o *sortOperator) engageSpill(ex *exec) error {
	o.sp = newSpiller(ex, sortRecLess(o.desc))
	ex.acct.release(o.charged)
	o.charged = 0
	for i, row := range o.rows {
		keys := make([]sqltypes.Value, len(o.desc))
		for k := range keys {
			keys[k] = o.keyCols[k][i]
		}
		o.sp.add(spillRec{row: row, keys: keys}, recCost(row, keys))
	}
	o.rows, o.keyCols = nil, nil
	return o.sp.flush()
}

func (o *sortOperator) Next(ex *exec) (*Batch, error) {
	if err := ex.cancelled(); err != nil {
		return nil, err
	}
	if o.merge != nil {
		o.rowBuf = o.rowBuf[:0]
		for len(o.rowBuf) < batchSize {
			rec, err := o.merge.next()
			if err != nil {
				return nil, err
			}
			if rec == nil {
				break
			}
			o.rowBuf = append(o.rowBuf, rec.row)
		}
		if len(o.rowBuf) == 0 {
			return nil, nil
		}
		o.out.window(o.rowBuf)
		ex.noteStream(len(o.rowBuf))
		return &o.out, nil
	}
	if o.pos >= len(o.rows) {
		return nil, nil
	}
	n := len(o.rows) - o.pos
	if n > batchSize {
		n = batchSize
	}
	o.out.window(o.rows[o.pos : o.pos+n])
	o.pos += n
	ex.noteStream(n)
	return &o.out, nil
}

func (o *sortOperator) Close() {
	o.child.Close()
	o.rows = nil
	o.keyCols = nil
	if o.merge != nil {
		o.merge.close()
		o.merge = nil
	}
	if o.sp != nil {
		o.sp.close()
		o.sp = nil
	}
	o.acct.release(o.charged)
	o.charged = 0
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
// FROM/WHERE pipeline, then grouped or plain projection, then DISTINCT,
// ORDER BY and LIMIT. The tree's structure mirrors the reference executor's
// evaluation order exactly.
func (ex *exec) buildQueryOp(sel *sqlast.Select, parent *scope) (*queryRoot, error) {
	src, err := ex.buildSourcePipe(sel, parent)
	if err != nil {
		return nil, err
	}
	a := ex.selectAnalysis(sel)

	var op Operator
	var cols []string
	var desc []bool
	if a.grouped {
		g, err := ex.newGroupOperator(src.op, src.rel, sel, parent, a)
		if err != nil {
			return nil, err
		}
		op, cols = g, g.cols
		for _, p := range g.plans {
			desc = append(desc, p.desc)
		}
	} else {
		p, err := ex.newProjectOperator(src.op, src.rel, sel, parent, a)
		if err != nil {
			return nil, err
		}
		op, cols = p, p.cols
		for _, pl := range p.plans {
			desc = append(desc, pl.desc)
		}
	}
	if sel.Distinct {
		op = &distinctOperator{child: op}
	}
	if len(desc) > 0 {
		op = newSortOperator(op, desc)
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
		rel := &relation{rows: [][]sqltypes.Value{{}}}
		if sel.Where != nil {
			sc := rel.scopeFor(parent)
			sc.row = rel.rows[0]
			v, err := ex.eval(sel.Where, sc)
			if err != nil {
				return nil, err
			}
			if truth, _ := sqltypes.Truthy(v); !truth {
				rel.rows = nil
			}
		}
		return &pipe{op: &scanOperator{rows: rel.rows}, rel: rel}, nil
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
			fo := newFilterOperator(ex, p.op, p.rel, pl.closed[i], parent)
			p = &pipe{op: fo, rel: &relation{bindings: p.rel.bindings, width: p.rel.width}}
		}
		return p
	}

	// Greedy hash-join order: prefer sources connected by equi-conjuncts. The
	// joins form one left-deep chain whose final width is known here, so the
	// chain materializes each output row once (joinOperator, ADR-011): its
	// first join reserves the whole width, the later ones fill it in.
	chainWidth := totalWidth(rels)
	cur := filtered(0)
	remaining := make([]int, 0, len(pipes)-1)
	for i := 1; i < len(pipes); i++ {
		remaining = append(remaining, i)
	}
	for first := true; len(remaining) > 0; first = false {
		pick := -1
		var pairs []equiPair
		for k, i := range remaining {
			pr := equiPairsBetween(pl.conjs, cur.rel, rels[i])
			if len(pr) > 0 {
				pick, pairs = k, pr
				break
			}
		}
		var next *pipe
		var own []*conjunct
		if pick >= 0 {
			i := remaining[pick]
			if len(pl.closed[i]) == 0 {
				next, own = pipes[i], pl.plain[i]
			} else {
				next = filtered(i)
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
			next = pipes[remaining[pick]]
		}
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		cur = ex.newJoinPipe(cur, next, own, pairs, false, nil, parent, chainWidth, !first)
		for _, p := range pairs {
			p.src.used = true
		}
	}

	if residual := pl.residual(); len(residual) > 0 {
		cur = ex.filterPipe(cur, residual, parent)
	}
	return cur, nil
}

// filterPipe applies conjuncts to a streaming source, mirroring
// filterRelation: over an unfiltered base table, what its persistent index
// serves becomes an index scan (indexSource); everything else becomes a
// filter operator refining the stream's selection vectors.
func (ex *exec) filterPipe(p *pipe, conjs []*conjunct, parent *scope) *pipe {
	src, rel := p.op, p.rel
	rng, served, rest := ex.indexSource(rel, conjs, parent)
	if served {
		src = &indexScanOperator{heap: rel.rows, rng: rng}
		rel = &relation{bindings: rel.bindings, width: rel.width}
	}
	if len(rest) == 0 {
		return &pipe{op: src, rel: rel}
	}
	// Morsel-parallel fused scan+filter: engages only for a plain heap scan
	// (src untouched by the index rewrite above) that is large enough to
	// split, on a parallel top-level execution.
	if sc, isScan := src.(*scanOperator); isScan && rel.base != nil && len(rel.bindings) == 1 &&
		ex.par > 1 && ex.depth == 0 && len(sc.rows) >= 2*morselLen() {
		po := newParallelScanFilter(ex, sc.rows, rel, rest, parent)
		return &pipe{op: po, rel: &relation{bindings: rel.bindings, width: rel.width}}
	}
	fo := newFilterOperator(ex, src, rel, rest, parent)
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
		b := newBinding(t.Binding(), tab.ColNames())
		return &pipe{
			op:  &scanOperator{rows: heap, base: true},
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
		return ex.newJoinPipe(l, r, nil, nil, false, nil, parent, 0, false), nil
	case sqlast.JoinInner, sqlast.JoinLeftOuter:
	default:
		return nil, fmt.Errorf("engine: unsupported join kind %v", j.Kind)
	}
	pairs, residual := splitOn(j.On, l.rel, r.rel)
	// An outer join's residual decides matches inside the join (a probe row
	// it rejects everywhere still comes out, null-extended); an inner join's
	// filters the joined stream.
	if j.Kind == sqlast.JoinLeftOuter {
		return ex.newJoinPipe(l, r, nil, pairs, true, residual, parent, 0, false), nil
	}
	joined := ex.newJoinPipe(l, r, nil, pairs, false, nil, parent, 0, false)
	if len(residual) == 0 {
		return joined, nil
	}
	return ex.filterPipe(joined, residual, parent), nil
}

// materializePipe drains a pipe into a buffered row set so its size is
// known (cross-product ordering) and its rows can be rescanned.
func (ex *exec) materializePipe(p *pipe) error {
	if p.rel.rows != nil {
		return nil
	}
	rows, err := drainRows(ex, p.op)
	if err != nil {
		return err
	}
	p.rel = &relation{bindings: p.rel.bindings, width: p.rel.width, rows: rows}
	p.op = &scanOperator{rows: rows}
	return nil
}

// drainRows opens op and collects every selected row. The row slices are
// stable (heap rows or chunk allocations); only the windows are transient.
func drainRows(ex *exec, op Operator) ([][]sqltypes.Value, error) {
	if err := op.Open(ex); err != nil {
		return nil, err
	}
	var rows [][]sqltypes.Value
	for {
		b, err := op.Next(ex)
		if err != nil {
			return nil, err
		}
		if b == nil {
			return rows, nil
		}
		for _, i := range b.sel {
			rows = append(rows, b.rows[i])
		}
	}
}

// runQueryStream executes one SELECT by building, opening and draining its
// operator tree.
func (ex *exec) runQueryStream(sel *sqlast.Select, parent *scope) (*Result, error) {
	root, err := ex.buildQueryOp(sel, parent)
	if err != nil {
		return nil, err
	}
	defer root.op.Close()
	if err := root.op.Open(ex); err != nil {
		return nil, err
	}
	res := &Result{Cols: root.cols}
	for {
		b, err := root.op.Next(ex)
		if err != nil {
			return nil, err
		}
		if b == nil {
			return res, nil
		}
		for _, i := range b.sel {
			res.Rows = append(res.Rows, b.rows[i])
		}
	}
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
	rows, err := drainRows(ex, p.op)
	if err != nil {
		return nil, err
	}
	return &relation{bindings: p.rel.bindings, width: p.rel.width, rows: rows}, nil
}
