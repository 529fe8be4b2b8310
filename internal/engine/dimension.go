package engine

// The dimension join (DESIGN.md ADR-034). o4 inlines every conversion as
// joins against the meta tables, so a converting statement's FROM chain ends
// in a run of ten-row tables, and each stream row would pay one probe and
// one batch pass per table. When the greedy sequence ends in a run of small
// base tables, the run is joined among itself first, in the chain's order,
// into one materialized build side, and the stream meets it once, on a
// composite key. The layout, the matches and their order are the per-member
// chain's: the run is the chain's tail and the pre-join keeps its member
// order, so each stream row meets its matches lexicographically over the
// members, as before.

import (
	"strings"

	"mtbase/internal/sqlast"
)

// chainStep is one join of a FROM list's left-deep chain: the source it
// joins (a FROM position), its build side as newJoinPipe takes it, the build
// side's own conjuncts not yet applied to it, and the equi pairs (none: a
// cross product).
type chainStep struct {
	src   int
	next  *pipe
	own   []*conjunct
	pairs []equiPair
}

// joinChain composes the join sequence steps onto the chain's driving source
// cur, each join writing what is read above it (DESIGN.md ADR-044): the names
// in keep and the keys of the joins after it; a nil reads keeps every
// column. A trailing run of small base tables joins as one dimension when
// dimensionRun finds one and its pre-join stays within a batch; every other
// step is one join.
func (ex *exec) joinChain(cur *pipe, steps []chainStep, rels []*relation, parent *scope, reads *chainReads, keep uint64) (*pipe, error) {
	run := len(steps)
	if bound, sized := streamBound(cur.op); sized && ex.acct == nil {
		run = dimensionRun(steps, rels, bound)
	}
	for k, s := range steps {
		if k == run {
			dim, pairs, err := ex.dimension(cur.rel, steps[k:], rels, parent)
			if err != nil {
				return nil, err
			}
			if dim != nil {
				ex.db.Stats.DimensionBuilds.Add(1)
				return ex.newJoinPipe(cur, dim, nil, pairs, false, nil, parent, k > 0, reads, keep), nil
			}
		}
		above := keep
		for _, later := range steps[k+1:] {
			for _, p := range later.pairs {
				above |= p.src.reads
			}
		}
		cur = ex.newJoinPipe(cur, s.next, s.own, s.pairs, false, nil, parent, k > 0, reads, above)
	}
	return cur, nil
}

// streamBound is the most rows a chain's driving source can yield, where its
// operator says so before it runs: the rows its cursor reads — a heap, or
// the candidates of an index range. Anything else — a view, a derived table,
// a JOIN expression — is unsized, and its chain stays per member.
func streamBound(op Operator) (int, bool) {
	switch o := op.(type) {
	case *scanOperator:
		return o.src.len(), true
	case *parallelScanFilter:
		return len(o.rows), true
	case *filterOperator:
		return streamBound(o.child)
	}
	return 0, false
}

// dimensionRun returns where the sequence's dimension starts: the longest
// tail of steps whose every source is a base table of at most batchSize heap
// rows joined on bare columns, if it has two members or more and the driving
// source can yield more rows than its members hold together (bound) — a
// point read keeps its few cheap probes. len(steps) means no dimension.
func dimensionRun(steps []chainStep, rels []*relation, bound int) int {
	run, held := len(steps), 0
	for ; run > 0; run-- {
		r := rels[steps[run-1].src]
		if r.base == nil || len(r.rows) > batchSize || !columnPairs(steps[run-1].pairs) {
			break
		}
		held += len(r.rows)
	}
	if len(steps)-run < 2 || bound <= held {
		return len(steps)
	}
	return run
}

// columnPairs reports whether every pair equates two bare columns: keys that
// cannot raise, whichever rows they are computed over.
func columnPairs(pairs []equiPair) bool {
	for _, p := range pairs {
		_, l := p.left.(*sqlast.ColumnRef)
		_, r := p.right.(*sqlast.ColumnRef)
		if !l || !r {
			return false
		}
	}
	return true
}

// dimension pre-joins the run's members onto each other, each member join
// the one the chain would make (newJoinPipe: the member's own conjuncts, the
// persistent indexes), keyed on the pairs between members and the pairs
// implied through the stream — two members equated to one stream column are
// equated to each other. It returns the pre-joined rows as a build side and
// the pairs that join the stream to it, or nil when a key column does not
// resolve to one column of the chain or the pre-join outgrows batchSize rows:
// then the chain stays per member. Its cross products — a member with no key
// into the members before it multiplies the rows by its own — are counted
// before anything runs, so a pre-join that outgrows a batch only by keys
// that match more than once is found out after a batch of work at most.
func (ex *exec) dimension(stream *relation, run []chainStep, rels []*relation, parent *scope) (*pipe, []equiPair, error) {
	full := stream
	for _, s := range run {
		full = joinRel(full, s.next.rel)
	}
	column := func(e sqlast.Expr) (int, bool) {
		cr := e.(*sqlast.ColumnRef)
		pos, n := resolveIn(full.bindings, strings.ToLower(cr.Table), strings.ToLower(cr.Name))
		return pos, n == 1
	}
	var d *pipe
	var probe []equiPair
	type held struct {
		col    sqlast.Expr
		member int
	}
	first := make(map[int]held) // a stream column -> the first member column equated to it
	crossed := 1                // the pre-join's rows if every key matched once
	for k, s := range run {
		var inner []equiPair
		for _, p := range s.pairs {
			off, ok := column(p.left)
			if _, rok := column(p.right); !ok || !rok {
				return nil, nil, nil // ambiguous in the chain: per member, as the rows find it
			}
			if off >= stream.width {
				inner = append(inner, p)
				continue
			}
			probe = append(probe, p)
			if m, ok := first[off]; !ok {
				first[off] = held{p.right, k}
			} else if m.member < k { // within one member both pairs probe: no key over the pre-join so far
				inner = append(inner, equiPair{left: m.col, right: p.right})
			}
		}
		if k == 0 || len(inner) == 0 {
			n := len(s.next.rel.rows) // the heap, or what a crossed member was filtered to
			if s.next.rel.rows == nil {
				n = len(rels[s.src].rows)
			}
			if crossed *= n; crossed > batchSize {
				return nil, nil, nil
			}
		}
		if k == 0 {
			if d = s.next; len(s.own) > 0 {
				d = ex.filterPipe(d, s.own, parent)
			}
			continue
		}
		d = ex.newJoinPipe(d, s.next, s.own, inner, false, nil, parent, k > 1, nil, 0)
	}
	rows, err := drainRows(ex, d.op, batchSize)
	if rows == nil || err != nil {
		return nil, nil, err
	}
	return &pipe{op: &scanOperator{src: scanOp{rows: rows}}, rel: &relation{bindings: d.rel.bindings, width: d.rel.width, rows: rows}}, probe, nil
}
