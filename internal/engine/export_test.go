package engine

import (
	"cmp"
	"fmt"
	"slices"

	"mtbase/internal/sqlast"
)

// Hooks for the external test package (engine_test), whose tests need the
// MT-H rewrites that internal/mth, importing this package, provides.

// ChainRowWidth builds the operator tree of the plan's statement and reports,
// for the first join chain it meets from the root down — the top block's, or
// the block of the first derived table that has one — the capacity of the
// rows its joins allocate, the width the chain's rows have and the width of
// all its sources together. ok is false when the tree has no join.
func ChainRowWidth(db *DB, p *Plan) (capacity, width, sources int, ok bool, err error) {
	db.mu.Lock()
	ex := db.newExec(p)
	db.mu.Unlock()
	defer ex.releaseSpills()
	root, err := ex.buildQueryOp(p.stmt.(*sqlast.Select), rootScope())
	if err != nil {
		return 0, 0, 0, false, err
	}
	top := firstJoin(root.op)
	if top == nil {
		return 0, 0, 0, false, nil
	}
	j := top
	for ; j.extends; j = j.left.(*joinOperator) {
		sources += j.rrel.width
	}
	return top.rowCap, top.orel.width, sources + j.lrel.width + j.rrel.width, true, nil
}

func firstJoin(op Operator) *joinOperator {
	switch o := op.(type) {
	case *joinOperator:
		return o
	case *projectOperator:
		return firstJoin(o.child)
	case *groupOperator:
		return firstJoin(o.child)
	case *sortOperator:
		return firstJoin(o.child)
	case *limitOperator:
		return firstJoin(o.child)
	case *filterOperator:
		return firstJoin(o.child)
	case *errWrapOperator:
		return firstJoin(o.child)
	}
	return nil
}

// AggregateSites lists, block by block in subquery order, the grouped
// projections the plan's executions so far analysed (shared.go) as "sites /
// calls": how many accumulators a group folds, and for how many aggregate
// calls.
func AggregateSites(p *Plan) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	sels := make([]*sqlast.Select, 0, len(p.analysis))
	for sel, a := range p.analysis {
		if a.shared != nil && len(a.shared.siteOf) > 0 {
			sels = append(sels, sel)
		}
	}
	slices.SortFunc(sels, func(a, b *sqlast.Select) int { return cmp.Compare(p.subqIDs[a], p.subqIDs[b]) })
	var out []string
	for _, sel := range sels {
		siteOf := p.analysis[sel].shared.siteOf
		out = append(out, fmt.Sprintf("%d / %d", slices.Max(siteOf)+1, len(siteOf)))
	}
	return out
}
