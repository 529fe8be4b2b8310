package engine

// This file holds the reference executor — runQueryMaterialized and the
// functions under it — plus the query analysis both executors share
// (relations, conjunct and equi-pair analysis, output shape, ORDER BY
// plans). The reference is deliberately naive: every step materializes its
// full result, every expression is interpreted one row at a time through
// exec.eval, and nothing runs in parallel. It shares no operator, batch
// program or compiled closure with the operator tree it is the differential
// oracle for (DESIGN.md ADR-010); TestModeSeam keeps it that way.

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"mtbase/internal/sqlast"
	"mtbase/internal/sqltypes"
)

// relation is a materialized intermediate result: named bindings laid out
// side by side in each row tuple.
type relation struct {
	bindings []*binding
	rows     [][]sqltypes.Value
	width    int
	// base is the backing table when rows is exactly the table heap
	// (unfiltered single-table scan); it enables index probes.
	base *Table
}

func (r *relation) names() map[string]bool {
	m := make(map[string]bool, len(r.bindings))
	for _, b := range r.bindings {
		m[b.name] = true
	}
	return m
}

// scopeFor builds an evaluation scope over this relation.
func (r *relation) scopeFor(parent *scope) *scope {
	return &scope{parent: parent, bindings: r.bindings}
}

// joinRel is the schema of a join's output: the bindings of l and r laid
// side by side, no rows.
func joinRel(l, r *relation) *relation {
	out := &relation{width: l.width + r.width}
	out.bindings = append(out.bindings, l.bindings...)
	for _, b := range r.bindings {
		nb := *b
		nb.off += l.width
		out.bindings = append(out.bindings, &nb)
	}
	return out
}

// conjunct is one AND-factor of a WHERE clause with its analysis.
type conjunct struct {
	expr         sqlast.Expr
	refs         map[string]bool // local binding names referenced
	hasSub       bool
	closed       bool   // hasSub, and every subquery is statically closed (outerRefs)
	reads        uint64 // the names it reads, by chainReads id
	used         bool
	fromOrFactor bool // extracted from an OR; implied, never a residual
}

// ---------------------------------------------------------------- runQuery

// runQuery executes one SELECT level: on the pull-based operator tree
// (operator.go), or on the reference executor below when the statement
// pinned the reference configuration (DB.SetStreamExec(false)).
func (ex *exec) runQuery(sel *sqlast.Select, parent *scope) (*Result, error) {
	if ex.reference {
		return ex.runQueryMaterialized(sel, parent)
	}
	return ex.runQueryStream(sel, parent)
}

// runQueryMaterialized is the reference executor: FROM/WHERE builds a full
// intermediate relation, projection and grouping build the full result,
// then DISTINCT/ORDER BY/LIMIT post-process it.
func (ex *exec) runQueryMaterialized(sel *sqlast.Select, parent *scope) (*Result, error) {
	rel, err := ex.buildFromWhere(sel, parent)
	if err != nil {
		return nil, err
	}

	a := ex.selectAnalysis(sel)
	aliases := a.aliases

	var res *execResult
	if a.grouped {
		res, err = ex.projectGrouped(sel, rel, parent, aliases)
	} else {
		res, err = ex.projectRows(sel, rel, parent, aliases)
	}
	if err != nil {
		return nil, err
	}

	if sel.Distinct {
		res.dedupe()
	}
	res.sortAndTrim(sel.Limit)
	return res.finish(), nil
}

// execResult carries the projected rows until ordering is applied: Rows[i]
// is width output columns followed by its ORDER BY keys (DESIGN.md ADR-040),
// which sortAndTrim cuts off.
type execResult struct {
	Cols  []string
	Rows  [][]sqltypes.Value
	width int
	desc  []bool
}

// dedupe keeps the first row of each distinct output, its keys with it.
func (r *execResult) dedupe() {
	seen := make(map[string]bool, len(r.Rows))
	w := 0
	var buf []byte
	for _, row := range r.Rows {
		buf = buf[:0]
		for _, v := range row[:r.width] {
			buf = sqltypes.AppendKey(buf, v)
		}
		if seen[string(buf)] {
			continue
		}
		seen[string(buf)] = true
		r.Rows[w] = row
		w++
	}
	r.Rows = r.Rows[:w]
}

func (r *execResult) sortAndTrim(limit int64) {
	if len(r.desc) > 0 {
		slices.SortStableFunc(r.Rows, byTail(r.width, r.desc))
		for i, row := range r.Rows {
			r.Rows[i] = row[:r.width:r.width]
		}
	}
	if limit >= 0 && int64(len(r.Rows)) > limit {
		r.Rows = r.Rows[:limit]
	}
}

// appendKeys evaluates the ORDER BY keys of one output row onto its end;
// expression keys are interpreted against sc, whose current row (or group
// context) the caller has set.
func appendKeys(ex *exec, plans []orderPlan, out []sqltypes.Value, sc *scope) ([]sqltypes.Value, error) {
	for k := range plans {
		p := &plans[k]
		if p.outCol >= 0 {
			out = append(out, out[p.outCol])
			continue
		}
		v, err := ex.eval(p.expr, sc)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func (r *execResult) finish() *Result {
	return &Result{Cols: r.Cols, Rows: r.Rows}
}

// compareNullsFirst orders NULL before any value, mixed kinds by kind.
func compareNullsFirst(a, b sqltypes.Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	}
	if c, ok := sqltypes.Compare(a, b); ok {
		return c
	}
	// incomparable kinds: order by kind id for determinism
	switch {
	case a.K < b.K:
		return -1
	case a.K > b.K:
		return 1
	}
	return 0
}

// selectAliases maps lower-case output aliases to their expressions.
func selectAliases(sel *sqlast.Select) map[string]sqlast.Expr {
	m := make(map[string]sqlast.Expr)
	for _, it := range sel.Items {
		if !it.Star && it.Alias != "" {
			m[strings.ToLower(it.Alias)] = it.Expr
		}
	}
	return m
}

// substituteAlias replaces an unqualified column reference that does not
// resolve in the relation but matches an output alias with the aliased
// expression (per the SQL rule the paper invokes for GROUP BY, §3.1) — the
// select item's own node, not a copy: execution never writes to the AST, and
// a node the plan owns is one the shared-subexpression analysis (shared.go)
// recognises from one execution to the next.
func substituteAlias(e sqlast.Expr, sc *scope, aliases map[string]sqlast.Expr) sqlast.Expr {
	cr, ok := e.(*sqlast.ColumnRef)
	if !ok || cr.Table != "" {
		return e
	}
	if _, _, err := sc.lookup("", cr.Name); err == nil {
		return e // resolves as a real column; prefer it
	}
	if sub, ok := aliases[strings.ToLower(cr.Name)]; ok {
		return sub
	}
	return e
}

// substituteAliases is substituteAlias at every node of e: e itself where no
// node is an alias, a rewritten copy otherwise.
func substituteAliases(e sqlast.Expr, sc *scope, aliases map[string]sqlast.Expr) sqlast.Expr {
	found := false
	sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
		found = found || substituteAlias(n, sc, aliases) != n
		return !found
	})
	if !found {
		return e
	}
	return sqlast.TransformExpr(sqlast.CloneExpr(e), func(n sqlast.Expr) sqlast.Expr {
		return substituteAlias(n, sc, aliases)
	})
}

// ---------------------------------------------------------------- projection

func (ex *exec) outputShape(sel *sqlast.Select, rel *relation) ([]string, error) {
	var cols []string
	for _, it := range sel.Items {
		switch {
		case it.Star && it.StarTable == "":
			for _, b := range rel.bindings {
				cols = append(cols, b.cols...)
			}
		case it.Star:
			found := false
			for _, b := range rel.bindings {
				if b.name == strings.ToLower(it.StarTable) {
					cols = append(cols, b.cols...)
					found = true
				}
			}
			if !found {
				return nil, fmt.Errorf("engine: unknown table %s in %s.*", it.StarTable, it.StarTable)
			}
		default:
			cols = append(cols, it.OutputName())
		}
	}
	return cols, nil
}

// orderPlan decides, per ORDER BY item, whether to reuse an output column
// or evaluate an expression in the row/group context.
type orderPlan struct {
	outCol int         // >= 0: sort by this output column
	expr   sqlast.Expr // else: evaluate this
	desc   bool
}

func buildOrderPlan(sel *sqlast.Select, outCols []string, sc *scope, aliases map[string]sqlast.Expr) ([]orderPlan, error) {
	plans := make([]orderPlan, len(sel.OrderBy))
	for i, o := range sel.OrderBy {
		plans[i] = orderPlan{outCol: -1, desc: o.Desc}
		if n, ok := o.Ordinal(); ok {
			if n < 1 || n > int64(len(outCols)) {
				return nil, fmt.Errorf("engine: ORDER BY position %d is not in the select list (%d columns): %s", n, len(outCols), sel)
			}
			plans[i].outCol = int(n) - 1
			continue
		}
		if cr, ok := o.Expr.(*sqlast.ColumnRef); ok && cr.Table == "" {
			for j, c := range outCols {
				if strings.EqualFold(c, cr.Name) {
					plans[i].outCol = j
					break
				}
			}
			if plans[i].outCol >= 0 {
				continue
			}
		}
		plans[i].expr = substituteAlias(o.Expr, sc, aliases)
	}
	return plans, nil
}

// projector is one SELECT item resolved against the source relation once
// per query: star items become row-slice segments of the source row.
type projector struct {
	star bool
	segs [][2]int // star: (offset, length) segments of the source row
	expr sqlast.Expr
}

// buildProjectors lowers the SELECT list; width is the output row length.
func (ex *exec) buildProjectors(sel *sqlast.Select, rel *relation) ([]projector, int) {
	projs := make([]projector, len(sel.Items))
	width := 0
	for i, it := range sel.Items {
		switch {
		case it.Star && it.StarTable == "":
			projs[i] = projector{star: true, segs: [][2]int{{0, rel.width}}}
			width += rel.width
		case it.Star:
			var segs [][2]int
			for _, b := range rel.bindings {
				if b.name == strings.ToLower(it.StarTable) {
					segs = append(segs, [2]int{b.off, len(b.cols)})
					width += len(b.cols)
				}
			}
			projs[i] = projector{star: true, segs: segs}
		default:
			projs[i] = projector{expr: it.Expr}
			width++
		}
	}
	return projs, width
}

func (ex *exec) projectRows(sel *sqlast.Select, rel *relation, parent *scope, aliases map[string]sqlast.Expr) (*execResult, error) {
	sc := rel.scopeFor(parent)
	outCols, err := ex.outputShape(sel, rel)
	if err != nil {
		return nil, err
	}
	plans, err := buildOrderPlan(sel, outCols, sc, aliases)
	if err != nil {
		return nil, err
	}
	projs, width := ex.buildProjectors(sel, rel)

	res := &execResult{Cols: outCols, width: width}
	for _, p := range plans {
		res.desc = append(res.desc, p.desc)
	}

	for ri, row := range rel.rows {
		if ri&(batchSize-1) == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		sc.row = row
		out := make([]sqltypes.Value, 0, width+len(plans))
		for i := range projs {
			p := &projs[i]
			if p.star {
				for _, seg := range p.segs {
					out = append(out, row[seg[0]:seg[0]+seg[1]]...)
				}
				continue
			}
			v, err := ex.eval(p.expr, sc)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		if out, err = appendKeys(ex, plans, out, sc); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// ---------------------------------------------------------------- grouping

// groupedShape is what both executors' grouped projections start from:
// GROUP BY and HAVING come with the select list's aliases substituted.
type groupedShape struct {
	sc     *scope
	cols   []string
	plans  []orderPlan
	gexprs []sqlast.Expr
	having sqlast.Expr
}

func (ex *exec) groupedShape(sel *sqlast.Select, rel *relation, parent *scope, aliases map[string]sqlast.Expr) (gs groupedShape, err error) {
	gs.sc = rel.scopeFor(parent)
	for _, it := range sel.Items {
		if it.Star {
			return gs, fmt.Errorf("engine: SELECT * is invalid in a grouped query")
		}
	}
	if gs.cols, err = ex.outputShape(sel, rel); err != nil {
		return gs, err
	}
	if gs.plans, err = buildOrderPlan(sel, gs.cols, gs.sc, aliases); err != nil {
		return gs, err
	}
	gs.gexprs = make([]sqlast.Expr, len(sel.GroupBy))
	for i, g := range sel.GroupBy {
		gs.gexprs[i] = substituteAlias(g, gs.sc, aliases)
		if hasAggregate(gs.gexprs[i]) {
			return gs, fmt.Errorf("engine: aggregate in GROUP BY")
		}
	}
	if sel.Having != nil {
		gs.having = substituteAliases(sel.Having, gs.sc, aliases)
	}
	return gs, nil
}

func (ex *exec) projectGrouped(sel *sqlast.Select, rel *relation, parent *scope, aliases map[string]sqlast.Expr) (*execResult, error) {
	gs, err := ex.groupedShape(sel, rel, parent, aliases)
	if err != nil {
		return nil, err
	}
	sc, outCols, plans, groupExprs, having := gs.sc, gs.cols, gs.plans, gs.gexprs, gs.having

	type group struct {
		rows [][]sqltypes.Value
	}
	var order []string
	groups := make(map[string]*group)
	var buf []byte
	bucket := func(key []byte, row []sqltypes.Value) {
		k := string(key)
		gr, ok := groups[k]
		if !ok {
			gr = &group{}
			groups[k] = gr
			order = append(order, k)
		}
		gr.rows = append(gr.rows, row)
	}
	for ri, row := range rel.rows {
		if ri&(batchSize-1) == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		sc.row = row
		buf = buf[:0]
		for _, g := range groupExprs {
			v, err := ex.eval(g, sc)
			if err != nil {
				return nil, err
			}
			buf = sqltypes.AppendKey(buf, v)
		}
		bucket(buf, row)
	}
	// A global aggregate (no GROUP BY) over zero rows still yields one group.
	if len(sel.GroupBy) == 0 && len(order) == 0 {
		groups[""] = &group{}
		order = append(order, "")
	}

	res := &execResult{Cols: outCols, width: len(sel.Items)}
	for _, p := range plans {
		res.desc = append(res.desc, p.desc)
	}
	for _, k := range order {
		gr := groups[k]
		if len(gr.rows) > 0 {
			sc.row = gr.rows[0]
		} else {
			sc.row = nil
		}
		sc.group = &groupCtx{rows: gr.rows} // no programs: evalAggregate folds row by row
		if having != nil {
			hv, err := ex.eval(having, sc)
			if err != nil {
				sc.group = nil
				return nil, err
			}
			if truth, _ := sqltypes.Truthy(hv); !truth {
				sc.group = nil
				continue
			}
		}
		out := make([]sqltypes.Value, 0, len(sel.Items)+len(plans))
		for _, it := range sel.Items {
			v, err := ex.eval(it.Expr, sc)
			if err != nil {
				sc.group = nil
				return nil, err
			}
			out = append(out, v)
		}
		if out, err = appendKeys(ex, plans, out, sc); err != nil {
			sc.group = nil
			return nil, err
		}
		res.Rows = append(res.Rows, out)
		sc.group = nil
	}
	return res, nil
}

// ---------------------------------------------------------------- FROM/WHERE

func (ex *exec) buildFromWhere(sel *sqlast.Select, parent *scope) (*relation, error) {
	if len(sel.From) == 0 {
		return ex.fromless(sel, parent)
	}

	rels := make([]*relation, len(sel.From))
	for i, te := range sel.From {
		r, err := ex.buildTableExpr(te, parent)
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}
	pl, err := ex.placeConjuncts(sel, rels, parent)
	if err != nil {
		return nil, err
	}
	if pl.empty {
		return &relation{bindings: allBindings(rels), width: totalWidth(rels)}, nil
	}
	for i := range rels {
		for _, conjs := range [][]*conjunct{pl.plain[i], pl.closed[i]} {
			if len(conjs) == 0 {
				continue
			}
			if rels[i], err = ex.filterRelation(rels[i], conjs, parent); err != nil {
				return nil, err
			}
		}
	}

	// Greedy hash-join order: prefer relations connected by equi-conjuncts.
	cur := rels[0]
	remaining := rels[1:]
	for len(remaining) > 0 {
		pick := -1
		var pairs []equiPair
		for i, r := range remaining {
			p := equiPairsBetween(pl.conjs, cur, r)
			if len(p) > 0 {
				pick, pairs = i, p
				break
			}
		}
		if pick < 0 {
			// no connection: take the smallest for the cross product
			pick = 0
			for i, r := range remaining {
				if len(r.rows) < len(remaining[pick].rows) {
					pick = i
				}
			}
		}
		next := remaining[pick]
		remaining = append(remaining[:pick], remaining[pick+1:]...)
		joined, err := ex.hashJoin(cur, next, pairs, nil, false, parent)
		if err != nil {
			return nil, err
		}
		for _, p := range pairs {
			p.src.used = true
		}
		cur = joined
	}

	if residual := pl.residual(); len(residual) > 0 {
		return ex.filterRelation(cur, residual, parent)
	}
	return cur, nil
}

// fromless is the source of a query level without FROM in both executors:
// its one empty row, kept if the WHERE's conjuncts accept it.
func (ex *exec) fromless(sel *sqlast.Select, parent *scope) (*relation, error) {
	var conjs []*conjunct
	for _, e := range splitConjuncts(sel.Where) {
		conjs = append(conjs, &conjunct{expr: e})
	}
	return ex.filterRelation(&relation{rows: [][]sqltypes.Value{{}}}, conjs, parent)
}

// placement is where the WHERE conjuncts of one query level run: both
// executors take it from placeConjuncts, so production and the reference
// evaluate every conjunct at the same point — and raise the same errors — by
// construction.
type placement struct {
	conjs []*conjunct // every conjunct, WHERE order, OR-factored ones last
	empty bool        // a constant conjunct is not true: the level yields no rows
	reads *chainReads // what the block's join chain carries (ADR-044)
	// Per FROM source: the conjuncts that reference only that source. plain
	// ones filter it first (index probes where a base table allows), then
	// the closed-subquery ones; either way before any join.
	plain, closed [][]*conjunct
}

// placeConjuncts classifies the WHERE conjuncts of sel over its FROM
// sources. Constant conjuncts are evaluated here and gate the whole FROM. A
// conjunct over one source filters that source — a subquery conjunct only
// when all its subqueries are statically closed, since a correlated one may
// read columns the source alone does not supply. What is left is for the
// caller: equi conjuncts become join keys (marking themselves used), and
// residual() filters the joined stream.
func (ex *exec) placeConjuncts(sel *sqlast.Select, rels []*relation, parent *scope) (*placement, error) {
	// Duplicate binding names are ambiguous.
	seen := make(map[string]bool)
	for _, r := range rels {
		for _, b := range r.bindings {
			if seen[b.name] {
				return nil, fmt.Errorf("engine: duplicate table alias %s", b.name)
			}
			seen[b.name] = true
		}
	}
	a := ex.selectAnalysis(sel)
	pl := &placement{
		reads:  a.reads,
		conjs:  ex.whereConjuncts(a, rels, func(name string) bool { return seen[strings.ToLower(name)] }),
		plain:  make([][]*conjunct, len(rels)),
		closed: make([][]*conjunct, len(rels)),
	}
	for _, c := range pl.conjs {
		if !c.constant() {
			continue
		}
		v, err := ex.eval(c.expr, &scope{parent: parent})
		if err != nil {
			return nil, err
		}
		c.used = true
		if truth, _ := sqltypes.Truthy(v); !truth {
			pl.empty = true
			return pl, nil
		}
	}
	for i, r := range rels {
		names := r.names()
		for _, c := range pl.conjs {
			if c.used || len(c.refs) == 0 || (c.hasSub && !c.closed) || !subset(c.refs, names) {
				continue
			}
			c.used = true
			if c.hasSub {
				pl.closed[i] = append(pl.closed[i], c)
			} else {
				pl.plain[i] = append(pl.plain[i], c)
			}
		}
	}
	return pl, nil
}

// whereConjuncts analyzes the WHERE conjuncts of a's block over its FROM
// sources rels, whose binding names local accepts: OR-factored ones last.
func (ex *exec) whereConjuncts(a *selAnalysis, rels []*relation, local func(string) bool) []*conjunct {
	conjs := make([]*conjunct, len(a.conjs))
	for i, e := range a.conjs {
		c := analyzeConjunct(e, local, rels)
		c.fromOrFactor = i >= a.nPlain
		c.closed = !c.fromOrFactor && a.closed[i]
		if a.reads != nil {
			c.reads = a.reads.conj[i]
		}
		conjs[i] = c
	}
	return conjs
}

// constant reports whether the conjunct reads no column of its level and
// holds no subquery: placeConjuncts evaluates it once, before any source.
func (c *conjunct) constant() bool { return len(c.refs) == 0 && !c.hasSub }

// residual returns the conjuncts neither a source filter nor a join key
// consumed: multi-relation non-equi conjuncts and open subqueries.
func (pl *placement) residual() []*conjunct {
	var out []*conjunct
	for _, c := range pl.conjs {
		if !c.used && !c.fromOrFactor {
			out = append(out, c)
		}
	}
	return out
}

// splitOn classifies the ON conjuncts of a join between l and r, for both
// executors and both join kinds: an equality with one side over l and the
// other over r (in either order) becomes a hash key, everything else is the
// residual — which an inner join applies to the joined stream and an outer
// join applies inside the join, where it decides matches.
func splitOn(on sqlast.Expr, l, r *relation) (pairs []equiPair, residual []*conjunct) {
	ln, rn := l.names(), r.names()
	local := func(name string) bool {
		name = strings.ToLower(name)
		return ln[name] || rn[name]
	}
	var conjs []*conjunct
	for _, e := range splitConjuncts(on) {
		conjs = append(conjs, analyzeConjunct(e, local, []*relation{l, r}))
	}
	pairs = equiPairsBetween(conjs, l, r)
	for _, p := range pairs {
		p.src.used = true
	}
	for _, c := range conjs {
		if !c.used {
			residual = append(residual, c)
		}
	}
	return pairs, residual
}

func allBindings(rels []*relation) []*binding {
	var out []*binding
	off := 0
	for _, r := range rels {
		for _, b := range r.bindings {
			nb := *b
			nb.off = off + b.off
			out = append(out, &nb)
		}
		off += r.width
	}
	return out
}

func totalWidth(rels []*relation) int {
	w := 0
	for _, r := range rels {
		w += r.width
	}
	return w
}

func subset(a, b map[string]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// splitConjuncts flattens the AND tree of e.
func splitConjuncts(e sqlast.Expr) []sqlast.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sqlast.BinaryExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []sqlast.Expr{e}
}

// factorCommonOr extracts conjuncts common to every branch of a top-level
// OR (textual equality), enabling hash joins for queries like TPC-H Q19:
// (A AND B) OR (A AND C) implies A. The OR itself remains as a filter, so
// the extraction is purely an enabling transformation.
func factorCommonOr(e sqlast.Expr) []sqlast.Expr {
	var out []sqlast.Expr
	for _, c := range splitConjuncts(e) {
		b, ok := c.(*sqlast.BinaryExpr)
		if !ok || b.Op != "OR" {
			continue
		}
		branches := splitDisjuncts(b)
		if len(branches) < 2 {
			continue
		}
		common := make(map[string]sqlast.Expr)
		for _, cj := range splitConjuncts(branches[0]) {
			common[cj.String()] = cj
		}
		for _, br := range branches[1:] {
			here := make(map[string]bool)
			for _, cj := range splitConjuncts(br) {
				here[cj.String()] = true
			}
			for k := range common {
				if !here[k] {
					delete(common, k)
				}
			}
		}
		for _, k := range slices.Sorted(maps.Keys(common)) {
			out = append(out, sqlast.CloneExpr(common[k]))
		}
	}
	return out
}

func splitDisjuncts(e sqlast.Expr) []sqlast.Expr {
	if b, ok := e.(*sqlast.BinaryExpr); ok && b.Op == "OR" {
		return append(splitDisjuncts(b.L), splitDisjuncts(b.R)...)
	}
	return []sqlast.Expr{e}
}

// analyzeConjunct analyzes e over the sources rels, whose binding names
// local accepts: refs are the bindings it names or whose columns it names
// unqualified.
func analyzeConjunct(e sqlast.Expr, local func(string) bool, rels []*relation) *conjunct {
	c := &conjunct{expr: e, refs: make(map[string]bool)}
	c.hasSub = len(sqlast.SubqueriesOf(e)) > 0
	for _, cr := range sqlast.ColumnRefsOf(e) {
		if cr.Table != "" {
			if local(cr.Table) {
				c.refs[strings.ToLower(cr.Table)] = true
			}
			continue
		}
		cl := strings.ToLower(cr.Name)
		for _, r := range rels {
			for _, b := range r.bindings {
				if _, ok := b.col(cl); ok {
					c.refs[b.name] = true
				}
			}
		}
	}
	return c
}

// orderConjuncts is the one evaluation order of a conjunct list, in both
// executors (DESIGN.md ADR-043): the conjuncts that cannot raise move ahead
// of the rest, each part in written order, so a conjunct that can raise sees
// only rows every one of them accepted — D′'s `ttid IN (…)` among them,
// whatever the access path. safe is how many lead the result. A list already
// in that order comes back as it is.
func (ex *exec) orderConjuncts(conjs []*conjunct, rel *relation, parent *scope) (ordered []*conjunct, safe int) {
	var buf [16]bool
	never, sorted := buf[:0], true
	for i, c := range conjs {
		never = append(never, ex.predicateNeverRaises(c.expr, rel, parent))
		if never[i] {
			sorted, safe = sorted && i == safe, safe+1
		}
	}
	if sorted {
		return conjs, safe
	}
	ordered = make([]*conjunct, 0, len(conjs))
	for _, first := range []bool{true, false} {
		for i, c := range conjs {
			if never[i] == first {
				ordered = append(ordered, c)
			}
		}
	}
	return ordered, safe
}

// predicateNeverRaises reports whether e cannot raise over any row of rel: a
// comparison, BETWEEN, IN list, LIKE or IS NULL — or AND, OR, NOT over those
// — between bare columns and operands that read no row. Anything else
// (column arithmetic, a function or UDF call, CASE, a subquery) may raise.
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

// operandNeverRaises accepts a bare column of rel; a bare column of an
// enclosing query (`i.qty > c.bal` inside a correlated subquery), one value
// for every row of rel — classified by name, so operator build and a per-row
// reference run agree; and an expression over literals, binds and intervals
// alone, which is evaluated here, once: what reads no row and raises (1/0, an
// unbound $2) raises on every row.
func (ex *exec) operandNeverRaises(e sqlast.Expr, rel *relation, parent *scope) bool {
	if cr, ok := e.(*sqlast.ColumnRef); ok {
		if relationHasRef(rel, cr) {
			return true
		}
		_, _, err := parent.resolve(cr.Table, cr.Name)
		return err == nil
	}
	if _, ok := e.(*sqlast.Literal); ok {
		return true
	}
	if ok, _ := rowFree(e); !ok {
		return false
	}
	_, err := ex.eval(e, &scope{parent: parent})
	return err == nil
}

// filterRelation applies conjuncts to a relation: over an unfiltered base
// table the rows its persistent index selects (indexSource), then the rest of
// the conjuncts over those rows, one row at a time, in orderConjuncts' order.
func (ex *exec) filterRelation(r *relation, conjs []*conjunct, parent *scope) (*relation, error) {
	rng, served, rest := ex.indexSource(r, conjs, parent)
	rest, _ = ex.orderConjuncts(rest, r, parent)
	n := len(r.rows)
	if served {
		if rng.err != nil {
			return nil, rng.err
		}
		n = len(rng.ids)
	}
	out := &relation{bindings: r.bindings, width: r.width}
	sc := r.scopeFor(parent)
	for ri := 0; ri < n; ri++ {
		if ri&(batchSize-1) == 0 {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
		}
		row := r.rows[ri]
		if served {
			row = r.rows[rng.ids[ri]]
		}
		sc.row = row
		keep := true
		for _, c := range rest {
			v, err := ex.eval(c.expr, sc)
			if err != nil {
				return nil, err
			}
			if truth, _ := sqltypes.Truthy(v); !truth {
				keep = false
				break
			}
		}
		if keep {
			out.rows = append(out.rows, row)
		}
	}
	return out, nil
}

// indexRange is what a base table's persistent hash index serves of one
// source's conjuncts: the heap ordinals they select, in heap order — or the
// error evaluating a probe value raised, which reading the source reports.
type indexRange struct {
	ids []int
	err error
}

// indexSource splits the conjuncts over an unfiltered base table into what
// its persistent hash indexes serve and the rest. Both executors take their
// rows from it, so they read the same rows of the heap and raise the same
// errors. Two forms, over columns of the table and values constant w.r.t. it
// (literals, binds, outer references; no subquery):
//   - `col = v` conjuncts: one probe of the index on their columns — the
//     engine's stand-in for the B-tree lookups PostgreSQL would use for
//     correlated subqueries and the conversion-UDF meta-table lookups (an
//     EXISTS of the index semi-join's shape asks the same index once per
//     outer row without building a source at all: semiJoin, ADR-033);
//   - failing those, one `col IN (v1, …, vk)` — the rewrite's D′ filter: the
//     union of the items' buckets, taken while it is at most 1/indexJoinShare
//     of the heap, the join's bound on what the index path may cost
//     (DESIGN.md ADR-026).
//
// When nothing is served, rest is conjs.
func (ex *exec) indexSource(r *relation, conjs []*conjunct, parent *scope) (rng indexRange, served bool, rest []*conjunct) {
	if r.base == nil || len(r.bindings) != 1 {
		return rng, false, conjs
	}
	var cols []string
	var vals []sqlast.Expr
	for _, c := range conjs {
		if col, val, ok := probeForm(c.expr, r); ok {
			cols, vals = append(cols, col), append(vals, val)
		} else {
			rest = append(rest, c)
		}
	}
	if len(cols) > 0 {
		rng.ids, rng.err = ex.probeIndex(r.base, cols, vals, parent)
		return rng, true, rest
	}
	for i, c := range conjs {
		if ids, ok := ex.inRange(r, c.expr, parent); ok {
			ex.db.Stats.ScanRanges.Add(1)
			return indexRange{ids: ids}, true, slices.Concat(conjs[:i], conjs[i+1:])
		}
	}
	return rng, false, conjs
}

// probeIndex returns the ordinals of t's rows whose columns cols equal the
// values of exprs.
func (ex *exec) probeIndex(t *Table, cols []string, exprs []sqlast.Expr, parent *scope) ([]int, error) {
	d := ex.snap.pin(t)
	idx, err := d.index(t, cols, true)
	if err != nil {
		return nil, err
	}
	vals := make([]sqltypes.Value, len(exprs))
	psc := &scope{parent: parent}
	for i, e := range exprs {
		if vals[i], err = ex.eval(e, psc); err != nil {
			return nil, err
		}
	}
	var ids []int
	ids, ex.keyBuf = idx.probe(d, ex.keyBuf, vals)
	return ids, nil
}

// inRange serves `col IN (items)` over the base relation r from the index on
// col: the union of the items' buckets and their matches in the index's
// tail, in heap order. ok is false — the conjunct stays a filter — when e is
// not of that form, an item raises (the filter reports it for the rows that
// reach it), or the union would pass 1/indexJoinShare of the heap. A NULL
// item selects no row, in the filter as here.
func (ex *exec) inRange(r *relation, e sqlast.Expr, parent *scope) (ids []int, ok bool) {
	in, isIn := e.(*sqlast.InExpr)
	if !isIn || in.Not || in.Sub != nil {
		return nil, false
	}
	cr, isCol := in.X.(*sqlast.ColumnRef)
	if !isCol || !relationHasRef(r, cr) || slices.ContainsFunc(in.List, func(v sqlast.Expr) bool { return !constantFor(r, v) }) {
		return nil, false
	}
	d := ex.snap.pin(r.base)
	idx, err := d.index(r.base, []string{cr.Name}, true)
	if err != nil {
		return nil, false
	}
	var buckets []int32
	var keys [][]byte // the items' keys, when there is a tail to match them in
	psc := &scope{parent: parent}
	for _, item := range in.List {
		v, err := ex.eval(item, psc)
		if err != nil {
			return nil, false
		}
		if v.IsNull() {
			continue
		}
		ex.keyBuf = sqltypes.AppendKey(ex.keyBuf[:0], v)
		if b, ok := idx.keys.id(ex.keyBuf, false); ok {
			buckets = append(buckets, b)
		}
		if idx.n < d.n {
			keys = append(keys, slices.Clone(ex.keyBuf))
		}
	}
	slices.Sort(buckets)
	buckets = slices.Compact(buckets) // equal items (2, 2.0) reach one bucket
	tail := idx.tail(d, nil, keys...)
	n := len(tail)
	for _, b := range buckets {
		n += len(idx.rowsOf(b))
	}
	if n > d.n/indexJoinShare {
		return nil, false
	}
	if len(buckets) == 1 && len(tail) == 0 {
		return idx.rowsOf(buckets[0]), true
	}
	ids = make([]int, 0, n)
	for _, b := range buckets {
		ids = append(ids, idx.rowsOf(b)...)
	}
	slices.Sort(ids)
	return append(ids, tail...), true // the tail follows every covered row
}

// probeForm recognizes `col = expr` (either side) where col belongs to the
// relation and expr is constant w.r.t. it. It returns the column name and the
// value expression.
func probeForm(e sqlast.Expr, r *relation) (string, sqlast.Expr, bool) {
	be, ok := e.(*sqlast.BinaryExpr)
	if !ok || be.Op != "=" {
		return "", nil, false
	}
	for _, s := range [][2]sqlast.Expr{{be.L, be.R}, {be.R, be.L}} {
		if cr, ok := s[0].(*sqlast.ColumnRef); ok && relationHasRef(r, cr) && constantFor(r, s[1]) {
			return cr.Name, s[1], true
		}
	}
	return "", nil, false
}

// constantFor reports whether e reads nothing of the relation: none of its
// columns and no subquery.
func constantFor(r *relation, e sqlast.Expr) bool {
	if len(sqlast.SubqueriesOf(e)) > 0 {
		return false
	}
	for _, ref := range sqlast.ColumnRefsOf(e) {
		if relationHasRef(r, ref) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------- joins

// equiPair is one hash-join key: left expression over relation A, right
// expression over relation B.
type equiPair struct {
	left, right sqlast.Expr
	src         *conjunct
}

func equiPairsBetween(conjs []*conjunct, a, b *relation) []equiPair {
	var out []equiPair
	for _, c := range conjs {
		if c.used || c.hasSub {
			continue
		}
		be, ok := c.expr.(*sqlast.BinaryExpr)
		if !ok || be.Op != "=" {
			continue
		}
		lrefs := sqlast.ColumnRefsOf(be.L)
		rrefs := sqlast.ColumnRefsOf(be.R)
		if len(lrefs) == 0 || len(rrefs) == 0 {
			continue
		}
		switch {
		case resolvesOnlyIn(lrefs, a, b) && resolvesOnlyIn(rrefs, b, a):
			out = append(out, equiPair{left: be.L, right: be.R, src: c})
		case resolvesOnlyIn(lrefs, b, a) && resolvesOnlyIn(rrefs, a, b):
			out = append(out, equiPair{left: be.R, right: be.L, src: c})
		}
	}
	return out
}

// relationHasRef reports whether a column reference names a column of r,
// resolved or ambiguous.
func relationHasRef(r *relation, ref *sqlast.ColumnRef) bool {
	_, n := resolveIn(r.bindings, strings.ToLower(ref.Table), strings.ToLower(ref.Name))
	return n > 0
}

// resolvesOnlyIn reports whether every reference resolves in relation a
// and none resolves in relation b — the unambiguous condition for using
// the expression as a hash-join key over a.
func resolvesOnlyIn(refs []*sqlast.ColumnRef, a, b *relation) bool {
	if len(refs) == 0 {
		return false
	}
	for _, r := range refs {
		if !relationHasRef(a, r) || relationHasRef(b, r) {
			return false
		}
	}
	return true
}

// pairExprs extracts one side of an equi pair set.
func pairExprs(pairs []equiPair, right bool) []sqlast.Expr {
	exprs := make([]sqlast.Expr, len(pairs))
	for i, p := range pairs {
		if right {
			exprs[i] = p.right
		} else {
			exprs[i] = p.left
		}
	}
	return exprs
}

// concatRows returns the concatenation of l and r as one freshly allocated
// tuple of the given width.
func concatRows(l, r []sqltypes.Value, width int) []sqltypes.Value {
	row := make([]sqltypes.Value, 0, width)
	row = append(row, l...)
	return append(row, r...)
}

// joinKey encodes the join key expressions of one side for row (installed in
// sc) into buf; null reports a NULL component, which never matches an equi
// key.
func (ex *exec) joinKey(buf []byte, exprs []sqlast.Expr, row []sqltypes.Value, sc *scope) (key []byte, null bool, err error) {
	sc.row = row
	buf = buf[:0]
	for _, e := range exprs {
		v, err := ex.eval(e, sc)
		if err != nil {
			return buf, false, err
		}
		if v.IsNull() {
			return buf, true, nil
		}
		buf = sqltypes.AppendKey(buf, v)
	}
	return buf, false, nil
}

// hashJoin joins L and R on the equi pairs, probing in L's row order and
// expanding buckets in R's; with no pairs R is one bucket, the empty key's,
// and the join a cross product. The residual conjuncts decide which
// candidates match: an inner join's caller passes none and filters the
// joined relation itself, while outer (LEFT OUTER) keeps every L row,
// null-extending one without a match. Cancellation is polled per probe row
// and every batchSize output rows: a cross product or a wide bucket expands
// one probe row into many.
func (ex *exec) hashJoin(l, r *relation, pairs []equiPair, residual []*conjunct, outer bool, parent *scope) (*relation, error) {
	out := joinRel(l, r)
	build, err := ex.buildJoinHash(r, pairs, parent)
	if err != nil {
		return nil, err
	}
	residual, _ = ex.orderConjuncts(residual, out, parent)
	nulls := make([]sqltypes.Value, r.width)
	osc := out.scopeFor(parent)
	lsc, lexprs := l.scopeFor(parent), pairExprs(pairs, false)
	var buf []byte
	for _, lr := range l.rows {
		if err := ex.cancelled(); err != nil {
			return nil, err
		}
		var null bool
		if buf, null, err = ex.joinKey(buf, lexprs, lr, lsc); err != nil {
			return nil, err
		}
		var bucket []int
		if !null {
			bucket = build[string(buf)]
		}
		matched := false
	cands:
		for _, ri := range bucket {
			combined := concatRows(lr, r.rows[ri], out.width)
			osc.row = combined
			for _, c := range residual {
				v, err := ex.eval(c.expr, osc)
				if err != nil {
					return nil, err
				}
				if truth, _ := sqltypes.Truthy(v); !truth {
					continue cands
				}
			}
			matched = true
			out.rows = append(out.rows, combined)
			if len(out.rows)%batchSize == 0 {
				if err := ex.cancelled(); err != nil {
					return nil, err
				}
			}
		}
		if outer && !matched {
			out.rows = append(out.rows, concatRows(lr, nulls, out.width))
		}
	}
	return out, nil
}

// buildJoinHash hashes relation r on the right-side key expressions, bucket
// lists in row order; NULL keys never participate in an equi join, and with
// no pairs every row has the empty key.
func (ex *exec) buildJoinHash(r *relation, pairs []equiPair, parent *scope) (map[string][]int, error) {
	rsc, rexprs := r.scopeFor(parent), pairExprs(pairs, true)
	build := make(map[string][]int, len(r.rows))
	var buf []byte
	for i, row := range r.rows {
		var null bool
		var err error
		buf, null, err = ex.joinKey(buf, rexprs, row, rsc)
		if err != nil {
			return nil, err
		}
		if !null {
			build[string(buf)] = append(build[string(buf)], i)
		}
	}
	return build, nil
}

// ---------------------------------------------------------------- FROM items

func (ex *exec) buildTableExpr(te sqlast.TableExpr, parent *scope) (*relation, error) {
	switch t := te.(type) {
	case *sqlast.TableName:
		return ex.buildTableName(t, parent)
	case *sqlast.DerivedTable:
		res, err := ex.runQuery(t.Sub, &scope{parent: parent})
		if err != nil {
			return nil, err
		}
		b := newBinding(t.Alias, res.Cols)
		return &relation{bindings: []*binding{b}, rows: res.Rows, width: len(res.Cols)}, nil
	case *sqlast.JoinExpr:
		return ex.buildJoin(t, parent)
	}
	return nil, fmt.Errorf("engine: unsupported FROM item %T", te)
}

func (ex *exec) buildTableName(t *sqlast.TableName, parent *scope) (*relation, error) {
	key := strings.ToLower(t.Name)
	if view, ok := ex.cat.views[key]; ok {
		sub := sqlast.CloneSelect(view)
		res, err := ex.runQuery(sub, &scope{parent: parent})
		if err != nil {
			return nil, fmt.Errorf("engine: in view %s: %w", t.Name, err)
		}
		b := newBinding(t.Binding(), res.Cols)
		return &relation{bindings: []*binding{b}, rows: res.Rows, width: len(res.Cols)}, nil
	}
	tab := ex.cat.tables[key]
	if tab == nil {
		return nil, fmt.Errorf("engine: no such table %s", t.Name)
	}
	b := tab.bind(t.Binding())
	return &relation{bindings: []*binding{b}, rows: ex.heap(tab), width: len(tab.Cols), base: tab}, nil
}

func (ex *exec) buildJoin(j *sqlast.JoinExpr, parent *scope) (*relation, error) {
	l, err := ex.buildTableExpr(j.L, parent)
	if err != nil {
		return nil, err
	}
	r, err := ex.buildTableExpr(j.R, parent)
	if err != nil {
		return nil, err
	}
	switch j.Kind {
	case sqlast.JoinCross:
		return ex.hashJoin(l, r, nil, nil, false, parent)
	case sqlast.JoinInner:
		pairs, residual := splitOn(j.On, l, r)
		joined, err := ex.hashJoin(l, r, pairs, nil, false, parent)
		if err != nil || len(residual) == 0 {
			return joined, err
		}
		return ex.filterRelation(joined, residual, parent)
	case sqlast.JoinLeftOuter:
		pairs, residual := splitOn(j.On, l, r)
		return ex.hashJoin(l, r, pairs, residual, true, parent)
	}
	return nil, fmt.Errorf("engine: unsupported join kind %v", j.Kind)
}
