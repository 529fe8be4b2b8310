package engine

// This file implements statement plans. A Plan is the immutable part of a
// statement's lowering: the AST (never mutated by execution — operators clone
// before transforming), plan-stable IDs for every subquery node (the keys of
// the per-execution subquery/IN-set memos), the plan-time IN-subquery arity
// validation, and the shared lowerings of called UDF bodies. Everything that
// changes while a statement runs — the UDF result memo, subquery result
// caches, the batch scratch stack — lives in the per-execution exec object
// (eval.go), so one Plan serves any number of executions.
//
// A Plan is a value its caller holds (DESIGN.md ADR-027): the DB keeps none.
// It holds nothing that depends on the execution configuration, which each
// execution pins for itself (newExec), and nothing that depends on the data:
// it is a function of the statement and the schema, so it remembers the
// catalog it was lowered against and is valid exactly while that catalog is
// the DB's current one (ADR-024). Every DDL swaps the catalog and thereby
// retires every plan — a plan over a name that does not resolve included, so
// a later CREATE meets a fresh lowering — and a DML write retires none. The
// one data-dependent artifact a plan carries, the relation memo of planned UDF
// bodies, is tied to the table snapshots it was read from instead (udf.go).

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mtbase/internal/sqlast"
	"mtbase/internal/sqlparse"
	"mtbase/internal/sqltypes"
)

// Plan is an immutable, reentrant lowering of one statement plus the
// artifacts shared by its executions. The only mutable fields — udfPlans,
// analysis, and the entry memo inside each udfPlan — are lazily filled
// caches guarded by mu: SELECT executions run outside DB.mu and may share
// one plan concurrently; ran is set by the first execution.
type Plan struct {
	mu       sync.Mutex
	stmt     sqlast.Statement
	subqIDs  map[*sqlast.Select]int32 // plan-stable subquery IDs
	nSubq    int32
	arityErr error // IN-subquery arity mismatch found at plan time
	ran      atomic.Bool

	// cat is the catalog the plan was lowered against: revalidatePlanLocked is
	// the one place that compares it with the current one, and the execution
	// pins it (newExec).
	cat *catalog

	// nParams is the bind-parameter arity: the highest $n / ? slot the
	// statement references. Executions must supply exactly this many values.
	nParams int
	// paramKinds holds plan-time type hints per slot (KindNull = no hint or
	// conflicting uses): bind values are coerced to the hinted kind per
	// execution, so e.g. a string date binds cleanly against a DATE column.
	paramKinds []sqltypes.Kind

	// udfPlans holds the once-per-plan lowerings of called UDF bodies
	// (udf.go); each carries its relation memo with the table snapshots the
	// memo was read from.
	udfPlans map[*Function]*udfPlan

	// analysis caches the data-independent lowering analysis of plan-owned
	// Select nodes (conjunct split, OR factoring, alias map, grouped-ness) —
	// the part of physical operator tree construction that does not depend
	// on the data. The physical tree itself is rebuilt per execution: join
	// order and index choices are data-dependent. Filled lazily under
	// Plan.mu, like udfPlans.
	analysis map[*sqlast.Select]*selAnalysis
}

// selAnalysis is the per-Select execution analysis shared by the streaming
// and materializing executors: the flattened WHERE conjuncts (with the
// OR-factored implied conjuncts appended after nPlain), which of the plain
// conjuncts carry only statically closed subqueries (closed[i], see
// outerRefs), the output alias map, and whether the query projects
// through grouping. owned marks the analysis of a plan-owned node, the kind
// the plan caches and the only kind with reads; shared (shared.go) is filled
// lazily under Plan.mu by the operators of such a node.
type selAnalysis struct {
	conjs   []sqlast.Expr
	nPlain  int
	closed  []bool
	aliases map[string]sqlast.Expr
	grouped bool
	owned   bool
	reads   *chainReads
	shared  *sharedExprs
}

func analyzeSelect(sel *sqlast.Select, cat *catalog) *selAnalysis {
	a := &selAnalysis{aliases: selectAliases(sel)}
	a.conjs = splitConjuncts(sel.Where)
	a.nPlain = len(a.conjs)
	a.closed = make([]bool, a.nPlain)
	for i, c := range a.conjs {
		subs := sqlast.SubqueriesOf(c)
		a.closed[i] = len(subs) > 0
		for _, sub := range subs {
			a.closed[i] = outerRefs(sub, cat, nil, func(*sqlast.ColumnRef) { a.closed[i] = false }) && a.closed[i]
		}
	}
	a.conjs = append(a.conjs, factorCommonOr(sel.Where)...)
	a.grouped = len(sel.GroupBy) > 0 || sel.Having != nil
	if !a.grouped {
		for _, it := range sel.Items {
			if !it.Star && hasAggregate(it.Expr) {
				a.grouped = true
				break
			}
		}
	}
	return a
}

// outerRefs calls ref with every column reference of subquery sel, nested
// subqueries and its derived tables' bodies included (these see the levels
// around sel, not sel's FROM), that no FROM list inside the subquery resolves
// (outer holds the levels from the subquery the walk started at), and reports
// whether it knew every such FROM list: base tables and joins of them, not a
// view, a derived table or an unknown name. What it cannot resolve counts as
// outer, an output alias too. A subquery is statically closed — no
// evaluation of it reads a row of the level that contains it — when the walk
// knows its FROM lists and finds no outer reference: conservative, since a
// wrong "closed" moves a correlated conjunct below a join, while a wrong
// outer reference only keeps a column in a join chain's rows (chainReads).
func outerRefs(sel *sqlast.Select, cat *catalog, outer *scope, ref func(*sqlast.ColumnRef)) bool {
	f := &scope{parent: outer}
	var addFrom func(te sqlast.TableExpr) bool
	addFrom = func(te sqlast.TableExpr) bool {
		switch t := te.(type) {
		case *sqlast.TableName:
			key, name := strings.ToLower(t.Name), strings.ToLower(t.Binding())
			tab := cat.tables[key]
			if tab == nil || cat.views[key] != nil || slices.ContainsFunc(f.bindings, func(b *binding) bool { return b.name == name }) {
				return false
			}
			f.bindings = append(f.bindings, tab.bind(name))
			return true
		case *sqlast.JoinExpr:
			return addFrom(t.L) && addFrom(t.R)
		}
		return false
	}
	known := true
	for _, te := range sel.From {
		known = addFrom(te) && known
	}
	sqlast.FromItems(sel.From, nil, func(d *sqlast.DerivedTable) { outerRefs(d.Sub, cat, outer, ref) })
	sqlast.BlockExprs(sel, func(e sqlast.Expr) {
	refs:
		for _, cr := range sqlast.ColumnRefsOf(e) {
			for s := f; s != nil; s = s.parent {
				if _, n := resolveIn(s.bindings, strings.ToLower(cr.Table), strings.ToLower(cr.Name)); n > 0 {
					continue refs
				}
			}
			ref(cr)
		}
		for _, sub := range sqlast.SubqueriesOf(e) {
			known = outerRefs(sub, cat, f, ref) && known
		}
	})
	return known
}

// chainReads is what a plan-owned block's FROM chain carries (DESIGN.md
// ADR-044), by column name: ids numbers the names the block reads, above
// holds those every clause but WHERE reads, conj[i] those WHERE conjunct i
// reads, each with its subqueries' outer references. A star or a 65th name
// keeps every column: readsOf returns nil.
type chainReads struct {
	ids   map[string]uint
	above uint64
	conj  []uint64
}

func readsOf(sel *sqlast.Select, cat *catalog, conjs []sqlast.Expr) *chainReads {
	r := &chainReads{ids: make(map[string]uint), conj: make([]uint64, len(conjs))}
	all := slices.ContainsFunc(sel.Items, func(it sqlast.SelectItem) bool { return it.Star })
	names := func(e sqlast.Expr, bits *uint64) {
		ref := func(cr *sqlast.ColumnRef) {
			name := strings.ToLower(cr.Name)
			if _, ok := r.ids[name]; !ok {
				r.ids[name] = uint(len(r.ids))
			}
			all = all || r.ids[name] >= 64
			*bits |= 1 << (r.ids[name] & 63)
		}
		for _, cr := range sqlast.ColumnRefsOf(e) {
			ref(cr)
		}
		for _, sub := range sqlast.SubqueriesOf(e) {
			outerRefs(sub, cat, nil, ref)
		}
	}
	sqlast.BlockExprs(sel, func(e sqlast.Expr) {
		if e != sel.Where {
			names(e, &r.above)
		}
	})
	for i, c := range conjs {
		names(c, &r.conj[i])
	}
	if all {
		return nil
	}
	return r
}

// cut is the schema of a chain join's output row (joinRel) narrowed to the
// columns whose names keep holds — of build side r, and of probe side l
// unless a previous join already narrowed it (extends) — and the positions
// kept of each side's rows (nil: all of it, as where r is nil). Of the
// columns a name repeats within a binding, only the last can be read, and kept.
func (r *chainReads) cut(l, rr *relation, keep uint64, extends bool) (out *relation, lcols, rcols []int) {
	if r == nil {
		return joinRel(l, rr), nil, nil
	}
	out = &relation{bindings: make([]*binding, 0, len(l.bindings)+len(rr.bindings))}
	cols, names := make([]int, 0, l.width+rr.width), make([]string, 0, l.width+rr.width)
	side := func(rel *relation) []int {
		start := len(cols)
		for _, b := range rel.bindings {
			from := len(cols)
			for c, lc := range b.lower {
				if id, ok := r.ids[lc]; ok && keep&(1<<id) != 0 && slices.Index(b.lower[c+1:], lc) < 0 {
					cols, names = append(cols, b.off+c), append(names, lc)
				}
			}
			kept := names[from:len(names):len(names)]
			out.bindings = append(out.bindings, &binding{name: b.name, cols: kept, lower: kept, off: out.width + from - start})
		}
		return cols[start:]
	}
	if extends {
		out.bindings, out.width = append(out.bindings, l.bindings...), l.width
	} else {
		lcols = side(l)
		out.width = len(lcols)
	}
	rcols = side(rr)
	out.width += len(rcols)
	return out, lcols, rcols
}

// selectAnalysis returns sel's analysis, serving plan-owned nodes from the
// plan's cache. Nodes the plan has never seen (clones made during
// execution: view bodies, UDF subqueries) are analyzed per use — their
// identity is not stable across executions.
func (ex *exec) selectAnalysis(sel *sqlast.Select) *selAnalysis {
	p := ex.plan
	if _, owned := p.subqIDs[sel]; !owned {
		return analyzeSelect(sel, ex.cat)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if a, ok := p.analysis[sel]; ok {
		return a
	}
	a := analyzeSelect(sel, ex.cat)
	a.owned, a.reads = true, readsOf(sel, ex.cat, a.conjs)
	if p.analysis == nil {
		p.analysis = make(map[*sqlast.Select]*selAnalysis)
	}
	p.analysis[sel] = a
	return a
}

// SharedExprs describes what the plan's operators share (DESIGN.md ADR-023):
// one line per shared subexpression — the operator, how many occurrences read
// the slot, the expression — and per operator whose aggregate calls folded
// into fewer sites, block by block in subquery order. It reports what the
// executions so far analysed; a plan that never ran shares nothing yet. For
// the census tests, which hold a lost sharing to a name.
func (p *Plan) SharedExprs() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	sels := make([]*sqlast.Select, 0, len(p.analysis))
	for sel := range p.analysis {
		sels = append(sels, sel)
	}
	sort.Slice(sels, func(i, j int) bool { return p.subqIDs[sels[i]] < p.subqIDs[sels[j]] })
	var out []string
	for _, sel := range sels {
		if s := p.analysis[sel].shared; s != nil {
			for _, line := range s.describe() {
				out = append(out, "group: "+line)
			}
		}
	}
	return out
}

// bindArgs validates the bind values against the plan's parameter slots and
// returns a private, hint-coerced copy (the exec retains it for the whole
// execution, possibly past the caller's own use of the slice).
func (p *Plan) bindArgs(args []sqltypes.Value) ([]sqltypes.Value, error) {
	if len(args) != p.nParams {
		return nil, fmt.Errorf("engine: statement requires %d bind parameters, got %d", p.nParams, len(args))
	}
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]sqltypes.Value, len(args))
	copy(out, args)
	for i := range out {
		if i >= len(p.paramKinds) {
			break
		}
		kind := p.paramKinds[i]
		if kind == sqltypes.KindNull || out[i].IsNull() || out[i].K == kind {
			continue
		}
		// Hints are advisory: coerce when lossless, otherwise pass the value
		// through unconverted — exactly what the literal-inlined form of the
		// same statement would evaluate (1.5 against an INTEGER slot compares
		// numerically; a malformed date string compares as SQL unknown).
		if cv, err := coerce(out[i], kind); err == nil {
			out[i] = cv
		}
	}
	return out, nil
}

// ---------------------------------------------------------------- build

// buildPlan lowers stmt against cat.
func buildPlan(cat *catalog, stmt sqlast.Statement) *Plan {
	p := &Plan{stmt: stmt, cat: cat}
	switch stmt.(type) {
	case *sqlast.Select, *sqlast.Insert, *sqlast.Update, *sqlast.Delete:
		p.subqIDs = make(map[*sqlast.Select]int32)
		sqlast.WalkBlocks(stmt, func(sel *sqlast.Select) {
			if _, ok := p.subqIDs[sel]; !ok {
				p.subqIDs[sel] = p.nSubq
				p.nSubq++
			}
		}, nil)
		p.arityErr = cat.checkInArity(stmt)
		p.nParams = sqlast.MaxParam(stmt)
		if p.nParams > 0 {
			p.paramKinds = cat.paramKinds(stmt, p.nParams)
		}
	default:
		// DDL and anything else: execute through an ephemeral plan.
	}
	return p
}

// ---------------------------------------------------------------- IN arity

// checkInArity validates every IN-subquery whose output arity is
// derivable from the schema at plan time. The check used to run only on the
// set-build path of evalInSubquery, so a memo hit skipped it; validating here
// makes the error independent of evaluation order, caching and engine mode.
// Shapes whose arity cannot be derived (unresolvable names) keep the runtime
// check in buildInSet as the backstop.
func (cat *catalog) checkInArity(stmt sqlast.Statement) error {
	var err error
	check := func(e sqlast.Expr) {
		sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
			if err != nil {
				return false
			}
			x, isIn := n.(*sqlast.InExpr)
			if !isIn || x.Sub == nil {
				return true
			}
			left := 1
			if row, isRow := x.X.(*sqlast.RowExpr); isRow {
				left = len(row.Exprs)
			}
			if n, known := cat.selectArity(x.Sub, 0); known && n != left {
				err = fmt.Errorf("engine: IN subquery returns %d columns, left side has %d", n, left)
			}
			return err == nil
		})
	}
	sqlast.StmtExprs(stmt, check)
	sqlast.WalkBlocks(stmt, func(b *sqlast.Select) { sqlast.BlockExprs(b, check) }, nil)
	return err
}

// selectArity derives the output column count of sel against the
// catalog; known=false when any name fails to resolve (runtime will
// raise its own error, or the shape is star-free and trivially countable).
func (cat *catalog) selectArity(sel *sqlast.Select, depth int) (n int, known bool) {
	if depth > 24 {
		return 0, false
	}
	type bnd struct {
		name  string
		width int
	}
	var bnds []bnd
	var add func(te sqlast.TableExpr) bool
	add = func(te sqlast.TableExpr) bool {
		switch t := te.(type) {
		case *sqlast.TableName:
			lower := strings.ToLower(t.Name)
			if view, isView := cat.views[lower]; isView {
				w, wok := cat.selectArity(view, depth+1)
				if !wok {
					return false
				}
				bnds = append(bnds, bnd{strings.ToLower(t.Binding()), w})
				return true
			}
			if tab := cat.tables[lower]; tab != nil {
				bnds = append(bnds, bnd{strings.ToLower(t.Binding()), len(tab.Cols)})
				return true
			}
			return false
		case *sqlast.DerivedTable:
			w, wok := cat.selectArity(t.Sub, depth+1)
			if !wok {
				return false
			}
			bnds = append(bnds, bnd{strings.ToLower(t.Alias), w})
			return true
		case *sqlast.JoinExpr:
			return add(t.L) && add(t.R)
		}
		return false
	}
	for _, te := range sel.From {
		if !add(te) {
			return 0, false
		}
	}
	for _, it := range sel.Items {
		switch {
		case it.Star && it.StarTable == "":
			if len(bnds) == 0 {
				return 0, false
			}
			for _, b := range bnds {
				n += b.width
			}
		case it.Star:
			found := false
			for _, b := range bnds {
				if b.name == strings.ToLower(it.StarTable) {
					n += b.width
					found = true
				}
			}
			if !found {
				return 0, false
			}
		default:
			n++
		}
	}
	return n, true
}

// ---------------------------------------------------------------- param hints

// paramKinds derives a type hint per bind-parameter slot from the
// contexts the slot appears in against the catalog: direct
// comparisons with base-table columns, BETWEEN bounds, IN lists, LIKE
// patterns and DML assignment targets. Slots used against columns of
// different kinds get no hint (KindNull) and bind values pass through
// unconverted, exactly like pre-hint behaviour.
func (cat *catalog) paramKinds(stmt sqlast.Statement, n int) []sqltypes.Kind {
	kinds := make([]sqltypes.Kind, n)
	conflict := make([]bool, n)
	hint := func(pn int, k sqltypes.Kind) {
		if pn < 1 || pn > n || k == sqltypes.KindNull || conflict[pn-1] {
			return
		}
		switch kinds[pn-1] {
		case sqltypes.KindNull:
			kinds[pn-1] = k
		case k:
		default:
			conflict[pn-1] = true
			kinds[pn-1] = sqltypes.KindNull
		}
	}

	// hintExprs pattern-matches one query level's expressions against a
	// column-kind resolver (nil kind = unresolvable).
	hintExprs := func(e sqlast.Expr, kindOf func(cr *sqlast.ColumnRef) sqltypes.Kind) {
		sqlast.WalkExpr(e, func(node sqlast.Expr) bool {
			switch x := node.(type) {
			case *sqlast.BinaryExpr:
				if !comparisonPlanOps[x.Op] {
					return true
				}
				if p, ok := x.L.(*sqlast.Param); ok {
					if cr, ok := x.R.(*sqlast.ColumnRef); ok {
						hint(p.N, kindOf(cr))
					}
				}
				if p, ok := x.R.(*sqlast.Param); ok {
					if cr, ok := x.L.(*sqlast.ColumnRef); ok {
						hint(p.N, kindOf(cr))
					}
				}
			case *sqlast.BetweenExpr:
				if cr, ok := x.X.(*sqlast.ColumnRef); ok {
					k := kindOf(cr)
					if p, ok := x.Lo.(*sqlast.Param); ok {
						hint(p.N, k)
					}
					if p, ok := x.Hi.(*sqlast.Param); ok {
						hint(p.N, k)
					}
				}
			case *sqlast.InExpr:
				if cr, ok := x.X.(*sqlast.ColumnRef); ok && x.Sub == nil {
					k := kindOf(cr)
					for _, item := range x.List {
						if p, ok := item.(*sqlast.Param); ok {
							hint(p.N, k)
						}
					}
				}
			case *sqlast.LikeExpr:
				if p, ok := x.Pattern.(*sqlast.Param); ok {
					hint(p.N, sqltypes.KindString)
				}
				if p, ok := x.X.(*sqlast.Param); ok {
					hint(p.N, sqltypes.KindString)
				}
			}
			return true
		})
	}

	sqlast.WalkBlocks(stmt, func(sel *sqlast.Select) {
		kindOf := cat.colKindResolver(sel)
		sqlast.BlockExprs(sel, func(e sqlast.Expr) { hintExprs(e, kindOf) })
	}, nil)

	// A DML statement's own slots evaluate against its target table's layout;
	// an assignment's or a VALUES row's bare parameter takes its column's kind.
	target, _ := sqlast.Target(stmt)
	t := cat.table(target)
	if t == nil {
		return kinds
	}
	colKind := func(name string) sqltypes.Kind {
		if i := t.ColIndex(name); i >= 0 {
			return t.Cols[i].Type
		}
		return sqltypes.KindNull
	}
	switch st := stmt.(type) {
	case *sqlast.Update:
		for _, a := range st.Sets {
			if p, ok := a.Expr.(*sqlast.Param); ok {
				hint(p.N, colKind(a.Column))
			}
		}
	case *sqlast.Insert:
		cols := st.Columns
		if len(cols) == 0 {
			cols = t.names
		}
		for _, row := range st.Rows {
			for i, e := range row {
				if p, ok := e.(*sqlast.Param); ok && i < len(cols) {
					hint(p.N, colKind(cols[i]))
				}
			}
		}
	}
	kindOf := func(cr *sqlast.ColumnRef) sqltypes.Kind {
		if cr.Table != "" && !strings.EqualFold(cr.Table, t.Name) {
			return sqltypes.KindNull
		}
		return colKind(cr.Name)
	}
	sqlast.StmtExprs(stmt, func(e sqlast.Expr) { hintExprs(e, kindOf) })
	return kinds
}

var comparisonPlanOps = map[string]bool{
	"=": true, "<>": true, "<": true, "<=": true, ">": true, ">=": true,
}

// colKindResolver builds a column-kind resolver for one query level:
// base tables in FROM contribute their columns under the binding name and,
// when unambiguous across the level, unqualified. Views and derived tables
// contribute nothing (no hint is always safe).
func (cat *catalog) colKindResolver(sel *sqlast.Select) func(cr *sqlast.ColumnRef) sqltypes.Kind {
	type colKey struct{ binding, col string }
	qualified := make(map[colKey]sqltypes.Kind)
	unqualified := make(map[string]sqltypes.Kind)
	ambiguous := make(map[string]bool)
	var addTE func(te sqlast.TableExpr)
	addTE = func(te sqlast.TableExpr) {
		switch t := te.(type) {
		case *sqlast.TableName:
			tab := cat.table(t.Name)
			if tab == nil {
				return
			}
			bname := strings.ToLower(t.Binding())
			for _, c := range tab.Cols {
				cl := strings.ToLower(c.Name)
				qualified[colKey{bname, cl}] = c.Type
				if prev, seen := unqualified[cl]; seen && prev != c.Type {
					ambiguous[cl] = true
				}
				unqualified[cl] = c.Type
			}
		case *sqlast.JoinExpr:
			addTE(t.L)
			addTE(t.R)
		}
	}
	for _, te := range sel.From {
		addTE(te)
	}
	return func(cr *sqlast.ColumnRef) sqltypes.Kind {
		cl := strings.ToLower(cr.Name)
		if cr.Table != "" {
			return qualified[colKey{strings.ToLower(cr.Table), cl}]
		}
		if ambiguous[cl] {
			return sqltypes.KindNull
		}
		return unqualified[cl]
	}
}

// ---------------------------------------------------------------- prepare

// PreparePlan parses sql and lowers it (PrepareStatement), for callers that
// hold text. Errors are parse errors or ErrInternal: plan analysis itself
// never fails (validation errors are reported by ExecPlanContext, like their
// runtime counterparts).
func (db *DB) PreparePlan(sql string) (*Plan, error) {
	stmt, err := sqlparse.ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	return db.PrepareStatement(stmt)
}

// PrepareStatement lowers stmt against the current schema and returns the
// plan for its caller to hold and execute any number of times — the middleware
// hands it the statement its rewrite built. It counts one plan-cache miss.
func (db *DB) PrepareStatement(stmt sqlast.Statement) (*Plan, error) {
	p, err := db.lower(db.catalogNow(), stmt)
	if err == nil {
		db.Stats.PlanCacheMisses.Add(1)
	}
	return p, err
}

// lower builds stmt's plan against cat; a panic in the lowering is the
// statement's error. The entries that lower for one execution of their own
// (Exec, QueryWith) call it directly and count nothing.
func (db *DB) lower(cat *catalog, stmt sqlast.Statement) (p *Plan, err error) {
	defer db.Recover(&err)
	return buildPlan(cat, stmt), nil
}

// revalidatePlanLocked is where a plan's validity is decided and its execution
// counted: p is valid while the catalog it was lowered against is the current
// one, or a statement's own (QueryWith). A stale plan — some DDL ran since — is
// re-lowered from its AST for this execution only and counted as an
// invalidation and a miss; its holder keeps p (ADR-027). Every execution of a
// valid plan after its first is a hit.
func (db *DB) revalidatePlanLocked(p *Plan) *Plan {
	switch cat := db.catalogNow(); {
	case p.cat.private:
	case p.cat != cat:
		db.Stats.PlanCacheInvalidations.Add(1)
		db.Stats.PlanCacheMisses.Add(1)
		return buildPlan(cat, p.stmt)
	case p.ran.Swap(true):
		db.Stats.PlanCacheHits.Add(1)
	}
	return p
}

// ExecPlanContext executes a prepared plan with bind-parameter values,
// honouring ctx cancellation at batch boundaries. The plan is revalidated
// first: one lowered before a schema change is transparently re-lowered from
// its AST. A SELECT pins its catalog and table snapshots under db.mu (pinExec)
// and then runs lock-free against those immutable snapshots, so scans, open
// cursors and writers overlap; writes and DDL stay under the lock end to end
// and publish new snapshots before releasing it.
func (db *DB) ExecPlanContext(ctx context.Context, p *Plan, args ...sqltypes.Value) (res *Result, err error) {
	defer db.Recover(&err)
	if sel, ok := p.stmt.(*sqlast.Select); ok {
		ex, err := db.pinExec(ctx, p, args)
		if err != nil {
			return nil, err
		}
		// The statement is over, cleanly or not: any spill file an errored
		// subtree abandoned before its operator Close could run is removed.
		defer ex.releaseSpills()
		return ex.runQuery(sel, rootScope())
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.execPlanLocked(ctx, db.revalidatePlanLocked(p), args)
}

// QueryPlanContext is ExecPlanContext's streaming counterpart: it executes a
// prepared SELECT plan and returns the cursor over its operator tree.
func (db *DB) QueryPlanContext(ctx context.Context, p *Plan, args ...sqltypes.Value) (*Rows, error) {
	if _, ok := p.stmt.(*sqlast.Select); !ok {
		return nil, fmt.Errorf("engine: not a query: %s", p.stmt)
	}
	return db.queryRows(ctx, p, args)
}
