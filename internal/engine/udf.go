package engine

// This file plans the bodies of SQL UDFs. The paper's residual cost after
// O1–O4 is per-row conversion-function calls, and a conversion function's
// body is one scalar expression over a meta-table row selected by the tenant
// key: planning it once per statement plan, caching the selected relation
// per distinct key and lowering the projection to a batch program (vector.go)
// turns a call into a hash probe plus one kernel invocation instead of a
// full query plan-and-execute. Results are cached one level up, in callUDF
// (eval.go), and only where the engine mode says PostgreSQL would.

import (
	"slices"
	"strings"
	"sync"

	"mtbase/internal/sqlast"
	"mtbase/internal/sqltypes"
)

// udfPlan is a once-per-plan lowering of a simple UDF body — the shape
// the paper's conversion functions take:
//
//	SELECT <scalar expr over columns and $n> FROM <base tables>
//	WHERE <conjuncts over columns and $n, no subqueries>
//
// The FROM/WHERE part depends only on the parameters the WHERE references
// (the tenant key for conversion functions), so its materialized relation is
// cached per distinct tuple of those parameters; the projection is lowered
// once per cached relation and execution. A conversion call then costs one
// hash probe plus one batch-program run instead of a full query
// plan-and-execute, independent of the engine mode — like a prepared plan, it
// accelerates ModeSystemC too without caching *results*, preserving the
// paper's cached-vs-uncached distinction (Tables 3–5 vs 7–9).
//
// udfPlans live on the statement Plan and survive across executions and
// writes: the lowering depends on the schema only, like the plan. The relations
// do depend on the data, so they belong to the snapshots they were read from
// (DESIGN.md ADR-024): memo holds the relations of one set of pinned
// tableData of tabs, the body's FROM tables, and an execution whose own pins
// of tabs differ starts a fresh one in its place (memoFor). An open cursor
// therefore keeps converting at the rates of its snapshot while a statement
// started after a write to the meta tables sees the new ones, through the same
// cached plan. mu guards memo and every memo's entries map: concurrent
// executions (and parallel workers within one) share the plan, and whichever
// of those with equal pins builds an entry first builds the same relation
// every other would.
type udfPlan struct {
	ok          bool
	body        *sqlast.Select
	proj        sqlast.Expr
	whereParams []int    // 1-based parameter indices the WHERE references
	tabs        []*Table // the body's FROM tables in the plan's catalog

	mu   sync.Mutex
	memo *udfMemo
}

// udfMemo is a planned body's FROM/WHERE relations over one set of table
// snapshots: pins[i] is the tableData of tabs[i] they were read from.
type udfMemo struct {
	pins    []*tableData
	entries map[string]*udfPlanEntry
}

// udfPlanEntryCap bounds the relations a udfMemo accumulates: conversion
// functions are keyed by tenant (entries ≤ tenant count), but a body whose
// WHERE references a value parameter would otherwise grow one materialized
// relation per distinct argument for as long as nothing writes its tables. On
// overflow the memo restarts empty; entries rebuild on demand.
const udfPlanEntryCap = 4096

// udfPlanEntry is the body's FROM/WHERE relation for one tuple of
// WHERE-referenced arguments. It is immutable once inserted; the projection
// program lowered against it is per-exec (ex.udfProj), because a program
// captures its exec's scratch and must not cross goroutines.
type udfPlanEntry struct {
	rows     [][]sqltypes.Value
	bindings []*binding
}

// planUDF analyses fn's body once per *plan* and returns its lowering, so a
// cached statement pays the analysis once across all of its executions. An
// interpreting execution gets the empty lowering and never touches the memo,
// so one cached Plan serves every execution configuration.
func (ex *exec) planUDF(fn *Function) *udfPlan {
	if ex.interp {
		return &udfPlan{}
	}
	p := ex.plan
	p.mu.Lock()
	defer p.mu.Unlock()
	if plan, ok := p.udfPlans[fn]; ok {
		return plan
	}
	plan := buildUDFPlan(fn.Body, ex.cat)
	if p.udfPlans == nil {
		p.udfPlans = make(map[*Function]*udfPlan)
	}
	p.udfPlans[fn] = plan
	return plan
}

// buildUDFPlan lowers body against cat, the plan's catalog. A body is planned
// only when its relation is a function of the WHERE parameters and the rows of
// the base tables its FROM names — those are what a memo is pinned to — so a
// FROM item that is anything else (a view, a derived table, a join, a missing
// name) and a WHERE that reads further tables through a subquery or another
// UDF leave it to the general path.
func buildUDFPlan(body *sqlast.Select, cat *catalog) *udfPlan {
	if body.Distinct || len(body.GroupBy) > 0 || body.Having != nil ||
		len(body.OrderBy) > 0 || body.Limit >= 0 || len(body.Items) != 1 {
		return &udfPlan{}
	}
	it := body.Items[0]
	if it.Star || hasAggregate(it.Expr) ||
		len(sqlast.SubqueriesOf(body.Where)) > 0 || len(sqlast.SubqueriesOf(it.Expr)) > 0 {
		return &udfPlan{}
	}
	plan := &udfPlan{ok: true, body: body, proj: it.Expr}
	for _, te := range body.From {
		name, isName := te.(*sqlast.TableName)
		if !isName {
			return &udfPlan{}
		}
		key := strings.ToLower(name.Name)
		if cat.tables[key] == nil || cat.views[key] != nil {
			return &udfPlan{}
		}
		plan.tabs = append(plan.tabs, cat.tables[key])
	}
	seen := map[int]bool{}
	sqlast.WalkExpr(body.Where, func(n sqlast.Expr) bool {
		switch x := n.(type) {
		case *sqlast.Param:
			if !seen[x.N] {
				seen[x.N] = true
				plan.whereParams = append(plan.whereParams, x.N)
			}
		case *sqlast.FuncCall:
			// Anything else is a UDF, and reads what its body reads.
			plan.ok = plan.ok && isScalarBuiltin(strings.ToUpper(x.Name))
		}
		return plan.ok
	})
	return plan
}

// memoFor returns this execution's handle on plan's relation memo: the plan's
// own when it was read from the table snapshots this execution pinned, else a
// fresh one, which takes its place. Decided once per exec and worker; after
// that a call probes its own map and takes no lock.
func (ex *exec) memoFor(plan *udfPlan) *execUDFMemo {
	if m := ex.udfEntries[plan]; m != nil {
		return m
	}
	pins := make([]*tableData, len(plan.tabs))
	for i, t := range plan.tabs {
		pins[i] = ex.snap.pin(t)
	}
	plan.mu.Lock()
	if plan.memo == nil || !slices.Equal(plan.memo.pins, pins) {
		plan.memo = &udfMemo{pins: pins, entries: make(map[string]*udfPlanEntry)}
	}
	m := &execUDFMemo{shared: plan.memo, seen: make(map[string]*udfPlanEntry)}
	plan.mu.Unlock()
	if ex.udfEntries == nil {
		ex.udfEntries = make(map[*udfPlan]*execUDFMemo)
	}
	ex.udfEntries[plan] = m
	return m
}

// execUDFMemo is one execution's (and worker's) handle on a planned body's
// relations: the memo of its snapshots, and the entries it already looked up
// there — parallel workers would otherwise serialize on udfPlan.mu for every
// call. Entries are immutable, so a remembered pointer stays valid even if the
// shared map restarts on overflow.
type execUDFMemo struct {
	shared *udfMemo
	seen   map[string]*udfPlanEntry
}

// run executes one call through the plan. Behaviour matches
// runQuery(body, scope-with-params) followed by taking the first row's only
// column (NULL over an empty result), the contract of callUDF.
func (ex *exec) runPlannedUDF(plan *udfPlan, args []sqltypes.Value) (sqltypes.Value, error) {
	buf := ex.keyBuf[:0]
	for _, n := range plan.whereParams {
		if n >= 1 && n <= len(args) {
			buf = sqltypes.AppendKey(buf, args[n-1])
		} else {
			buf = append(buf, 'x')
		}
	}
	ex.keyBuf = buf

	// The probe on every body execution reads the key out of the scratch
	// buffer and allocates nothing.
	memo := ex.memoFor(plan)
	if entry := memo.seen[string(buf)]; entry != nil {
		return ex.projectPlannedUDF(plan, entry, args)
	}
	key := string(buf) // a miss materializes the key

	shared := memo.shared
	plan.mu.Lock()
	entry := shared.entries[key]
	plan.mu.Unlock()
	if entry == nil {
		// Build outside the lock: the relation derives only from the pinned
		// snapshots plus args, so two racing builders produce identical rows
		// and the first insert wins.
		psc := rootScope()
		psc.params = args
		rel, err := ex.fromWhereRelation(plan.body, psc)
		if err != nil {
			return sqltypes.Null, err
		}
		entry = &udfPlanEntry{rows: rel.rows, bindings: rel.bindings}
		plan.mu.Lock()
		if existing := shared.entries[key]; existing != nil {
			entry = existing
		} else {
			if len(shared.entries) >= udfPlanEntryCap {
				shared.entries = make(map[string]*udfPlanEntry)
			}
			shared.entries[key] = entry
		}
		plan.mu.Unlock()
	}
	memo.seen[key] = entry
	return ex.projectPlannedUDF(plan, entry, args)
}

// udfProjection is one execution's lowering of a planned body's projection
// over one entry: the batch program and the scope its lifted subtrees are
// interpreted in — the entry's bindings under the argument frame (sc.parent)
// the program's $n kernels read.
type udfProjection struct {
	prog vecExpr
	sc   *scope
}

// projectPlannedUDF evaluates the body projection over an entry's cached
// relation — the per-call tail of runPlannedUDF once the relation is known.
// Like the interpreter it projects every row and returns the first row's
// value, so a later row's error surfaces, first in row order.
func (ex *exec) projectPlannedUDF(plan *udfPlan, entry *udfPlanEntry, args []sqltypes.Value) (sqltypes.Value, error) {
	p := ex.udfProj[entry]
	if p == nil {
		frame := rootScope()
		sc := &scope{parent: frame, bindings: entry.bindings}
		ve := &venv{ex: ex, bindings: entry.bindings, sc: sc, vs: ex.vs, frame: frame}
		p = &udfProjection{prog: ve.compile(plan.proj), sc: sc}
		if ex.udfProj == nil {
			ex.udfProj = make(map[*udfPlanEntry]*udfProjection)
		}
		ex.udfProj[entry] = p
	}

	// A recursive function re-enters its own projection from inside prog, so
	// what one activation owns — the frame's arguments, the row a lifted
	// subtree is on, the batch — is taken on entry and put back on exit; the
	// program's columns are on the scratch stack already.
	frame := p.sc.parent
	savedParams, savedRow := frame.params, p.sc.row
	frame.params = args
	var b *Batch
	if n := len(ex.projBatches); n > 0 {
		b, ex.projBatches = ex.projBatches[n-1], ex.projBatches[:n-1]
	} else {
		b = new(Batch)
	}
	out := sqltypes.Null
	var err error
	for src := (scanOp{rows: entry.rows}); err == nil && src.next(b); {
		m := ex.vs.mark()
		col := ex.vs.takeVals(len(b.rows))
		p.prog(b, b.sel, col)
		if err = b.firstErr(); err == nil && b.base == 0 {
			out = col[0]
		}
		ex.vs.release(m)
	}
	ex.projBatches = append(ex.projBatches, b)
	frame.params, p.sc.row = savedParams, savedRow
	if err != nil {
		return sqltypes.Null, err
	}
	return out, nil
}
