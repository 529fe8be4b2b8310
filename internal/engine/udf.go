package engine

// This file runs SQL UDFs (DESIGN.md ADR-037). The paper's residual cost
// after O1–O4 is per-row conversion-function calls, and a conversion
// function's body is one scalar expression over a meta-table row selected by
// the tenant key. Planned once per statement plan, with the selected relation
// cached per key, a batch of calls costs a probe per distinct key and one run
// of the body's batch program. Results are cached only where the engine mode
// says PostgreSQL would (udfResults).

import (
	"encoding/binary"
	"fmt"
	"math"
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
// cached per distinct tuple of those parameters, laid out as bindings; the
// projection is lowered once per execution against them. Like a prepared
// plan, this accelerates ModeSystemC too without caching *results*,
// preserving the paper's cached-vs-uncached distinction (Tables 3–5 vs 7–9).
//
// udfPlans live on the statement Plan and survive across executions and
// writes: the lowering depends on the schema only, like the plan. The relations
// do depend on the data, so they belong to the snapshots they were read from
// (DESIGN.md ADR-024): memo holds the relations of one set of pinned
// tableData of tabs, the body's FROM tables, and an execution whose own pins
// of tabs differ starts a fresh one in its place (exec.udf). An open cursor
// therefore keeps converting at the rates of its snapshot while a statement
// started after a write to the meta tables sees the new ones, through the same
// plan. mu guards memo, every memo's entries map and spare: concurrent
// executions (and parallel workers within one) share the plan, and whichever
// of those with equal pins builds an entry first builds the same relation
// every other would.
type udfPlan struct {
	ok          bool
	body        *sqlast.Select
	proj        sqlast.Expr
	whereParams []int      // 1-based parameter indices the WHERE references
	tabs        []*Table   // the body's FROM tables in the plan's catalog
	bindings    []*binding // tabs' columns in FROM order: every entry's row layout

	// callsUDF: the projection calls a SQL function, whose calls consult the
	// result cache, so the calls of a batch run one at a time in row order
	// (udfCall.call) to keep the cache's counts those of that order.
	callsUDF bool

	mu    sync.Mutex
	memo  *udfMemo
	spare []*udfResults // result caches its ended executions emptied (putResults)
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
// WHERE-referenced arguments, in the plan's layout (udfPlan.bindings). It is
// immutable once inserted.
type udfPlanEntry struct {
	rows [][]sqltypes.Value
}

// planUDF analyses fn's body once per *plan* and returns its lowering, so a
// held plan pays the analysis once across all of its executions. An
// interpreting execution gets the empty lowering and never touches the memo,
// so one Plan serves every execution configuration.
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
// name, a name given twice) and a WHERE that reads further tables through a
// subquery or another UDF leave it to the general path.
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
	width := 0
	for _, te := range body.From {
		name, isName := te.(*sqlast.TableName)
		if !isName {
			return &udfPlan{}
		}
		key := strings.ToLower(name.Name)
		tab := cat.tables[key]
		if tab == nil || cat.views[key] != nil {
			return &udfPlan{}
		}
		b := tab.bind(name.Binding())
		if slices.ContainsFunc(plan.bindings, func(o *binding) bool { return o.name == b.name }) {
			return &udfPlan{}
		}
		b.off, width = width, width+len(b.cols)
		plan.tabs, plan.bindings = append(plan.tabs, tab), append(plan.bindings, b)
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
	sqlast.WalkExpr(it.Expr, func(n sqlast.Expr) bool {
		if x, ok := n.(*sqlast.FuncCall); ok && !isScalarBuiltin(strings.ToUpper(x.Name)) {
			plan.callsUDF = true
		}
		return !plan.callsUDF
	})
	return plan
}

// inLayout returns rel's rows in the plan's layout. A join lays its sources
// out in join order, and a cross product takes the smaller side first, so the
// order can differ from one tuple of WHERE arguments to the next; the one
// program lowered against bindings reads every entry.
func (p *udfPlan) inLayout(rel *relation) [][]sqltypes.Value {
	same := len(rel.bindings) == len(p.bindings)
	for i := 0; same && i < len(p.bindings); i++ {
		same = rel.bindings[i].name == p.bindings[i].name && rel.bindings[i].off == p.bindings[i].off
	}
	if same || len(rel.rows) == 0 {
		return rel.rows
	}
	width := 0
	from := make([]int, len(p.bindings))
	for i, b := range p.bindings {
		width += len(b.cols)
		for _, rb := range rel.bindings {
			if rb.name == b.name {
				from[i] = rb.off
			}
		}
	}
	rows := make([][]sqltypes.Value, len(rel.rows))
	for r, row := range rel.rows {
		out := make([]sqltypes.Value, width)
		for i, b := range p.bindings {
			copy(out[b.off:b.off+len(b.cols)], row[from[i]:])
		}
		rows[r] = out
	}
	return rows
}

// udfCall is one execution's (and parallel worker's) handle on a SQL
// function, made when a call to it is first lowered or interpreted (exec.udf):
// its result cache, and for a planned body the relation memo of this
// execution's snapshots, the entries already looked up there — parallel
// workers would otherwise serialize on udfPlan.mu for every call — and the
// projection program, lowered once against the plan's layout. The program
// reads $n from args and runs its lifted subtrees in sc, whose row and
// parameter frame liftInterp sets per batch row.
type udfCall struct {
	ex    *exec
	fn    *Function
	plan  *udfPlan
	cache *udfResults // nil unless ModePostgres caches fn's results

	memo     *udfMemo
	seen     map[string]*udfPlanEntry
	lastKey  []byte // the last WHERE key looked up (appendCallKey), and its entry
	lastSeen *udfPlanEntry

	prog vecExpr
	args udfArgs
	sc   *scope
	idle *Batch             // a batch for the next project; a recursive one allocates its own
	rows [][]sqltypes.Value // batch scratch: the entry row each call of the batch reads
}

// udfArgs is where a running body program reads its arguments: argument j of
// batch row i is vals[j*col + i*row] — column j of a batch of calls (col the
// batch's length, row 1), or one call's list for every row (col 1, row 0).
type udfArgs struct {
	vals     []sqltypes.Value
	col, row int
	argv     []sqltypes.Value // of's gathered row; its length is the arity
}

// of returns batch row i's arguments as a list: a frame for the interpreter,
// a key for the caches. A gathered list lasts until the next gather. It is
// never nil, so a call without arguments still opens a frame: $n in its body
// is out of range, never the caller's client bind.
func (a *udfArgs) of(i int32) []sqltypes.Value {
	if a.row == 0 {
		return a.vals
	}
	for j := range a.argv {
		a.argv[j] = a.vals[j*a.col+int(i)]
	}
	return a.argv
}

// noArgs is the argument list of a call without arguments.
var noArgs = []sqltypes.Value{}

// udf returns this execution's handle on fn, making it on first use: the
// plan is resolved (planUDF), the memo of this execution's pins chosen — the
// plan's own when it was read from the same table snapshots, else a fresh one,
// which takes its place — and the projection lowered. The handle is
// registered before its program is lowered, so a recursive body's call site
// finds it.
func (ex *exec) udf(fn *Function) *udfCall {
	if c := ex.udfCalls[fn]; c != nil {
		return c
	}
	c := &udfCall{ex: ex, fn: fn, plan: ex.planUDF(fn)}
	if fn.Immutable && ex.db.mode == ModePostgres {
		c.cache = c.plan.takeResults()
	}
	if ex.udfCalls == nil {
		ex.udfCalls = make(map[*Function]*udfCall)
	}
	ex.udfCalls[fn] = c
	plan := c.plan
	if !plan.ok {
		return c
	}
	pins := make([]*tableData, len(plan.tabs))
	for i, t := range plan.tabs {
		pins[i] = ex.snap.pin(t)
	}
	plan.mu.Lock()
	if plan.memo == nil || !slices.Equal(plan.memo.pins, pins) {
		plan.memo = &udfMemo{pins: pins, entries: make(map[string]*udfPlanEntry)}
	}
	c.memo = plan.memo
	plan.mu.Unlock()
	c.args = udfArgs{vals: noArgs, col: 1, argv: make([]sqltypes.Value, fn.NumParams)}
	c.sc = &scope{bindings: plan.bindings, params: noArgs, args: &c.args}
	ve := &venv{ex: ex, bindings: plan.bindings, sc: c.sc, vs: ex.vs, args: &c.args}
	c.prog = ve.compile(plan.proj)
	return c
}

// batched reports whether the call kernel answers a whole batch of calls at
// once (udfCall.batch) rather than one call at a time in row order.
func (c *udfCall) batched() bool { return c.plan.ok && !c.plan.callsUDF }

// call answers one call: from the result cache where the mode keeps one, else
// by running the body. Behaviour matches runQuery(body, scope-with-params)
// followed by taking the first row's only column (NULL over an empty result).
// A body may call the function again, and a nested call may add calls to the
// cache, so the call's state is looked up by its number after the body.
func (c *udfCall) call(args []sqltypes.Value) (sqltypes.Value, error) {
	ex, r := c.ex, c.cache
	if r == nil {
		return c.execBody(args)
	}
	id := r.probe(args, &ex.keyBuf)
	if v, ok := r.result(&r.calls[id]); ok {
		ex.db.Stats.UDFCacheHits.Add(1)
		return v, nil
	}
	out, err := c.execBody(args)
	if s := &r.calls[id]; err == nil && s.state < slotWord {
		r.fill(s, out)
	}
	return out, err
}

// execBody runs the body for one call, uncached. args is the body's parameter
// frame while it runs: callers hand over a list nothing else writes until
// the call returns.
func (c *udfCall) execBody(args []sqltypes.Value) (sqltypes.Value, error) {
	ex := c.ex
	ex.db.Stats.UDFCalls.Add(1)
	if ex.depth > 64 {
		return sqltypes.Null, c.tooDeep()
	}
	if args == nil {
		args = noArgs
	}
	ex.depth++
	var out sqltypes.Value
	var err error
	if c.plan.ok {
		var e *udfPlanEntry
		if e, err = c.entry(args); err == nil {
			out, err = c.project(e, args)
		}
	} else {
		sc := rootScope()
		sc.params = args
		var res *Result
		if res, err = ex.runQuery(c.fn.Body, sc); err == nil && len(res.Rows) > 0 {
			out = res.Rows[0][0]
		}
	}
	ex.depth--
	if err != nil {
		return sqltypes.Null, c.failed(err)
	}
	return out, nil
}

func (c *udfCall) tooDeep() error {
	return fmt.Errorf("engine: UDF recursion too deep in %s", c.fn.Name)
}

func (c *udfCall) failed(err error) error {
	return fmt.Errorf("engine: in function %s: %w", c.fn.Name, err)
}

// batch answers the calls of the live rows of b, whose arguments are the
// columns of cols (argument j of row i at cols[j*len(b.rows)+i]), into out,
// and poisons exactly the rows whose call fails. The values and counts are
// those of answering the calls one at a time in row order.
//
// Without a result cache every call runs the body (run). With one, each call
// probes it once: a key with a result answers the call, a hit; a vacant key
// becomes pending, owned by the call, which joins the ones the body runs for;
// a pending key is an earlier row's, and the call waits for it. After the
// body has run, the pending calls are settled in row order: an owner counts a
// call and fills its key's result, or on failure leaves it vacant; a waiting
// call whose owner filled it counts a hit and answers that result (an equal
// key need not be equal arguments: ±0); one whose owner failed owns the key
// in the next round, as its call would run the body again.
func (c *udfCall) batch(b *Batch, live []int32, cols, out []sqltypes.Value) {
	ex := c.ex
	c.args.vals, c.args.col, c.args.row = cols, len(b.rows), 1
	stats := &ex.db.Stats
	r := c.cache
	if r == nil {
		c.run(b, live, out)
		stats.UDFCalls.Add(int64(len(live)))
		return
	}
	st := ex.vs
	m := st.mark()
	hits, calls := 0, 0
	idOf := st.takeSel(len(b.rows))[:len(b.rows)] // the call number of each row in pend
	owners, pend := st.takeSel(len(live)), live[:0]
	for _, i := range live {
		id := r.probe(c.args.of(i), &ex.keyBuf)
		s := &r.calls[id]
		switch s.state {
		case slotWord, slotSide:
			out[i], _ = r.result(s)
			hits++
			continue
		case slotVacant:
			s.state, s.bits = slotPending, uint64(i)
			owners = append(owners, i)
		}
		idOf[i] = id
		pend = append(pend, i)
	}
	for len(owners) > 0 {
		c.run(b, owners, out)
		owners = owners[:0]
		wait := pend[:0]
		for _, i := range pend {
			s := &r.calls[idOf[i]]
			switch {
			case s.state >= slotWord:
				out[i], _ = r.result(s)
				hits++
			case s.state == slotPending && s.bits == uint64(i):
				calls++
				if b.errs[i] != nil {
					s.state = slotVacant
				} else {
					r.fill(s, out[i])
				}
			case s.state == slotVacant:
				s.state, s.bits = slotPending, uint64(i)
				owners = append(owners, i)
				wait = append(wait, i)
			default:
				wait = append(wait, i)
			}
		}
		pend = wait
	}
	st.release(m)
	stats.UDFCacheHits.Add(int64(hits))
	stats.UDFCalls.Add(int64(calls))
}

// run executes the body for the live rows' calls (see batch), one call level
// deeper. The program runs on b itself, its rows swapped for the entry rows
// of the calls; a body that calls no function does not re-enter its own
// program, so the scratch is the handle's.
func (c *udfCall) run(b *Batch, live []int32, out []sqltypes.Value) {
	ex := c.ex
	if ex.depth > 64 {
		err := c.tooDeep()
		for _, i := range live {
			b.poison(i, err)
		}
		return
	}
	ex.depth++
	st := ex.vs
	m := st.mark()
	one := st.takeSel(len(live))
	if len(c.rows) < len(b.rows) {
		c.rows = make([][]sqltypes.Value, len(b.rows))
	}
	for _, i := range live {
		argv := c.args.of(i)
		e, err := c.entry(argv)
		switch {
		case err != nil:
			b.poison(i, c.failed(err))
		case len(e.rows) == 1:
			c.rows[i] = e.rows[0]
			one = append(one, i)
		case len(e.rows) == 0:
			out[i] = sqltypes.Null
		default:
			if v, err := c.project(e, argv); err != nil {
				b.poison(i, c.failed(err))
			} else {
				out[i] = v
			}
		}
	}
	if len(one) > 0 {
		rows := b.rows
		b.rows = c.rows[:len(rows)]
		c.prog(b, one, out)
		b.rows = rows
		for _, i := range one {
			if err := b.errs[i]; err != nil {
				b.errs[i] = c.failed(err)
			}
		}
	}
	st.release(m)
	ex.depth--
}

// project runs the projection for one call over its relation e in batch-sized
// windows. Like the interpreter it projects every row and returns the first
// row's value, so a later row's error surfaces, first in row order. A
// recursive function re-enters its own projection from inside prog, so what
// one activation owns — the arguments, the row and frame a lifted subtree is
// on, the batch — is taken on entry and put back on exit; the program's
// columns are on the scratch stack already.
func (c *udfCall) project(e *udfPlanEntry, args []sqltypes.Value) (sqltypes.Value, error) {
	vs := c.ex.vs
	b := c.takeBatch()
	saved, savedRow, savedParams := c.args, c.sc.row, c.sc.params
	c.args.vals, c.args.col, c.args.row = args, 1, 0
	out := sqltypes.Null
	var err error
	for src := (scanOp{rows: e.rows}); err == nil && src.next(b); {
		m := vs.mark()
		col := vs.takeVals(len(b.rows))
		c.prog(b, b.sel, col)
		if err = b.firstErr(); err == nil && b.base == 0 {
			out = col[0]
		}
		vs.release(m)
	}
	c.args, c.sc.row, c.sc.params = saved, savedRow, savedParams
	c.idle = b
	return out, err
}

func (c *udfCall) takeBatch() *Batch {
	b := c.idle
	c.idle = nil
	if b == nil {
		b = new(Batch)
	}
	return b
}

// entry returns the relation of the call whose arguments are args: from this
// execution's lookups, else the shared memo, else built and inserted there.
// A call whose WHERE key is the last one's takes its entry without a lookup,
// and the lookup of an entry already seen allocates nothing.
func (c *udfCall) entry(args []sqltypes.Value) (*udfPlanEntry, error) {
	var wbuf [2]sqltypes.Value
	where := wbuf[:0]
	for _, n := range c.plan.whereParams {
		if n >= 1 && n <= len(args) {
			where = append(where, args[n-1])
		}
	}
	ex := c.ex
	ex.keyBuf = appendCallKey(ex.keyBuf[:0], where)
	if c.lastSeen != nil && string(ex.keyBuf) == string(c.lastKey) {
		return c.lastSeen, nil
	}
	c.lastKey, c.lastSeen = append(c.lastKey[:0], ex.keyBuf...), nil
	e := c.seen[string(c.lastKey)]
	if e == nil {
		key := string(c.lastKey)
		plan, shared := c.plan, c.memo
		plan.mu.Lock()
		e = shared.entries[key]
		plan.mu.Unlock()
		if e == nil {
			// Build outside the lock: the relation derives only from the
			// pinned snapshots plus args, so two racing builders produce
			// identical rows and the first insert wins.
			psc := rootScope()
			psc.params = args
			rel, err := ex.fromWhereRelation(plan.body, psc)
			if err != nil {
				return nil, err
			}
			e = &udfPlanEntry{rows: plan.inLayout(rel)}
			plan.mu.Lock()
			if existing := shared.entries[key]; existing != nil {
				e = existing
			} else {
				if len(shared.entries) >= udfPlanEntryCap {
					shared.entries = make(map[string]*udfPlanEntry)
				}
				shared.entries[key] = e
			}
			plan.mu.Unlock()
		}
		if c.seen == nil {
			c.seen = make(map[string]*udfPlanEntry)
		}
		c.seen[key] = e
	}
	c.lastSeen = e
	return e, nil
}

// ---------------------------------------------------------------- result cache

// udfResults is the IMMUTABLE-result cache of one function for one statement
// and worker, mirroring how PostgreSQL caches IMMUTABLE function results "for
// the rest of the query execution" (§4.2.1); ModeSystemC keeps none
// (DESIGN.md ADR-038, ADR-045). A call is numbered by its appendCallKey
// encoding in keys, and calls[id] is that call's state and result: a
// fixed-width result in the entry, any other in side. Only side holds
// pointers, so the collector does not scan the table and a call adds no
// object. A number never moves, and once a key has it, it is that key's for
// the statement: a failed call leaves it vacant. An ended execution empties
// its tables and hands them to its plan's next one (udfPlan.putResults).
type udfResults struct {
	keys  keyTable
	calls []callResult
	side  []sqltypes.Value
}

// callResult is the state of one call of a udfResults and, in state slotWord
// or slotSide, its result.
type callResult struct {
	bits  uint64        // slotWord: the result's bits; slotSide: its index in side; slotPending: the row that owns the call
	kind  sqltypes.Kind // slotWord: the result's kind
	state slotState
}

type slotState uint8

const (
	slotVacant  slotState = iota // a key without a result: just numbered, or its call failed
	slotPending                  // a key whose call runs in the current batch (udfCall.batch)
	slotWord                     // a key and its fixed-width result
	slotSide                     // a key and its result in side
)

// takeResults returns an empty result cache for an execution of the plan: one
// an ended execution handed back, else a new one.
func (p *udfPlan) takeResults() *udfResults {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.spare); n > 0 {
		r := p.spare[n-1]
		p.spare[n-1], p.spare = nil, p.spare[:n-1]
		return r
	}
	return &udfResults{keys: newKeyTable(0)}
}

// putResults empties r, whose execution has ended, and keeps it, room and
// all, for the plan's next execution. The list grows only to the number of
// tables in use at once.
func (p *udfPlan) putResults(r *udfResults) {
	r.keys.reset()
	clear(r.side)
	r.calls, r.side = r.calls[:0], r.side[:0]
	p.mu.Lock()
	p.spare = append(p.spare, r)
	p.mu.Unlock()
}

// probe returns the number of the call whose arguments are args — the one
// probe of both paths: udfCall.batch for a batch, udfCall.call for one call.
// A key the table does not hold is numbered next, vacant. buf is scratch for
// the encoded key.
func (r *udfResults) probe(args []sqltypes.Value, buf *[]byte) int32 {
	*buf = appendCallKey((*buf)[:0], args)
	id, seen := r.keys.id(*buf, true)
	if !seen {
		r.calls = append(r.calls, callResult{})
	}
	return id
}

// result returns the result s holds, if it holds one.
func (r *udfResults) result(s *callResult) (sqltypes.Value, bool) {
	switch s.state {
	case slotWord:
		if s.kind == sqltypes.KindFloat {
			return sqltypes.Value{K: s.kind, F: math.Float64frombits(s.bits)}, true
		}
		return sqltypes.Value{K: s.kind, I: int64(s.bits)}, true
	case slotSide:
		return r.side[s.bits], true
	}
	return sqltypes.Null, false
}

// fill stores v as the result of s's key: in s where v is a fixed-width value
// its kind and bits rebuild exactly, else in side.
func (r *udfResults) fill(s *callResult, v sqltypes.Value) {
	switch v.K {
	case sqltypes.KindNull, sqltypes.KindInt, sqltypes.KindBool, sqltypes.KindDate:
		if math.Float64bits(v.F) == 0 && v.S == "" {
			s.kind, s.bits, s.state = v.K, uint64(v.I), slotWord
			return
		}
	case sqltypes.KindFloat:
		if v.I == 0 && v.S == "" {
			s.kind, s.bits, s.state = v.K, math.Float64bits(v.F), slotWord
			return
		}
	}
	s.bits, s.state = uint64(len(r.side)), slotSide
	r.side = append(r.side, v)
}

// appendCallKey encodes args for the result cache and the relation memo.
// AppendKey is a grouping key — INTEGER 3 and DECIMAL 3.00 encode alike — so
// integers take an encoding of their own, as do intervals, which AppendKey
// does not tell apart.
func appendCallKey(buf []byte, args []sqltypes.Value) []byte {
	for _, a := range args {
		switch a.K {
		case sqltypes.KindInt:
			buf = binary.LittleEndian.AppendUint64(append(buf, 'i'), uint64(a.I))
		case sqltypes.KindInterval:
			buf = binary.LittleEndian.AppendUint64(append(buf, 'v'), uint64(a.I))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.F))
		default:
			buf = sqltypes.AppendKey(buf, a)
		}
	}
	return buf
}
