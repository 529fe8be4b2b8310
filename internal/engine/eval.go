package engine

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"unicode/utf8"

	"mtbase/internal/sqlast"
	"mtbase/internal/sqltypes"
)

// exec carries per-statement execution state: the UDF result cache
// (ModePostgres) lives exactly as long as one statement, mirroring how
// PostgreSQL caches IMMUTABLE function results "for the rest of the query
// execution" (§4.2.1). The immutable side of the statement — the AST,
// subquery IDs, UDF body lowerings — lives in the Plan (plan.go), which the
// exec only reads, so one plan serves any number of executions.
type exec struct {
	db       *DB
	plan     *Plan
	udfCache map[string]sqltypes.Value // statement-wide UDF result memo (per worker)
	keyBuf   []byte                    // scratch for UDF cache keys; reused across calls
	depth    int                       // subquery/UDF nesting guard

	// cat is the schema snapshot captured at exec creation: every name
	// resolution during execution — tables, views, UDFs, compiled call
	// sites — goes through it, so a statement sees one consistent catalog
	// even while DDL swaps the DB's current one.
	cat *catalog

	// snap pins the heap snapshot of every table in cat at exec creation
	// (under DB.mu, so the pin set is a transactionally consistent cut).
	// All heap and index reads during execution route through it; the
	// statement therefore observes frozen data while writers publish new
	// snapshots concurrently. Worker clones share the same set.
	snap *snapshotSet

	// par is the degree of intra-query parallelism this execution may use
	// (1 = serial). Worker clones and nested executions run serial.
	par int

	// interp and reference are the statement's execution configuration
	// (DESIGN.md ADR-010), pinned at exec creation under DB.mu like the
	// snapshot. interp turns the expression seam (vecCompile, planUDF)
	// to the tree-walking interpreter; reference additionally runs
	// queries on the serial materializing executor of exec.go, and implies
	// interp. Production is both false.
	interp, reference bool

	// udfProj holds this execution's lowered projections of planned UDF
	// bodies (udf.go): entries (rows + bindings) are shared across
	// executions on the plan, but a batch program captures its exec and the
	// argument frame it reads $n from, which are execution state — so each
	// exec lowers its own. udfEntries holds, per planned body, the relation
	// memo of this execution's snapshots (memoFor) and the entries already
	// looked up there, so hot call paths take no lock after the first probe of
	// a key. projBatches are the idle batches projections run on, one in use
	// per level of UDF recursion.
	udfProj     map[*udfPlanEntry]*udfProjection
	udfEntries  map[*udfPlan]*execUDFMemo
	projBatches []*Batch

	// pool holds this statement's parallel workers; it persists across
	// parallel sections so worker caches (compiled projections, scratch
	// stacks) warm up once per statement, not once per operator.
	pool *workerPool

	// subqCache memoizes results of subqueries that did not touch any
	// enclosing scope during execution (uncorrelated subqueries) — the
	// engine's equivalent of PostgreSQL's InitPlan, evaluated once per
	// statement. inSetCache additionally hashes IN-subquery results. Both
	// are keyed by plan-stable subquery IDs, not node pointers: the AST is
	// shared by every execution of a plan, so pointer keys would tie
	// the memo's identity to object identity the exec does not own.
	subqCache  map[int32]*Result
	inSetCache map[int32]*inSet

	// dynSubqIDs assigns IDs (above the plan's range) to subquery nodes the
	// plan has never seen: clones made during execution (view bodies, alias
	// substitution) and subqueries inside UDF bodies.
	dynSubqIDs map[*sqlast.Select]int32
	nextDynID  int32

	// vs is the statement-wide scratch stack batch evaluation allocates its
	// intermediate columns and selection buffers from (see vector.go). A
	// statement takes a warm one from the last that ended and hands it back at
	// its end (releaseSpills); a worker's is its own.
	vs *vecStack

	// binds holds the client bind-parameter values of this execution; a
	// statement-level $n / ? resolves here after the scope walk finds no UDF
	// parameter frame. One plan serves every binding because binds
	// live on the exec, never on the plan.
	binds []sqltypes.Value

	// ctx carries the caller's cancellation; batch loops poll it at batch
	// boundaries (exec.cancelled). nil means non-cancellable.
	ctx context.Context

	// acct is the statement's memory accountant (nil = unlimited); worker
	// clones share it, so parallel charges fold into one budget. spills
	// tracks every live overflow file for cleanup at Rows.Close/statement
	// end (see spill.go); it is shared with worker clones too.
	acct   *memAccountant
	spills *spillRegistry
}

// bind resolves statement-level parameter $n against this execution's bind
// values. With no binds at all the old pre-bind error is preserved: the
// statement-level $n of a non-parameterized execution is the "outside
// function body" shape UDF-only parameters used to raise.
func (ex *exec) bind(n int) (sqltypes.Value, error) {
	if ex.binds == nil {
		return sqltypes.Null, fmt.Errorf("engine: parameter $%d outside function body", n)
	}
	return paramAt(ex.binds, n)
}

// paramAt returns $n of a parameter list: a UDF argument frame or the
// client binds.
func paramAt(ps []sqltypes.Value, n int) (sqltypes.Value, error) {
	if n < 1 || n > len(ps) {
		return sqltypes.Null, fmt.Errorf("engine: parameter $%d out of range", n)
	}
	return ps[n-1], nil
}

// cancelled reports the context's error once the caller's context is done.
// It is polled at batch boundaries (1024 rows), never per row.
func (ex *exec) cancelled() error {
	if ex.ctx == nil {
		return nil
	}
	return ex.ctx.Err()
}

// scopeHasParams reports whether any scope on the chain carries a UDF
// parameter frame. Compilation uses it to decide whether a $n may be lowered
// to a client-bind lookup: inside a UDF body frame it must keep resolving to
// the function argument instead.
func scopeHasParams(sc *scope) bool {
	for s := sc; s != nil; s = s.parent {
		if s.params != nil {
			return true
		}
	}
	return false
}

// inSet is a hashed IN-subquery result.
type inSet struct {
	m       map[string]bool
	sawNull bool
}

func (db *DB) newExec(p *Plan) *exec {
	cat := p.cat
	ex := &exec{
		db:         db,
		plan:       p,
		cat:        cat,
		snap:       newSnapshotSet(cat),
		par:        db.parallelism(),
		interp:     db.noCompile || db.streamOff,
		reference:  db.streamOff,
		udfCache:   make(map[string]sqltypes.Value),
		subqCache:  make(map[int32]*Result),
		inSetCache: make(map[int32]*inSet),
		nextDynID:  p.nSubq,
		vs:         vecStacks.Get().(*vecStack),
	}
	if ex.reference {
		ex.par = 1
	}
	if db.memLimit > 0 {
		ex.acct = &memAccountant{limit: db.memLimit, db: db}
		ex.spills = &spillRegistry{}
	}
	return ex
}

// snapshotSet is the set of heap snapshots one statement reads: every table
// of the exec's catalog, pinned at exec creation under DB.mu. The map is
// immutable after construction, so workers share it without locking.
type snapshotSet struct {
	m map[*Table]*tableData
}

func newSnapshotSet(cat *catalog) *snapshotSet {
	m := make(map[*Table]*tableData, len(cat.tables))
	for _, t := range cat.tables {
		m[t] = t.data.Load()
	}
	return &snapshotSet{m: m}
}

// pin returns the statement's snapshot of t. Tables outside the pinned
// catalog (created after the exec, or detached) fall back to their current
// snapshot — still immutable, just not part of the statement's cut.
func (s *snapshotSet) pin(t *Table) *tableData {
	if d, ok := s.m[t]; ok {
		return d
	}
	return t.data.Load()
}

// heap returns the statement-pinned row snapshot of t.
func (ex *exec) heap(t *Table) [][]sqltypes.Value { return ex.snap.pin(t).rows }

// tableIndex returns a hash index built over the statement-pinned snapshot
// of t — heap and index always describe the same frozen rows.
func (ex *exec) tableIndex(t *Table, cols []string) (*hashIndex, error) {
	return ex.snap.pin(t).index(t, cols)
}

// function resolves a UDF in the exec's pinned catalog.
func (ex *exec) function(name string) *Function { return ex.cat.function(name) }

// workerClone builds a per-worker execution state for parallel operators:
// it shares the immutable statement context (plan, binds, catalog, pinned
// snapshots, cancellation) and owns everything mutable — caches, scratch
// stack, key buffers. Workers run serial (par = 1) so parallel sections
// never nest.
func (ex *exec) workerClone() *exec {
	return &exec{
		db:         ex.db,
		plan:       ex.plan,
		cat:        ex.cat,
		snap:       ex.snap,
		par:        1,
		interp:     ex.interp,
		depth:      ex.depth,
		binds:      ex.binds,
		ctx:        ex.ctx,
		acct:       ex.acct,
		spills:     ex.spills,
		udfCache:   make(map[string]sqltypes.Value),
		subqCache:  make(map[int32]*Result),
		inSetCache: make(map[int32]*inSet),
		nextDynID:  ex.plan.nSubq,
		vs:         new(vecStack),
	}
}

// subqID resolves a subquery node to its memoization key: the plan-stable ID
// when the node belongs to the plan's AST, a per-execution ID otherwise.
func (ex *exec) subqID(sub *sqlast.Select) int32 {
	if id, ok := ex.plan.subqIDs[sub]; ok {
		return id
	}
	if id, ok := ex.dynSubqIDs[sub]; ok {
		return id
	}
	if ex.dynSubqIDs == nil {
		ex.dynSubqIDs = make(map[*sqlast.Select]int32)
	}
	id := ex.nextDynID
	ex.nextDynID++
	ex.dynSubqIDs[sub] = id
	return id
}

// binding is one named tuple slot (table alias) inside a scope. Columns of
// all bindings of a scope are concatenated in the scope's current row.
type binding struct {
	name   string // lower-case alias or table name
	cols   []string
	colIdx map[string]int // lower-case column name -> position within binding
	off    int            // offset of this binding within the scope row
}

func newBinding(name string, cols []string) *binding {
	b := &binding{name: strings.ToLower(name), cols: cols, colIdx: make(map[string]int, len(cols))}
	for i, c := range cols {
		b.colIdx[strings.ToLower(c)] = i
	}
	return b
}

// scope is one level of name resolution; parent links implement correlated
// subqueries and UDF parameter frames.
type scope struct {
	parent   *scope
	bindings []*binding
	row      []sqltypes.Value
	params   []sqltypes.Value // UDF arguments, addressed by $n
	group    *groupCtx        // non-nil while evaluating grouped output

	// crossed marks a subquery boundary: any name resolution that walks
	// past this scope into its ancestors flips the flag, telling the
	// caller the subquery is correlated and must not be cached.
	crossed *bool
}

// groupCtx is the group a grouped projection is being evaluated for. The
// reference executor hands evalAggregate the group's rows, to fold on
// demand; the operator tree folded them as they arrived (groupOperator):
// accs[siteOf[i]] is the group's accumulator of aggregate call calls[i], and
// what latched in it is raised only if the call is evaluated — which is how
// HAVING and CASE short-circuit in both executors.
type groupCtx struct {
	rows   [][]sqltypes.Value
	calls  []*sqlast.FuncCall
	siteOf []int32
	accs   []aggAcc
}

func rootScope() *scope { return &scope{} }

// lookup resolves a (qualifier, column) pair against the scope chain,
// marking every subquery boundary the resolution walks past.
func (sc *scope) lookup(table, col string) (*scope, int, error) {
	tl, cl := strings.ToLower(table), strings.ToLower(col)
	var crossed []*bool
	for s := sc; s != nil; s = s.parent {
		found := -1
		for _, b := range s.bindings {
			if tl != "" && b.name != tl {
				continue
			}
			if i, ok := b.colIdx[cl]; ok {
				if found >= 0 {
					return nil, 0, fmt.Errorf("engine: ambiguous column %s", col)
				}
				found = b.off + i
			}
		}
		if found >= 0 {
			for _, f := range crossed {
				*f = true
			}
			return s, found, nil
		}
		if s.crossed != nil {
			crossed = append(crossed, s.crossed)
		}
	}
	if table != "" {
		return nil, 0, fmt.Errorf("engine: unknown column %s.%s", table, col)
	}
	return nil, 0, fmt.Errorf("engine: unknown column %s", col)
}

// ---------------------------------------------------------------- eval

// strictBuiltins are the one-argument scalar builtins that return NULL for
// a NULL argument: pure functions of one non-NULL value, shared by both
// evaluators like sqltypes.Add. Evaluating the argument, the NULL rule and
// the arity error stay with each evaluator.
var strictBuiltins = map[string]func(sqltypes.Value) sqltypes.Value{
	"CHAR_LENGTH": func(v sqltypes.Value) sqltypes.Value { return sqltypes.NewInt(int64(len(v.AsString()))) },
	"ABS": func(v sqltypes.Value) sqltypes.Value {
		if v.K == sqltypes.KindInt {
			if v.I < 0 {
				return sqltypes.NewInt(-v.I)
			}
			return v
		}
		return sqltypes.NewFloat(math.Abs(v.AsFloat()))
	},
	"CAST_INTEGER": castInt, "CAST_INT": castInt, "CAST_BIGINT": castInt,
	"CAST_DECIMAL": castFloat, "CAST_NUMERIC": castFloat,
	"CAST_VARCHAR": castString, "CAST_CHAR": castString, "CAST_TEXT": castString,
}

func castInt(v sqltypes.Value) sqltypes.Value    { return sqltypes.NewInt(v.AsInt()) }
func castFloat(v sqltypes.Value) sqltypes.Value  { return sqltypes.NewFloat(v.AsFloat()) }
func castString(v sqltypes.Value) sqltypes.Value { return sqltypes.NewString(v.AsString()) }

// isScalarBuiltin reports whether upper names a scalar builtin: the table
// above plus the three calls with an argument rule of their own. The shared
// subexpression analysis (shared.go) treats every other non-aggregate call as
// a UDF reference.
func isScalarBuiltin(upper string) bool {
	switch upper {
	case "CONCAT", "COALESCE", "ROUND":
		return true
	}
	return strictBuiltins[upper] != nil
}

func (ex *exec) eval(e sqlast.Expr, sc *scope) (sqltypes.Value, error) {
	switch x := e.(type) {
	case *sqlast.Literal:
		return x.Val, nil
	case *sqlast.ColumnRef:
		s, idx, err := sc.lookup(x.Table, x.Name)
		if err != nil {
			return sqltypes.Null, err
		}
		if s.row == nil {
			// A grouped query's empty global group has no representative
			// row; non-aggregated references evaluate to NULL so that
			// expressions like rate * SUM(x) yield NULL over empty input.
			if s.group != nil {
				return sqltypes.Null, nil
			}
			return sqltypes.Null, fmt.Errorf("engine: column %s referenced outside row context", x)
		}
		return s.row[idx], nil
	case *sqlast.Param:
		var crossed []*bool
		for s := sc; s != nil; s = s.parent {
			if s.params != nil {
				if x.N < 1 || x.N > len(s.params) {
					return sqltypes.Null, fmt.Errorf("engine: parameter $%d out of range", x.N)
				}
				for _, f := range crossed {
					*f = true
				}
				return s.params[x.N-1], nil
			}
			if s.crossed != nil {
				crossed = append(crossed, s.crossed)
			}
		}
		// No UDF parameter frame anywhere on the chain: a statement-level
		// bind parameter. Binds are per-execution constants, so resolving
		// one never marks a subquery as correlated.
		return ex.bind(x.N)
	case *sqlast.BinaryExpr:
		return ex.evalBinary(x, sc)
	case *sqlast.UnaryExpr:
		v, err := ex.eval(x.X, sc)
		if err != nil {
			return sqltypes.Null, err
		}
		if x.Op == "-" {
			return sqltypes.Neg(v)
		}
		// NOT with three-valued logic
		if v.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(!v.Bool()), nil
	case *sqlast.FuncCall:
		return ex.evalFunc(x, sc)
	case *sqlast.CaseExpr:
		return ex.evalCase(x, sc)
	case *sqlast.InExpr:
		return ex.evalIn(x, sc)
	case *sqlast.ExistsExpr:
		res, err := ex.runSubquery(x.Sub, sc)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewBool((len(res.Rows) > 0) != x.Not), nil
	case *sqlast.RowExpr:
		return sqltypes.Null, fmt.Errorf("engine: row value outside IN predicate")
	case *sqlast.BetweenExpr:
		return ex.evalBetween(x, sc)
	case *sqlast.LikeExpr:
		return ex.evalLike(x, sc)
	case *sqlast.IsNullExpr:
		v, err := ex.eval(x.X, sc)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewBool(v.IsNull() != x.Not), nil
	case *sqlast.SubqueryExpr:
		return ex.evalScalarSubquery(x.Sub, sc)
	case *sqlast.ExtractExpr:
		return ex.evalExtract(x, sc)
	case *sqlast.SubstringExpr:
		return ex.evalSubstring(x, sc)
	case *sqlast.IntervalExpr:
		switch x.Unit {
		case "DAY":
			return sqltypes.NewInterval(x.N, 0), nil
		case "MONTH":
			return sqltypes.NewInterval(0, x.N), nil
		case "YEAR":
			return sqltypes.NewInterval(0, 12*x.N), nil
		}
		return sqltypes.Null, fmt.Errorf("engine: bad interval unit %s", x.Unit)
	}
	return sqltypes.Null, fmt.Errorf("engine: cannot evaluate %T", e)
}

// Value functions and errors the interpreter and the kernels share, so both
// fail and round identically; each evaluator keeps its own argument order
// and NULL handling.
var errModuloZero = fmt.Errorf("engine: modulo by zero")

// roundTo rounds f to the given number of decimal digits.
func roundTo(f float64, digits int64) sqltypes.Value {
	scale := math.Pow(10, float64(digits))
	return sqltypes.NewFloat(math.Round(f*scale) / scale)
}

// extractField is EXTRACT(field FROM v) for a non-NULL v.
func extractField(field string, v sqltypes.Value) (sqltypes.Value, error) {
	if v.K != sqltypes.KindDate {
		return sqltypes.Null, fmt.Errorf("engine: EXTRACT from non-date %s", v.K)
	}
	t := sqltypes.DateToTime(v)
	switch field {
	case "YEAR":
		return sqltypes.NewInt(int64(t.Year())), nil
	case "MONTH":
		return sqltypes.NewInt(int64(t.Month())), nil
	case "DAY":
		return sqltypes.NewInt(int64(t.Day())), nil
	}
	return sqltypes.Null, fmt.Errorf("engine: bad EXTRACT field %s", field)
}

// substring returns up to chars bytes of s starting at 1-based position
// from, both clamped to s; a SUBSTRING without FOR passes len(s).
func substring(s string, from, chars int64) string {
	start := int(from) - 1
	if start < 0 {
		start = 0
	}
	if start > len(s) {
		start = len(s)
	}
	end := start + int(chars)
	if end > len(s) {
		end = len(s)
	}
	if end < start {
		end = start
	}
	return s[start:end]
}

func (ex *exec) evalBinary(x *sqlast.BinaryExpr, sc *scope) (sqltypes.Value, error) {
	switch x.Op {
	case "AND":
		l, err := ex.eval(x.L, sc)
		if err != nil {
			return sqltypes.Null, err
		}
		if lt, known := sqltypes.Truthy(l); known && !lt {
			return sqltypes.NewBool(false), nil
		}
		r, err := ex.eval(x.R, sc)
		if err != nil {
			return sqltypes.Null, err
		}
		if rt, known := sqltypes.Truthy(r); known && !rt {
			return sqltypes.NewBool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(true), nil
	case "OR":
		l, err := ex.eval(x.L, sc)
		if err != nil {
			return sqltypes.Null, err
		}
		if lt, known := sqltypes.Truthy(l); known && lt {
			return sqltypes.NewBool(true), nil
		}
		r, err := ex.eval(x.R, sc)
		if err != nil {
			return sqltypes.Null, err
		}
		if rt, known := sqltypes.Truthy(r); known && rt {
			return sqltypes.NewBool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(false), nil
	}
	l, err := ex.eval(x.L, sc)
	if err != nil {
		return sqltypes.Null, err
	}
	r, err := ex.eval(x.R, sc)
	if err != nil {
		return sqltypes.Null, err
	}
	switch x.Op {
	case "+":
		return sqltypes.Add(l, r)
	case "-":
		return sqltypes.Sub(l, r)
	case "*":
		return sqltypes.Mul(l, r)
	case "/":
		return sqltypes.Div(l, r)
	case "%":
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null, nil
		}
		if r.AsInt() == 0 {
			return sqltypes.Null, errModuloZero
		}
		return sqltypes.NewInt(l.AsInt() % r.AsInt()), nil
	case "||":
		if l.IsNull() || r.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(l.AsString() + r.AsString()), nil
	case "=", "<>", "<", "<=", ">", ">=":
		cmp, ok := sqltypes.Compare(l, r)
		if !ok {
			return sqltypes.Null, nil
		}
		var b bool
		switch x.Op {
		case "=":
			b = cmp == 0
		case "<>":
			b = cmp != 0
		case "<":
			b = cmp < 0
		case "<=":
			b = cmp <= 0
		case ">":
			b = cmp > 0
		case ">=":
			b = cmp >= 0
		}
		return sqltypes.NewBool(b), nil
	}
	return sqltypes.Null, fmt.Errorf("engine: unknown operator %s", x.Op)
}

func (ex *exec) evalCase(x *sqlast.CaseExpr, sc *scope) (sqltypes.Value, error) {
	var operand sqltypes.Value
	var err error
	if x.Operand != nil {
		operand, err = ex.eval(x.Operand, sc)
		if err != nil {
			return sqltypes.Null, err
		}
	}
	for _, w := range x.Whens {
		cond, err := ex.eval(w.Cond, sc)
		if err != nil {
			return sqltypes.Null, err
		}
		matched := false
		if x.Operand != nil {
			eq, ok := sqltypes.Equal(operand, cond)
			matched = ok && eq
		} else {
			matched, _ = sqltypes.Truthy(cond)
		}
		if matched {
			return ex.eval(w.Then, sc)
		}
	}
	if x.Else != nil {
		return ex.eval(x.Else, sc)
	}
	return sqltypes.Null, nil
}

func (ex *exec) evalIn(x *sqlast.InExpr, sc *scope) (sqltypes.Value, error) {
	if x.Sub != nil {
		return ex.evalInSubquery(x, sc)
	}
	v, err := ex.eval(x.X, sc)
	if err != nil {
		return sqltypes.Null, err
	}
	if v.IsNull() {
		return sqltypes.Null, nil
	}
	sawNull := false
	found := false
	for _, item := range x.List {
		iv, err := ex.eval(item, sc)
		if err != nil {
			return sqltypes.Null, err
		}
		if iv.IsNull() {
			sawNull = true
			continue
		}
		if eq, ok := sqltypes.Equal(v, iv); ok && eq {
			found = true
			break
		}
	}
	if !found && sawNull {
		return sqltypes.Null, nil // unknown per three-valued IN semantics
	}
	return sqltypes.NewBool(found != x.Not), nil
}

// evalInSubquery probes a hashed subquery result. The left side may be a
// row value — (o_orderkey, ttid) IN (SELECT l_orderkey, ttid ...) — which
// is how MTBase makes membership predicates tenant-aware.
func (ex *exec) evalInSubquery(x *sqlast.InExpr, sc *scope) (sqltypes.Value, error) {
	var leftVals []sqltypes.Value
	if row, ok := x.X.(*sqlast.RowExpr); ok {
		leftVals = make([]sqltypes.Value, len(row.Exprs))
		for i, e := range row.Exprs {
			v, err := ex.eval(e, sc)
			if err != nil {
				return sqltypes.Null, err
			}
			leftVals[i] = v
		}
	} else {
		v, err := ex.eval(x.X, sc)
		if err != nil {
			return sqltypes.Null, err
		}
		leftVals = []sqltypes.Value{v}
	}
	for _, v := range leftVals {
		if v.IsNull() {
			return sqltypes.Null, nil
		}
	}

	id := ex.subqID(x.Sub)
	set, ok := ex.inSetCache[id]
	if !ok {
		var err error
		set, err = ex.buildInSet(x.Sub, id, len(leftVals), sc)
		if err != nil {
			return sqltypes.Null, err
		}
	}

	var buf []byte
	for _, v := range leftVals {
		buf = sqltypes.AppendKey(buf, v)
	}
	found := set.m[string(buf)]
	if !found && set.sawNull {
		return sqltypes.Null, nil
	}
	return sqltypes.NewBool(found != x.Not), nil
}

// buildInSet runs an IN-subquery and hashes its rows, validating that the
// output arity matches the left side (the backstop for shapes plan-time
// validation cannot resolve). The set is memoized exactly when runSubquery
// cached the result — i.e. the subquery proved uncorrelated — shared by the
// interpreter and the batched IN kernel (vector.go).
func (ex *exec) buildInSet(sub *sqlast.Select, id int32, leftArity int, sc *scope) (*inSet, error) {
	res, err := ex.runSubquery(sub, sc)
	if err != nil {
		return nil, err
	}
	if len(res.Cols) != leftArity {
		return nil, fmt.Errorf("engine: IN subquery returns %d columns, left side has %d", len(res.Cols), leftArity)
	}
	set := &inSet{m: make(map[string]bool, len(res.Rows))}
	var buf []byte
	for _, row := range res.Rows {
		buf = buf[:0]
		null := false
		for _, v := range row {
			if v.IsNull() {
				null = true
				break
			}
			buf = sqltypes.AppendKey(buf, v)
		}
		if null {
			set.sawNull = true
			continue
		}
		set.m[string(buf)] = true
	}
	if _, cached := ex.subqCache[id]; cached {
		ex.inSetCache[id] = set
	}
	return set, nil
}

// runSubquery executes a subquery, memoizing the result when execution
// never resolved a name through the subquery boundary (uncorrelated).
func (ex *exec) runSubquery(sub *sqlast.Select, sc *scope) (*Result, error) {
	id := ex.subqID(sub)
	if res, ok := ex.subqCache[id]; ok {
		return res, nil
	}
	if ex.depth > 64 {
		return nil, fmt.Errorf("engine: subquery nesting too deep")
	}
	ex.depth++
	correlated := false
	child := &scope{parent: sc, crossed: &correlated}
	res, err := ex.runQuery(sub, child)
	ex.depth--
	if err != nil {
		return nil, err
	}
	if !correlated {
		ex.subqCache[id] = res
	}
	return res, nil
}

func (ex *exec) evalBetween(x *sqlast.BetweenExpr, sc *scope) (sqltypes.Value, error) {
	v, err := ex.eval(x.X, sc)
	if err != nil {
		return sqltypes.Null, err
	}
	lo, err := ex.eval(x.Lo, sc)
	if err != nil {
		return sqltypes.Null, err
	}
	hi, err := ex.eval(x.Hi, sc)
	if err != nil {
		return sqltypes.Null, err
	}
	c1, ok1 := sqltypes.Compare(v, lo)
	c2, ok2 := sqltypes.Compare(v, hi)
	if !ok1 || !ok2 {
		return sqltypes.Null, nil
	}
	return sqltypes.NewBool((c1 >= 0 && c2 <= 0) != x.Not), nil
}

func (ex *exec) evalLike(x *sqlast.LikeExpr, sc *scope) (sqltypes.Value, error) {
	v, err := ex.eval(x.X, sc)
	if err != nil {
		return sqltypes.Null, err
	}
	p, err := ex.eval(x.Pattern, sc)
	if err != nil {
		return sqltypes.Null, err
	}
	if v.IsNull() || p.IsNull() {
		return sqltypes.Null, nil
	}
	return sqltypes.NewBool(likeMatch(v.AsString(), p.AsString()) != x.Not), nil
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single
// character) using the classic two-pointer wildcard algorithm. The subject
// is treated as UTF-8: _ consumes one rune, not one byte, and backtracking
// after % advances rune-wise, so multi-byte characters never match half-way.
func likeMatch(s, pattern string) bool {
	si, pi := 0, 0
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			match = si
			pi++
		case pi < len(pattern) && pattern[pi] == '_':
			_, size := utf8.DecodeRuneInString(s[si:])
			si += size
			pi++
		case pi < len(pattern) && pattern[pi] == s[si]:
			si++
			pi++
		case star >= 0:
			pi = star + 1
			_, size := utf8.DecodeRuneInString(s[match:])
			match += size
			si = match
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

func (ex *exec) evalScalarSubquery(sub *sqlast.Select, sc *scope) (sqltypes.Value, error) {
	res, err := ex.runSubquery(sub, sc)
	if err != nil {
		return sqltypes.Null, err
	}
	if len(res.Cols) != 1 {
		return sqltypes.Null, fmt.Errorf("engine: scalar subquery must return one column")
	}
	switch len(res.Rows) {
	case 0:
		return sqltypes.Null, nil
	case 1:
		return res.Rows[0][0], nil
	}
	return sqltypes.Null, fmt.Errorf("engine: scalar subquery returned %d rows", len(res.Rows))
}

func (ex *exec) evalExtract(x *sqlast.ExtractExpr, sc *scope) (sqltypes.Value, error) {
	v, err := ex.eval(x.X, sc)
	if err != nil {
		return sqltypes.Null, err
	}
	if v.IsNull() {
		return sqltypes.Null, nil
	}
	return extractField(x.Field, v)
}

func (ex *exec) evalSubstring(x *sqlast.SubstringExpr, sc *scope) (sqltypes.Value, error) {
	v, err := ex.eval(x.X, sc)
	if err != nil {
		return sqltypes.Null, err
	}
	from, err := ex.eval(x.From, sc)
	if err != nil {
		return sqltypes.Null, err
	}
	if v.IsNull() || from.IsNull() {
		return sqltypes.Null, nil
	}
	s := v.AsString()
	chars := int64(len(s))
	if x.For != nil {
		n, err := ex.eval(x.For, sc)
		if err != nil {
			return sqltypes.Null, err
		}
		if n.IsNull() {
			return sqltypes.Null, nil
		}
		chars = n.AsInt()
	}
	return sqltypes.NewString(substring(s, from.AsInt(), chars)), nil
}

// ---------------------------------------------------------------- functions

func (ex *exec) evalFunc(x *sqlast.FuncCall, sc *scope) (sqltypes.Value, error) {
	upper := strings.ToUpper(x.Name)
	if sqlast.IsAggregate(upper) {
		return ex.evalAggregate(x, sc)
	}
	// scalar builtins
	if f := strictBuiltins[upper]; f != nil {
		v, err := ex.evalOneArg(x, sc)
		if err != nil || v.IsNull() {
			return sqltypes.Null, err
		}
		return f(v), nil
	}
	switch upper {
	case "CONCAT":
		var sb strings.Builder
		for _, a := range x.Args {
			v, err := ex.eval(a, sc)
			if err != nil {
				return sqltypes.Null, err
			}
			if v.IsNull() {
				return sqltypes.Null, nil
			}
			sb.WriteString(v.AsString())
		}
		return sqltypes.NewString(sb.String()), nil
	case "ROUND":
		if len(x.Args) == 0 || len(x.Args) > 2 {
			return sqltypes.Null, fmt.Errorf("engine: ROUND takes 1 or 2 arguments")
		}
		v, err := ex.eval(x.Args[0], sc)
		if err != nil || v.IsNull() {
			return sqltypes.Null, err
		}
		digits := int64(0)
		if len(x.Args) == 2 {
			d, err := ex.eval(x.Args[1], sc)
			if err != nil || d.IsNull() {
				return sqltypes.Null, err
			}
			digits = d.AsInt()
		}
		return roundTo(v.AsFloat(), digits), nil
	case "COALESCE":
		for _, a := range x.Args {
			v, err := ex.eval(a, sc)
			if err != nil {
				return sqltypes.Null, err
			}
			if !v.IsNull() {
				return v, nil
			}
		}
		return sqltypes.Null, nil
	}
	// user-defined function
	fn := ex.function(x.Name)
	if fn == nil {
		return sqltypes.Null, fmt.Errorf("engine: unknown function %s", x.Name)
	}
	args := make([]sqltypes.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := ex.eval(a, sc)
		if err != nil {
			return sqltypes.Null, err
		}
		args[i] = v
	}
	return ex.callUDF(fn, args)
}

func (ex *exec) evalOneArg(x *sqlast.FuncCall, sc *scope) (sqltypes.Value, error) {
	if len(x.Args) != 1 {
		return sqltypes.Null, fmt.Errorf("engine: %s takes exactly one argument", x.Name)
	}
	return ex.eval(x.Args[0], sc)
}

// callUDF executes a SQL-bodied function. In ModePostgres the result of an
// IMMUTABLE function is cached per (function, arguments) for the duration
// of the statement; ModeSystemC always re-executes the body — the cost
// difference is exactly what separates Tables 3–5 from Tables 7–9 in the
// paper. The paper's conversion functions are deterministic per (value,
// tenant) pair, so the Canonical/O1 levels' 2N conversion calls collapse to
// |distinct inputs| body executions. Both evaluators call here — the
// interpreter's evalFunc and the call kernel of vector.go — so a result is
// visible across every call site of the function.
func (ex *exec) callUDF(fn *Function, args []sqltypes.Value) (sqltypes.Value, error) {
	if len(args) != fn.NumParams {
		return sqltypes.Null, fmt.Errorf("engine: %s expects %d arguments, got %d", fn.Name, fn.NumParams, len(args))
	}
	if !fn.Immutable || ex.db.mode != ModePostgres {
		return ex.execUDFBody(fn, args)
	}
	// The key names the call exactly. AppendKey is a grouping key — INTEGER
	// 3 and DECIMAL 3.00 encode alike, and a body can tell them apart
	// ($1 / 2) — so integers take an encoding of their own, and the name is
	// terminated so that f(NULL) is not fn().
	buf := append(append(ex.keyBuf[:0], fn.Name...), 0)
	for _, a := range args {
		if a.K == sqltypes.KindInt {
			buf = binary.LittleEndian.AppendUint64(append(buf, 'i'), uint64(a.I))
		} else {
			buf = sqltypes.AppendKey(buf, a)
		}
	}
	ex.keyBuf = buf
	if v, ok := ex.udfCache[string(buf)]; ok {
		ex.db.Stats.UDFCacheHits.Add(1)
		return v, nil
	}
	// Materialize the key before executing the body: a recursive function
	// re-enters callUDF, and the nested call's key encoding reuses keyBuf.
	// Storing under string(buf) after the call would record this result
	// under the *innermost* call's key, poisoning the cache for every later
	// lookup (TestRecursiveMemoPoison2).
	key := string(buf)
	out, err := ex.execUDFBody(fn, args)
	if err != nil {
		return sqltypes.Null, err
	}
	ex.udfCache[key] = out
	return out, nil
}

// execUDFBody runs a function body uncached. args is the body's parameter
// frame while it runs: callers hand over a list nothing else writes until
// the call returns (the interpreter builds one per call, the call kernel
// keeps one per activation on the scratch stack).
func (ex *exec) execUDFBody(fn *Function, args []sqltypes.Value) (sqltypes.Value, error) {
	ex.db.Stats.UDFCalls.Add(1)
	if ex.depth > 64 {
		return sqltypes.Null, fmt.Errorf("engine: UDF recursion too deep in %s", fn.Name)
	}
	if args == nil {
		// A call without arguments still opens a frame: $n in its body is
		// out of range, never the caller's client bind.
		args = []sqltypes.Value{}
	}
	ex.depth++
	var out sqltypes.Value
	var err error
	if plan := ex.planUDF(fn); plan.ok {
		// Planned body: cached FROM/WHERE relation + lowered projection.
		out, err = ex.runPlannedUDF(plan, args)
	} else {
		sc := rootScope()
		sc.params = args
		var res *Result
		res, err = ex.runQuery(fn.Body, sc)
		if err == nil {
			out = sqltypes.Null
			if len(res.Rows) > 0 {
				out = res.Rows[0][0]
			}
		}
	}
	ex.depth--
	if err != nil {
		return sqltypes.Null, fmt.Errorf("engine: in function %s: %w", fn.Name, err)
	}
	return out, nil
}

// ---------------------------------------------------------------- aggregates

func (ex *exec) evalAggregate(x *sqlast.FuncCall, sc *scope) (sqltypes.Value, error) {
	g := sc.group
	if g == nil {
		return sqltypes.Null, fmt.Errorf("engine: aggregate %s outside grouped context", x.Name)
	}
	if i := slices.Index(g.calls, x); i >= 0 {
		return g.accs[g.siteOf[i]].result()
	}
	// The reference executor's grouped projection, and the specification of
	// the fold above: one interpreted row at a time, in row order.
	acc := newAggAcc(x)
	if acc.op == aggCountStar {
		acc.count = int64(len(g.rows))
		return acc.result()
	}
	savedRow := sc.row
	sc.group = nil // nested aggregates are invalid
	defer func() { sc.row, sc.group = savedRow, g }()
	for i := 0; i < len(g.rows) && acc.err == nil; i++ {
		sc.row = g.rows[i]
		v, err := ex.eval(x.Args[0], sc)
		if err != nil {
			return sqltypes.Null, err
		}
		acc.add(&v)
	}
	return acc.result()
}

// aggOp is an aggregate function; COUNT(*) is one of its own because it
// counts rows, not argument values. aggNames is indexed by it: a name's
// index is its op, unless COUNT comes with an argument.
type aggOp uint8

const (
	aggCountStar aggOp = iota
	aggCount
	aggSum
	aggAvg
	aggMin
	aggMax
)

var aggNames = [...]string{"COUNT", "COUNT", "SUM", "AVG", "MIN", "MAX"}

// aggAcc accumulates one aggregate call site over one group's argument
// values; every path feeds it in row order. err latches the first thing that
// makes the site unanswerable — a wrong argument count, a failing argument
// row, SUM or AVG over a non-number or past the INTEGER range — and result
// raises it.
type aggAcc struct {
	op       aggOp
	distinct bool
	plainSum bool  // SUM or AVG without DISTINCT: one test keeps add inlinable
	count    int64 // values folded, DECIMAL summands apart
	floats   int64 // DECIMAL summands folded
	sumI     int64
	sumF     float64
	ext      sqltypes.Value // MIN/MAX: the extreme so far
	seen     map[string]struct{}
	err      error
}

// newAggAcc returns the empty accumulator of call site x. Anything but
// COUNT(*) takes exactly one argument.
func newAggAcc(x *sqlast.FuncCall) aggAcc {
	a := aggAcc{op: aggOp(slices.Index(aggNames[:], strings.ToUpper(x.Name))), distinct: x.Distinct}
	if a.op == aggCountStar {
		if x.Star {
			return a
		}
		a.op = aggCount
	}
	if len(x.Args) != 1 {
		a.err = fmt.Errorf("engine: %s takes exactly one argument", x.Name)
	}
	a.plainSum = (a.op == aggSum || a.op == aggAvg) && !a.distinct
	return a
}

// add folds one argument value. The plain decimal sum is the hot case of
// every fold and small enough to be inlined into its loop.
func (a *aggAcc) add(v *sqltypes.Value) {
	if a.plainSum && v.K == sqltypes.KindFloat {
		a.floats++
		a.sumF += v.F
	} else {
		a.addAny(v)
	}
}

func (a *aggAcc) addAny(v *sqltypes.Value) {
	if v.IsNull() {
		return
	}
	if (a.op == aggSum || a.op == aggAvg) && !v.IsNumeric() {
		if a.err == nil {
			a.err = fmt.Errorf("engine: %s over %s", aggNames[a.op], v.K)
		}
		return
	}
	if a.distinct {
		if a.seen == nil {
			a.seen = make(map[string]struct{})
		}
		k := string(sqltypes.AppendKey(nil, *v))
		if _, dup := a.seen[k]; dup {
			return
		}
		a.seen[k] = struct{}{}
	}
	switch a.op {
	case aggSum, aggAvg:
		if v.K == sqltypes.KindFloat {
			a.floats++
			a.sumF += v.F
			return
		}
		sum, err := sqltypes.AddInt(a.sumI, v.I)
		if err != nil {
			if a.err == nil {
				a.err = err
			}
			return
		}
		a.sumI = sum
	case aggMin:
		if a.ext.IsNull() {
			a.ext = *v
		} else if c, ok := sqltypes.Compare(*v, a.ext); ok && c < 0 {
			a.ext = *v
		}
	case aggMax:
		if a.ext.IsNull() {
			a.ext = *v
		} else if c, ok := sqltypes.Compare(*v, a.ext); ok && c > 0 {
			a.ext = *v
		}
	}
	a.count++
}

func (a *aggAcc) result() (sqltypes.Value, error) {
	if a.err != nil {
		return sqltypes.Null, a.err
	}
	n := a.count + a.floats
	switch a.op {
	case aggCountStar, aggCount:
		return sqltypes.NewInt(n), nil
	case aggMin, aggMax:
		return a.ext, nil
	}
	if n == 0 {
		return sqltypes.Null, nil
	}
	if a.op == aggAvg {
		return sqltypes.NewFloat((a.sumF + float64(a.sumI)) / float64(n)), nil
	}
	if a.floats > 0 {
		return sqltypes.NewFloat(a.sumF + float64(a.sumI)), nil
	}
	return sqltypes.NewInt(a.sumI), nil
}

// hasAggregate reports whether e contains an aggregate call at this query
// level (subqueries are separate levels and excluded).
func hasAggregate(e sqlast.Expr) bool {
	found := false
	sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
		if fc, ok := n.(*sqlast.FuncCall); ok && sqlast.IsAggregate(fc.Name) {
			found = true
			return false
		}
		return !found
	})
	return found
}
