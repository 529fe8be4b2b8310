package engine

// This file is the compiled evaluator: it lowers expressions into batch
// programs (vecExpr), tight loops over a batch's selection vector. Lowering
// is total, in two tiers. Every construct with a kernel — column and
// parameter reads, operators, CASE, IN, BETWEEN, LIKE, IS NULL, builtin and
// SQL-UDF calls, EXTRACT, SUBSTRING, IN-subqueries and EXISTS probing the
// statement's subquery memos — runs natively, its operands columns of their
// own. What has no kernel (scalar subqueries, correlated or ambiguous
// references, $n under a UDF frame the lowering cannot see, IN lists whose
// items read a row, aggregates, calls the interpreter rejects) is lifted: a
// loop over the tree-walking interpreter of eval.go, which reproduces per-row
// value and error semantics by construction. Full interpretation is that second
// tier applied to the whole expression, which is what vecCompile returns for
// an interpreting execution. That is the evaluator seam (DESIGN.md ADR-010,
// ADR-016): operators only ever hold vecExprs and never ask which tier is
// inside, and there is no third, row-at-a-time compiled form.
//
// Contract for every vecExpr fn(b, sel, out):
//   - on entry b.errs[i] == nil for every i in sel;
//   - fn writes out[i] for each i in sel, or poisons row i instead;
//   - fn never modifies sel, and never reads rows outside sel;
//   - value/error per row equals interpreter evaluation of that row, with
//     short-circuits (AND/OR/CASE) expressed as selection-vector refinement
//     so short-circuited subtrees are not evaluated for those rows.
//
// Intermediate columns come from the statement-wide scratch stack
// (exec.vs): a kernel marks the stack, takes its operand columns, evaluates
// its children (whose frames push and pop above), combines, and releases.
// Scratch memory is therefore bounded by expression depth × batch size, not
// node count × batch size — crucial because correlated subqueries and UDF
// bodies recompile per execution. It also makes every program re-entrant: a
// recursive UDF runs its body's program from inside that program, so what
// one invocation owns is on the stack, never in a variable a kernel closure
// keeps across a child evaluation.

import (
	"slices"
	"strings"
	"sync"

	"mtbase/internal/sqlast"
	"mtbase/internal/sqltypes"
)

// vecExpr evaluates an expression for the selected rows of a batch.
type vecExpr func(b *Batch, sel []int32, out []sqltypes.Value)

// ---------------------------------------------------------------- scratch

// vecStack is the statement-wide stack allocator for batch scratch: value
// columns and selection vectors live exactly as long as the kernel
// invocation that took them. Nested queries (lifted subtrees) push frames on
// the same stack, so one statement reuses one arena throughout — and, once it
// ends, hands the arena to the next statement (vecStacks).
type vecStack struct {
	vals []sqltypes.Value
	sel  []int32
	used int // how deep vals has been taken: what put clears
}

// vecStacks holds the stacks of statements that have ended.
var vecStacks = sync.Pool{New: func() any { return new(vecStack) }}

// put clears the values the stack's columns still hold — they would keep the
// ended statement's strings alive — and hands the stack to the next
// statement. The caller must not touch it again.
func (st *vecStack) put() {
	clear(st.vals[:st.used])
	st.vals, st.sel, st.used = st.vals[:0], st.sel[:0], 0
	vecStacks.Put(st)
}

// vmark remembers a stack position for release.
type vmark struct{ v, s int }

func (st *vecStack) mark() vmark { return vmark{len(st.vals), len(st.sel)} }

func (st *vecStack) release(m vmark) {
	st.vals = st.vals[:m.v]
	st.sel = st.sel[:m.s]
}

// takeVals returns an uninitialized value column of length n on the stack.
func (st *vecStack) takeVals(n int) []sqltypes.Value {
	off := len(st.vals)
	if off+n > cap(st.vals) {
		grown := make([]sqltypes.Value, off, 2*(off+n))
		copy(grown, st.vals)
		st.vals = grown
	}
	st.vals = st.vals[:off+n]
	st.used = max(st.used, off+n)
	return st.vals[off : off+n : off+n]
}

// takeSel returns an empty selection buffer with capacity n on the stack.
func (st *vecStack) takeSel(n int) []int32 {
	off := len(st.sel)
	if off+n > cap(st.sel) {
		grown := make([]int32, off, 2*(off+n))
		copy(grown, st.sel)
		st.sel = grown
	}
	st.sel = st.sel[:off+n]
	return st.sel[off : off : off+n]
}

// ---------------------------------------------------------------- compile

// venv is the lowering environment: the flat row layout expressions resolve
// columns in, the executing exec (vecExprs are built per execution — and per
// parallel worker, each of which compiles its own programs against its
// workerClone — so capturing it is safe), and the scope lifted
// interpretation runs in.
type venv struct {
	ex       *exec
	bindings []*binding
	sc       *scope
	vs       *vecStack

	// How $n lowers. args holds the arguments of the planned UDF body whose
	// projection is being lowered (udf.go): the kernel reads each row's call.
	// clientBinds holds when sc's chain carries no UDF frame at all: $n is
	// this execution's bind value. With neither, the interpreter walks the
	// scope chain to the innermost frame.
	args        *udfArgs
	clientBinds bool

	// What this lowering shares (shared.go): the plan's analysis of the
	// expression list being lowered, and the slots its shared nodes get here.
	// nil when the list shares nothing.
	shared *sharedExprs
	slots  *exprSlots
}

// vecCompile lowers e into a batch evaluator over the flat row layout of
// bindings; sc is the evaluation scope lifted interpretation runs in. It
// never returns nil: an interpreting execution gets the interpreter lift of
// the whole expression.
func (ex *exec) vecCompile(e sqlast.Expr, bindings []*binding, sc *scope) vecExpr {
	progs, _ := ex.vecCompileAll([]sqlast.Expr{e}, bindings, sc, nil)
	return progs[0]
}

// vecCompileAll lowers the expressions one operator evaluates over the same
// batch, in order; a nil expression has a nil program. With shared, the
// analysis of exactly this list, structurally equal subexpressions lower to
// one slot each, and the operator starts every batch with nextBatch on the
// slots returned (nil when nothing is shared). An interpreting execution
// gets the interpreter lift of every expression and no slot: the oracle runs
// each occurrence in place.
func (ex *exec) vecCompileAll(exprs []sqlast.Expr, bindings []*binding, sc *scope, shared *sharedExprs) ([]vecExpr, *exprSlots) {
	progs := make([]vecExpr, len(exprs))
	ve := &venv{ex: ex, bindings: bindings, sc: sc, vs: ex.vs, clientBinds: !scopeHasParams(sc)}
	if shared != nil && len(shared.reps) > 0 && !ex.interp {
		ve.shared, ve.slots = shared, &exprSlots{stats: &ex.db.Stats, slots: make([]exprSlot, len(shared.reps))}
	}
	for i, e := range exprs {
		switch {
		case e == nil:
		case ex.interp:
			progs[i] = liftInterp(ex, e, sc)
		default:
			progs[i] = ve.compile(e)
		}
	}
	return progs, ve.slots
}

// resolveLocal mirrors one level of scope.lookup: the reference must resolve
// unambiguously against the given bindings. Ambiguous or unresolved
// references (including correlated ones) report !ok so the interpreter
// handles them — reproducing its error or outer-scope resolution.
func resolveLocal(bindings []*binding, table, col string) (int, bool) {
	tl, cl := strings.ToLower(table), strings.ToLower(col)
	found := -1
	for _, b := range bindings {
		if tl != "" && b.name != tl {
			continue
		}
		if i, ok := b.colIdx[cl]; ok {
			if found >= 0 {
				return -1, false // ambiguous: interpreter raises the error
			}
			found = b.off + i
		}
	}
	return found, found >= 0
}

// compile lowers e: to its slot's kernel where the analysis shares it, to
// its own program otherwise.
func (ve *venv) compile(e sqlast.Expr) vecExpr {
	if ve.shared != nil {
		if id, ok := ve.shared.slot[e]; ok {
			return ve.slots.kernel(ve, id)
		}
	}
	return ve.lower(e)
}

func (ve *venv) lower(e sqlast.Expr) vecExpr {
	switch x := e.(type) {
	case *sqlast.Literal:
		return vecConst(x.Val)
	case *sqlast.Param:
		n := x.N
		if a := ve.args; a != nil {
			if n < 1 || n > len(a.argv) {
				_, err := paramAt(noArgs, n)
				return vecBroadcast(func() (sqltypes.Value, error) { return sqltypes.Null, err })
			}
			return func(b *Batch, sel []int32, out []sqltypes.Value) {
				vals, off, row := a.vals, (n-1)*a.col, a.row
				for _, i := range sel {
					out[i] = vals[off+int(i)*row]
				}
			}
		}
		// A bind is one value per batch, read when the batch runs: one plan
		// serves every binding.
		if ve.clientBinds {
			ex := ve.ex
			return vecBroadcast(func() (sqltypes.Value, error) { return ex.bind(n) })
		}
	case *sqlast.ColumnRef:
		idx, ok := resolveLocal(ve.bindings, x.Table, x.Name)
		if !ok {
			break // ambiguous or correlated: interpreter semantics via lift
		}
		return func(b *Batch, sel []int32, out []sqltypes.Value) {
			rows := b.rows
			for _, i := range sel {
				out[i] = rows[i][idx]
			}
		}
	case *sqlast.BinaryExpr:
		if fn := ve.constOperand(x); fn != nil {
			return fn
		}
		if fn := ve.compileBinary(x); fn != nil {
			return fn
		}
	case *sqlast.UnaryExpr:
		if fn := ve.constOperand(x); fn != nil {
			return fn
		}
		return ve.compileUnary(x)
	case *sqlast.IsNullExpr:
		sub := ve.compile(x.X)
		not := x.Not
		return func(b *Batch, sel []int32, out []sqltypes.Value) {
			sub(b, sel, out)
			for _, i := range sel {
				if b.errs[i] != nil {
					continue
				}
				out[i] = sqltypes.NewBool(out[i].IsNull() != not)
			}
		}
	case *sqlast.BetweenExpr:
		return ve.compileBetween(x)
	case *sqlast.InExpr:
		if fn := ve.compileIn(x); fn != nil {
			return fn
		}
	case *sqlast.ExistsExpr:
		return ve.compileExists(x)
	case *sqlast.LikeExpr:
		return ve.compileLike(x)
	case *sqlast.CaseExpr:
		return ve.compileCase(x)
	case *sqlast.FuncCall:
		if fn := ve.compileFunc(x); fn != nil {
			return fn
		}
	case *sqlast.ExtractExpr:
		field := x.Field
		return ve.compileCall([]sqlast.Expr{x.X}, true, func(argv []sqltypes.Value) (sqltypes.Value, error) {
			return extractField(field, argv[0])
		})
	case *sqlast.SubstringExpr:
		return ve.compileSubstring(x)
	case *sqlast.IntervalExpr:
		switch x.Unit {
		case "DAY":
			return vecConst(sqltypes.NewInterval(x.N, 0))
		case "MONTH":
			return vecConst(sqltypes.NewInterval(0, x.N))
		case "YEAR":
			return vecConst(sqltypes.NewInterval(0, 12*x.N))
		}
	}
	// No kernel: the interpreter, one selected row at a time.
	return liftInterp(ve.ex, e, ve.sc)
}

// constOperand lowers a subtree that reads no row to one evaluation per batch,
// broadcast over its selection, where it would otherwise be computed for every
// row: DATE '1998-12-01' - INTERVAL '90' DAY and $1 + INTERVAL '1' YEAR both
// walk the calendar. A subtree of literals alone that evaluates is folded
// once, here. An error belongs to every row the subtree is evaluated for, as
// evaluating it per row would raise it for each — short-circuits included,
// since the kernel only ever sees the rows its parent selects. nil when e is
// not such a subtree (constant).
func (ve *venv) constOperand(e sqlast.Expr) vecExpr {
	ok, binds := ve.constant(e)
	if !ok {
		return nil
	}
	ex, sc := ve.ex, rootScope()
	if !binds {
		if v, err := ex.eval(e, sc); err == nil {
			return vecConst(v)
		}
	}
	return vecBroadcast(func() (sqltypes.Value, error) { return ex.eval(e, sc) })
}

// constant reports whether e reads no row, and whether it reads a client bind:
// whether it is built from literals, intervals and $n alone under unary minus
// and non-logical binary operators, each $n this execution's bind value, which
// no UDF frame on the lowering's scope can shadow.
func (ve *venv) constant(e sqlast.Expr) (ok, binds bool) {
	ok, binds = rowFree(e)
	return ok && !(binds && !ve.clientBinds), binds
}

// rowFree reports whether e is built from literals, intervals and $n alone,
// under unary minus and non-logical binary operators, and whether a $n is
// among them.
func rowFree(e sqlast.Expr) (ok, binds bool) {
	switch x := e.(type) {
	case *sqlast.Literal, *sqlast.IntervalExpr:
		return true, false
	case *sqlast.Param:
		return true, true
	case *sqlast.UnaryExpr:
		if x.Op == "-" {
			return rowFree(x.X)
		}
	case *sqlast.BinaryExpr:
		if x.Op != "AND" && x.Op != "OR" {
			lok, lb := rowFree(x.L)
			rok, rb := rowFree(x.R)
			return lok && rok, lb || rb
		}
	}
	return false, false
}

// vecConst broadcasts a constant.
func vecConst(v sqltypes.Value) vecExpr {
	return func(b *Batch, sel []int32, out []sqltypes.Value) {
		for _, i := range sel {
			out[i] = v
		}
	}
}

// vecBroadcast broadcasts what get returns when the batch runs; its error
// belongs to every selected row.
func vecBroadcast(get func() (sqltypes.Value, error)) vecExpr {
	return func(b *Batch, sel []int32, out []sqltypes.Value) {
		v, err := get()
		for _, i := range sel {
			if err != nil {
				b.poison(i, err)
				continue
			}
			out[i] = v
		}
	}
}

// liftInterp is the second lowering tier: the tree-walking interpreter run
// once per selected row, with the row installed in sc — and, in a grouped
// projection's batch, where a row stands for a group, that group; in a UDF
// body's, where a row stands for a call, that call's arguments.
func liftInterp(ex *exec, e sqlast.Expr, sc *scope) vecExpr {
	return func(b *Batch, sel []int32, out []sqltypes.Value) {
		rows := b.rows
		for _, i := range sel {
			sc.row = rows[i]
			if sc.group != nil {
				sc.group.row = i
			}
			if sc.args != nil {
				sc.params = sc.args.of(i)
			}
			v, err := ex.eval(e, sc)
			if err != nil {
				b.poison(i, err)
				continue
			}
			out[i] = v
		}
	}
}

// ---------------------------------------------------------------- binary

func (ve *venv) compileBinary(x *sqlast.BinaryExpr) vecExpr {
	switch x.Op {
	case "AND", "OR":
		return ve.compileLogical(x)
	case "=", "<>", "<", "<=", ">", ">=":
		return ve.compileCompare(x)
	case "+":
		return ve.binOp(x, sqltypes.Add)
	case "-":
		return ve.binOp(x, sqltypes.Sub)
	case "*":
		return ve.binOp(x, sqltypes.Mul)
	case "/":
		return ve.binOp(x, sqltypes.Div)
	case "%":
		return ve.binOp(x, func(lv, rv sqltypes.Value) (sqltypes.Value, error) {
			if lv.IsNull() || rv.IsNull() {
				return sqltypes.Null, nil
			}
			if rv.AsInt() == 0 {
				return sqltypes.Null, errModuloZero
			}
			return sqltypes.NewInt(lv.AsInt() % rv.AsInt()), nil
		})
	case "||":
		return ve.binOp(x, func(lv, rv sqltypes.Value) (sqltypes.Value, error) {
			if lv.IsNull() || rv.IsNull() {
				return sqltypes.Null, nil
			}
			return sqltypes.NewString(lv.AsString() + rv.AsString()), nil
		})
	}
	return nil
}

// compareWant encodes which comparison outcomes satisfy an operator as a
// bitmask over cmp+1 ∈ {0,1,2}, turning the per-row operator dispatch into
// one shift-and-test.
func compareWant(op string) uint8 {
	switch op {
	case "=":
		return 1 << 1
	case "<>":
		return 1<<0 | 1<<2
	case "<":
		return 1 << 0
	case "<=":
		return 1<<0 | 1<<1
	case ">":
		return 1 << 2
	default: // ">="
		return 1<<1 | 1<<2
	}
}

func (ve *venv) compileCompare(x *sqlast.BinaryExpr) vecExpr {
	l, r := ve.compile(x.L), ve.compile(x.R)
	want := compareWant(x.Op)
	st := ve.vs
	return func(b *Batch, sel []int32, out []sqltypes.Value) {
		n := len(b.rows)
		m := st.mark()
		lbuf := st.takeVals(n)
		l(b, sel, lbuf)
		sel = b.compactSel(st.takeSel(len(sel)), sel)
		rbuf := st.takeVals(n)
		r(b, sel, rbuf)
		for _, i := range sel {
			if b.errs[i] != nil {
				continue
			}
			cmp, ok := sqltypes.Compare(lbuf[i], rbuf[i])
			if !ok {
				out[i] = sqltypes.Null
				continue
			}
			out[i] = sqltypes.NewBool(want&(1<<uint(cmp+1)) != 0)
		}
		st.release(m)
	}
}

// binOp evaluates both sides column-wise and combines them per selected row.
func (ve *venv) binOp(x *sqlast.BinaryExpr, op func(a, b sqltypes.Value) (sqltypes.Value, error)) vecExpr {
	l, r := ve.compile(x.L), ve.compile(x.R)
	st := ve.vs
	return func(b *Batch, sel []int32, out []sqltypes.Value) {
		n := len(b.rows)
		m := st.mark()
		lbuf := st.takeVals(n)
		l(b, sel, lbuf)
		sel = b.compactSel(st.takeSel(len(sel)), sel)
		rbuf := st.takeVals(n)
		r(b, sel, rbuf)
		for _, i := range sel {
			if b.errs[i] != nil {
				continue
			}
			v, err := op(lbuf[i], rbuf[i])
			if err != nil {
				b.poison(i, err)
				continue
			}
			out[i] = v
		}
		st.release(m)
	}
}

// compileLogical vectorizes AND/OR with the interpreter's short-circuit:
// rows decided by the left side drop out of the right side's selection
// vector, so the right operand (and any error it would raise) is only
// evaluated for rows the interpreter would evaluate it for.
func (ve *venv) compileLogical(x *sqlast.BinaryExpr) vecExpr {
	l, r := ve.compile(x.L), ve.compile(x.R)
	isAnd := x.Op == "AND"
	st := ve.vs
	return func(b *Batch, sel []int32, out []sqltypes.Value) {
		n := len(b.rows)
		m := st.mark()
		lbuf := st.takeVals(n)
		l(b, sel, lbuf)
		need := st.takeSel(len(sel))
		for _, i := range sel {
			if b.errs[i] != nil {
				continue
			}
			lt, known := sqltypes.Truthy(lbuf[i])
			if known && lt != isAnd { // AND: false decides; OR: true decides
				out[i] = sqltypes.NewBool(!isAnd)
				continue
			}
			need = append(need, i)
		}
		rbuf := st.takeVals(n)
		r(b, need, rbuf)
		for _, i := range need {
			if b.errs[i] != nil {
				continue
			}
			rv := rbuf[i]
			if rt, known := sqltypes.Truthy(rv); known && rt != isAnd {
				out[i] = sqltypes.NewBool(!isAnd)
				continue
			}
			if lbuf[i].IsNull() || rv.IsNull() {
				out[i] = sqltypes.Null
				continue
			}
			out[i] = sqltypes.NewBool(isAnd)
		}
		st.release(m)
	}
}

// ---------------------------------------------------------------- unary &co

func (ve *venv) compileUnary(x *sqlast.UnaryExpr) vecExpr {
	sub := ve.compile(x.X)
	if x.Op == "-" {
		return func(b *Batch, sel []int32, out []sqltypes.Value) {
			sub(b, sel, out)
			for _, i := range sel {
				if b.errs[i] != nil {
					continue
				}
				v, err := sqltypes.Neg(out[i])
				if err != nil {
					b.poison(i, err)
					continue
				}
				out[i] = v
			}
		}
	}
	// NOT with three-valued logic
	return func(b *Batch, sel []int32, out []sqltypes.Value) {
		sub(b, sel, out)
		for _, i := range sel {
			if b.errs[i] != nil {
				continue
			}
			if out[i].IsNull() {
				out[i] = sqltypes.Null
				continue
			}
			out[i] = sqltypes.NewBool(!out[i].Bool())
		}
	}
}

func (ve *venv) compileBetween(x *sqlast.BetweenExpr) vecExpr {
	sub, lo, hi := ve.compile(x.X), ve.compile(x.Lo), ve.compile(x.Hi)
	not := x.Not
	st := ve.vs
	return func(b *Batch, sel []int32, out []sqltypes.Value) {
		n := len(b.rows)
		m := st.mark()
		vbuf := st.takeVals(n)
		sub(b, sel, vbuf)
		selScratch := st.takeSel(len(sel))
		sel = b.compactSel(selScratch, sel)
		lbuf := st.takeVals(n)
		lo(b, sel, lbuf)
		sel = b.compactSel(selScratch, sel)
		hbuf := st.takeVals(n)
		hi(b, sel, hbuf)
		for _, i := range sel {
			if b.errs[i] != nil {
				continue
			}
			c1, ok1 := sqltypes.Compare(vbuf[i], lbuf[i])
			c2, ok2 := sqltypes.Compare(vbuf[i], hbuf[i])
			if !ok1 || !ok2 {
				out[i] = sqltypes.Null
				continue
			}
			out[i] = sqltypes.NewBool((c1 >= 0 && c2 <= 0) != not)
		}
		st.release(m)
	}
}

// compileIn vectorizes IN over a list of items that read no row (constant)
// as one hash probe per selected row — the list evaluated once here, or once
// per batch where it reads binds — and IN-subqueries as a native probe of the
// statement's hashed subquery result. Other list shapes lift. AppendKey
// encodes integers as float64, so distinct huge integers can share a key;
// each bucket therefore keeps its values and a hit is confirmed with
// sqltypes.Equal, giving exact parity with the interpreter's list scan.
func (ve *venv) compileIn(x *sqlast.InExpr) vecExpr {
	if x.Sub != nil {
		return ve.compileInSubquery(x)
	}
	perBatch := false
	for _, item := range x.List {
		ok, binds := ve.constant(item)
		if !ok {
			return nil
		}
		perBatch = perBatch || binds
	}
	l := inList{ex: ve.ex, items: x.List, sc: rootScope()}
	if !perBatch {
		l.fill()
	}
	sub := ve.compile(x.X)
	not := x.Not
	var probe []byte
	return func(b *Batch, sel []int32, out []sqltypes.Value) {
		if perBatch {
			l.fill()
		}
		sub(b, sel, out)
		for _, i := range sel {
			if b.errs[i] != nil {
				continue
			}
			v := out[i]
			if v.IsNull() {
				out[i] = sqltypes.Null
				continue
			}
			probe = sqltypes.AppendKey(probe[:0], v)
			found := false
			for _, lv := range l.set[string(probe)] {
				if eq, ok := sqltypes.Equal(v, lv); ok && eq {
					found = true
					break
				}
			}
			switch {
			case found:
				out[i] = sqltypes.NewBool(!not)
			case l.err != nil:
				b.poison(i, l.err)
			case l.sawNull:
				out[i] = sqltypes.Null
			default:
				out[i] = sqltypes.NewBool(not)
			}
		}
	}
}

// inList is an IN list hashed for membership. The interpreter scans the list
// in order and stops at the first match, so an item that raises is reached
// only by the values no item before it matches: set holds the items before
// the first that raised, err is its error, sawNull says one of them was NULL.
type inList struct {
	ex    *exec
	items []sqlast.Expr
	sc    *scope

	set     map[string][]sqltypes.Value
	sawNull bool
	err     error
	kb      []byte
}

// fill evaluates the items into the set, reusing the buckets of the last
// fill: a bind list hashes to the same keys batch after batch.
func (l *inList) fill() {
	if l.set == nil {
		l.set = make(map[string][]sqltypes.Value, len(l.items))
	}
	for k, vs := range l.set {
		l.set[k] = vs[:0]
	}
	l.sawNull, l.err = false, nil
	for _, item := range l.items {
		v, err := l.ex.eval(item, l.sc)
		if err != nil {
			l.err = err
			return
		}
		if v.IsNull() {
			l.sawNull = true
			continue
		}
		l.kb = sqltypes.AppendKey(l.kb[:0], v)
		l.set[string(l.kb)] = append(l.set[string(l.kb)], v)
	}
}

// compileInSubquery is the batched form of evalInSubquery: the left side —
// scalar or row value — is computed column-wise, and membership probes the
// statement's hashed subquery result directly instead of lifting every row
// to the interpreter. The set is built through buildInSet on the first
// non-NULL left value (matching the interpreter, which never runs the
// subquery when every left side is NULL) and is memoized exactly when the
// subquery proves uncorrelated; a correlated subquery re-runs per row with
// the row installed in the scope, as the interpreter does.
func (ve *venv) compileInSubquery(x *sqlast.InExpr) vecExpr {
	comps := []vecExpr{}
	if row, isRow := x.X.(*sqlast.RowExpr); isRow {
		for _, e := range row.Exprs {
			comps = append(comps, ve.compile(e))
		}
	} else {
		comps = append(comps, ve.compile(x.X))
	}
	ex, sc, st := ve.ex, ve.sc, ve.vs
	id := ex.subqID(x.Sub)
	sub, not := x.Sub, x.Not
	cols := make([][]sqltypes.Value, len(comps))
	var keyBuf []byte
	return func(b *Batch, sel []int32, out []sqltypes.Value) {
		n := len(b.rows)
		m := st.mark()
		selBuf := st.takeSel(len(sel))
		for j, comp := range comps {
			cols[j] = st.takeVals(n)
			comp(b, sel, cols[j])
			sel = b.compactSel(selBuf, sel)
		}
		for _, i := range sel {
			null := false
			for j := range cols {
				if cols[j][i].IsNull() {
					null = true
					break
				}
			}
			if null {
				out[i] = sqltypes.Null
				continue
			}
			set, ok := ex.inSetCache[id]
			if !ok {
				sc.row = b.rows[i]
				var err error
				set, err = ex.buildInSet(sub, id, len(cols), sc)
				if err != nil {
					b.poison(i, err)
					continue
				}
			}
			keyBuf = keyBuf[:0]
			for j := range cols {
				keyBuf = sqltypes.AppendKey(keyBuf, cols[j][i])
			}
			found := set.m[string(keyBuf)]
			if !found && set.sawNull {
				out[i] = sqltypes.Null
				continue
			}
			out[i] = sqltypes.NewBool(found != not)
		}
		st.release(m)
	}
}

// compileExists evaluates EXISTS natively. A subquery of the index
// semi-join's shape (semiJoinOf, DESIGN.md ADR-033) probes the inner table's
// persistent index for each selected row. Any other shape runs through
// runSubquery per row, against the current scope row, exactly like the
// interpreter: runSubquery memoizes an uncorrelated subquery after its first
// execution, so every later row costs one map probe, and builds, opens and
// drains a correlated one's operator tree for every row.
func (ve *venv) compileExists(x *sqlast.ExistsExpr) vecExpr {
	ex, sc := ve.ex, ve.sc
	sub, not := x.Sub, x.Not
	perRow := func(b *Batch, sel []int32, out []sqltypes.Value) {
		rows := b.rows
		for _, i := range sel {
			sc.row = rows[i]
			res, err := ex.runSubquery(sub, sc)
			if err != nil {
				b.poison(i, err)
				continue
			}
			out[i] = sqltypes.NewBool((len(res.Rows) > 0) != not)
		}
	}
	sj := ve.semiJoinOf(sub)
	if sj == nil {
		return perRow
	}
	return func(b *Batch, sel []int32, out []sqltypes.Value) {
		if sj.busy {
			perRow(b, sel, out) // re-entered from a call in its own conjuncts
			return
		}
		sj.probe(b, sel, out, not)
	}
}

// semiJoin is the index semi-join of one EXISTS subquery over a single base
// table (DESIGN.md ADR-033): for each outer row, the candidates the table's
// persistent index holds under the row's keys, run through the subquery's
// other conjuncts. It evaluates what the per-row operator tree of the same
// subquery evaluates, in the same order — placeConjuncts' constant conjuncts
// (gates), indexSource's probe values (keys), then the filter over the
// candidates in bucket order, window by window as an index scan hands them
// on — so values and errors match by construction.
type semiJoin struct {
	ex    *exec
	sc    *scope // the outer row's scope, where the filter finds the outer row
	tab   *Table
	cols  []string     // the index's key columns
	gates []vecExpr    // over the outer batch
	keys  []vecExpr    // over the outer batch, one per column of cols
	rest  windowFilter // over the candidates

	heap  [][]sqltypes.Value // the pinned snapshot's heap and index, taken on first probe
	idx   *hashIndex
	kcols [][]sqltypes.Value
	kb    []byte
	busy  bool // a probe is running: a nested call answers per row
}

// semiJoinOf returns the index semi-join of sub, or nil when sub is not of its
// shape: one base table in FROM; no DISTINCT, GROUP BY, HAVING, ORDER BY or
// LIMIT; select items that are literals, bare columns of the table or stars,
// none of which can raise; no subquery in WHERE; and at least one `col = v`
// conjunct whose value reads a column of an enclosing row, so that every
// execution of sub is correlated and the per-row path memoizes nothing.
func (ve *venv) semiJoinOf(sub *sqlast.Select) *semiJoin {
	ex := ve.ex
	if len(sub.From) != 1 || sub.Distinct || len(sub.GroupBy) > 0 || sub.Having != nil || len(sub.OrderBy) > 0 || sub.Limit >= 0 {
		return nil
	}
	tn, ok := sub.From[0].(*sqlast.TableName)
	if !ok {
		return nil
	}
	key := strings.ToLower(tn.Name)
	tab := ex.cat.tables[key]
	if _, view := ex.cat.views[key]; view || tab == nil {
		return nil
	}
	b := newBinding(tn.Binding(), tab.ColNames())
	rel := &relation{bindings: []*binding{b}, width: len(tab.Cols), base: tab}
	for _, it := range sub.Items {
		switch x := it.Expr.(type) {
		case nil:
			if !it.Star || it.StarTable != "" && strings.ToLower(it.StarTable) != b.name {
				return nil
			}
		case *sqlast.Literal:
		case *sqlast.ColumnRef:
			if !relationHasRef(rel, x) {
				return nil
			}
		default:
			return nil
		}
	}
	var gates, vals []sqlast.Expr
	var cols []string
	var rest []*conjunct
	correlated := false
	for _, c := range ex.whereConjuncts(sub, []*relation{rel}, func(name string) bool { return strings.ToLower(name) == b.name }) {
		switch col, val, probe := probeForm(c.expr, rel); {
		case c.hasSub:
			return nil
		case c.constant():
			gates = append(gates, c.expr)
		case probe:
			cols, vals = append(cols, col), append(vals, val)
			correlated = correlated || len(sqlast.ColumnRefsOf(val)) > 0
		default:
			rest = append(rest, c)
		}
	}
	if !correlated {
		return nil
	}
	sj := &semiJoin{ex: ex, sc: ve.sc, tab: tab, cols: cols, kcols: make([][]sqltypes.Value, len(vals))}
	for _, e := range gates {
		sj.gates = append(sj.gates, ve.compile(e))
	}
	for _, e := range vals {
		sj.keys = append(sj.keys, ve.compile(e))
	}
	sj.rest.f = ex.newFilterOp(rest, rel, &scope{parent: ve.sc})
	return sj
}

// probe answers EXISTS (out[i] != not) for the selected rows of b. A row a
// gate does not pass, or with a NULL key, has no candidates; an error in a
// gate, a key or the filter over the row's candidates poisons that row.
func (sj *semiJoin) probe(b *Batch, sel []int32, out []sqltypes.Value, not bool) {
	ex := sj.ex
	if ex.depth > 64 {
		for _, i := range sel {
			b.poison(i, errSubqueryDepth)
		}
		return
	}
	ex.db.Stats.ExistsProbes.Add(int64(len(sel)))
	sj.busy = true
	ex.depth++
	st := ex.vs
	m := st.mark()
	defer func() {
		st.release(m)
		ex.depth--
		sj.busy = false
	}()
	n := len(b.rows)
	col := st.takeVals(n)
	for _, gate := range sj.gates {
		gate(b, sel, col)
		kept := st.takeSel(len(sel))
		for _, i := range sel {
			if b.errs[i] != nil {
				continue
			}
			if truth, _ := sqltypes.Truthy(col[i]); truth {
				kept = append(kept, i)
			} else {
				out[i] = sqltypes.NewBool(not)
			}
		}
		sel = kept
	}
	for j, key := range sj.keys {
		sj.kcols[j] = st.takeVals(n)
		key(b, sel, sj.kcols[j])
		sel = b.compactSel(st.takeSel(len(sel)), sel)
	}
	for _, i := range sel {
		found, err := sj.exists(i, b.rows[i])
		if err != nil {
			b.poison(i, err)
			continue
		}
		out[i] = sqltypes.NewBool(found != not)
	}
}

// exists reports whether a candidate under outer row i's keys passes the
// filter. Every candidate is filtered, as draining the subquery would: one
// that raises after another has passed still raises.
func (sj *semiJoin) exists(i int32, outer []sqltypes.Value) (bool, error) {
	ex := sj.ex
	sj.kb = sj.kb[:0]
	for _, c := range sj.kcols {
		if c[i].IsNull() {
			return false, nil
		}
		sj.kb = sqltypes.AppendKey(sj.kb, c[i])
	}
	if sj.idx == nil {
		idx, err := ex.tableIndex(sj.tab, sj.cols)
		if err != nil {
			return false, err
		}
		sj.heap, sj.idx = ex.heap(sj.tab), idx
	}
	ids := sj.idx.bucket(sj.kb)
	ex.db.Stats.ScanRows.Add(int64(len(ids)))
	if len(sj.rest.f.progs) == 0 || len(ids) == 0 {
		return len(ids) > 0, nil
	}
	if err := ex.cancelled(); err != nil {
		return false, err
	}
	sj.sc.row = outer
	found := false
	err := sj.rest.each(sj.heap, ids, func(int) { found = true })
	return found, err
}

func (ve *venv) compileLike(x *sqlast.LikeExpr) vecExpr {
	sub, pat := ve.compile(x.X), ve.compile(x.Pattern)
	not := x.Not
	st := ve.vs
	return func(b *Batch, sel []int32, out []sqltypes.Value) {
		n := len(b.rows)
		m := st.mark()
		sub(b, sel, out)
		sel = b.compactSel(st.takeSel(len(sel)), sel)
		pbuf := st.takeVals(n)
		pat(b, sel, pbuf)
		for _, i := range sel {
			if b.errs[i] != nil {
				continue
			}
			if out[i].IsNull() || pbuf[i].IsNull() {
				out[i] = sqltypes.Null
				continue
			}
			out[i] = sqltypes.NewBool(likeMatch(out[i].AsString(), pbuf[i].AsString()) != not)
		}
		st.release(m)
	}
}

// compileCase vectorizes CASE by refining a pending-rows vector through the
// WHEN ladder: each condition is evaluated only for still-undecided rows and
// each THEN only for the rows its condition matched, mirroring the
// interpreter's per-row control flow.
func (ve *venv) compileCase(x *sqlast.CaseExpr) vecExpr {
	var operand vecExpr
	if x.Operand != nil {
		operand = ve.compile(x.Operand)
	}
	conds := make([]vecExpr, len(x.Whens))
	thens := make([]vecExpr, len(x.Whens))
	for i, w := range x.Whens {
		conds[i] = ve.compile(w.Cond)
		thens[i] = ve.compile(w.Then)
	}
	var elseFn vecExpr
	if x.Else != nil {
		elseFn = ve.compile(x.Else)
	}
	st := ve.vs
	return func(b *Batch, sel []int32, out []sqltypes.Value) {
		n := len(b.rows)
		m := st.mark()
		var opbuf []sqltypes.Value
		pending := append(st.takeSel(len(sel)), sel...)
		if operand != nil {
			opbuf = st.takeVals(n)
			operand(b, pending, opbuf)
			pending = b.compactSel(pending, pending)
		}
		other := st.takeSel(len(sel))
		matchBuf := st.takeSel(len(sel))
		cbuf := st.takeVals(n)
		for k := range conds {
			if len(pending) == 0 {
				break
			}
			conds[k](b, pending, cbuf)
			matched := matchBuf[:0]
			still := other[:0]
			for _, i := range pending {
				if b.errs[i] != nil {
					continue
				}
				var hit bool
				if operand != nil {
					eq, ok := sqltypes.Equal(opbuf[i], cbuf[i])
					hit = ok && eq
				} else {
					hit, _ = sqltypes.Truthy(cbuf[i])
				}
				if hit {
					matched = append(matched, i)
				} else {
					still = append(still, i)
				}
			}
			thens[k](b, matched, out)
			pending, other = still, pending[:0]
		}
		switch {
		case elseFn != nil:
			elseFn(b, pending, out)
		default:
			for _, i := range pending {
				if b.errs[i] == nil {
					out[i] = sqltypes.Null
				}
			}
		}
		st.release(m)
	}
}

// ---------------------------------------------------------------- calls

// compileFunc lowers a scalar call. Aggregates (which need the group
// context), unknown functions and wrong argument counts have no kernel: the
// interpreter raises their errors for exactly the rows it evaluates.
func (ve *venv) compileFunc(x *sqlast.FuncCall) vecExpr {
	upper := strings.ToUpper(x.Name)
	if sqlast.IsAggregate(upper) {
		return ve.compileAggregate(x)
	}
	if f := strictBuiltins[upper]; f != nil {
		if len(x.Args) != 1 {
			return nil
		}
		return ve.compileCall(x.Args, true, func(argv []sqltypes.Value) (sqltypes.Value, error) {
			return f(argv[0]), nil
		})
	}
	switch upper {
	case "CONCAT":
		return ve.compileCall(x.Args, true, func(argv []sqltypes.Value) (sqltypes.Value, error) {
			var sb strings.Builder
			for _, v := range argv {
				sb.WriteString(v.AsString())
			}
			return sqltypes.NewString(sb.String()), nil
		})
	case "ROUND":
		if len(x.Args) == 0 || len(x.Args) > 2 {
			return nil
		}
		return ve.compileCall(x.Args, true, func(argv []sqltypes.Value) (sqltypes.Value, error) {
			digits := int64(0)
			if len(argv) == 2 {
				digits = argv[1].AsInt()
			}
			return roundTo(argv[0].AsFloat(), digits), nil
		})
	case "COALESCE":
		return ve.compileCoalesce(x.Args)
	}
	// The function resolves in the exec's pinned catalog, so the kernel and
	// the interpreter agree on which definition a name means even if DDL
	// swaps the live catalog mid-query.
	fn := ve.ex.function(x.Name)
	if fn == nil || len(x.Args) != fn.NumParams {
		return nil
	}
	c := ve.ex.udf(fn)
	if c.batched() {
		return ve.compileCalls(x.Args, false, c.batch)
	}
	return ve.compileCall(x.Args, false, c.call)
}

// compileAggregate reads aggregate call x in a grouped projection's output,
// whose batch rows stand for groups (groupOperator): row r's value is the
// result of x's accumulator in r's group, or the error it latched. nil
// outside a group's output: the interpreter raises the call there.
func (ve *venv) compileAggregate(x *sqlast.FuncCall) vecExpr {
	g := ve.sc.group
	if g == nil {
		return nil
	}
	i := slices.Index(g.calls, x)
	if i < 0 {
		// Not the group's call but one in a subquery's WHERE that the
		// semi-join lowers here (semiJoinOf): where it sits, it is outside
		// any group.
		_, err := ve.ex.evalAggregate(x, rootScope())
		return vecBroadcast(func() (sqltypes.Value, error) { return sqltypes.Null, err })
	}
	return func(b *Batch, sel []int32, out []sqltypes.Value) {
		for _, r := range sel {
			v, err := g.acc(r, i).result()
			if err != nil {
				b.poison(r, err)
				continue
			}
			out[r] = v
		}
	}
}

func (ve *venv) compileAll(exprs []sqlast.Expr) []vecExpr {
	progs := make([]vecExpr, len(exprs))
	for j, e := range exprs {
		progs[j] = ve.compile(e)
	}
	return progs
}

// compileCall lowers a call whose arguments are evaluated as compileCalls
// evaluates them and combined per row by f. The one row's argv f sees lives
// on the scratch stack, so a UDF body that re-enters this kernel through f
// cannot touch it, and f's callee may keep argv as its parameter frame while
// it runs.
func (ve *venv) compileCall(args []sqlast.Expr, strict bool, f func(argv []sqltypes.Value) (sqltypes.Value, error)) vecExpr {
	st := ve.vs
	return ve.compileCalls(args, strict, func(b *Batch, live []int32, cols, out []sqltypes.Value) {
		n, argv := len(b.rows), st.takeVals(len(args))
		for _, i := range live {
			for j := range argv {
				argv[j] = cols[j*n+int(i)]
			}
			v, err := f(argv)
			if err != nil {
				b.poison(i, err)
				continue
			}
			out[i] = v
		}
	})
}

// compileCalls lowers a call whose arguments are evaluated left to right into
// columns and answered by calls, for the batch's live rows at once. A row
// leaves the selection at its first failing argument and, when strict, at its
// first NULL one with NULL as the result — where the interpreter returns — so
// later arguments, and any error they would raise, are evaluated only for the
// rows the interpreter evaluates them for. calls gets the live rows and the
// argument columns (argument j of row i at cols[j*len(b.rows)+i]); it writes
// out[i] or poisons row i for each, and may overwrite live and take from the
// scratch stack. The columns live on the scratch stack, so a UDF body that
// re-enters this kernel cannot touch them.
func (ve *venv) compileCalls(args []sqlast.Expr, strict bool, calls func(b *Batch, live []int32, cols, out []sqltypes.Value)) vecExpr {
	progs := ve.compileAll(args)
	k, st := len(progs), ve.vs
	return func(b *Batch, sel []int32, out []sqltypes.Value) {
		n := len(b.rows)
		m := st.mark()
		cols := st.takeVals(k * n)
		live := append(st.takeSel(len(sel)), sel...)
		for j, prog := range progs {
			col := cols[j*n : (j+1)*n]
			prog(b, live, col)
			kept := live[:0]
			for _, i := range live {
				switch {
				case b.errs[i] != nil:
				case strict && col[i].IsNull():
					out[i] = sqltypes.Null
				default:
					kept = append(kept, i)
				}
			}
			live = kept
		}
		calls(b, live, cols, out)
		st.release(m)
	}
}

// compileCoalesce evaluates each argument only for the rows every earlier
// argument left NULL: a row keeps its first non-NULL value and drops out.
func (ve *venv) compileCoalesce(args []sqlast.Expr) vecExpr {
	progs := ve.compileAll(args)
	st := ve.vs
	return func(b *Batch, sel []int32, out []sqltypes.Value) {
		m := st.mark()
		pending := append(st.takeSel(len(sel)), sel...)
		for _, prog := range progs {
			prog(b, pending, out)
			still := pending[:0]
			for _, i := range pending {
				if b.errs[i] == nil && out[i].IsNull() {
					still = append(still, i)
				}
			}
			pending = still
		}
		for _, i := range pending {
			out[i] = sqltypes.Null
		}
		st.release(m)
	}
}

// compileSubstring follows evalSubstring's order: X and FROM are both
// evaluated before either NULL decides, FOR only for the rows that survive.
func (ve *venv) compileSubstring(x *sqlast.SubstringExpr) vecExpr {
	str, from := ve.compile(x.X), ve.compile(x.From)
	var length vecExpr
	if x.For != nil {
		length = ve.compile(x.For)
	}
	st := ve.vs
	return func(b *Batch, sel []int32, out []sqltypes.Value) {
		n := len(b.rows)
		m := st.mark()
		str(b, sel, out)
		selBuf := st.takeSel(len(sel))
		sel = b.compactSel(selBuf, sel)
		fbuf := st.takeVals(n)
		from(b, sel, fbuf)
		live := selBuf[:0] // may alias sel: the write position never passes the read
		for _, i := range sel {
			switch {
			case b.errs[i] != nil:
			case out[i].IsNull() || fbuf[i].IsNull():
				out[i] = sqltypes.Null
			default:
				live = append(live, i)
			}
		}
		var lbuf []sqltypes.Value
		if length != nil {
			lbuf = st.takeVals(n)
			length(b, live, lbuf)
		}
		for _, i := range live {
			if b.errs[i] != nil {
				continue
			}
			s := out[i].AsString()
			chars := int64(len(s))
			if length != nil {
				if lbuf[i].IsNull() {
					out[i] = sqltypes.Null
					continue
				}
				chars = lbuf[i].AsInt()
			}
			out[i] = sqltypes.NewString(substring(s, fbuf[i].AsInt(), chars))
		}
		st.release(m)
	}
}

// ---------------------------------------------------------------- key sets

// vecKeySet computes a set of key expressions (join or group-by keys) into
// per-batch key columns, dropping poisoned and NULL-key rows from the
// selection vector exactly where the row-at-a-time loops skip them. The key
// columns live on the scratch stack: callers mark before compute and release
// once the batch's keys have been consumed.
type vecKeySet struct {
	ex    *exec
	progs []vecExpr
	cols  [][]sqltypes.Value
}

// vecKeys compiles one batch program per expression.
func (ex *exec) vecKeys(exprs []sqlast.Expr, bindings []*binding, sc *scope) *vecKeySet {
	progs, _ := ex.vecCompileAll(exprs, bindings, sc, nil)
	return &vecKeySet{ex: ex, progs: progs, cols: make([][]sqltypes.Value, len(exprs))}
}

// compute fills the key columns for b and returns the surviving selection.
// With dropNulls (join keys) rows with a NULL key are dropped — NULL never
// matches an equi key — and their remaining key expressions skipped, exactly
// like the row loops' per-row short-circuit; an outer join finds them again
// as the rows of b.sel missing from the result. Group-by callers pass
// dropNulls=false: NULL is a valid group key.
func (ks *vecKeySet) compute(b *Batch, dropNulls bool) []int32 {
	st := ks.ex.vs
	sel := b.sel
	for j, prog := range ks.progs {
		ks.cols[j] = st.takeVals(len(b.rows))
		prog(b, sel, ks.cols[j])
		kept := st.takeSel(len(sel))
		col := ks.cols[j]
		for _, i := range sel {
			if b.errs[i] != nil {
				continue
			}
			if dropNulls && col[i].IsNull() {
				continue
			}
			kept = append(kept, i)
		}
		sel = kept
	}
	return sel
}
