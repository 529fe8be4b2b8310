package engine

// This file implements the compiled-expression subsystem: sqlast.Expr trees
// are lowered once per query into closures over the current relation's flat
// row layout, so the per-row hot paths (WHERE filters, projections, join and
// group-by keys, sort keys, aggregate arguments) pay no per-row name
// resolution, no string-keyed scope lookups and no AST dispatch. The paper's
// residual cost after O1–O4 is per-row conversion-function calls; compiling
// the call sites, planning conversion-UDF bodies once per statement and
// memoizing pure conversion results turns that residue into array indexing
// plus hash probes.
//
// Compilation is best-effort: any construct the compiler does not cover —
// subqueries, EXISTS, aggregates, correlated references that resolve in an
// enclosing scope, $n parameters outside a UDF body plan — makes
// cenv.compile report !ok and its two callers (the batch lowering's lift in
// vector.go, the planned UDF body projection below) fall back to the
// tree-walking interpreter in eval.go. Compiled and interpreted evaluation
// are kept behaviourally identical (including evaluation order,
// short-circuiting and error propagation); the differential property test in
// property_test.go enforces this.

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"mtbase/internal/sqlast"
	"mtbase/internal/sqltypes"
)

// compiledExpr evaluates an expression against a row laid out according to
// the bindings the expression was compiled with.
type compiledExpr func(ex *exec, row []sqltypes.Value) (sqltypes.Value, error)

// cenv is the compilation environment: the flat row layout plus, inside a
// UDF body plan, the slot the plan stores the current call's arguments in.
// It deliberately holds no *exec — compiled closures take the executing
// exec as a parameter, so a closure cached on a shared plan (a UDF body
// projection, the call sites inside it) runs against whichever execution
// invokes it instead of the one that happened to build it.
type cenv struct {
	db       *DB
	cat      *catalog // the compiling exec's pinned catalog (UDF resolution)
	bindings []*binding
	params   *[]sqltypes.Value // non-nil only inside UDF body plans

	// clientBinds permits lowering a $n to a per-execution bind lookup
	// (exec.bind). It is set only when the compilation scope chain carries
	// no UDF parameter frame: inside a UDF body the same node must resolve
	// to the function argument, which the interpreter fallback handles.
	clientBinds bool
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
	if found < 0 {
		return -1, false
	}
	return found, true
}

func (env *cenv) compile(e sqlast.Expr) (compiledExpr, bool) {
	switch x := e.(type) {
	case *sqlast.Literal:
		v := x.Val
		return func(*exec, []sqltypes.Value) (sqltypes.Value, error) { return v, nil }, true
	case *sqlast.ColumnRef:
		idx, ok := resolveLocal(env.bindings, x.Table, x.Name)
		if !ok {
			return nil, false
		}
		return func(ex *exec, row []sqltypes.Value) (sqltypes.Value, error) { return row[idx], nil }, true
	case *sqlast.Param:
		n := x.N
		if env.params != nil {
			slot := env.params
			return func(*exec, []sqltypes.Value) (sqltypes.Value, error) {
				ps := *slot
				if n < 1 || n > len(ps) {
					return sqltypes.Null, fmt.Errorf("engine: parameter $%d out of range", n)
				}
				return ps[n-1], nil
			}, true
		}
		if env.clientBinds {
			// Statement-level bind: a per-execution constant read off the
			// executing exec, so one compiled plan serves every binding.
			return func(ex *exec, _ []sqltypes.Value) (sqltypes.Value, error) {
				return ex.bind(n)
			}, true
		}
		return nil, false
	case *sqlast.BinaryExpr:
		return env.compileBinary(x)
	case *sqlast.UnaryExpr:
		sub, ok := env.compile(x.X)
		if !ok {
			return nil, false
		}
		if x.Op == "-" {
			return func(ex *exec, row []sqltypes.Value) (sqltypes.Value, error) {
				v, err := sub(ex, row)
				if err != nil {
					return sqltypes.Null, err
				}
				return sqltypes.Neg(v)
			}, true
		}
		return func(ex *exec, row []sqltypes.Value) (sqltypes.Value, error) {
			v, err := sub(ex, row)
			if err != nil {
				return sqltypes.Null, err
			}
			if v.IsNull() {
				return sqltypes.Null, nil
			}
			return sqltypes.NewBool(!v.Bool()), nil
		}, true
	case *sqlast.FuncCall:
		return env.compileFunc(x)
	case *sqlast.CaseExpr:
		return env.compileCase(x)
	case *sqlast.InExpr:
		return env.compileIn(x)
	case *sqlast.BetweenExpr:
		return env.compileBetween(x)
	case *sqlast.LikeExpr:
		return env.compileLike(x)
	case *sqlast.IsNullExpr:
		sub, ok := env.compile(x.X)
		if !ok {
			return nil, false
		}
		not := x.Not
		return func(ex *exec, row []sqltypes.Value) (sqltypes.Value, error) {
			v, err := sub(ex, row)
			if err != nil {
				return sqltypes.Null, err
			}
			return sqltypes.NewBool(v.IsNull() != not), nil
		}, true
	case *sqlast.ExtractExpr:
		return env.compileExtract(x)
	case *sqlast.SubstringExpr:
		return env.compileSubstring(x)
	case *sqlast.IntervalExpr:
		var v sqltypes.Value
		switch x.Unit {
		case "DAY":
			v = sqltypes.NewInterval(x.N, 0)
		case "MONTH":
			v = sqltypes.NewInterval(0, x.N)
		case "YEAR":
			v = sqltypes.NewInterval(0, 12*x.N)
		default:
			return nil, false
		}
		return func(*exec, []sqltypes.Value) (sqltypes.Value, error) { return v, nil }, true
	}
	// Subqueries, EXISTS, row values: interpreter territory.
	return nil, false
}

func (env *cenv) compileBinary(x *sqlast.BinaryExpr) (compiledExpr, bool) {
	l, ok := env.compile(x.L)
	if !ok {
		return nil, false
	}
	r, ok := env.compile(x.R)
	if !ok {
		return nil, false
	}
	switch x.Op {
	case "AND":
		return func(ex *exec, row []sqltypes.Value) (sqltypes.Value, error) {
			lv, err := l(ex, row)
			if err != nil {
				return sqltypes.Null, err
			}
			if lt, known := sqltypes.Truthy(lv); known && !lt {
				return sqltypes.NewBool(false), nil
			}
			rv, err := r(ex, row)
			if err != nil {
				return sqltypes.Null, err
			}
			if rt, known := sqltypes.Truthy(rv); known && !rt {
				return sqltypes.NewBool(false), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return sqltypes.Null, nil
			}
			return sqltypes.NewBool(true), nil
		}, true
	case "OR":
		return func(ex *exec, row []sqltypes.Value) (sqltypes.Value, error) {
			lv, err := l(ex, row)
			if err != nil {
				return sqltypes.Null, err
			}
			if lt, known := sqltypes.Truthy(lv); known && lt {
				return sqltypes.NewBool(true), nil
			}
			rv, err := r(ex, row)
			if err != nil {
				return sqltypes.Null, err
			}
			if rt, known := sqltypes.Truthy(rv); known && rt {
				return sqltypes.NewBool(true), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return sqltypes.Null, nil
			}
			return sqltypes.NewBool(false), nil
		}, true
	case "=", "<>", "<", "<=", ">", ">=":
		op := x.Op
		return func(ex *exec, row []sqltypes.Value) (sqltypes.Value, error) {
			lv, err := l(ex, row)
			if err != nil {
				return sqltypes.Null, err
			}
			rv, err := r(ex, row)
			if err != nil {
				return sqltypes.Null, err
			}
			cmp, ok := sqltypes.Compare(lv, rv)
			if !ok {
				return sqltypes.Null, nil
			}
			var b bool
			switch op {
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
		}, true
	case "+":
		return compileArith(l, r, sqltypes.Add), true
	case "-":
		return compileArith(l, r, sqltypes.Sub), true
	case "*":
		return compileArith(l, r, sqltypes.Mul), true
	case "/":
		return compileArith(l, r, sqltypes.Div), true
	case "%":
		return func(ex *exec, row []sqltypes.Value) (sqltypes.Value, error) {
			lv, err := l(ex, row)
			if err != nil {
				return sqltypes.Null, err
			}
			rv, err := r(ex, row)
			if err != nil {
				return sqltypes.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return sqltypes.Null, nil
			}
			if rv.AsInt() == 0 {
				return sqltypes.Null, errModuloZero
			}
			return sqltypes.NewInt(lv.AsInt() % rv.AsInt()), nil
		}, true
	case "||":
		return func(ex *exec, row []sqltypes.Value) (sqltypes.Value, error) {
			lv, err := l(ex, row)
			if err != nil {
				return sqltypes.Null, err
			}
			rv, err := r(ex, row)
			if err != nil {
				return sqltypes.Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return sqltypes.Null, nil
			}
			return sqltypes.NewString(lv.AsString() + rv.AsString()), nil
		}, true
	}
	return nil, false
}

func compileArith(l, r compiledExpr, op func(a, b sqltypes.Value) (sqltypes.Value, error)) compiledExpr {
	return func(ex *exec, row []sqltypes.Value) (sqltypes.Value, error) {
		lv, err := l(ex, row)
		if err != nil {
			return sqltypes.Null, err
		}
		rv, err := r(ex, row)
		if err != nil {
			return sqltypes.Null, err
		}
		return op(lv, rv)
	}
}

func (env *cenv) compileCase(x *sqlast.CaseExpr) (compiledExpr, bool) {
	var operand compiledExpr
	if x.Operand != nil {
		var ok bool
		operand, ok = env.compile(x.Operand)
		if !ok {
			return nil, false
		}
	}
	conds := make([]compiledExpr, len(x.Whens))
	thens := make([]compiledExpr, len(x.Whens))
	for i, w := range x.Whens {
		var ok bool
		if conds[i], ok = env.compile(w.Cond); !ok {
			return nil, false
		}
		if thens[i], ok = env.compile(w.Then); !ok {
			return nil, false
		}
	}
	var elseFn compiledExpr
	if x.Else != nil {
		var ok bool
		if elseFn, ok = env.compile(x.Else); !ok {
			return nil, false
		}
	}
	return func(ex *exec, row []sqltypes.Value) (sqltypes.Value, error) {
		var opv sqltypes.Value
		if operand != nil {
			var err error
			if opv, err = operand(ex, row); err != nil {
				return sqltypes.Null, err
			}
		}
		for i, cond := range conds {
			cv, err := cond(ex, row)
			if err != nil {
				return sqltypes.Null, err
			}
			matched := false
			if operand != nil {
				eq, ok := sqltypes.Equal(opv, cv)
				matched = ok && eq
			} else {
				matched, _ = sqltypes.Truthy(cv)
			}
			if matched {
				return thens[i](ex, row)
			}
		}
		if elseFn != nil {
			return elseFn(ex, row)
		}
		return sqltypes.Null, nil
	}, true
}

func (env *cenv) compileIn(x *sqlast.InExpr) (compiledExpr, bool) {
	if x.Sub != nil {
		return nil, false // subquery IN: interpreter caches the hash set
	}
	sub, ok := env.compile(x.X)
	if !ok {
		return nil, false
	}
	not := x.Not

	// Literal-only lists (the common shape after rewrite, e.g. country-code
	// predicates in Q22) collapse to one hash probe. AppendKey encodes
	// integers as float64, so distinct huge integers can share a key; each
	// bucket therefore keeps its values and a hit is confirmed with
	// sqltypes.Equal, giving exact parity with the interpreter's list scan.
	allLit := true
	for _, item := range x.List {
		if _, isLit := item.(*sqlast.Literal); !isLit {
			allLit = false
			break
		}
	}
	if allLit {
		set := make(map[string][]sqltypes.Value, len(x.List))
		sawNull := false
		var buf []byte
		for _, item := range x.List {
			v := item.(*sqlast.Literal).Val
			if v.IsNull() {
				sawNull = true
				continue
			}
			buf = sqltypes.AppendKey(buf[:0], v)
			set[string(buf)] = append(set[string(buf)], v)
		}
		var probe []byte
		return func(ex *exec, row []sqltypes.Value) (sqltypes.Value, error) {
			v, err := sub(ex, row)
			if err != nil {
				return sqltypes.Null, err
			}
			if v.IsNull() {
				return sqltypes.Null, nil
			}
			probe = sqltypes.AppendKey(probe[:0], v)
			found := false
			for _, lv := range set[string(probe)] {
				if eq, ok := sqltypes.Equal(v, lv); ok && eq {
					found = true
					break
				}
			}
			if !found && sawNull {
				return sqltypes.Null, nil
			}
			return sqltypes.NewBool(found != not), nil
		}, true
	}

	items := make([]compiledExpr, len(x.List))
	for i, item := range x.List {
		var ok bool
		if items[i], ok = env.compile(item); !ok {
			return nil, false
		}
	}
	return func(ex *exec, row []sqltypes.Value) (sqltypes.Value, error) {
		v, err := sub(ex, row)
		if err != nil {
			return sqltypes.Null, err
		}
		if v.IsNull() {
			return sqltypes.Null, nil
		}
		sawNull := false
		found := false
		for _, item := range items {
			iv, err := item(ex, row)
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
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(found != not), nil
	}, true
}

func (env *cenv) compileBetween(x *sqlast.BetweenExpr) (compiledExpr, bool) {
	sub, ok := env.compile(x.X)
	if !ok {
		return nil, false
	}
	lo, ok := env.compile(x.Lo)
	if !ok {
		return nil, false
	}
	hi, ok := env.compile(x.Hi)
	if !ok {
		return nil, false
	}
	not := x.Not
	return func(ex *exec, row []sqltypes.Value) (sqltypes.Value, error) {
		v, err := sub(ex, row)
		if err != nil {
			return sqltypes.Null, err
		}
		lv, err := lo(ex, row)
		if err != nil {
			return sqltypes.Null, err
		}
		hv, err := hi(ex, row)
		if err != nil {
			return sqltypes.Null, err
		}
		c1, ok1 := sqltypes.Compare(v, lv)
		c2, ok2 := sqltypes.Compare(v, hv)
		if !ok1 || !ok2 {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool((c1 >= 0 && c2 <= 0) != not), nil
	}, true
}

func (env *cenv) compileLike(x *sqlast.LikeExpr) (compiledExpr, bool) {
	sub, ok := env.compile(x.X)
	if !ok {
		return nil, false
	}
	pat, ok := env.compile(x.Pattern)
	if !ok {
		return nil, false
	}
	not := x.Not
	return func(ex *exec, row []sqltypes.Value) (sqltypes.Value, error) {
		v, err := sub(ex, row)
		if err != nil {
			return sqltypes.Null, err
		}
		p, err := pat(ex, row)
		if err != nil {
			return sqltypes.Null, err
		}
		if v.IsNull() || p.IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewBool(likeMatch(v.AsString(), p.AsString()) != not), nil
	}, true
}

func (env *cenv) compileExtract(x *sqlast.ExtractExpr) (compiledExpr, bool) {
	sub, ok := env.compile(x.X)
	if !ok {
		return nil, false
	}
	field := x.Field
	switch field {
	case "YEAR", "MONTH", "DAY":
	default:
		return nil, false
	}
	return func(ex *exec, row []sqltypes.Value) (sqltypes.Value, error) {
		v, err := sub(ex, row)
		if err != nil {
			return sqltypes.Null, err
		}
		if v.IsNull() {
			return sqltypes.Null, nil
		}
		if v.K != sqltypes.KindDate {
			return sqltypes.Null, errExtractNonDate(v.K)
		}
		t := sqltypes.DateToTime(v)
		switch field {
		case "YEAR":
			return sqltypes.NewInt(int64(t.Year())), nil
		case "MONTH":
			return sqltypes.NewInt(int64(t.Month())), nil
		}
		return sqltypes.NewInt(int64(t.Day())), nil
	}, true
}

func (env *cenv) compileSubstring(x *sqlast.SubstringExpr) (compiledExpr, bool) {
	sub, ok := env.compile(x.X)
	if !ok {
		return nil, false
	}
	from, ok := env.compile(x.From)
	if !ok {
		return nil, false
	}
	var forFn compiledExpr
	if x.For != nil {
		if forFn, ok = env.compile(x.For); !ok {
			return nil, false
		}
	}
	return func(ex *exec, row []sqltypes.Value) (sqltypes.Value, error) {
		v, err := sub(ex, row)
		if err != nil {
			return sqltypes.Null, err
		}
		fv, err := from(ex, row)
		if err != nil {
			return sqltypes.Null, err
		}
		if v.IsNull() || fv.IsNull() {
			return sqltypes.Null, nil
		}
		s := v.AsString()
		start := int(fv.AsInt()) - 1
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := len(s)
		if forFn != nil {
			n, err := forFn(ex, row)
			if err != nil {
				return sqltypes.Null, err
			}
			if n.IsNull() {
				return sqltypes.Null, nil
			}
			end = start + int(n.AsInt())
			if end > len(s) {
				end = len(s)
			}
			if end < start {
				end = start
			}
		}
		return sqltypes.NewString(s[start:end]), nil
	}, true
}

// ---------------------------------------------------------------- functions

func (env *cenv) compileFunc(x *sqlast.FuncCall) (compiledExpr, bool) {
	upper := strings.ToUpper(x.Name)
	if aggregateNames[upper] {
		return nil, false // aggregates need the group context
	}
	switch upper {
	case "CONCAT":
		args, ok := env.compileArgs(x.Args)
		if !ok {
			return nil, false
		}
		return func(ex *exec, row []sqltypes.Value) (sqltypes.Value, error) {
			var sb strings.Builder
			for _, a := range args {
				v, err := a(ex, row)
				if err != nil {
					return sqltypes.Null, err
				}
				if v.IsNull() {
					return sqltypes.Null, nil
				}
				sb.WriteString(v.AsString())
			}
			return sqltypes.NewString(sb.String()), nil
		}, true
	case "CHAR_LENGTH":
		return env.compileOneArg(x, func(v sqltypes.Value) (sqltypes.Value, error) {
			return sqltypes.NewInt(int64(len(v.AsString()))), nil
		})
	case "ABS":
		return env.compileOneArg(x, func(v sqltypes.Value) (sqltypes.Value, error) {
			if v.K == sqltypes.KindInt {
				if v.I < 0 {
					return sqltypes.NewInt(-v.I), nil
				}
				return v, nil
			}
			return sqltypes.NewFloat(math.Abs(v.AsFloat())), nil
		})
	case "ROUND":
		return env.compileRound(x)
	case "COALESCE":
		args, ok := env.compileArgs(x.Args)
		if !ok {
			return nil, false
		}
		return func(ex *exec, row []sqltypes.Value) (sqltypes.Value, error) {
			for _, a := range args {
				v, err := a(ex, row)
				if err != nil {
					return sqltypes.Null, err
				}
				if !v.IsNull() {
					return v, nil
				}
			}
			return sqltypes.Null, nil
		}, true
	case "CAST_INTEGER", "CAST_INT", "CAST_BIGINT":
		return env.compileOneArg(x, func(v sqltypes.Value) (sqltypes.Value, error) {
			return sqltypes.NewInt(v.AsInt()), nil
		})
	case "CAST_DECIMAL", "CAST_NUMERIC":
		return env.compileOneArg(x, func(v sqltypes.Value) (sqltypes.Value, error) {
			return sqltypes.NewFloat(v.AsFloat()), nil
		})
	case "CAST_VARCHAR", "CAST_CHAR", "CAST_TEXT":
		return env.compileOneArg(x, func(v sqltypes.Value) (sqltypes.Value, error) {
			return sqltypes.NewString(v.AsString()), nil
		})
	}
	fn := env.function(x.Name)
	if fn == nil {
		return nil, false // interpreter raises "unknown function"
	}
	if len(x.Args) != fn.NumParams {
		return nil, false // interpreter raises the arity error
	}
	args, ok := env.compileArgs(x.Args)
	if !ok {
		return nil, false
	}
	site := &udfSite{fn: fn, args: args, argv: make([]sqltypes.Value, len(args))}
	if fn.Immutable && env.db.mode == ModePostgres {
		site.cached = true
		site.prefix = []byte(fn.Name)
	}
	return site.call, true
}

// function resolves a UDF against the compiling exec's pinned catalog so a
// compiled closure and its interpreter fallback agree on which function
// definition a name means, even if DDL swaps the live catalog mid-query.
func (env *cenv) function(name string) *Function {
	if env.cat != nil {
		return env.cat.function(name)
	}
	return env.db.Function(name)
}

func (env *cenv) compileArgs(exprs []sqlast.Expr) ([]compiledExpr, bool) {
	args := make([]compiledExpr, len(exprs))
	for i, a := range exprs {
		var ok bool
		if args[i], ok = env.compile(a); !ok {
			return nil, false
		}
	}
	return args, true
}

// compileOneArg handles single-argument builtins with NULL propagation.
// Arity mismatches fall back so the interpreter raises its usual error.
func (env *cenv) compileOneArg(x *sqlast.FuncCall, f func(sqltypes.Value) (sqltypes.Value, error)) (compiledExpr, bool) {
	if len(x.Args) != 1 {
		return nil, false
	}
	sub, ok := env.compile(x.Args[0])
	if !ok {
		return nil, false
	}
	return func(ex *exec, row []sqltypes.Value) (sqltypes.Value, error) {
		v, err := sub(ex, row)
		if err != nil || v.IsNull() {
			return sqltypes.Null, err
		}
		return f(v)
	}, true
}

func (env *cenv) compileRound(x *sqlast.FuncCall) (compiledExpr, bool) {
	if len(x.Args) == 0 || len(x.Args) > 2 {
		return nil, false
	}
	sub, ok := env.compile(x.Args[0])
	if !ok {
		return nil, false
	}
	var digitsFn compiledExpr
	if len(x.Args) == 2 {
		if digitsFn, ok = env.compile(x.Args[1]); !ok {
			return nil, false
		}
	}
	return func(ex *exec, row []sqltypes.Value) (sqltypes.Value, error) {
		v, err := sub(ex, row)
		if err != nil || v.IsNull() {
			return sqltypes.Null, err
		}
		digits := int64(0)
		if digitsFn != nil {
			d, err := digitsFn(ex, row)
			if err != nil || d.IsNull() {
				return sqltypes.Null, err
			}
			digits = d.AsInt()
		}
		return roundTo(v.AsFloat(), digits), nil
	}, true
}

// udfSite is one compiled call site of a SQL-bodied function. When the
// function is IMMUTABLE and the engine emulates PostgreSQL, the site probes
// the statement-wide result cache directly with a pre-encoded function-name
// prefix: the paper's conversion functions are deterministic per
// (value, tenant) pair, so the Canonical/O1 levels' 2N conversion calls
// collapse to |distinct inputs| body executions — and sharing the statement
// cache (instead of fronting it with a per-site memo) means a miss pays one
// map probe and one insert, not two of each, while results stay visible
// across call sites of the same function.
//
// The site carries no exec: the executing exec arrives per call. The
// buf/argv scratch is mutable state, which is safe because every compiled
// closure — including UDF body projections, which PR 6 made per-exec
// (ex.udfProj) — belongs to exactly one exec, each parallel worker compiles
// its own closures (workerClone), and recursive re-entry copies argv before
// the body resolves $n (execUDFBody).
type udfSite struct {
	fn     *Function
	args   []compiledExpr
	cached bool   // IMMUTABLE + ModePostgres: probe the statement cache
	prefix []byte // fn.Name, encoded once; must match callUDF's key shape
	buf    []byte
	argv   []sqltypes.Value
}

func (s *udfSite) call(ex *exec, row []sqltypes.Value) (sqltypes.Value, error) {
	for i, a := range s.args {
		v, err := a(ex, row)
		if err != nil {
			return sqltypes.Null, err
		}
		s.argv[i] = v
	}
	if !s.cached {
		return ex.callUDF(s.fn, s.argv)
	}
	buf := append(s.buf[:0], s.prefix...)
	for _, v := range s.argv {
		buf = sqltypes.AppendKey(buf, v)
	}
	s.buf = buf
	if v, ok := ex.udfCache[string(buf)]; ok {
		atomic.AddInt64(&ex.db.Stats.UDFCacheHits, 1)
		return v, nil
	}
	// Materialize the key before executing the body: a recursive function
	// re-enters this site, and the nested call's key encoding reuses the
	// same scratch backing array. Storing under string(buf) after the call
	// would record this result under the *innermost* call's key, poisoning
	// the cache for every later lookup (TestRecursiveMemoPoison2).
	key := string(buf)
	v, err := ex.execUDFBody(s.fn, s.argv)
	if err != nil {
		return sqltypes.Null, err
	}
	ex.udfCache[key] = v
	return v, nil
}

// ---------------------------------------------------------------- UDF plans

// udfPlan is a once-per-plan lowering of a simple UDF body — the shape
// the paper's conversion functions take:
//
//	SELECT <scalar expr over columns and $n> FROM <base tables>
//	WHERE <conjuncts over columns and $n, no subqueries>
//
// The FROM/WHERE part depends only on the parameters the WHERE references
// (the tenant key for conversion functions), so its materialized relation is
// cached per distinct tuple of those parameters; the projection is compiled
// once per cached relation. A conversion call then costs one hash probe plus
// one compiled-closure evaluation instead of a full query plan-and-execute,
// independent of the engine mode — like a prepared plan, it accelerates
// ModeSystemC too without caching *results*, preserving the paper's
// cached-vs-uncached distinction (Tables 3–5 vs 7–9).
//
// udfPlans live on the statement Plan and survive across executions; the
// entries derive exclusively from dep-pinned tables, so plan validation
// doubles as their invalidation. mu guards the entries map: concurrent
// executions (and parallel workers within one) share the plan, and all of
// them pinned identical snapshots of the dep tables — a plan is only handed
// out after validation against the same versions the exec pinned, and any
// version bump produces a fresh plan object — so whichever execution builds
// an entry first builds the same relation every other sharer would.
type udfPlan struct {
	mu          sync.Mutex
	ok          bool
	body        *sqlast.Select
	proj        sqlast.Expr
	whereParams []int // 1-based parameter indices the WHERE references
	entries     map[string]*udfPlanEntry
}

// udfPlanEntryCap bounds the relations a udfPlan accumulates: conversion
// functions are keyed by tenant (entries ≤ tenant count), but a body whose
// WHERE references a value parameter would otherwise grow one materialized
// relation per distinct argument for the life of the cached plan. On
// overflow the memo restarts empty; entries rebuild on demand.
const udfPlanEntryCap = 4096

// udfPlanEntry is the body's FROM/WHERE relation for one tuple of
// WHERE-referenced arguments. It is immutable once inserted; the projection
// closure compiled against it is per-exec (ex.udfProj), because compiled
// closures capture their exec's scratch and must not cross goroutines.
type udfPlanEntry struct {
	rows     [][]sqltypes.Value
	bindings []*binding
}

// planUDF analyses fn's body once per *plan* and returns its lowering. The
// plan owns the memo, so a cached statement pays the analysis — and the
// per-parameter-tuple relations its entries accumulate — once across all of
// its executions; version-based plan invalidation (plan.go) discards them
// the moment any table a body reads changes. An interpreting execution gets
// the empty lowering and never touches the memo, so one cached Plan serves
// every execution configuration.
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
	plan := buildUDFPlan(fn.Body)
	if p.udfPlans == nil {
		p.udfPlans = make(map[*Function]*udfPlan)
	}
	p.udfPlans[fn] = plan
	return plan
}

func buildUDFPlan(body *sqlast.Select) *udfPlan {
	if body.Distinct || len(body.GroupBy) > 0 || body.Having != nil ||
		len(body.OrderBy) > 0 || body.Limit >= 0 || len(body.Items) != 1 {
		return &udfPlan{}
	}
	it := body.Items[0]
	if it.Star || hasAggregate(it.Expr) {
		return &udfPlan{}
	}
	for _, te := range body.From {
		if _, isName := te.(*sqlast.TableName); !isName {
			return &udfPlan{}
		}
	}
	if len(sqlast.SubqueriesOf(body.Where)) > 0 || len(sqlast.SubqueriesOf(it.Expr)) > 0 {
		return &udfPlan{}
	}
	seen := map[int]bool{}
	var params []int
	sqlast.WalkExpr(body.Where, func(n sqlast.Expr) bool {
		if p, ok := n.(*sqlast.Param); ok && !seen[p.N] {
			seen[p.N] = true
			params = append(params, p.N)
		}
		return true
	})
	return &udfPlan{
		ok:          true,
		body:        body,
		proj:        it.Expr,
		whereParams: params,
		entries:     make(map[string]*udfPlanEntry),
	}
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
	// Materialize the key before any nested evaluation: building the entry
	// relation below can call UDFs in the WHERE, which reuse ex.keyBuf.
	key := string(buf)

	// Per-exec memo first: parallel workers would otherwise serialize on
	// Plan.mu for every call. The memo key carries the plan identity —
	// different functions share the exec-level map — and entries are
	// immutable, so a memoized pointer stays valid even if the plan-level
	// map restarts on overflow.
	memoKey := udfEntryKey{plan: plan, key: key}
	if entry := ex.udfEntries[memoKey]; entry != nil {
		return ex.projectPlannedUDF(plan, entry, args)
	}
	plan.mu.Lock()
	entry := plan.entries[key]
	plan.mu.Unlock()
	if entry == nil {
		// Build outside the lock: the relation derives only from dep-pinned
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
		if existing := plan.entries[key]; existing != nil {
			entry = existing
		} else {
			if len(plan.entries) >= udfPlanEntryCap {
				plan.entries = make(map[string]*udfPlanEntry)
			}
			plan.entries[key] = entry
		}
		plan.mu.Unlock()
	}
	if ex.udfEntries == nil {
		ex.udfEntries = make(map[udfEntryKey]*udfPlanEntry)
	}
	ex.udfEntries[memoKey] = entry
	return ex.projectPlannedUDF(plan, entry, args)
}

// udfEntryKey identifies a planned-UDF relation in the per-exec memo:
// the owning plan (one per function) plus the encoded WHERE parameters.
type udfEntryKey struct {
	plan *udfPlan
	key  string
}

// projectPlannedUDF evaluates the body projection over an entry's cached
// relation — the per-call tail of runPlannedUDF once the relation is known.
func (ex *exec) projectPlannedUDF(plan *udfPlan, entry *udfPlanEntry, args []sqltypes.Value) (sqltypes.Value, error) {
	// The projection closure is compiled per exec: its $n lowering reads
	// *ex.udfArgs, and the closure itself may capture exec-owned scratch, so
	// sharing it across concurrent executions of the same plan would race.
	projFn, tried := ex.udfProj[entry]
	if !tried {
		env := &cenv{db: ex.db, cat: ex.cat, bindings: entry.bindings, params: &ex.udfArgs}
		projFn, _ = env.compile(plan.proj)
		if ex.udfProj == nil {
			ex.udfProj = make(map[*udfPlanEntry]compiledExpr)
		}
		ex.udfProj[entry] = projFn // nil marks "tried, interpret instead"
	}

	// The interpreter projects every row and returns the first; evaluating
	// all rows keeps error behaviour identical when later rows fail.
	// udfArgs must be a copy: args is typically a call site's reused argv
	// slice, and a recursive call through the same site would overwrite it
	// while the enclosing call's $n closures still read it.
	savedArgs := ex.udfArgs
	ex.udfArgs = append([]sqltypes.Value(nil), args...)
	defer func() { ex.udfArgs = savedArgs }()

	out := sqltypes.Null
	if projFn != nil {
		for i, row := range entry.rows {
			v, err := projFn(ex, row)
			if err != nil {
				return sqltypes.Null, err
			}
			if i == 0 {
				out = v
			}
		}
		return out, nil
	}
	psc := rootScope()
	psc.params = args
	sc := &scope{parent: psc, bindings: entry.bindings}
	for i, row := range entry.rows {
		sc.row = row
		v, err := ex.eval(plan.proj, sc)
		if err != nil {
			return sqltypes.Null, err
		}
		if i == 0 {
			out = v
		}
	}
	return out, nil
}
