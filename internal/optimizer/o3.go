package optimizer

import (
	"strings"

	"mtbase/internal/mtsql"
	"mtbase/internal/rewrite"
	"mtbase/internal/sqlast"
)

// applyO3 performs aggregation distribution (§4.2.2, Listing 16): a
// grouped query whose aggregates convert attribute values per row is
// rewritten into a two-level aggregation — partial aggregates per tenant
// in tenant format (no conversions), one conversion per tenant partial,
// and a final aggregate in universal format converted once to client
// format. This cuts conversion calls from 2N to T+1.
//
// Distribution is gated on Table 2: COUNT always distributes; MIN/MAX
// need an order-preserving pair; SUM/AVG are rewritten for linear pairs
// (to(x) = c·x), where the conversion additionally commutes with the
// multiplicative factors TPC-H aggregates use (price * (1 - discount)).
func applyO3(ctx *rewrite.Context, q *sqlast.Select) {
	var path []*sqlast.Select // from the statement's top block down to the one visited
	sqlast.WalkBlocks(q, func(s *sqlast.Select) {
		path = append(path, s)
	}, func(*sqlast.Select) {
		distributeAggregates(ctx, path)
		path = path[:len(path)-1]
	})
}

// distributeAggregates rewrites the last block of path, which is nested in the
// ones before it, in place when it is one o3 distributes.
func distributeAggregates(ctx *rewrite.Context, path []*sqlast.Select) {
	s := path[len(path)-1]
	nested := false
	sqlast.OutputExprs(s, func(e sqlast.Expr) { nested = nested || len(sqlast.SubqueriesOf(e)) > 0 })
	if nested {
		return
	}
	// The transformation pays off only when at least one aggregate
	// converts values per row; and it is only sound when every aggregate
	// is distributable and all conversions share one owner (ttid) source.
	var ttid sqlast.Expr
	sp, ok := collectAggregates(s, func(agg *sqlast.FuncCall, alias func() string) (*aggFold, bool) {
		f, owner, ok := convFold(ctx, agg, alias)
		if ok && owner != nil {
			if ttid == nil {
				ttid = owner
			} else if ttid.String() != owner.String() {
				return nil, false // conversions from different owners: bail out
			}
		}
		return f, ok
	})
	if !ok || ttid == nil {
		return
	}
	partial, combine, ok := sp.build(scopeOf(ctx.Schema, path))
	if !ok {
		return
	}
	partial.GroupBy = append(partial.GroupBy, sqlast.CloneExpr(ttid))
	combine.From = []sqlast.TableExpr{&sqlast.DerivedTable{Sub: partial, Alias: PartAlias}}
	*s = *combine
}

// convFold is o3's rule for one aggregate call: the conversion-aware split
// where the argument converts an attribute — partial in the owner's format,
// one conversion per partial, the fold in universal format converted once to
// the client's — else the conversion-free rule. owner is the ttid expression
// of the conversion the split moved, nil when it moved none.
func convFold(ctx *rewrite.Context, agg *sqlast.FuncCall, alias func() string) (f *aggFold, owner sqlast.Expr, ok bool) {
	upper := strings.ToUpper(agg.Name)
	if agg.Distinct || len(agg.Args) != 1 {
		f, ok = plainFold(agg, alias)
		return f, nil, ok
	}
	arg := agg.Args[0]
	if upper == "COUNT" {
		// COUNT distributes over every conversion class; conversions
		// inside the argument preserve NULLs and can simply be stripped.
		stripped, _, ok := stripConversions(ctx, arg)
		if !ok {
			return nil, nil, false
		}
		f, ok = plainFold(&sqlast.FuncCall{Name: "COUNT", Args: []sqlast.Expr{stripped}}, alias)
		return f, nil, ok
	}
	cc := findSingleConversion(ctx, arg)
	if cc == nil {
		f, ok = plainFold(agg, alias)
		return f, nil, ok
	}
	call := func(name string, args ...sqlast.Expr) *sqlast.FuncCall {
		return &sqlast.FuncCall{Name: name, Args: args}
	}
	toClient := func(universal sqlast.Expr) sqlast.Expr {
		return call(cc.pair.FromFunc, universal, sqlast.NewIntLit(ctx.C))
	}
	switch upper {
	case "MIN", "MAX":
		// MIN/MAX require the argument to be exactly the conversion and an
		// order-preserving pair (Table 2).
		direct, isDirect := matchFullConv(ctx, arg)
		if !isDirect || !direct.pair.Class.AtLeast(mtsql.ClassOrderPreserving) {
			return nil, nil, false
		}
		cc = direct
		a := alias()
		return &aggFold{
			partial: []sqlast.SelectItem{{
				Expr:  call(cc.pair.ToFunc, call(upper, sqlast.CloneExpr(cc.arg)), sqlast.CloneExpr(cc.ttidExpr)),
				Alias: a,
			}},
			fold: toClient(call(upper, partRef(a))),
		}, cc.ttidExpr, true

	case "SUM", "AVG":
		// SUM/AVG over a converted value: sound for linear pairs, where
		// the conversion also commutes with conversion-free multiplicative
		// factors (c·x·k = c·(x·k)).
		if !cc.full || !cc.pair.Class.AtLeast(mtsql.ClassLinear) {
			return nil, nil, false
		}
		stripped, n, ok := stripMultiplicativeConversion(ctx, arg, cc)
		if !ok || n != 1 {
			return nil, nil, false
		}
		sum := alias()
		f = &aggFold{
			partial: []sqlast.SelectItem{{
				Expr:  call(cc.pair.ToFunc, call("SUM", stripped), sqlast.CloneExpr(cc.ttidExpr)),
				Alias: sum,
			}},
			fold: call("SUM", partRef(sum)),
		}
		if upper == "AVG" {
			cnt := alias()
			f.partial = append(f.partial, sqlast.SelectItem{Expr: call("COUNT", sqlast.CloneExpr(stripped)), Alias: cnt})
			f.fold = &sqlast.BinaryExpr{Op: "/", L: f.fold, R: call("SUM", partRef(cnt))}
		}
		f.fold = toClient(f.fold)
		return f, cc.ttidExpr, true
	}
	return nil, nil, false
}

// findSingleConversion locates the unique full conversion call in e, or
// nil when there is none. Two or more distinct conversions: the caller
// bails out via stripMultiplicativeConversion's count.
func findSingleConversion(ctx *rewrite.Context, e sqlast.Expr) *convCall {
	var found *convCall
	sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
		if cc, ok := matchFullConv(ctx, n); ok {
			if found == nil {
				found = cc
			}
			return false
		}
		return true
	})
	return found
}

// stripConversions replaces every full conversion call in e with its bare
// argument; ok is false when a conversion function appears in a form the
// optimizer does not recognize.
func stripConversions(ctx *rewrite.Context, e sqlast.Expr) (sqlast.Expr, int, bool) {
	n := 0
	bad := false
	out := sqlast.TransformExpr(sqlast.CloneExpr(e), func(node sqlast.Expr) sqlast.Expr {
		if cc, ok := matchFullConv(ctx, node); ok {
			n++
			return cc.arg
		}
		if fc, ok := node.(*sqlast.FuncCall); ok {
			if pair := ctx.Schema.Convs().ByFunc(fc.Name); pair != nil && strings.EqualFold(fc.Name, pair.FromFunc) {
				bad = true
			}
		}
		return node
	})
	return out, n, !bad
}

// stripMultiplicativeConversion strips the conversion from e, verifying
// that the conversion appears only as a multiplicative factor (product or
// numerator), so that a linear conversion commutes with the rest of the
// expression.
func stripMultiplicativeConversion(ctx *rewrite.Context, e sqlast.Expr, cc *convCall) (sqlast.Expr, int, bool) {
	count := 0
	var walk func(x sqlast.Expr) (sqlast.Expr, bool)
	walk = func(x sqlast.Expr) (sqlast.Expr, bool) {
		if c, ok := matchFullConv(ctx, x); ok {
			if c.pair != cc.pair || c.ttidExpr.String() != cc.ttidExpr.String() {
				return nil, false
			}
			count++
			return sqlast.CloneExpr(c.arg), true
		}
		switch b := x.(type) {
		case *sqlast.BinaryExpr:
			switch b.Op {
			case "*":
				lHas := containsConvCall(ctx, b.L)
				rHas := containsConvCall(ctx, b.R)
				if lHas && rHas {
					return nil, false
				}
				if lHas {
					l, ok := walk(b.L)
					if !ok {
						return nil, false
					}
					return &sqlast.BinaryExpr{Op: "*", L: l, R: sqlast.CloneExpr(b.R)}, true
				}
				if rHas {
					r, ok := walk(b.R)
					if !ok {
						return nil, false
					}
					return &sqlast.BinaryExpr{Op: "*", L: sqlast.CloneExpr(b.L), R: r}, true
				}
				return sqlast.CloneExpr(x), true
			case "/":
				if containsConvCall(ctx, b.R) {
					return nil, false
				}
				l, ok := walk(b.L)
				if !ok {
					return nil, false
				}
				return &sqlast.BinaryExpr{Op: "/", L: l, R: sqlast.CloneExpr(b.R)}, true
			}
		}
		if !containsConvCall(ctx, x) {
			return sqlast.CloneExpr(x), true
		}
		return nil, false
	}
	out, ok := walk(e)
	if !ok {
		return nil, 0, false
	}
	return out, count, true
}
