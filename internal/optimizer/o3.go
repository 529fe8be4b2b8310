package optimizer

import (
	"fmt"
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
	sqlast.WalkBlocks(q, nil, func(s *sqlast.Select) {
		distributeAggregates(ctx, s)
	})
}

const partAlias = "mt_part"

// aggPlan describes how one aggregate call is split into inner partial
// items and an outer combining expression.
type aggPlan struct {
	key        string // String() of the original call
	outer      sqlast.Expr
	innerItems []sqlast.SelectItem
}

func distributeAggregates(ctx *rewrite.Context, s *sqlast.Select) {
	if s.Distinct || len(s.From) == 0 {
		return
	}
	// Collect aggregate calls from the output clauses.
	var aggs []*sqlast.FuncCall
	unsupported := false
	collect := func(e sqlast.Expr) {
		if e == nil {
			return
		}
		if len(sqlast.SubqueriesOf(e)) > 0 {
			unsupported = true
			return
		}
		sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
			if fc, ok := n.(*sqlast.FuncCall); ok && isAggregateName(fc.Name) {
				aggs = append(aggs, fc)
				return false
			}
			return true
		})
	}
	for _, it := range s.Items {
		collect(it.Expr)
	}
	collect(s.Having)
	for _, o := range s.OrderBy {
		collect(o.Expr)
	}
	if unsupported || len(aggs) == 0 {
		return
	}

	// The transformation pays off only when at least one aggregate
	// converts values per row; and it is only sound when every aggregate
	// is distributable and all conversions share one owner (ttid) source.
	anyConv := false
	var ttidKey string
	var ttidExpr sqlast.Expr
	plans := make(map[string]*aggPlan)
	// planOrder keeps first-seen aggregate order; the inner select list is
	// emitted from it, never from the map, so the same input always rewrites
	// to the same text.
	var planOrder []*aggPlan
	nextID := 0
	for _, agg := range aggs {
		key := agg.String()
		if _, done := plans[key]; done {
			continue
		}
		plan, convUsed, tExpr, ok := planAggregate(ctx, agg, &nextID)
		if !ok {
			return
		}
		if convUsed {
			anyConv = true
			tk := tExpr.String()
			if ttidKey == "" {
				ttidKey, ttidExpr = tk, tExpr
			} else if ttidKey != tk {
				return // conversions from different owners: bail out
			}
		}
		plan.key = key
		plans[key] = plan
		planOrder = append(planOrder, plan)
	}
	if !anyConv {
		return
	}
	if ttidExpr == nil {
		return
	}

	// Resolve output aliases in GROUP BY (the SQL rule the paper invokes
	// in §3.1): `GROUP BY yr` with `EXTRACT(...) AS yr` groups by the
	// expression, which is what the inner query must compute.
	aliasExpr := make(map[string]sqlast.Expr)
	for _, it := range s.Items {
		if it.Alias != "" && it.Expr != nil && !hasAggregateCall(it.Expr) {
			aliasExpr[strings.ToLower(it.Alias)] = it.Expr
		}
	}
	resolvedGroupBy := make([]sqlast.Expr, len(s.GroupBy))
	for i, g := range s.GroupBy {
		resolvedGroupBy[i] = g
		if cr, ok := g.(*sqlast.ColumnRef); ok && cr.Table == "" {
			if e, ok := aliasExpr[strings.ToLower(cr.Name)]; ok {
				resolvedGroupBy[i] = sqlast.CloneExpr(e)
			}
		}
	}

	// Build the inner per-tenant partial aggregation.
	inner := sqlast.NewSelect()
	inner.From = s.From
	inner.Where = s.Where
	groupRefs := make(map[string]sqlast.Expr) // original group expr -> outer ref
	for i, g := range resolvedGroupBy {
		alias := fmt.Sprintf("mt_g%d", i+1)
		inner.Items = append(inner.Items, sqlast.SelectItem{Expr: sqlast.CloneExpr(g), Alias: alias})
		inner.GroupBy = append(inner.GroupBy, sqlast.CloneExpr(g))
		ref := &sqlast.ColumnRef{Table: partAlias, Name: alias}
		groupRefs[g.String()] = ref
		// An aliased original spelling keeps mapping too (ORDER BY yr).
		groupRefs[s.GroupBy[i].String()] = ref
	}
	inner.GroupBy = append(inner.GroupBy, sqlast.CloneExpr(ttidExpr))
	for _, plan := range planOrder {
		inner.Items = append(inner.Items, plan.innerItems...)
	}

	// Rebuild the outer query over the partials.
	mapExpr := func(e sqlast.Expr) sqlast.Expr {
		return topDownReplace(e, func(n sqlast.Expr) (sqlast.Expr, bool) {
			if fc, ok := n.(*sqlast.FuncCall); ok && isAggregateName(fc.Name) {
				if p, ok := plans[fc.String()]; ok {
					return sqlast.CloneExpr(p.outer), true
				}
			}
			if ref, ok := groupRefs[n.String()]; ok {
				return sqlast.CloneExpr(ref), true
			}
			return n, false
		})
	}

	newItems := make([]sqlast.SelectItem, len(s.Items))
	for i, it := range s.Items {
		alias := it.Alias
		if alias == "" {
			if cr, ok := it.Expr.(*sqlast.ColumnRef); ok {
				alias = cr.Name
			}
		}
		newItems[i] = sqlast.SelectItem{Expr: mapExpr(it.Expr), Alias: alias}
	}
	newGroupBy := make([]sqlast.Expr, len(resolvedGroupBy))
	for i, g := range resolvedGroupBy {
		newGroupBy[i] = sqlast.CloneExpr(groupRefs[g.String()])
	}
	var newHaving sqlast.Expr
	if s.Having != nil {
		newHaving = mapExpr(s.Having)
	}
	newOrderBy := make([]sqlast.OrderItem, len(s.OrderBy))
	for i, o := range s.OrderBy {
		if cr, ok := o.Expr.(*sqlast.ColumnRef); ok && cr.Table == "" && matchesAlias(newItems, cr.Name) {
			newOrderBy[i] = o // references an output alias; still valid
			continue
		}
		newOrderBy[i] = sqlast.OrderItem{Expr: mapExpr(o.Expr), Desc: o.Desc}
	}

	s.Items = newItems
	s.From = []sqlast.TableExpr{&sqlast.DerivedTable{Sub: inner, Alias: partAlias}}
	s.Where = nil
	s.GroupBy = newGroupBy
	s.Having = newHaving
	s.OrderBy = newOrderBy
}

func matchesAlias(items []sqlast.SelectItem, name string) bool {
	for _, it := range items {
		if strings.EqualFold(it.Alias, name) {
			return true
		}
	}
	return false
}

func isAggregateName(name string) bool {
	switch strings.ToUpper(name) {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// planAggregate decides how to split one aggregate call. It returns the
// plan, whether a conversion is involved, the ttid expression of that
// conversion, and whether distribution is possible at all.
func planAggregate(ctx *rewrite.Context, agg *sqlast.FuncCall, nextID *int) (*aggPlan, bool, sqlast.Expr, bool) {
	if agg.Distinct {
		return nil, false, nil, false
	}
	upper := strings.ToUpper(agg.Name)
	newAlias := func() string {
		*nextID++
		return fmt.Sprintf("mt_a%d", *nextID)
	}
	ref := func(alias string) sqlast.Expr {
		return &sqlast.ColumnRef{Table: partAlias, Name: alias}
	}

	// Anything but f(x) or COUNT(*) — COUNT() included — is left as written
	// for the engine to reject.
	if len(agg.Args) != 1 && !(upper == "COUNT" && agg.Star) {
		return nil, false, nil, false
	}

	if upper == "COUNT" {
		// COUNT distributes over every conversion class; conversions
		// inside the argument preserve NULLs and can simply be stripped.
		var inner sqlast.Expr
		if agg.Star {
			inner = &sqlast.FuncCall{Name: "COUNT", Star: true}
		} else {
			arg, _, ok := stripConversions(ctx, agg.Args[0])
			if !ok {
				return nil, false, nil, false
			}
			inner = &sqlast.FuncCall{Name: "COUNT", Args: []sqlast.Expr{arg}}
		}
		a := newAlias()
		outer := &sqlast.FuncCall{Name: "COALESCE", Args: []sqlast.Expr{
			&sqlast.FuncCall{Name: "SUM", Args: []sqlast.Expr{ref(a)}},
			sqlast.NewIntLit(0),
		}}
		return &aggPlan{
			outer:      outer,
			innerItems: []sqlast.SelectItem{{Expr: inner, Alias: a}},
		}, false, nil, true
	}

	arg := agg.Args[0]
	cc := findSingleConversion(ctx, arg)

	switch upper {
	case "MIN", "MAX":
		if cc == nil {
			a := newAlias()
			return &aggPlan{
				outer: &sqlast.FuncCall{Name: upper, Args: []sqlast.Expr{ref(a)}},
				innerItems: []sqlast.SelectItem{{
					Expr:  &sqlast.FuncCall{Name: upper, Args: []sqlast.Expr{sqlast.CloneExpr(arg)}},
					Alias: a,
				}},
			}, false, nil, true
		}
		// MIN/MAX require the argument to be exactly the conversion and an
		// order-preserving pair (Table 2).
		direct, isDirect := matchFullConv(ctx, arg)
		if !isDirect || !direct.pair.Class.AtLeast(mtsql.ClassOrderPreserving) {
			return nil, false, nil, false
		}
		cc = direct
		a := newAlias()
		innerAgg := &sqlast.FuncCall{Name: upper, Args: []sqlast.Expr{sqlast.CloneExpr(cc.arg)}}
		innerConv := &sqlast.FuncCall{Name: cc.pair.ToFunc, Args: []sqlast.Expr{innerAgg, sqlast.CloneExpr(cc.ttidExpr)}}
		outer := &sqlast.FuncCall{Name: cc.pair.FromFunc, Args: []sqlast.Expr{
			&sqlast.FuncCall{Name: upper, Args: []sqlast.Expr{ref(a)}},
			sqlast.NewIntLit(ctx.C),
		}}
		return &aggPlan{
			outer:      outer,
			innerItems: []sqlast.SelectItem{{Expr: innerConv, Alias: a}},
		}, true, cc.ttidExpr, true

	case "SUM", "AVG":
		if cc == nil {
			sumAlias, cntAlias := newAlias(), newAlias()
			innerSum := &sqlast.FuncCall{Name: "SUM", Args: []sqlast.Expr{sqlast.CloneExpr(arg)}}
			innerCnt := &sqlast.FuncCall{Name: "COUNT", Args: []sqlast.Expr{sqlast.CloneExpr(arg)}}
			var outer sqlast.Expr
			if upper == "SUM" {
				outer = &sqlast.FuncCall{Name: "SUM", Args: []sqlast.Expr{ref(sumAlias)}}
				return &aggPlan{outer: outer,
					innerItems: []sqlast.SelectItem{{Expr: innerSum, Alias: sumAlias}}}, false, nil, true
			}
			outer = &sqlast.BinaryExpr{Op: "/",
				L: &sqlast.FuncCall{Name: "CAST_DECIMAL", Args: []sqlast.Expr{
					&sqlast.FuncCall{Name: "SUM", Args: []sqlast.Expr{ref(sumAlias)}}}},
				R: &sqlast.FuncCall{Name: "SUM", Args: []sqlast.Expr{ref(cntAlias)}},
			}
			return &aggPlan{outer: outer, innerItems: []sqlast.SelectItem{
				{Expr: innerSum, Alias: sumAlias},
				{Expr: innerCnt, Alias: cntAlias},
			}}, false, nil, true
		}
		// SUM/AVG over a converted value: sound for linear pairs, where
		// the conversion also commutes with conversion-free multiplicative
		// factors (c·x·k = c·(x·k)).
		if !cc.full || !cc.pair.Class.AtLeast(mtsql.ClassLinear) {
			return nil, false, nil, false
		}
		stripped, n, ok := stripMultiplicativeConversion(ctx, arg, cc)
		if !ok || n != 1 {
			return nil, false, nil, false
		}
		sumAlias := newAlias()
		innerSum := &sqlast.FuncCall{Name: cc.pair.ToFunc, Args: []sqlast.Expr{
			&sqlast.FuncCall{Name: "SUM", Args: []sqlast.Expr{stripped}},
			sqlast.CloneExpr(cc.ttidExpr),
		}}
		items := []sqlast.SelectItem{{Expr: innerSum, Alias: sumAlias}}
		var outer sqlast.Expr
		if upper == "SUM" {
			outer = &sqlast.FuncCall{Name: cc.pair.FromFunc, Args: []sqlast.Expr{
				&sqlast.FuncCall{Name: "SUM", Args: []sqlast.Expr{ref(sumAlias)}},
				sqlast.NewIntLit(ctx.C),
			}}
		} else {
			cntAlias := newAlias()
			items = append(items, sqlast.SelectItem{
				Expr:  &sqlast.FuncCall{Name: "COUNT", Args: []sqlast.Expr{sqlast.CloneExpr(stripped)}},
				Alias: cntAlias,
			})
			outer = &sqlast.FuncCall{Name: cc.pair.FromFunc, Args: []sqlast.Expr{
				&sqlast.BinaryExpr{Op: "/",
					L: &sqlast.FuncCall{Name: "SUM", Args: []sqlast.Expr{ref(sumAlias)}},
					R: &sqlast.FuncCall{Name: "SUM", Args: []sqlast.Expr{ref(cntAlias)}},
				},
				sqlast.NewIntLit(ctx.C),
			}}
		}
		return &aggPlan{outer: outer, innerItems: items}, true, cc.ttidExpr, true
	}
	return nil, false, nil, false
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

// topDownReplace applies f pre-order; when f reports a replacement the
// subtree is not descended further. Subqueries are boundaries.
func topDownReplace(e sqlast.Expr, f func(sqlast.Expr) (sqlast.Expr, bool)) sqlast.Expr {
	if e == nil {
		return nil
	}
	if repl, done := f(e); done {
		return repl
	}
	switch x := e.(type) {
	case *sqlast.BinaryExpr:
		x.L = topDownReplace(x.L, f)
		x.R = topDownReplace(x.R, f)
	case *sqlast.UnaryExpr:
		x.X = topDownReplace(x.X, f)
	case *sqlast.FuncCall:
		for i, a := range x.Args {
			x.Args[i] = topDownReplace(a, f)
		}
	case *sqlast.CaseExpr:
		x.Operand = topDownReplace(x.Operand, f)
		for i := range x.Whens {
			x.Whens[i].Cond = topDownReplace(x.Whens[i].Cond, f)
			x.Whens[i].Then = topDownReplace(x.Whens[i].Then, f)
		}
		x.Else = topDownReplace(x.Else, f)
	case *sqlast.BetweenExpr:
		x.X = topDownReplace(x.X, f)
		x.Lo = topDownReplace(x.Lo, f)
		x.Hi = topDownReplace(x.Hi, f)
	case *sqlast.LikeExpr:
		x.X = topDownReplace(x.X, f)
		x.Pattern = topDownReplace(x.Pattern, f)
	case *sqlast.IsNullExpr:
		x.X = topDownReplace(x.X, f)
	case *sqlast.InExpr:
		x.X = topDownReplace(x.X, f)
		for i, it := range x.List {
			x.List[i] = topDownReplace(it, f)
		}
	case *sqlast.ExtractExpr:
		x.X = topDownReplace(x.X, f)
	case *sqlast.SubstringExpr:
		x.X = topDownReplace(x.X, f)
		x.From = topDownReplace(x.From, f)
		x.For = topDownReplace(x.For, f)
	}
	return e
}
