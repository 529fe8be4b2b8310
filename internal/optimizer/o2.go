package optimizer

import (
	"mtbase/internal/mtsql"
	"mtbase/internal/rewrite"
	"mtbase/internal/sqlast"
)

// applyO2 performs client-presentation push-up and conversion push-up
// (§4.2.1) on every query level. Both passes trade on the algebraic
// properties of conversion pairs:
//
//   - comparison of two converted attributes: drop the shared fromU(·, C)
//     wrapper and compare in universal format (Listing 14) — sound for
//     equality on any valid pair (Corollary 1), and for ordering when the
//     pair is order-preserving;
//
//   - comparison of a converted attribute with a constant: convert the
//     constant into the attribute owner's format once per tenant instead
//     of converting the attribute per row (Listing 15). The converted
//     constant is immutable, so a caching DBMS evaluates it once per
//     tenant.
func applyO2(ctx *rewrite.Context, q *sqlast.Select) {
	sqlast.WalkBlocks(q, nil, func(s *sqlast.Select) {
		s.Where = pushUpPredicates(ctx, s.Where)
		s.Having = pushUpPredicates(ctx, s.Having)
		sqlast.EachJoin(s.From, func(j *sqlast.JoinExpr) { j.On = pushUpPredicates(ctx, j.On) })
	})
}

func pushUpPredicates(ctx *rewrite.Context, e sqlast.Expr) sqlast.Expr {
	if e == nil {
		return nil
	}
	return sqlast.TransformExpr(e, func(n sqlast.Expr) sqlast.Expr {
		switch x := n.(type) {
		case *sqlast.BinaryExpr:
			return pushUpComparison(ctx, x)
		case *sqlast.BetweenExpr:
			return pushUpBetween(ctx, x)
		case *sqlast.InExpr:
			return pushUpInList(ctx, x)
		}
		return n
	})
}

// opNeedsOrder reports whether the comparison operator requires an
// order-preserving pair to commute with conversion.
func opNeedsOrder(op string) bool {
	switch op {
	case "=", "<>":
		return false
	case "<", "<=", ">", ">=":
		return true
	}
	return false
}

func isComparisonOp(op string) bool {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

func pushUpComparison(ctx *rewrite.Context, b *sqlast.BinaryExpr) sqlast.Expr {
	if !isComparisonOp(b.Op) {
		return b
	}
	lc, lok := matchFullConv(ctx, b.L)
	rc, rok := matchFullConv(ctx, b.R)
	switch {
	case lok && rok && lc.pair == rc.pair:
		// Client-presentation push-up: compare in universal format.
		if opNeedsOrder(b.Op) && !lc.pair.Class.AtLeast(mtsql.ClassOrderPreserving) {
			return b
		}
		b.L = toUniversalCall(lc)
		b.R = toUniversalCall(rc)
		return b
	case lok && isConstantExpr(b.R):
		if opNeedsOrder(b.Op) && !lc.pair.Class.AtLeast(mtsql.ClassOrderPreserving) {
			return b
		}
		b.L = lc.arg
		b.R = constantToTenant(ctx, lc, b.R)
		return b
	case rok && isConstantExpr(b.L):
		if opNeedsOrder(b.Op) && !rc.pair.Class.AtLeast(mtsql.ClassOrderPreserving) {
			return b
		}
		b.R = rc.arg
		b.L = constantToTenant(ctx, rc, b.L)
		return b
	}
	return b
}

func pushUpBetween(ctx *rewrite.Context, x *sqlast.BetweenExpr) sqlast.Expr {
	cc, ok := matchFullConv(ctx, x.X)
	if !ok || !cc.pair.Class.AtLeast(mtsql.ClassOrderPreserving) {
		return x
	}
	if !isConstantExpr(x.Lo) || !isConstantExpr(x.Hi) {
		return x
	}
	x.X = cc.arg
	x.Lo = constantToTenant(ctx, cc, x.Lo)
	x.Hi = constantToTenant(ctx, cc, x.Hi)
	return x
}

func pushUpInList(ctx *rewrite.Context, x *sqlast.InExpr) sqlast.Expr {
	if x.Sub != nil {
		return x
	}
	cc, ok := matchFullConv(ctx, x.X)
	if !ok {
		return x
	}
	for _, item := range x.List {
		if !isConstantExpr(item) {
			return x
		}
	}
	x.X = cc.arg
	for i, item := range x.List {
		x.List[i] = constantToTenant(ctx, cc, item)
	}
	return x
}

// toUniversalCall rebuilds toU(x, t) from a matched full conversion.
func toUniversalCall(cc *convCall) sqlast.Expr {
	return &sqlast.FuncCall{Name: cc.pair.ToFunc, Args: []sqlast.Expr{cc.arg, cc.ttidExpr}}
}

// constantToTenant builds fromU(toU(const, C), t): the C-format constant
// converted into the attribute owner's format. Both calls have immutable
// results, so a caching engine evaluates them once per tenant (§4.2.1).
func constantToTenant(ctx *rewrite.Context, cc *convCall, constant sqlast.Expr) sqlast.Expr {
	to := &sqlast.FuncCall{Name: cc.pair.ToFunc, Args: []sqlast.Expr{constant, sqlast.NewIntLit(ctx.C)}}
	return &sqlast.FuncCall{Name: cc.pair.FromFunc, Args: []sqlast.Expr{to, sqlast.CloneExpr(cc.ttidExpr)}}
}
