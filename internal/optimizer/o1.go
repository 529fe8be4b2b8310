package optimizer

import (
	"mtbase/internal/rewrite"
	"mtbase/internal/sqlast"
	"mtbase/internal/sqltypes"
)

// applyO1 performs the trivial semantic optimizations of §4.1 on every
// query level:
//
//   - D covers all tenants  → drop D-filters (ttid IN (...))
//   - |D| = 1               → drop ttid join predicates and the ttid
//     components of tuple-IN predicates
//   - D = {C}               → drop conversion-function pairs entirely
func applyO1(ctx *rewrite.Context, q *sqlast.Select) {
	sqlast.WalkBlocks(q, nil, func(s *sqlast.Select) {
		o1Level(ctx, s)
	})
}

func o1Level(ctx *rewrite.Context, s *sqlast.Select) {
	dropFilter := func(e sqlast.Expr) bool {
		if ctx.DAll && isDFilter(e) {
			return false
		}
		if len(ctx.D) == 1 && isTTIDJoinPredicate(e) {
			return false
		}
		return true
	}
	s.Where = replaceConjuncts(s.Where, dropFilter)
	s.Having = replaceConjuncts(s.Having, dropFilter)
	// Join ON conditions get the same treatment.
	sqlast.EachJoin(s.From, func(j *sqlast.JoinExpr) {
		if j.On == nil {
			return
		}
		j.On = replaceConjuncts(j.On, dropFilter)
		if j.On == nil {
			// A join needs some condition; keep a tautology.
			j.On = &sqlast.BinaryExpr{Op: "=", L: sqlast.NewIntLit(1), R: sqlast.NewIntLit(1)}
		}
	})

	if len(ctx.D) == 1 {
		simplifyTupleIns(s)
	}
	if ctx.DIsExactlyClient() {
		dropConversions(ctx, s)
	}
}

// isDFilter recognizes the D-filters emitted by the canonical rewrite:
// `b.ttid IN (i1, i2, ...)` with integer literals only.
func isDFilter(e sqlast.Expr) bool {
	in, ok := e.(*sqlast.InExpr)
	if !ok || in.Sub != nil || in.Not || !isTTIDRef(in.X) {
		return false
	}
	for _, item := range in.List {
		lit, ok := item.(*sqlast.Literal)
		if !ok || lit.Val.K != sqltypes.KindInt {
			return false
		}
	}
	return true
}

// isTTIDJoinPredicate recognizes `a.ttid = b.ttid`.
func isTTIDJoinPredicate(e sqlast.Expr) bool {
	b, ok := e.(*sqlast.BinaryExpr)
	return ok && b.Op == "=" && isTTIDRef(b.L) && isTTIDRef(b.R)
}

// simplifyTupleIns reduces (x, a.ttid) IN (SELECT y, b.ttid ...) back to
// x IN (SELECT y ...): with a single tenant in D both sides are fixed.
func simplifyTupleIns(s *sqlast.Select) {
	simplify := func(e sqlast.Expr) {
		sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
			in, ok := n.(*sqlast.InExpr)
			if !ok || in.Sub == nil {
				return true
			}
			row, ok := in.X.(*sqlast.RowExpr)
			if !ok || len(row.Exprs) != 2 || !isTTIDRef(row.Exprs[1]) {
				return true
			}
			last := len(in.Sub.Items) - 1
			if last < 1 || !isTTIDRef(in.Sub.Items[last].Expr) {
				return true
			}
			in.X = row.Exprs[0]
			in.Sub.Items = in.Sub.Items[:last]
			if n := len(in.Sub.GroupBy); n > 0 && isTTIDRef(in.Sub.GroupBy[n-1]) {
				in.Sub.GroupBy = in.Sub.GroupBy[:n-1]
			}
			return true
		})
	}
	for _, it := range s.Items {
		simplify(it.Expr)
	}
	simplify(s.Where)
	simplify(s.Having)
}

// dropConversions removes fromU(toU(x, t), C) wrappers: with D = {C}
// every visible row is already in the client's format (Listing 13 l.9).
func dropConversions(ctx *rewrite.Context, s *sqlast.Select) {
	strip := func(e sqlast.Expr) sqlast.Expr {
		return sqlast.TransformExpr(e, func(n sqlast.Expr) sqlast.Expr {
			if cc, ok := matchFullConv(ctx, n); ok {
				return cc.arg
			}
			return n
		})
	}
	for i := range s.Items {
		if s.Items[i].Expr != nil {
			was := s.Items[i].Expr
			s.Items[i].Expr = strip(s.Items[i].Expr)
			// Keep the output name stable when the wrapper vanishes.
			if s.Items[i].Alias != "" || was == s.Items[i].Expr {
				continue
			}
			if cr, ok := s.Items[i].Expr.(*sqlast.ColumnRef); ok {
				s.Items[i].Alias = cr.Name
			}
		}
	}
	s.Where = strip(s.Where)
	for i := range s.GroupBy {
		s.GroupBy[i] = strip(s.GroupBy[i])
	}
	s.Having = strip(s.Having)
	for i := range s.OrderBy {
		s.OrderBy[i].Expr = strip(s.OrderBy[i].Expr)
	}
	sqlast.EachJoin(s.From, func(j *sqlast.JoinExpr) { j.On = strip(j.On) })
}
