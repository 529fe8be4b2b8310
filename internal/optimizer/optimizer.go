// Package optimizer implements the MTSQL-specific optimization passes of
// §4 of the paper, applied to the output of the canonical rewrite:
//
//	o1       trivial semantic optimizations (§4.1)
//	o2       o1 + client-presentation push-up + conversion push-up (§4.2.1)
//	o3       o2 + aggregation distribution (§4.2.2)
//	o4       o3 + conversion-function inlining (§4.2.3)
//	inl-only o1 + inlining (the ablation level of §6.3)
//
// These are optimizations a DBMS optimizer cannot do (it lacks MT-specific
// context: D, C, conversion-function algebra) or does not do.
package optimizer

import (
	"fmt"
	"strings"

	"mtbase/internal/mtsql"
	"mtbase/internal/rewrite"
	"mtbase/internal/sqlast"
	"mtbase/internal/sqltypes"
)

// Level selects the optimization pass stack (Table 6 of the paper).
type Level uint8

// Optimization levels.
const (
	Canonical Level = iota // no optimization
	O1
	O2
	O3
	O4
	InlOnly
)

// Levels lists all levels in evaluation order.
var Levels = []Level{Canonical, O1, O2, O3, O4, InlOnly}

func (l Level) String() string {
	switch l {
	case Canonical:
		return "canonical"
	case O1:
		return "o1"
	case O2:
		return "o2"
	case O3:
		return "o3"
	case O4:
		return "o4"
	case InlOnly:
		return "inl-only"
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}

// ParseLevel parses a level name.
func ParseLevel(s string) (Level, error) {
	for _, l := range Levels {
		if l.String() == strings.ToLower(s) {
			return l, nil
		}
	}
	return Canonical, fmt.Errorf("optimizer: unknown level %q", s)
}

// Optimize applies the pass stack for the level to a canonically rewritten
// query. The input is not modified. Every pass works one block at a time,
// innermost first (sqlast.WalkBlocks in post-order), so a block sees its
// nested blocks already optimized.
func Optimize(ctx *rewrite.Context, q *sqlast.Select, level Level) (*sqlast.Select, error) {
	out := sqlast.CloneSelect(q)
	if level == Canonical {
		return out, nil
	}
	applyO1(ctx, out) // all non-canonical levels include the trivial pass
	switch level {
	case O2:
		applyO2(ctx, out)
	case O3:
		applyO2(ctx, out)
		applyO3(ctx, out)
	case O4:
		applyO2(ctx, out)
		applyO3(ctx, out)
		applyO4(ctx, out)
	case InlOnly:
		applyO4(ctx, out)
	}
	return out, nil
}

// ---------------------------------------------------------------- patterns

// convCall is a recognized conversion call:
//
//	full:  fromU(toU(x, ttidExpr), C)   — canonical form
//	half:  toU(x, ttidExpr)             — after client-presentation push-up
type convCall struct {
	pair     *mtsql.ConvPair
	arg      sqlast.Expr // x
	ttidExpr sqlast.Expr // owner format expression (usually B.ttid)
	full     bool        // true when wrapped in fromU(..., C)
}

// matchFullConv recognizes fromU(toU(x, t), C).
func matchFullConv(ctx *rewrite.Context, e sqlast.Expr) (*convCall, bool) {
	outer, ok := e.(*sqlast.FuncCall)
	if !ok || len(outer.Args) != 2 {
		return nil, false
	}
	pair := ctx.Schema.Convs().ByFunc(outer.Name)
	if pair == nil || !strings.EqualFold(outer.Name, pair.FromFunc) {
		return nil, false
	}
	inner, ok := outer.Args[0].(*sqlast.FuncCall)
	if !ok || len(inner.Args) != 2 || !strings.EqualFold(inner.Name, pair.ToFunc) {
		return nil, false
	}
	if lit, ok := outer.Args[1].(*sqlast.Literal); !ok || lit.Val.K != sqltypes.KindInt || lit.Val.I != ctx.C {
		return nil, false
	}
	return &convCall{pair: pair, arg: inner.Args[0], ttidExpr: inner.Args[1], full: true}, true
}

// containsConvCall reports whether any conversion call occurs in e.
func containsConvCall(ctx *rewrite.Context, e sqlast.Expr) bool {
	found := false
	sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
		if found {
			return false
		}
		if fc, ok := n.(*sqlast.FuncCall); ok && ctx.Schema.Convs().ByFunc(fc.Name) != nil {
			found = true
			return false
		}
		return true
	})
	return found
}

// isConstantExpr reports whether e is constant w.r.t. query rows: no
// column references and no subqueries.
func isConstantExpr(e sqlast.Expr) bool {
	return len(sqlast.ColumnRefsOf(e)) == 0 && len(sqlast.SubqueriesOf(e)) == 0
}

// isTTIDRef recognizes a reference to a ttid column.
func isTTIDRef(e sqlast.Expr) bool {
	cr, ok := e.(*sqlast.ColumnRef)
	return ok && strings.EqualFold(cr.Name, mtsql.TTIDColumn)
}

// replaceConjuncts rebuilds a WHERE/HAVING/ON tree keeping only conjuncts
// for which keep returns true.
func replaceConjuncts(e sqlast.Expr, keep func(sqlast.Expr) bool) sqlast.Expr {
	if e == nil {
		return nil
	}
	var out sqlast.Expr
	for _, c := range conjunctsOf(e) {
		if keep(c) {
			out = sqlast.AndExprs(out, c)
		}
	}
	return out
}

func conjunctsOf(e sqlast.Expr) []sqlast.Expr {
	if b, ok := e.(*sqlast.BinaryExpr); ok && b.Op == "AND" {
		return append(conjunctsOf(b.L), conjunctsOf(b.R)...)
	}
	return []sqlast.Expr{e}
}
