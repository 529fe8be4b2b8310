package shard

// Staged routing (DESIGN.md ADR-015).
//
// An uncorrelated scalar subquery over tenant tables is a cross-tenant
// value: its bindings share no ttid equality with the block around it, so it
// splits the classifier's union-find and the whole statement would take the
// repartition fallback (MT-H Q22's `c_acctbal > (SELECT AVG(c_acctbal) ...)`).
// But a *closed* block — no column reference inside resolves outside it —
// means the same thing as a statement of its own, so the coordinator runs it
// first, through the same router and under the same D′, and hands its one
// value to the outer statement as an extra bind parameter. The outer
// statement is classified again with the parameter in the subquery's place.
//
// The value travels as a bind, not as a printed literal: the shards' rewrite-
// and plan-cache keys stay independent of the data, and a float never
// round-trips through text. It lives in the statement's own argument slice,
// so nothing outlives the statement (ADR-012). And the bind stands where the
// block stood as what the block was — a scalar subquery (stageRef) — so every
// optimization level rewrites the comparison around it as it rewrites the
// client's.

import (
	"context"
	"errors"

	"mtbase/internal/middleware"
	"mtbase/internal/mtsql"
	"mtbase/internal/rewrite"
	"mtbase/internal/sqlast"
	"mtbase/internal/sqltypes"
)

// stageAlias names a hoisted block's one item, so its own route never has
// to restore a client-visible header nobody sees.
const stageAlias = "mt_stage"

// stageRef is what a hoisted block leaves behind: `(SELECT $n)`, a scalar
// subquery over nothing but the bind that carries the block's value. Not the
// bare parameter: beside a convertible attribute the optimizer (o2 and up)
// moves a *constant* into the attribute owner's format — `conv(attr) op $n`
// becomes `attr op fromU(toU($n, C), ttid)`, a round trip that is not exact,
// so `c_acctbal = (SELECT MAX(c_acctbal) ...)` would lose its one row — while
// a subquery's value it compares in the client's format, as it does unsharded.
func stageRef(n int) *sqlast.SubqueryExpr {
	return &sqlast.SubqueryExpr{Sub: &sqlast.Select{
		Items: []sqlast.SelectItem{{Expr: &sqlast.Param{N: n}}},
		Limit: -1,
	}}
}

// isStageRef recognizes stageRef's shape: a subquery that reads no row, so
// the coordinator's fold can keep it where a HAVING or ORDER BY carries it.
func isStageRef(sub *sqlast.Select) bool {
	if len(sub.Items) != 1 || len(sub.From)+len(sub.GroupBy)+len(sub.OrderBy) != 0 || sub.Where != nil || sub.Having != nil {
		return false
	}
	_, ok := sub.Items[0].Expr.(*sqlast.Param)
	return ok
}

// hoistScalars returns a copy of sel in which every hoistable scalar
// subquery in a WHERE, HAVING or ON position of any block is replaced by a
// stageRef over a bind numbered from n+1, together with the blocks taken out,
// in parameter order. Subqueries in select items, GROUP BY and ORDER BY stay in
// place: the rewrite treats those positions differently and the partial
// decomposition rejects them anyway. A hoisted block is not searched further
// — it is routed as a statement and gets this step itself.
func hoistScalars(sel *sqlast.Select, schema *mtsql.Schema, n int) (*sqlast.Select, []*sqlast.Select) {
	h := &hoister{schema: schema, n: n}
	out := sqlast.CloneSelect(sel)
	h.block(out)
	return out, h.subs
}

type hoister struct {
	schema *mtsql.Schema
	n      int
	subs   []*sqlast.Select
}

func (h *hoister) block(sel *sqlast.Select) {
	sqlast.FromItems(sel.From, nil, func(d *sqlast.DerivedTable) { h.block(d.Sub) })
	sqlast.EachJoin(sel.From, func(j *sqlast.JoinExpr) { j.On = h.predicate(j.On) })
	sel.Where = h.predicate(sel.Where)
	sel.Having = h.predicate(sel.Having)
}

// predicate replaces the hoistable scalar subqueries of e and descends into
// every other nested block.
func (h *hoister) predicate(e sqlast.Expr) sqlast.Expr {
	return sqlast.TransformExpr(e, func(n sqlast.Expr) sqlast.Expr {
		switch x := n.(type) {
		case *sqlast.SubqueryExpr:
			if h.hoistable(x.Sub) {
				x.Sub.Items[0].Alias = stageAlias
				h.subs = append(h.subs, x.Sub)
				return stageRef(h.n + len(h.subs))
			}
			h.block(x.Sub)
		case *sqlast.ExistsExpr:
			h.block(x.Sub)
		case *sqlast.InExpr:
			if x.Sub != nil {
				h.block(x.Sub)
			}
		}
		return n
	})
}

// hoistable: a one-column block that is closed and reads tenant data. A
// scalar over global tables only stays where it is — every shard holds
// those rows and computes the same value.
func (h *hoister) hoistable(sub *sqlast.Select) bool {
	if len(sub.Items) != 1 || sub.Items[0].Star {
		return false
	}
	return readsTenant(h.schema, sqlast.Tables(sub).Reads) && closed(h.schema, sub, nil)
}

// closed reports whether every column reference of the block — nested
// blocks included — resolves to a binding inside the block: checked by
// resolving, as the rewrite would, against the block's own scope chain cut
// off from whatever encloses it (parent is nil for the block asked about). A
// name that does not resolve at all counts as open, which leaves the subquery
// in place.
func closed(schema *mtsql.Schema, sel *sqlast.Select, parent *rewrite.Resolver) bool {
	scope, err := rewrite.NewResolver(schema, sel, parent, nil)
	if err != nil {
		return false
	}
	ok := true
	sqlast.BlockExprs(sel, func(e sqlast.Expr) {
		for _, cr := range sqlast.ColumnRefsOf(e) {
			_, found := scope.Resolve(cr)
			ok = ok && found
		}
	})
	sqlast.NestedBlocks(sel, func(sub *sqlast.Select) { ok = ok && closed(schema, sub, scope) })
	return ok
}

// errStageRows abandons a staged plan whose subquery yields more than one
// row; the engine words that error when the original statement runs.
var errStageRows = errors.New("shard: hoisted subquery returned more than one row")

// staged is an outer statement with its closed scalar subqueries run and
// bound: what routeCross routes in the client statement's place.
type staged struct {
	sel  *sqlast.Select
	args []sqltypes.Value // the client's, then one per hoisted block
	an   analysis
}

// stage is the second planning step of an unpinned statement. It returns nil
// when there is nothing to hoist, the outer statement would still fall back,
// or stage 1 did not produce one value per subquery: the caller then runs the
// original on the fallback, so error text and laziness stay the engine's own.
// Only cancellation is reported from here.
func (c *Conn) stage(ctx context.Context, st *middleware.Statement, args []sqltypes.Value, d []int64, sets []shardSet) (*staged, error) {
	if st.NumParams() != len(args) {
		return nil, nil // the engine words the arity error
	}
	schema := c.srv.Schema()
	outer, subs := hoistScalars(st.AST().(*sqlast.Select), schema, len(args))
	if len(subs) == 0 {
		return nil, nil
	}
	an := analyze(outer, schema)
	if !an.tenantFree && !an.aggPush && !an.plainScan {
		return nil, nil
	}
	bound := append(make([]sqltypes.Value, 0, len(args)+len(subs)), args...)
	for _, sub := range subs {
		v, err := c.stageValue(ctx, sub, args, d, sets)
		if err != nil {
			if ctx.Err() != nil {
				return nil, err
			}
			return nil, nil
		}
		bound = append(bound, v)
	}
	return &staged{sel: outer, args: bound, an: an}, nil
}

// stageValue routes one hoisted block as a statement of its own — under the
// outer statement's D′, which was pruned over a superset of its tables — and
// reads its one value: NULL when it yields no row.
func (c *Conn) stageValue(ctx context.Context, sub *sqlast.Select, args []sqltypes.Value, d []int64, sets []shardSet) (sqltypes.Value, error) {
	st := middleware.NewStatement(sub)
	sargs, err := sliceArgs(args, st.NumParams())
	if err != nil {
		return sqltypes.Null, err
	}
	rows, err := c.routeCross(ctx, st, sargs, d, sets)
	if err != nil {
		return sqltypes.Null, err
	}
	defer rows.Close()
	v := sqltypes.Null
	if rows.Next() {
		v = rows.Row()[0]
		if rows.Next() {
			return sqltypes.Null, errStageRows
		}
	}
	return v, rows.Err()
}
