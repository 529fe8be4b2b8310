package shard

// The replica's folds (DESIGN.md ADR-009, ADR-018, ADR-031): a pinned
// cross-shard SELECT runs a statement on every owning shard, the parts are
// drained concurrently into one statement-local relation, and a statement on
// the coordinator replica folds them. A plain scan is the simplest case — the
// client's statement on every shard, a sort/limit over the parts on the
// replica; an aggregation pushes partials.
//
// For a pinned, grouped/aggregated cross-shard SELECT, each owning shard
// computes a partial and the coordinator folds the gathered partial rows with
// a combine statement. How the statement splits into the two — group keys
// mt_gN, decomposed aggregates mt_aN, COUNT → SUM of partial counts, SUM/MIN/
// MAX → themselves, AVG → sum of partial sums over sum of partial counts, in
// floating point like the engine's AVG — is the optimizer's aggregate split
// (optimizer.SplitAggregates), the one o3 distributes aggregates per tenant
// with; this file frames its halves as two statements. The partial goes
// through every shard's own middleware (full rewrite under the shard's
// sub-scope), so conversions and D-filters apply exactly as they would
// unsharded. The gathered partial rows become a statement-local relation of
// the coordinator replica (engine.QueryWith) that the combine reads.
//
// The fold needs no tenant keys: grouping is by value, and because the
// decomposed aggregates are associative and commutative, folding partials
// over ANY partition of the input rows — including groups that span
// tenants with colliding key values — reproduces the unsharded result
// exactly. Pinnedness (route.go) guarantees the partition itself: every
// input row combination belongs to one tenant and is produced by exactly
// one shard.

import (
	"context"
	"fmt"
	"sync"

	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/mtsql"
	"mtbase/internal/optimizer"
	"mtbase/internal/sqlast"
	"mtbase/internal/sqltypes"
)

// partialPlan carries the shard-side partial statement and the
// coordinator-side combine statement of one aggregation pushdown.
type partialPlan struct {
	partial     *middleware.Statement
	combine     *sqlast.Select
	partialCols []string // partial output columns, in order (mt_g*, mt_a*)
	// renamed: some item's client-visible name is not an identifier (an
	// un-aliased aggregate), so the combine carries an internal alias (mtc_i)
	// for it and the fold cursor's header has to be restored.
	renamed bool
}

// partialsName is the relation the combine statement reads: the gathered
// partial rows, visible to that one statement only.
const partialsName = "mt_partials"

// buildPartialPlan splits sel (pinned, aggregated, shared AST — never
// mutated) into partial+combine, or reports false when the shape does not
// split (the router then uses the repartition fallback).
func buildPartialPlan(sel *sqlast.Select, schema *mtsql.Schema) (*partialPlan, bool) {
	// A nested block that reads rows cannot be computed from partial rows.
	nested := false
	check := func(e sqlast.Expr) { nested = nested || exprHasSubquery(e) }
	sqlast.OutputExprs(sel, check)
	for _, g := range sel.GroupBy {
		check(g)
	}
	if nested {
		return nil, false
	}
	partial, combine, ok := optimizer.SplitAggregates(sel, schema)
	if !ok {
		return nil, false
	}
	// The shards get the partial as the statement a client would have sent.
	plan := &partialPlan{partial: middleware.NewStatement(partial), combine: combine}
	for _, it := range partial.Items {
		plan.partialCols = append(plan.partialCols, it.Alias)
	}
	combine.From = []sqlast.TableExpr{&sqlast.TableName{Name: partialsName, Alias: optimizer.PartAlias}}
	for i := range combine.Items {
		if combine.Items[i].Alias == "" {
			combine.Items[i].Alias = fmt.Sprintf("mtc_%d", i)
			plan.renamed = true
		}
	}
	return plan, true
}

// exprHasSubquery reports a nested block that reads rows; a staged value's
// `(SELECT $n)` reads none and folds like the bind it carries.
func exprHasSubquery(e sqlast.Expr) bool {
	for _, sub := range sqlast.SubqueriesOf(e) {
		if !isStageRef(sub) {
			return true
		}
	}
	return false
}

// sliceArgs trims the statement arguments to the exact bind arity n the
// engine demands of one of the statements they were given for.
func sliceArgs(args []sqltypes.Value, n int) ([]sqltypes.Value, error) {
	if n > len(args) {
		return nil, fmt.Errorf("shard: statement references $%d but only %d arguments given", n, len(args))
	}
	return args[:n], nil
}

// clientHeader is the header the unsharded tier gives client, or nil when the
// plan's combine already carries it. An item without an alias is named by its
// rewritten text, so the replica compiles the statement under D′ as it would
// for a fallback — once per text, session state and schema generation: its
// statement cache holds the form.
func (c *Conn) clientHeader(plan *partialPlan, client *middleware.Statement, d []int64) ([]string, error) {
	if !plan.renamed {
		return nil, nil
	}
	header, err := c.rconn.Scoped(&sqlast.SetScope{Simple: d}).Columns(client)
	if err != nil {
		return nil, err
	}
	if len(header) != len(client.AST().(*sqlast.Select).Items) {
		return nil, fmt.Errorf("shard: rewrite changed the select list of %s", client.Text())
	}
	return header, nil
}

// partialScatter executes an aggregation pushdown: partials on every owning
// shard, then the combine statement over them on the replica — the engine's
// own group, filter, sort and project operators fold them. A non-nil header
// renames the fold cursor's columns: the combine names an item by an internal
// alias where the client-visible name is not an identifier.
func (c *Conn) partialScatter(ctx context.Context, plan *partialPlan, header []string, args []sqltypes.Value, sets []shardSet) (*engine.Rows, error) {
	pargs, err := sliceArgs(args, plan.partial.NumParams())
	if err != nil {
		return nil, err
	}
	cargs, err := sliceArgs(args, sqlast.MaxParam(plan.combine))
	if err != nil {
		return nil, err
	}
	partials, _, err := c.gather(ctx, plan.partial, pargs, sets, plan.partialCols)
	if err != nil {
		return nil, err
	}
	rows, err := c.srv.replica.DB().QueryWith(ctx, plan.combine, cargs, partials)
	if err != nil || header == nil {
		return rows, err
	}
	return rows.Relabel(header), nil
}

// scanScatter executes a pinned scan (DESIGN.md ADR-031): the statement runs
// unchanged on every owning shard, its ORDER BY and LIMIT included, and the
// replica folds the parts with SELECT mt_c0, … FROM mt_partials ORDER BY
// <output positions> LIMIT n under the parts' own header. The engine's sort is
// stable, so over the parts concatenated in shard-rank order it is a merge
// that breaks ties by rank; without ORDER BY the rows keep that order.
func (c *Conn) scanScatter(ctx context.Context, st *middleware.Statement, limit int64, order []sqlast.OrderItem, args []sqltypes.Value, sets []shardSet) (*engine.Rows, error) {
	parts, header, err := c.gather(ctx, st, args, sets, nil)
	if err != nil {
		return nil, err
	}
	fold := sqlast.NewSelect()
	for _, col := range parts.Cols {
		fold.Items = append(fold.Items, sqlast.SelectItem{Expr: &sqlast.ColumnRef{Name: col.Name}})
	}
	fold.From = []sqlast.TableExpr{&sqlast.TableName{Name: partialsName}}
	fold.OrderBy, fold.Limit = order, limit
	rows, err := c.srv.replica.DB().QueryWith(ctx, fold, nil, parts)
	if err != nil {
		return nil, err
	}
	return rows.Relabel(header), nil
}

// gather runs st on every owning shard under D′ ∩ owned(shard) and drains the
// parts concurrently — each shard has its own engine — into the relation a
// fold reads, rows in shard-rank order. The relation's columns are named
// names, or mt_cN by position when names is nil; header is the parts' own.
// It is the one place shard parts are drained.
func (c *Conn) gather(ctx context.Context, st *middleware.Statement, args []sqltypes.Value, sets []shardSet, names []string) (engine.Relation, []string, error) {
	rel := engine.Relation{Name: partialsName}
	curs, err := openParts(sets, func(ss shardSet) (*engine.Rows, error) {
		return c.sub(ss).QueryStmt(ctx, st, args)
	})
	if err != nil {
		return rel, nil, err
	}
	results := make([]*engine.Result, len(curs))
	errs := make([]error, len(curs))
	var wg sync.WaitGroup
	for i, rows := range curs {
		wg.Add(1)
		go func(i int, rows *engine.Rows) {
			defer wg.Done()
			results[i], errs[i] = rows.Collect()
		}(i, rows)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			return rel, nil, e
		}
		rel.Rows = append(rel.Rows, results[i].Rows...)
	}
	header := curs[0].Columns()
	for i := range header {
		name := fmt.Sprintf("mt_c%d", i)
		if names != nil {
			name = names[i]
		}
		rel.Cols = append(rel.Cols, engine.Column{Name: name, Type: inferKind(rel.Rows, i)})
	}
	return rel, header, nil
}

// inferKind picks a column type from the first non-null value; an
// all-null column (no part returned a row, or each a NULL there) types as
// float, which any fold accepts.
func inferKind(rows [][]sqltypes.Value, col int) sqltypes.Kind {
	for _, r := range rows {
		if !r[col].IsNull() {
			return r[col].K
		}
	}
	return sqltypes.KindFloat
}
