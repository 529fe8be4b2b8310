package shard

// Partial-aggregation pushdown (DESIGN.md ADR-009).
//
// For a pinned, grouped/aggregated cross-shard SELECT, each owning shard
// computes a partial: the original statement with its select list replaced
// by the group-key expressions (mtg_i) and decomposed aggregates (mtp_i),
// HAVING/ORDER BY/LIMIT stripped. The partial goes through every shard's
// own middleware (full rewrite under the shard's sub-scope), so
// conversions and D-filters apply exactly as they would unsharded.
//
// The gathered partial rows become a statement-local relation of the
// coordinator replica (engine.QueryWith) and a combine statement folds
// them: COUNT → SUM of partial counts, SUM → SUM of partial sums, MIN/MAX →
// MIN/MAX of partial extrema, AVG → SUM(partial sums) * 1.0 / SUM(partial
// counts) (the `* 1.0` forces float division; the engine's AVG is always a
// float).
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
	"strings"
	"sync"

	"mtbase/internal/engine"
	"mtbase/internal/sqlast"
	"mtbase/internal/sqltypes"
)

// partialPlan carries the shard-side partial statement and the
// coordinator-side combine statement of one aggregation pushdown.
type partialPlan struct {
	partial     *sqlast.Select
	combine     *sqlast.Select
	partialCols []string // partial output columns, in order (mtg_*, mtp_*)
	// renamed: some item's client-visible name is not an identifier (an
	// un-aliased aggregate), so the combine carries an internal alias (mtc_i)
	// for it and the fold cursor's header has to be restored.
	renamed bool
}

// partialsName is the relation the combine statement reads: the gathered
// partial rows, visible to that one statement only.
const partialsName = "mt_partials"

// substitution maps original expression text to its combine-side
// replacement (group keys → mtg refs, aggregate calls → fold exprs).
type substitution map[string]func() sqlast.Expr

// buildPartialPlan decomposes sel (pinned, aggregated, shared AST — never
// mutated) into partial+combine, or reports false when the shape is not
// decomposable (the router then uses the repartition fallback).
func buildPartialPlan(sel *sqlast.Select) (*partialPlan, bool) {
	if sel.Distinct {
		return nil, false
	}
	for _, it := range sel.Items {
		if it.Star || it.Expr == nil || exprHasSubquery(it.Expr) {
			return nil, false
		}
	}
	if exprHasSubquery(sel.Having) {
		return nil, false
	}
	for _, o := range sel.OrderBy {
		if exprHasSubquery(o.Expr) {
			return nil, false
		}
	}
	for _, g := range sel.GroupBy {
		if exprHasSubquery(g) {
			return nil, false
		}
	}

	subst := make(substitution)
	var partialItems []sqlast.SelectItem
	var partialCols []string
	var combineGroup []sqlast.Expr

	addPartial := func(name string, e sqlast.Expr) {
		partialItems = append(partialItems, sqlast.SelectItem{Expr: e, Alias: name})
		partialCols = append(partialCols, name)
	}

	// Group keys pass through the partial as mtg_i and become the
	// combine's grouping columns.
	for i, g := range sel.GroupBy {
		key := g.String()
		if _, dup := subst[key]; dup {
			continue
		}
		name := fmt.Sprintf("mtg_%d", i)
		addPartial(name, sqlast.CloneExpr(g))
		combineGroup = append(combineGroup, &sqlast.ColumnRef{Name: name})
		subst[key] = func() sqlast.Expr { return &sqlast.ColumnRef{Name: name} }
	}

	// Aggregate calls decompose into partial aggregates plus a fold.
	grouped := len(sel.GroupBy) > 0
	decomposable := true
	collectAggs := func(e sqlast.Expr) {
		sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
			fc, ok := n.(*sqlast.FuncCall)
			if !ok || !engine.IsAggregate(fc.Name) {
				return true
			}
			if fc.Distinct {
				decomposable = false // COUNT(DISTINCT x) cannot fold from partials
				return false
			}
			key := fc.String()
			if _, dup := subst[key]; dup {
				return false
			}
			idx := len(partialCols)
			switch strings.ToUpper(fc.Name) {
			case "AVG":
				sumName := fmt.Sprintf("mtp_%d", idx)
				cntName := fmt.Sprintf("mtp_%d", idx+1)
				arg := sqlast.CloneExpr(fc.Args[0])
				addPartial(sumName, &sqlast.FuncCall{Name: "SUM", Args: []sqlast.Expr{arg}})
				addPartial(cntName, &sqlast.FuncCall{Name: "COUNT", Args: []sqlast.Expr{sqlast.CloneExpr(fc.Args[0])}})
				subst[key] = func() sqlast.Expr {
					return &sqlast.BinaryExpr{
						Op: "/",
						L: &sqlast.BinaryExpr{
							Op: "*",
							L:  &sqlast.FuncCall{Name: "SUM", Args: []sqlast.Expr{&sqlast.ColumnRef{Name: sumName}}},
							R:  &sqlast.Literal{Val: sqltypes.NewFloat(1)},
						},
						R: &sqlast.FuncCall{Name: "SUM", Args: []sqlast.Expr{&sqlast.ColumnRef{Name: cntName}}},
					}
				}
			case "COUNT":
				name := fmt.Sprintf("mtp_%d", idx)
				part := &sqlast.FuncCall{Name: "COUNT", Star: fc.Star}
				if !fc.Star {
					part.Args = []sqlast.Expr{sqlast.CloneExpr(fc.Args[0])}
				}
				addPartial(name, part)
				subst[key] = func() sqlast.Expr {
					fold := sqlast.Expr(&sqlast.FuncCall{Name: "SUM", Args: []sqlast.Expr{&sqlast.ColumnRef{Name: name}}})
					if !grouped {
						// An ungrouped COUNT over zero rows is 0, but SUM
						// over an empty fold input would be NULL.
						fold = &sqlast.FuncCall{Name: "COALESCE", Args: []sqlast.Expr{fold, sqlast.NewIntLit(0)}}
					}
					return fold
				}
			case "SUM", "MIN", "MAX":
				name := fmt.Sprintf("mtp_%d", idx)
				foldFn := strings.ToUpper(fc.Name)
				addPartial(name, &sqlast.FuncCall{Name: fc.Name, Args: []sqlast.Expr{sqlast.CloneExpr(fc.Args[0])}})
				subst[key] = func() sqlast.Expr {
					return &sqlast.FuncCall{Name: foldFn, Args: []sqlast.Expr{&sqlast.ColumnRef{Name: name}}}
				}
			default:
				decomposable = false
			}
			return false
		})
	}
	for _, it := range sel.Items {
		collectAggs(it.Expr)
	}
	collectAggs(sel.Having)
	for _, o := range sel.OrderBy {
		collectAggs(o.Expr)
	}
	if !decomposable {
		return nil, false
	}

	// Shard-side partial: original FROM/WHERE (cloned), mtg/mtp outputs,
	// original grouping, no HAVING/ORDER/LIMIT.
	partial := sqlast.CloneSelect(sel)
	partial.Items = partialItems
	partial.Having = nil
	partial.OrderBy = nil
	partial.Limit = -1
	partial.Distinct = false

	// Coordinator-side combine over the gathered partial rows.
	combine := &sqlast.Select{
		From:    []sqlast.TableExpr{&sqlast.TableName{Name: partialsName}},
		GroupBy: combineGroup,
		Limit:   sel.Limit,
	}
	combineOutputs := make(map[string]bool)
	renamed := false
	for i, it := range sel.Items {
		name := outputNameOf(it)
		if validIdentifier(name) {
			combineOutputs[strings.ToLower(name)] = true
		} else {
			name = fmt.Sprintf("mtc_%d", i)
			renamed = true
		}
		folded, ok := substituteExpr(it.Expr, subst)
		if !ok {
			return nil, false
		}
		combine.Items = append(combine.Items, sqlast.SelectItem{Expr: folded, Alias: name})
	}
	if sel.Having != nil {
		h, ok := substituteExpr(sel.Having, subst)
		if !ok {
			return nil, false
		}
		combine.Having = h
	}
	for _, o := range sel.OrderBy {
		// Bare references to a combine output column (alias or group key
		// name) pass through; anything else must fold to mtg/mtp refs.
		if cr, isRef := o.Expr.(*sqlast.ColumnRef); isRef && cr.Table == "" && combineOutputs[strings.ToLower(cr.Name)] {
			combine.OrderBy = append(combine.OrderBy, sqlast.OrderItem{Expr: &sqlast.ColumnRef{Name: cr.Name}, Desc: o.Desc})
			continue
		}
		folded, ok := substituteExpr(o.Expr, subst)
		if !ok {
			return nil, false
		}
		combine.OrderBy = append(combine.OrderBy, sqlast.OrderItem{Expr: folded, Desc: o.Desc})
	}

	return &partialPlan{
		partial:     partial,
		combine:     combine,
		partialCols: partialCols,
		renamed:     renamed,
	}, true
}

// outputNameOf mirrors the engine's output-column naming rule.
func outputNameOf(it sqlast.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*sqlast.ColumnRef); ok {
		return cr.Name
	}
	return it.Expr.String()
}

func validIdentifier(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// substituteExpr rewrites e top-down: subtrees whose text matches a
// substitution key are replaced whole; everything else is rebuilt with
// substituted children. It fails when a base-table column reference
// survives outside any substituted subtree — the combine statement may
// reference only mtg/mtp columns of the partial rows.
func substituteExpr(e sqlast.Expr, subst substitution) (sqlast.Expr, bool) {
	if e == nil {
		return nil, true
	}
	if mk, ok := subst[e.String()]; ok {
		return mk(), true
	}
	rebuild := func(parts ...*sqlast.Expr) bool {
		for _, p := range parts {
			ne, ok := substituteExpr(*p, subst)
			if !ok {
				return false
			}
			*p = ne
		}
		return true
	}
	switch x := e.(type) {
	case *sqlast.Literal, *sqlast.Param:
		return e, true
	case *sqlast.SubqueryExpr:
		return e, isStageRef(x.Sub)
	case *sqlast.ColumnRef:
		return nil, false // unsubstituted base column: not computable from partials
	case *sqlast.BinaryExpr:
		c := *x
		if !rebuild(&c.L, &c.R) {
			return nil, false
		}
		return &c, true
	case *sqlast.UnaryExpr:
		c := *x
		if !rebuild(&c.X) {
			return nil, false
		}
		return &c, true
	case *sqlast.FuncCall:
		c := *x
		c.Args = append([]sqlast.Expr(nil), x.Args...)
		for i := range c.Args {
			if !rebuild(&c.Args[i]) {
				return nil, false
			}
		}
		return &c, true
	case *sqlast.CaseExpr:
		c := *x
		c.Whens = append([]sqlast.CaseWhen(nil), x.Whens...)
		if !rebuild(&c.Operand, &c.Else) {
			return nil, false
		}
		for i := range c.Whens {
			if !rebuild(&c.Whens[i].Cond, &c.Whens[i].Then) {
				return nil, false
			}
		}
		return &c, true
	case *sqlast.BetweenExpr:
		c := *x
		if !rebuild(&c.X, &c.Lo, &c.Hi) {
			return nil, false
		}
		return &c, true
	case *sqlast.LikeExpr:
		c := *x
		if !rebuild(&c.X, &c.Pattern) {
			return nil, false
		}
		return &c, true
	case *sqlast.IsNullExpr:
		c := *x
		if !rebuild(&c.X) {
			return nil, false
		}
		return &c, true
	case *sqlast.ExtractExpr:
		c := *x
		if !rebuild(&c.X) {
			return nil, false
		}
		return &c, true
	case *sqlast.SubstringExpr:
		c := *x
		if !rebuild(&c.X, &c.From, &c.For) {
			return nil, false
		}
		return &c, true
	case *sqlast.InExpr:
		if x.Sub != nil {
			return nil, false
		}
		c := *x
		c.List = append([]sqlast.Expr(nil), x.List...)
		if !rebuild(&c.X) {
			return nil, false
		}
		for i := range c.List {
			if !rebuild(&c.List[i]) {
				return nil, false
			}
		}
		return &c, true
	default:
		return nil, false
	}
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

// sliceArgs trims the statement arguments to the exact bind arity the
// engine demands.
func sliceArgs(args []sqltypes.Value, stmt sqlast.Statement) ([]sqltypes.Value, error) {
	n := sqlast.MaxParam(stmt)
	if n > len(args) {
		return nil, fmt.Errorf("shard: statement references $%d but only %d arguments given", n, len(args))
	}
	return args[:n], nil
}

// clientHeader is the header the unsharded tier gives client, or nil when the
// plan's combine already carries it. An item without an alias is named by its
// rewritten text, so the replica rewrites the statement under D′ as it would
// for a fallback — once per text, session state and schema generation, since
// both the rewrite and the parse of its text are served from the replica's
// statement caches.
func (c *Conn) clientHeader(plan *partialPlan, client *sqlast.Select, sql string, d []int64) ([]string, error) {
	if !plan.renamed {
		return nil, nil
	}
	txt, err := c.rconn.Scoped(&sqlast.SetScope{Simple: d}).RewrittenText(client, sql)
	if err != nil {
		return nil, err
	}
	q, err := c.ParseSelect(txt)
	if err != nil {
		return nil, err
	}
	header, _ := outputNames(q)
	if len(header) != len(client.Items) {
		return nil, fmt.Errorf("shard: rewrite changed the select list of %s", client)
	}
	return header, nil
}

// partialScatter executes an aggregation pushdown: partials on every
// owning shard (drained concurrently — each shard has its own engine),
// then the combine statement over the gathered partial rows as a
// statement-local relation of the replica: the engine's own group, filter,
// sort and project operators fold them, and nothing enters its catalog. A
// non-nil header renames the fold cursor's columns: the combine names an item
// by an internal alias where the client-visible name is not an identifier.
func (c *Conn) partialScatter(ctx context.Context, plan *partialPlan, header []string, args []sqltypes.Value, sets []shardSet) (*engine.Rows, error) {
	pargs, err := sliceArgs(args, plan.partial)
	if err != nil {
		return nil, err
	}
	cargs, err := sliceArgs(args, plan.combine)
	if err != nil {
		return nil, err
	}
	// The shards get the partial as the text a client would have sent,
	// reparsed (once per text: the parse cache holds it).
	ptxt := plan.partial.String()
	partial, err := c.ParseSelect(ptxt)
	if err != nil {
		return nil, err
	}
	curs, err := c.scatter(ctx, partial, ptxt, pargs, sets)
	if err != nil {
		return nil, err
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
	partials := engine.Relation{Name: partialsName}
	for i, e := range errs {
		if e != nil {
			return nil, e
		}
		partials.Rows = append(partials.Rows, results[i].Rows...)
	}
	for i, cn := range plan.partialCols {
		partials.Cols = append(partials.Cols, engine.Column{Name: cn, Type: inferKind(partials.Rows, i)})
	}
	rows, err := c.srv.replica.DB().QueryWith(ctx, plan.combine, cargs, partials)
	if err != nil || header == nil {
		return rows, err
	}
	return engine.ConcatRows(header, -1, rows), nil
}

// inferKind picks a column type from the first non-null value; an
// all-null column (every shard aggregated an empty input) types as float,
// which any fold accepts.
func inferKind(rows [][]sqltypes.Value, col int) sqltypes.Kind {
	for _, r := range rows {
		if !r[col].IsNull() {
			return r[col].K
		}
	}
	return sqltypes.KindFloat
}
