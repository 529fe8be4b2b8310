package optimizer

import (
	"fmt"
	"slices"
	"strings"

	"mtbase/internal/mtsql"
	"mtbase/internal/rewrite"
	"mtbase/internal/sqlast"
)

// How an aggregating block splits into a partial block and a combine over the
// partial's rows is decided here, once. o3 splits a block so that each tenant's
// rows aggregate in the tenant's own format (distributeAggregates: it adds the
// ttid group key and a conversion-aware rule per aggregate); the shard
// coordinator splits a statement so that each shard aggregates its own tenants
// (SplitAggregates: nothing added). Both say where the block's names resolve
// (scopeOf), which the text alone does not carry. The algebra is the same — the partial
// aggregates are associative and commutative, so folding them over any
// partition of the input rows reproduces the unsplit result.

// PartAlias names the partial block's rows in the combine: every reference the
// combine makes is PartAlias.mt_gN (group key N) or PartAlias.mt_aN (partial
// aggregate N), and whoever frames the pair binds the partial's rows under it.
const PartAlias = "mt_part"

// aggFold is how one aggregate call splits: the items the partial block
// computes for it and the expression that folds them in the combine.
type aggFold struct {
	partial []sqlast.SelectItem
	fold    sqlast.Expr
}

// aggRule splits one aggregate call; alias hands out the partial item names.
type aggRule func(agg *sqlast.FuncCall, alias func() string) (*aggFold, bool)

func partRef(alias string) sqlast.Expr {
	return &sqlast.ColumnRef{Table: PartAlias, Name: alias}
}

// plainFold is the rule for an aggregate whose argument needs no conversion:
// COUNT folds as the sum of partial counts (0, not NULL, over no partial rows),
// SUM, MIN and MAX fold with themselves, AVG as the sum of partial sums over
// the sum of partial counts, in floating point like the engine's AVG. SUM
// reserves a count alias it does not emit: the numbering is part of o3's text,
// which EXPLAIN and recorded digests go by.
func plainFold(agg *sqlast.FuncCall, alias func() string) (*aggFold, bool) {
	// Anything but f(x) or COUNT(*) — COUNT() included — is left as written
	// for the engine to reject; DISTINCT cannot fold from partials.
	upper := strings.ToUpper(agg.Name)
	if agg.Distinct || (len(agg.Args) != 1 && !(upper == "COUNT" && agg.Star)) {
		return nil, false
	}
	call := func(name string, arg sqlast.Expr) *sqlast.FuncCall {
		return &sqlast.FuncCall{Name: name, Args: []sqlast.Expr{arg}}
	}
	switch upper {
	case "COUNT":
		a := alias()
		part := &sqlast.FuncCall{Name: "COUNT", Star: agg.Star}
		if !agg.Star {
			part.Args = []sqlast.Expr{sqlast.CloneExpr(agg.Args[0])}
		}
		return &aggFold{
			partial: []sqlast.SelectItem{{Expr: part, Alias: a}},
			fold:    &sqlast.FuncCall{Name: "COALESCE", Args: []sqlast.Expr{call("SUM", partRef(a)), sqlast.NewIntLit(0)}},
		}, true
	case "MIN", "MAX":
		a := alias()
		return &aggFold{
			partial: []sqlast.SelectItem{{Expr: call(upper, sqlast.CloneExpr(agg.Args[0])), Alias: a}},
			fold:    call(upper, partRef(a)),
		}, true
	case "SUM", "AVG":
		sum, cnt := alias(), alias()
		f := &aggFold{
			partial: []sqlast.SelectItem{{Expr: call("SUM", sqlast.CloneExpr(agg.Args[0])), Alias: sum}},
			fold:    call("SUM", partRef(sum)),
		}
		if upper == "AVG" {
			f.partial = append(f.partial, sqlast.SelectItem{Expr: call("COUNT", sqlast.CloneExpr(agg.Args[0])), Alias: cnt})
			f.fold = &sqlast.BinaryExpr{Op: "/", L: call("CAST_DECIMAL", f.fold), R: call("SUM", partRef(cnt))}
		}
		return f, true
	}
	return nil, false
}

// aggSplit is an aggregating block with every distinct aggregate call of its
// output clauses split by a rule; build cuts the block along them.
type aggSplit struct {
	s      *sqlast.Select
	folds  []*aggFold // first-seen order: the partial's select list is emitted from it
	byCall map[string]*aggFold
}

// collectAggregates finds the aggregate sites of s's output clauses and splits
// each distinct call (by text) with rule. It reports false when s is not a
// block this split handles or rule refuses a call. Nested blocks are not
// entered; a caller for whom one in an output clause is an obstacle checks
// that first.
func collectAggregates(s *sqlast.Select, rule aggRule) (*aggSplit, bool) {
	if s.Distinct || len(s.From) == 0 {
		return nil, false
	}
	for _, it := range s.Items {
		if it.Star {
			return nil, false
		}
	}
	sp := &aggSplit{s: s}
	n := 0
	alias := func() string {
		n++
		return fmt.Sprintf("mt_a%d", n)
	}
	ok := true
	sqlast.OutputExprs(s, func(e sqlast.Expr) {
		sqlast.WalkExpr(e, func(x sqlast.Expr) bool {
			fc, isCall := x.(*sqlast.FuncCall)
			if !ok || !isCall || !sqlast.IsAggregate(fc.Name) {
				return ok
			}
			key := fc.String()
			if _, done := sp.byCall[key]; !done {
				var f *aggFold
				if f, ok = rule(fc, alias); ok {
					if sp.byCall == nil { // most blocks have no aggregate
						sp.byCall = make(map[string]*aggFold)
					}
					sp.byCall[key] = f
					sp.folds = append(sp.folds, f)
				}
			}
			return false
		})
	})
	return sp, ok
}

// build cuts the block in two without touching it. partial has the block's
// FROM and WHERE (shared, not copied), groups by the block's keys and computes
// them (mt_g1..) and the partial aggregates (mt_a1..); a caller that needs a
// finer partition appends to its GROUP BY. combine is the block's select list,
// HAVING, ORDER BY and LIMIT over partial's rows, with no FROM: the caller
// binds those rows as PartAlias. An item keeps its output name where that is
// an identifier (alias or bare column), since its expression changes. It
// reports false when an output clause names a column of the block's own FROM
// outside every group key and aggregate: nothing of the partial's rows could
// stand for it. (A column of an enclosing block is a constant here and stays.)
//
// scope yields the block's name scope (scopeOf). It settles what the text
// alone cannot: a GROUP BY name that is both a column in scope and an output
// alias groups by the column, as in the engine (substituteAlias).
func (sp *aggSplit) build(scope func() *rewrite.Resolver) (partial, combine *sqlast.Select, ok bool) {
	s := sp.s
	// Resolve output aliases in GROUP BY (the SQL rule the paper invokes
	// in §3.1): `GROUP BY yr` with `EXTRACT(...) AS yr` groups by the
	// expression, which is what the partial must compute.
	aliasExpr := make(map[string]sqlast.Expr)
	for _, it := range s.Items {
		if it.Alias != "" && !hasAggregateCall(it.Expr) {
			aliasExpr[strings.ToLower(it.Alias)] = it.Expr
		}
	}
	partial = sqlast.NewSelect()
	partial.From = s.From
	partial.Where = s.Where
	combine = &sqlast.Select{Limit: s.Limit}
	groupRefs := make(map[string]sqlast.Expr) // group key text -> its combine reference
	for i, g := range s.GroupBy {
		key := g
		if cr, isRef := g.(*sqlast.ColumnRef); isRef && cr.Table == "" {
			if e, aliased := aliasExpr[strings.ToLower(cr.Name)]; aliased {
				if _, column := scope().Resolve(cr); !column {
					key = e
				}
			}
		}
		alias := fmt.Sprintf("mt_g%d", i+1)
		partial.Items = append(partial.Items, sqlast.SelectItem{Expr: sqlast.CloneExpr(key), Alias: alias})
		partial.GroupBy = append(partial.GroupBy, sqlast.CloneExpr(key))
		combine.GroupBy = append(combine.GroupBy, partRef(alias))
		groupRefs[key.String()] = partRef(alias)
		// An aliased original spelling keeps mapping too (ORDER BY yr).
		groupRefs[g.String()] = partRef(alias)
	}
	for _, f := range sp.folds {
		partial.Items = append(partial.Items, f.partial...)
	}

	ok = true
	replace := func(n sqlast.Expr) (sqlast.Expr, bool) {
		if fc, isCall := n.(*sqlast.FuncCall); isCall && sqlast.IsAggregate(fc.Name) {
			if f := sp.byCall[fc.String()]; f != nil {
				return sqlast.CloneExpr(f.fold), true
			}
		}
		if ref := groupRefs[n.String()]; ref != nil {
			return sqlast.CloneExpr(ref), true
		}
		if cr, isRef := n.(*sqlast.ColumnRef); isRef {
			if a, found := scope().Resolve(cr); !found || slices.Contains(scope().Bindings(), a.Binding) {
				ok = false
			}
		}
		return n, false
	}
	mapExpr := func(e sqlast.Expr) sqlast.Expr {
		// Most output expressions are one aggregate call or one group key:
		// replaced whole, there is nothing of e to copy.
		if r, whole := replace(e); whole {
			return r
		}
		return sqlast.ReplaceExpr(sqlast.CloneExpr(e), replace)
	}
	named := make(map[string]bool)
	for _, it := range s.Items {
		out := sqlast.SelectItem{Expr: mapExpr(it.Expr)}
		if _, bare := it.Expr.(*sqlast.ColumnRef); bare || it.Alias != "" {
			out.Alias = it.OutputName()
			named[strings.ToLower(out.Alias)] = true
		}
		combine.Items = append(combine.Items, out)
	}
	if s.Having != nil {
		combine.Having = mapExpr(s.Having)
	}
	for _, o := range s.OrderBy {
		// A bare reference to a named output column still names it.
		if cr, isRef := o.Expr.(*sqlast.ColumnRef); isRef && cr.Table == "" && named[strings.ToLower(cr.Name)] {
			o.Expr = sqlast.CloneExpr(o.Expr)
		} else {
			o.Expr = mapExpr(o.Expr)
		}
		combine.OrderBy = append(combine.OrderBy, o)
	}
	return partial, combine, ok
}

// scopeOf returns the name scope of the last block of path, nested in the ones
// before it, built when first asked for: few blocks ask. The scope is nil, and
// resolves nothing, when a FROM list names a table the schema does not know.
func scopeOf(schema *mtsql.Schema, path []*sqlast.Select) func() *rewrite.Resolver {
	var scope *rewrite.Resolver
	built := false
	return func() *rewrite.Resolver {
		for i := 0; !built && i < len(path); i++ {
			var err error
			if scope, err = rewrite.NewResolver(schema, path[i], scope, nil); err != nil {
				break
			}
		}
		built = true
		return scope
	}
}

// SplitAggregates cuts aggregating top-level block s — MTSQL or SQL, it is not
// touched — into a partial block and a combine over the partial's rows
// (aggSplit.build has the shapes), for a caller that partitions the rows itself
// and needs no conversion handled: every aggregate splits by the
// conversion-free rule.
func SplitAggregates(s *sqlast.Select, schema *mtsql.Schema) (partial, combine *sqlast.Select, ok bool) {
	sp, ok := collectAggregates(s, plainFold)
	if !ok {
		return nil, nil, false
	}
	return sp.build(scopeOf(schema, []*sqlast.Select{s}))
}
