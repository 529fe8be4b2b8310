// Package rewrite implements the canonical MTSQL-to-SQL rewrite algorithm
// of §3.1 (Algorithms 1 and 2) and the statement rewrites of §3.3 and
// Appendix A. All functions are pure AST→AST: they clone their input and
// never touch the database — the middleware (internal/middleware) supplies
// the resolved dataset D′ and ships the rewritten SQL to the DBMS.
//
// The rewrite maintains the paper's invariant for every (sub)query: the
// result is filtered according to D′ and presented in the format required
// by client C.
//
// One D′ per statement: the caller prunes D by every table the statement
// touches — the privilege the statement kind takes on the table it writes,
// READ on each table any block of it reads, in whatever slot
// (middleware.Conn.RewriteContextFor over sqlast.Tables) — and every D-filter
// this package emits, at any depth, is over that one set. Each clause has a
// rule of its own (rewriteQuery names them in order); the one for ORDER BY:
// a key that is an unqualified reference to an output column stays as
// written, every other key is rewritten like a GROUP BY key.
package rewrite

import (
	"fmt"
	"sort"
	"strings"

	"mtbase/internal/mtsql"
	"mtbase/internal/sqlast"
)

// Context carries the rewrite inputs: the client C, the privilege-pruned
// dataset D′, and the MT-specific schema metadata.
type Context struct {
	C      int64
	D      []int64 // resolved dataset D′, concrete tenant ids
	DAll   bool    // true when D′ covers every tenant in the database
	Schema *mtsql.Schema
}

// DIsExactlyClient reports D′ = {C}, the trivial-optimization case o1
// uses to drop conversions.
func (ctx *Context) DIsExactlyClient() bool {
	return len(ctx.D) == 1 && ctx.D[0] == ctx.C
}

// Query rewrites an MTSQL query into plain SQL (Algorithm 1). The input
// is not modified.
func Query(ctx *Context, q *sqlast.Select) (*sqlast.Select, error) {
	out := sqlast.CloneSelect(q)
	if err := rewriteQuery(ctx, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// resolver resolves column references to MT metadata across nested query
// scopes (parent chain implements correlated references).
type resolver struct {
	parent   *resolver
	bindings []*rBinding
}

// rBinding is one FROM item: a base table with metadata, or a derived
// table whose outputs are — by the rewrite invariant — already in client
// format and D-filtered, hence treated as comparable.
type rBinding struct {
	name    string // lower-case binding name
	info    *mtsql.TableInfo
	outputs map[string]bool // derived/global-view output columns (lower)
}

// attr is a resolved attribute.
type attr struct {
	binding string
	col     *mtsql.ColumnInfo // nil for derived outputs
}

func (r *resolver) resolve(ref *sqlast.ColumnRef) (attr, bool) {
	tl := strings.ToLower(ref.Table)
	cl := strings.ToLower(ref.Name)
	for res := r; res != nil; res = res.parent {
		for _, b := range res.bindings {
			if tl != "" && b.name != tl {
				continue
			}
			if b.info != nil {
				if cl == mtsql.TTIDColumn {
					if b.info.TenantSpecific() && tl != "" {
						return attr{binding: b.name}, true
					}
					continue
				}
				if ci := b.info.Column(ref.Name); ci != nil {
					return attr{binding: b.name, col: ci}, true
				}
			} else if b.outputs[cl] {
				return attr{binding: b.name}, true
			}
		}
	}
	return attr{}, false
}

// comparability classifies a resolved attribute; derived outputs count as
// comparable (rewrite invariant).
func (a attr) comparability() sqlast.Comparability {
	if a.col == nil {
		return sqlast.Comparable
	}
	return a.col.Comparability
}

// rewriteQuery rewrites q in place. parent is the enclosing resolver for
// correlated references.
func rewriteQuery(ctx *Context, q *sqlast.Select, parent *resolver) error {
	res, err := buildResolver(ctx, q, parent)
	if err != nil {
		return err
	}
	// D-filters for tables under the preserved side of an outer join must
	// live in the ON condition: a WHERE filter on a NULL-extended ttid
	// would wrongly drop unmatched rows. rewriteFrom records the bindings
	// it filters so rewriteWhere skips them.
	onFiltered := make(map[string]bool)
	if err := rewriteFrom(ctx, q, res, onFiltered); err != nil {
		return err
	}
	if err := rewriteSelectList(ctx, q, res); err != nil {
		return err
	}
	if err := rewriteWhere(ctx, q, res, onFiltered); err != nil {
		return err
	}
	if err := rewriteGroupBy(ctx, q, res); err != nil {
		return err
	}
	if err := rewriteHaving(ctx, q, res); err != nil {
		return err
	}
	return rewriteOrderBy(ctx, q, res)
}

// buildResolver walks the FROM clause, recursively rewriting derived
// tables (rewriteQuery establishes the invariant for them) and recording
// bindings.
func buildResolver(ctx *Context, q *sqlast.Select, parent *resolver) (*resolver, error) {
	res := &resolver{parent: parent}
	var visit func(te sqlast.TableExpr) error
	visit = func(te sqlast.TableExpr) error {
		switch t := te.(type) {
		case *sqlast.TableName:
			info := ctx.Schema.Table(t.Name)
			if info == nil {
				// Views created through the middleware satisfy the
				// invariant already; expose their outputs as comparable.
				if cols := ctx.Schema.View(t.Name); cols != nil {
					outputs := make(map[string]bool, len(cols))
					for _, c := range cols {
						outputs[strings.ToLower(c)] = true
					}
					res.bindings = append(res.bindings, &rBinding{
						name:    strings.ToLower(t.Binding()),
						outputs: outputs,
					})
					return nil
				}
				return fmt.Errorf("rewrite: unknown table %s", t.Name)
			}
			res.bindings = append(res.bindings, &rBinding{
				name: strings.ToLower(t.Binding()),
				info: info,
			})
		case *sqlast.DerivedTable:
			if err := rewriteQuery(ctx, t.Sub, res); err != nil {
				return err
			}
			res.bindings = append(res.bindings, &rBinding{
				name:    strings.ToLower(t.Alias),
				outputs: outputColumns(t.Sub),
			})
		case *sqlast.JoinExpr:
			if err := visit(t.L); err != nil {
				return err
			}
			return visit(t.R)
		}
		return nil
	}
	for _, te := range q.From {
		if err := visit(te); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// outputColumns derives the visible output column names of a subquery.
func outputColumns(q *sqlast.Select) map[string]bool {
	out := make(map[string]bool)
	for _, it := range q.Items {
		switch {
		case it.Alias != "":
			out[strings.ToLower(it.Alias)] = true
		case it.Expr != nil:
			if cr, ok := it.Expr.(*sqlast.ColumnRef); ok {
				out[strings.ToLower(cr.Name)] = true
			} else {
				out[strings.ToLower(it.Expr.String())] = true
			}
		}
	}
	return out
}

// rewriteFrom implements Algorithm 2: derived tables were already rewritten
// by buildResolver; join conditions are rewritten exactly like WHERE
// clauses, including ttid-extension of tenant-specific join predicates.
// D-filters for tenant-specific base tables on the null-supplying side of
// a LEFT OUTER JOIN are added to the ON condition here.
func rewriteFrom(ctx *Context, q *sqlast.Select, res *resolver, onFiltered map[string]bool) error {
	var visit func(te sqlast.TableExpr) error
	visit = func(te sqlast.TableExpr) error {
		j, ok := te.(*sqlast.JoinExpr)
		if !ok {
			return nil
		}
		if err := visit(j.L); err != nil {
			return err
		}
		if err := visit(j.R); err != nil {
			return err
		}
		if j.On != nil {
			on, err := rewriteBoolExpr(ctx, j.On, res)
			if err != nil {
				return err
			}
			j.On = on
		}
		if j.Kind == sqlast.JoinLeftOuter {
			for _, t := range sqlast.BaseTablesOf([]sqlast.TableExpr{j.R}) {
				binding := strings.ToLower(t.Binding())
				info := ctx.Schema.Table(t.Name)
				if info != nil && info.TenantSpecific() && !onFiltered[binding] {
					onFiltered[binding] = true
					j.On = sqlast.AndExprs(j.On, DFilter(ctx, binding))
				}
			}
		}
		return nil
	}
	for _, te := range q.From {
		if err := visit(te); err != nil {
			return err
		}
	}
	return nil
}

// rewriteSelectList converts every attribute to client format and expands
// star expressions hiding the invisible ttid column (§3.1, Listing 10).
func rewriteSelectList(ctx *Context, q *sqlast.Select, res *resolver) error {
	// Phase 1: expand stars into explicit column references (hiding ttid).
	var items []sqlast.SelectItem
	for _, it := range q.Items {
		if it.Star {
			expanded, err := expandStar(it, res)
			if err != nil {
				return err
			}
			items = append(items, expanded...)
			continue
		}
		items = append(items, it)
	}
	// Phase 2: rewrite subqueries and wrap convertible attributes.
	for i := range items {
		it := &items[i]
		if err := rewriteSubqueriesIn(ctx, it.Expr, res); err != nil {
			return err
		}
		wrapped, converted := wrapConvertibles(ctx, it.Expr, res)
		if converted && it.Alias == "" {
			// Rename the conversion result back to the name the attribute
			// had before, so super-queries keep working (Listing 10 l.3).
			if cr, ok := it.Expr.(*sqlast.ColumnRef); ok {
				it.Alias = cr.Name
			}
		}
		it.Expr = wrapped
	}
	q.Items = items
	return nil
}

func expandStar(it sqlast.SelectItem, res *resolver) ([]sqlast.SelectItem, error) {
	var out []sqlast.SelectItem
	want := strings.ToLower(it.StarTable)
	matched := false
	for _, b := range res.bindings {
		if want != "" && b.name != want {
			continue
		}
		matched = true
		if b.info != nil {
			for i := range b.info.Columns {
				ci := &b.info.Columns[i]
				out = append(out, sqlast.SelectItem{
					Expr: &sqlast.ColumnRef{Table: b.name, Name: ci.Name},
				})
			}
		} else {
			cols := make([]string, 0, len(b.outputs))
			for c := range b.outputs { //mtlint:ignore detmap the column names are sorted below before the items are emitted
				cols = append(cols, c)
			}
			sort.Strings(cols)
			for _, c := range cols {
				out = append(out, sqlast.SelectItem{
					Expr: &sqlast.ColumnRef{Table: b.name, Name: c},
				})
			}
		}
	}
	if !matched {
		return nil, fmt.Errorf("rewrite: unknown table %q in star expression", it.StarTable)
	}
	return out, nil
}

// rewriteWhere rewrites the WHERE clause (conversions, ttid join
// predicates, rejection rules) and appends the D-filters for every
// tenant-specific base table (§3.1, Listing 11).
func rewriteWhere(ctx *Context, q *sqlast.Select, res *resolver, onFiltered map[string]bool) error {
	if q.Where != nil {
		w, err := rewriteBoolExpr(ctx, q.Where, res)
		if err != nil {
			return err
		}
		q.Where = w
	}
	// D-filters for this query level's own tenant-specific base tables
	// (those not already filtered in an outer-join ON condition).
	for _, b := range res.bindings {
		if b.info == nil || !b.info.TenantSpecific() || onFiltered[b.name] {
			continue
		}
		q.Where = sqlast.AndExprs(q.Where, DFilter(ctx, b.name))
	}
	return nil
}

// DFilter builds `binding.ttid IN (d1, ...)` — or a contradiction when D′
// is empty (no privileges).
func DFilter(ctx *Context, bindingName string) sqlast.Expr {
	ttid := &sqlast.ColumnRef{Table: bindingName, Name: mtsql.TTIDColumn}
	if len(ctx.D) == 0 {
		return &sqlast.BinaryExpr{Op: "=", L: sqlast.NewIntLit(1), R: sqlast.NewIntLit(0)}
	}
	list := make([]sqlast.Expr, len(ctx.D))
	for i, d := range ctx.D {
		list[i] = sqlast.NewIntLit(d)
	}
	return &sqlast.InExpr{X: ttid, List: list}
}

func rewriteGroupBy(ctx *Context, q *sqlast.Select, res *resolver) error {
	for i, g := range q.GroupBy {
		k, err := rewriteKey(ctx, g, res)
		if err != nil {
			return err
		}
		q.GroupBy[i] = k
	}
	return nil
}

// rewriteKey rewrites a grouping or ordering key, an expression over the
// block's rows: its nested blocks are rewritten (D-filter, ttid predicates)
// and its convertible attributes brought into client format, so rows of
// different owners group and order by comparable values.
func rewriteKey(ctx *Context, e sqlast.Expr, res *resolver) (sqlast.Expr, error) {
	if err := rewriteSubqueriesIn(ctx, e, res); err != nil {
		return nil, err
	}
	wrapped, _ := wrapConvertibles(ctx, e, res)
	return wrapped, nil
}

// rewriteOrderBy rewrites every ORDER BY key except an unqualified reference
// to an output column or alias: that one orders by the output, which the
// invariant already guarantees to be D-filtered and in client format (§3.1),
// and it stays as written so that the engine and the shard merge keep matching
// it to an output position. Any other key is evaluated over the block's rows
// and is rewritten like a GROUP BY key. Runs after rewriteSelectList: stars
// are expanded and converted items carry their attribute's name as alias.
func rewriteOrderBy(ctx *Context, q *sqlast.Select, res *resolver) error {
	for i := range q.OrderBy {
		o := &q.OrderBy[i]
		if cr, ok := o.Expr.(*sqlast.ColumnRef); ok && cr.Table == "" && namesOutput(q, cr.Name) {
			continue
		}
		k, err := rewriteKey(ctx, o.Expr, res)
		if err != nil {
			return err
		}
		o.Expr = k
	}
	return nil
}

// namesOutput reports whether name is an output column of q: an item's alias,
// or the column an un-aliased item refers to.
func namesOutput(q *sqlast.Select, name string) bool {
	for i := range q.Items {
		it := &q.Items[i]
		if it.Alias != "" {
			if strings.EqualFold(it.Alias, name) {
				return true
			}
		} else if cr, ok := it.Expr.(*sqlast.ColumnRef); ok && strings.EqualFold(cr.Name, name) {
			return true
		}
	}
	return false
}

func rewriteHaving(ctx *Context, q *sqlast.Select, res *resolver) error {
	if q.Having == nil {
		return nil
	}
	h, err := rewriteBoolExpr(ctx, q.Having, res)
	if err != nil {
		return err
	}
	q.Having = h
	return nil
}

// ---------------------------------------------------------------- predicates

// rewriteBoolExpr rewrites a predicate expression:
//  1. nested subqueries are rewritten recursively (invariant),
//  2. convertible attributes are wrapped in conversion-function calls,
//  3. predicates over tenant-specific attributes of different tables get
//     ttid equality predicates appended; IN-subqueries over tenant-specific
//     attributes become tuple INs carrying ttid on both sides,
//  4. predicates mixing tenant-specific with other attributes are rejected
//     (§2.4.2).
func rewriteBoolExpr(ctx *Context, e sqlast.Expr, res *resolver) (sqlast.Expr, error) {
	if err := rewriteSubqueriesIn(ctx, e, res); err != nil {
		return nil, err
	}
	pairs, err := analyzeTenantSpecific(ctx, e, res)
	if err != nil {
		return nil, err
	}
	wrapped, _ := wrapConvertibles(ctx, e, res)
	for _, p := range pairs {
		wrapped = sqlast.AndExprs(wrapped, &sqlast.BinaryExpr{
			Op: "=",
			L:  &sqlast.ColumnRef{Table: p[0], Name: mtsql.TTIDColumn},
			R:  &sqlast.ColumnRef{Table: p[1], Name: mtsql.TTIDColumn},
		})
	}
	return wrapped, nil
}

// rewriteSubqueriesIn rewrites every directly nested subquery of e in
// place, chaining the resolver for correlated references.
func rewriteSubqueriesIn(ctx *Context, e sqlast.Expr, res *resolver) error {
	for _, sub := range sqlast.SubqueriesOf(e) {
		if err := rewriteQuery(ctx, sub, res); err != nil {
			return err
		}
	}
	return nil
}

// wrapConvertibles wraps every reference to a convertible attribute in
// fromUniversal(toUniversal(attr, B.ttid), C). Constants are already in
// C's format and stay untouched. Subqueries are boundaries.
func wrapConvertibles(ctx *Context, e sqlast.Expr, res *resolver) (sqlast.Expr, bool) {
	converted := false
	out := sqlast.TransformExpr(e, func(n sqlast.Expr) sqlast.Expr {
		cr, ok := n.(*sqlast.ColumnRef)
		if !ok {
			return n
		}
		a, found := res.resolve(cr)
		if !found || a.col == nil || a.col.Comparability != sqlast.Convertible {
			return n
		}
		converted = true
		return ConversionCall(a.col, a.binding, cr, ctx.C)
	})
	return out, converted
}

// ConversionCall builds fromUniversal(toUniversal(expr, binding.ttid), C).
func ConversionCall(col *mtsql.ColumnInfo, binding string, expr sqlast.Expr, c int64) sqlast.Expr {
	to := &sqlast.FuncCall{Name: col.ToFunc, Args: []sqlast.Expr{
		expr,
		&sqlast.ColumnRef{Table: binding, Name: mtsql.TTIDColumn},
	}}
	return &sqlast.FuncCall{Name: col.FromFunc, Args: []sqlast.Expr{
		to,
		sqlast.NewIntLit(c),
	}}
}

// analyzeTenantSpecific walks comparison predicates, validating the
// tenant-specific comparison rules and collecting the (binding, binding)
// pairs that need ttid equality predicates. It also tuple-extends
// IN-subqueries over tenant-specific attributes in place.
func analyzeTenantSpecific(ctx *Context, e sqlast.Expr, res *resolver) ([][2]string, error) {
	var pairs [][2]string
	seen := make(map[string]bool)
	addPair := func(a, b string) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		k := a + "|" + b
		if !seen[k] {
			seen[k] = true
			pairs = append(pairs, [2]string{a, b})
		}
	}

	var firstErr error
	fail := func(err error) bool {
		if firstErr == nil {
			firstErr = err
		}
		return false
	}

	// classify returns the tenant-specific bindings and whether any
	// non-tenant-specific attribute occurs in the operand expression.
	classify := func(x sqlast.Expr) (tsBindings []string, hasOther bool) {
		for _, cr := range sqlast.ColumnRefsOf(x) {
			a, found := res.resolve(cr)
			if !found {
				continue
			}
			if a.comparability() == sqlast.Specific {
				tsBindings = append(tsBindings, a.binding)
			} else {
				hasOther = true
			}
		}
		return
	}

	checkComparison := func(operands ...sqlast.Expr) {
		var ts []string
		other := false
		for _, op := range operands {
			t, o := classify(op)
			ts = append(ts, t...)
			other = other || o
		}
		if len(ts) > 0 && other {
			fail(fmt.Errorf("rewrite: cannot compare tenant-specific attributes with other attributes (§2.4.2)"))
			return
		}
		for i := 1; i < len(ts); i++ {
			addPair(ts[0], ts[i])
		}
	}

	sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
		if firstErr != nil {
			return false
		}
		switch x := n.(type) {
		case *sqlast.BinaryExpr:
			switch x.Op {
			case "=", "<>", "<", "<=", ">", ">=":
				checkComparison(x.L, x.R)
				return false
			}
		case *sqlast.BetweenExpr:
			checkComparison(x.X, x.Lo, x.Hi)
			return false
		case *sqlast.LikeExpr:
			checkComparison(x.X, x.Pattern)
			return false
		case *sqlast.InExpr:
			if x.Sub == nil {
				ops := append([]sqlast.Expr{x.X}, x.List...)
				checkComparison(ops...)
				return false
			}
			if err := extendTenantSpecificIn(ctx, x, res); err != nil {
				fail(err)
			}
			return false
		}
		return true
	})
	if firstErr != nil {
		return nil, firstErr
	}
	return pairs, nil
}

// extendTenantSpecificIn makes `ts_attr IN (SELECT ts_attr ...)` tenant-
// aware by extending both sides with the owning tables' ttid columns:
// (attr, B.ttid) IN (SELECT attr', B'.ttid ...). The subquery has already
// been rewritten (and D-filtered) at this point.
func extendTenantSpecificIn(ctx *Context, in *sqlast.InExpr, res *resolver) error {
	cr, ok := in.X.(*sqlast.ColumnRef)
	if !ok {
		return nil // expression left sides stay as-is
	}
	a, found := res.resolve(cr)
	if !found || a.comparability() != sqlast.Specific {
		return nil
	}
	// The subquery's output must itself be a tenant-specific base column.
	if len(in.Sub.Items) != 1 || in.Sub.Items[0].Star {
		return fmt.Errorf("rewrite: IN subquery over tenant-specific attribute must select a single column")
	}
	subRes, err := buildResolver(ctx, in.Sub, res)
	if err != nil {
		return err
	}
	subItem := in.Sub.Items[0]
	subCr, ok := subItem.Expr.(*sqlast.ColumnRef)
	if !ok {
		return fmt.Errorf("rewrite: cannot compare tenant-specific attribute %s with a computed subquery column (§2.4.2)", cr)
	}
	sa, found := subRes.resolve(subCr)
	if !found || sa.comparability() != sqlast.Specific {
		return fmt.Errorf("rewrite: cannot compare tenant-specific attribute %s with non-tenant-specific subquery output (§2.4.2)", cr)
	}
	in.X = &sqlast.RowExpr{Exprs: []sqlast.Expr{
		in.X,
		&sqlast.ColumnRef{Table: a.binding, Name: mtsql.TTIDColumn},
	}}
	in.Sub.Items = append(in.Sub.Items, sqlast.SelectItem{
		Expr: &sqlast.ColumnRef{Table: sa.binding, Name: mtsql.TTIDColumn},
	})
	// GROUP BY subqueries must group by the new ttid output as well.
	if len(in.Sub.GroupBy) > 0 {
		in.Sub.GroupBy = append(in.Sub.GroupBy, &sqlast.ColumnRef{Table: sa.binding, Name: mtsql.TTIDColumn})
	}
	return nil
}
