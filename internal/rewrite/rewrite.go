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
	"maps"
	"slices"
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

// Resolver is the MTSQL name scope of one query block: its FROM items by
// binding name, chained to the enclosing block's scope for correlated
// references. It is how a column reference resolves to MT metadata — for the
// rewrite itself and for whoever has to predict what the rewrite will do (the
// shard coordinator's classifier): there is no second copy of the rule.
type Resolver struct {
	parent   *Resolver
	schema   *mtsql.Schema
	bindings []*Binding
}

// Binding is one FROM item: a base table with metadata, or a derived table or
// view whose outputs are — by the rewrite invariant — already in client
// format and D-filtered, hence treated as comparable.
type Binding struct {
	Name    string            // lower-case binding name
	Table   *sqlast.TableName // the FROM item of a base table or view; nil for a derived table
	Info    *mtsql.TableInfo  // nil for a derived table or a view
	outputs map[string]bool   // derived/view output columns (lower)
}

// Attr is a resolved attribute.
type Attr struct {
	Binding *Binding
	Col     *mtsql.ColumnInfo // nil for derived outputs and ttid
}

// NewResolver binds the FROM items of q, by name only: nothing is rewritten
// and no metadata beyond the schema's is consulted. Each derived table is
// handed to derived — with the scope as built so far, which is what its block
// sees as its parent — before its outputs are bound, so a caller that
// transforms or inspects nested blocks does it from here; nil leaves them
// alone. A table the schema does not know is an error.
func NewResolver(schema *mtsql.Schema, q *sqlast.Select, parent *Resolver, derived func(sub *sqlast.Select, scope *Resolver) error) (*Resolver, error) {
	res := &Resolver{parent: parent, schema: schema}
	var err error
	sqlast.FromItems(q.From, func(t *sqlast.TableName) {
		b := &Binding{Name: strings.ToLower(t.Binding()), Table: t, Info: schema.Table(t.Name)}
		if b.Info == nil {
			// Views created through the middleware satisfy the invariant
			// already; expose their outputs as comparable.
			cols := schema.View(t.Name)
			if cols == nil {
				if err == nil {
					err = fmt.Errorf("rewrite: unknown table %s", t.Name)
				}
				return
			}
			b.outputs = make(map[string]bool, len(cols))
			for _, c := range cols {
				b.outputs[strings.ToLower(c)] = true
			}
		}
		res.bindings = append(res.bindings, b)
	}, func(t *sqlast.DerivedTable) {
		if err != nil {
			return
		}
		if derived != nil {
			if err = derived(t.Sub, res); err != nil {
				return
			}
		}
		b := &Binding{Name: strings.ToLower(t.Alias), outputs: make(map[string]bool, len(t.Sub.Items))}
		for _, it := range t.Sub.Items {
			if !it.Star {
				b.outputs[strings.ToLower(it.OutputName())] = true
			}
		}
		res.bindings = append(res.bindings, b)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Bindings returns the block's own FROM items, in FROM order.
func (r *Resolver) Bindings() []*Binding { return r.bindings }

// Resolve finds the attribute ref names: the innermost binding that has it,
// own block first. ttid resolves only when qualified, and only on a
// tenant-specific table.
func (r *Resolver) Resolve(ref *sqlast.ColumnRef) (Attr, bool) {
	tl := strings.ToLower(ref.Table)
	cl := strings.ToLower(ref.Name)
	for res := r; res != nil; res = res.parent {
		for _, b := range res.bindings {
			if tl != "" && b.Name != tl {
				continue
			}
			if b.Info != nil {
				if cl == mtsql.TTIDColumn {
					if b.Info.TenantSpecific() && tl != "" {
						return Attr{Binding: b}, true
					}
					continue
				}
				if ci := b.Info.Column(ref.Name); ci != nil {
					return Attr{Binding: b, Col: ci}, true
				}
			} else if b.outputs[cl] {
				return Attr{Binding: b}, true
			}
		}
	}
	return Attr{}, false
}

// comparability classifies a resolved attribute; derived outputs count as
// comparable (rewrite invariant).
func (a Attr) comparability() sqlast.Comparability {
	if a.Col == nil {
		return sqlast.Comparable
	}
	return a.Col.Comparability
}

// rewriteQuery rewrites q in place. parent is the enclosing resolver for
// correlated references. Derived tables are rewritten while the scope is
// built (rewriteQuery establishes the invariant for them), each seeing the
// FROM items declared before it.
func rewriteQuery(ctx *Context, q *sqlast.Select, parent *Resolver) error {
	res, err := NewResolver(ctx.Schema, q, parent, func(sub *sqlast.Select, scope *Resolver) error {
		return rewriteQuery(ctx, sub, scope)
	})
	if err != nil {
		return err
	}
	// D-filters for tables under the null-supplying side of an outer join
	// must live in the ON condition: a WHERE filter on a NULL-extended ttid
	// would wrongly drop unmatched rows. Those of an inner join's tables live
	// there too. rewriteFrom records the bindings it filters so rewriteWhere
	// skips them.
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

// rewriteFrom implements Algorithm 2: derived tables were already rewritten
// while the scope was built; join conditions are rewritten exactly like WHERE
// clauses, including ttid-extension of tenant-specific join predicates.
// The D-filter of a tenant-specific base table that a join's ON joins —
// either side of an inner JOIN, the null-supplying side of a LEFT OUTER JOIN —
// is added to the innermost such ON here, so D′ filters the table's rows
// where the join reads them (DESIGN.md ADR-043).
func rewriteFrom(ctx *Context, q *sqlast.Select, res *Resolver, onFiltered map[string]bool) error {
	var err error
	sqlast.EachJoin(q.From, func(j *sqlast.JoinExpr) {
		if err != nil {
			return
		}
		if j.On != nil {
			if j.On, err = rewriteBoolExpr(ctx, j.On, res); err != nil {
				return
			}
		}
		var joined []sqlast.TableExpr
		switch j.Kind {
		case sqlast.JoinInner:
			joined = []sqlast.TableExpr{j.L, j.R}
		case sqlast.JoinLeftOuter:
			joined = []sqlast.TableExpr{j.R}
		}
		for _, t := range sqlast.BaseTablesOf(joined) {
			binding := strings.ToLower(t.Binding())
			info := ctx.Schema.Table(t.Name)
			if info != nil && info.TenantSpecific() && !onFiltered[binding] {
				onFiltered[binding] = true
				j.On = sqlast.AndExprs(j.On, DFilter(ctx, binding))
			}
		}
	})
	return err
}

// rewriteSelectList converts every attribute to client format and expands
// star expressions hiding the invisible ttid column (§3.1, Listing 10).
func rewriteSelectList(ctx *Context, q *sqlast.Select, res *Resolver) error {
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

func expandStar(it sqlast.SelectItem, res *Resolver) ([]sqlast.SelectItem, error) {
	var out []sqlast.SelectItem
	want := strings.ToLower(it.StarTable)
	matched := false
	for _, b := range res.bindings {
		if want != "" && b.Name != want {
			continue
		}
		matched = true
		if b.Info != nil {
			for i := range b.Info.Columns {
				ci := &b.Info.Columns[i]
				out = append(out, sqlast.SelectItem{
					Expr: &sqlast.ColumnRef{Table: b.Name, Name: ci.Name},
				})
			}
		} else {
			for _, c := range slices.Sorted(maps.Keys(b.outputs)) {
				out = append(out, sqlast.SelectItem{
					Expr: &sqlast.ColumnRef{Table: b.Name, Name: c},
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
func rewriteWhere(ctx *Context, q *sqlast.Select, res *Resolver, onFiltered map[string]bool) error {
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
		if b.Info == nil || !b.Info.TenantSpecific() || onFiltered[b.Name] {
			continue
		}
		q.Where = sqlast.AndExprs(q.Where, DFilter(ctx, b.Name))
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

func rewriteGroupBy(ctx *Context, q *sqlast.Select, res *Resolver) error {
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
func rewriteKey(ctx *Context, e sqlast.Expr, res *Resolver) (sqlast.Expr, error) {
	if err := rewriteSubqueriesIn(ctx, e, res); err != nil {
		return nil, err
	}
	wrapped, _ := wrapConvertibles(ctx, e, res)
	return wrapped, nil
}

// rewriteOrderBy rewrites every ORDER BY key except an ordinal and an
// unqualified reference to an output column or alias: those order by the
// output, which the invariant already guarantees to be D-filtered and in
// client format (§3.1), and they stay as written so that the engine and the
// shard merge keep matching them to an output position. Any other key is evaluated over the block's rows
// and is rewritten like a GROUP BY key. Runs after rewriteSelectList: stars
// are expanded and converted items carry their attribute's name as alias.
func rewriteOrderBy(ctx *Context, q *sqlast.Select, res *Resolver) error {
	for i := range q.OrderBy {
		o := &q.OrderBy[i]
		if _, ok := o.Ordinal(); ok {
			continue
		}
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

// namesOutput reports whether name is an output column of q.
func namesOutput(q *sqlast.Select, name string) bool {
	for _, it := range q.Items {
		if !it.Star && strings.EqualFold(it.OutputName(), name) {
			return true
		}
	}
	return false
}

func rewriteHaving(ctx *Context, q *sqlast.Select, res *Resolver) error {
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
func rewriteBoolExpr(ctx *Context, e sqlast.Expr, res *Resolver) (sqlast.Expr, error) {
	if err := rewriteSubqueriesIn(ctx, e, res); err != nil {
		return nil, err
	}
	links, err := res.Links(e)
	if err != nil {
		return nil, err
	}
	for _, l := range links.Ins {
		extendTenantSpecificIn(l)
	}
	wrapped, _ := wrapConvertibles(ctx, e, res)
	for _, p := range links.Pairs {
		wrapped = sqlast.AndExprs(wrapped, &sqlast.BinaryExpr{
			Op: "=",
			L:  &sqlast.ColumnRef{Table: p[0].Name, Name: mtsql.TTIDColumn},
			R:  &sqlast.ColumnRef{Table: p[1].Name, Name: mtsql.TTIDColumn},
		})
	}
	return wrapped, nil
}

// rewriteSubqueriesIn rewrites every directly nested subquery of e in
// place, chaining the resolver for correlated references.
func rewriteSubqueriesIn(ctx *Context, e sqlast.Expr, res *Resolver) error {
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
func wrapConvertibles(ctx *Context, e sqlast.Expr, res *Resolver) (sqlast.Expr, bool) {
	converted := false
	out := sqlast.TransformExpr(e, func(n sqlast.Expr) sqlast.Expr {
		cr, ok := n.(*sqlast.ColumnRef)
		if !ok {
			return n
		}
		a, found := res.Resolve(cr)
		if !found || a.Col == nil || a.Col.Comparability != sqlast.Convertible {
			return n
		}
		converted = true
		return ConversionCall(a.Col, a.Binding.Name, cr, ctx.C)
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

// TTIDLinks is what the rewrite of one predicate ties together by ttid
// (§2.4.2): the bindings it will equate with `a.ttid = b.ttid`, and the
// IN-subqueries it will tuple-extend with ttid on both sides.
type TTIDLinks struct {
	Pairs [][2]*Binding // one per appended equality, in emission order
	Ins   []InLink
}

// InLink is `attr IN (SELECT attr' ...)` over two tenant-specific attributes:
// Outer owns attr in the predicate's scope, Inner owns attr' in the
// subquery's.
type InLink struct {
	In           *sqlast.InExpr
	Outer, Inner *Binding
}

// Links walks the comparison predicates of e — subqueries are boundaries —
// and reports the ttid ties the rewrite makes for it, or the §2.4.2 rule e
// breaks. It changes nothing: the rewrite applies what it reports
// (rewriteBoolExpr), the shard classifier unions it.
func (r *Resolver) Links(e sqlast.Expr) (TTIDLinks, error) {
	var links TTIDLinks
	var firstErr error

	// compare classifies the operands of one comparison: tenant-specific
	// attributes may only meet each other, and every further binding among
	// them is tied to the first. Two bindings of one name are one binding to
	// the emitted SQL, so pairs go by name.
	compare := func(operands ...sqlast.Expr) {
		var ts []*Binding
		other := false
		for _, op := range operands {
			for _, cr := range sqlast.ColumnRefsOf(op) {
				a, found := r.Resolve(cr)
				if !found {
					continue
				}
				if a.comparability() == sqlast.Specific {
					ts = append(ts, a.Binding)
				} else {
					other = true
				}
			}
		}
		if len(ts) > 0 && other {
			firstErr = fmt.Errorf("rewrite: cannot compare tenant-specific attributes with other attributes (§2.4.2)")
			return
		}
		for i := 1; i < len(ts); i++ {
			p := [2]*Binding{ts[0], ts[i]}
			if p[0].Name > p[1].Name {
				p[0], p[1] = p[1], p[0]
			}
			dup := p[0].Name == p[1].Name
			for _, q := range links.Pairs {
				dup = dup || (q[0].Name == p[0].Name && q[1].Name == p[1].Name)
			}
			if !dup {
				links.Pairs = append(links.Pairs, p)
			}
		}
	}

	sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
		if firstErr != nil {
			return false // nothing is classified past the first breach, so it stays the first
		}
		switch x := n.(type) {
		case *sqlast.BinaryExpr:
			switch x.Op {
			case "=", "<>", "<", "<=", ">", ">=":
				compare(x.L, x.R)
				return false
			}
		case *sqlast.BetweenExpr:
			compare(x.X, x.Lo, x.Hi)
			return false
		case *sqlast.LikeExpr:
			compare(x.X, x.Pattern)
			return false
		case *sqlast.InExpr:
			if x.Sub == nil {
				compare(append([]sqlast.Expr{x.X}, x.List...)...)
			} else if l, ok, err := r.inLink(x); err != nil {
				firstErr = err
			} else if ok {
				links.Ins = append(links.Ins, l)
			}
			return false
		}
		return true
	})
	return links, firstErr
}

// inLink resolves both sides of `ts_attr IN (SELECT ts_attr ...)`. The
// subquery's scope is built by name only: its blocks are whatever the caller
// made of them, and nothing in them is touched from here.
func (r *Resolver) inLink(in *sqlast.InExpr) (InLink, bool, error) {
	cr, ok := in.X.(*sqlast.ColumnRef)
	if !ok {
		return InLink{}, false, nil // expression left sides stay as-is
	}
	a, found := r.Resolve(cr)
	if !found || a.comparability() != sqlast.Specific {
		return InLink{}, false, nil
	}
	// The subquery's output must itself be a tenant-specific base column.
	if len(in.Sub.Items) != 1 || in.Sub.Items[0].Star {
		return InLink{}, false, fmt.Errorf("rewrite: IN subquery over tenant-specific attribute must select a single column")
	}
	subRes, err := NewResolver(r.schema, in.Sub, r, nil)
	if err != nil {
		return InLink{}, false, err
	}
	subCr, ok := in.Sub.Items[0].Expr.(*sqlast.ColumnRef)
	if !ok {
		return InLink{}, false, fmt.Errorf("rewrite: cannot compare tenant-specific attribute %s with a computed subquery column (§2.4.2)", cr)
	}
	sa, found := subRes.Resolve(subCr)
	if !found || sa.comparability() != sqlast.Specific {
		return InLink{}, false, fmt.Errorf("rewrite: cannot compare tenant-specific attribute %s with non-tenant-specific subquery output (§2.4.2)", cr)
	}
	return InLink{In: in, Outer: a.Binding, Inner: sa.Binding}, true, nil
}

// extendTenantSpecificIn makes `ts_attr IN (SELECT ts_attr ...)` tenant-
// aware by extending both sides with the owning tables' ttid columns:
// (attr, B.ttid) IN (SELECT attr', B'.ttid ...). The subquery has already
// been rewritten (and D-filtered) at this point.
func extendTenantSpecificIn(l InLink) {
	in := l.In
	in.X = &sqlast.RowExpr{Exprs: []sqlast.Expr{
		in.X,
		&sqlast.ColumnRef{Table: l.Outer.Name, Name: mtsql.TTIDColumn},
	}}
	inner := &sqlast.ColumnRef{Table: l.Inner.Name, Name: mtsql.TTIDColumn}
	in.Sub.Items = append(in.Sub.Items, sqlast.SelectItem{Expr: inner})
	// GROUP BY subqueries must group by the new ttid output as well.
	if len(in.Sub.GroupBy) > 0 {
		in.Sub.GroupBy = append(in.Sub.GroupBy, &sqlast.ColumnRef{Table: l.Inner.Name, Name: mtsql.TTIDColumn})
	}
}
