package rewrite

import (
	"fmt"
	"strings"

	"mtbase/internal/mtsql"
	"mtbase/internal/sqlast"
)

// PhysicalCreateTable converts an MTSQL CREATE TABLE into the physical
// form executed on the DBMS (basic layout, Figure 2): tenant-specific
// tables get the invisible ttid meta column, their primary key is extended
// with ttid, and global foreign keys between tenant-specific tables are
// extended with ttid on both sides (Appendix A.1).
func PhysicalCreateTable(schema *mtsql.Schema, ct *sqlast.CreateTable) *sqlast.CreateTable {
	out := &sqlast.CreateTable{Name: ct.Name, Generality: sqlast.Global}
	ts := ct.Generality == sqlast.TenantSpecific
	if ts {
		out.Columns = append(out.Columns, sqlast.ColumnDef{
			Name:    mtsql.TTIDColumn,
			Type:    sqlast.TypeName{Name: "INTEGER"},
			NotNull: true,
		})
	}
	for _, cd := range ct.Columns {
		phys := cd
		phys.Comparability = sqlast.Comparable // physical table carries no MT metadata
		phys.ToUniversal, phys.FromUniversal = "", ""
		out.Columns = append(out.Columns, phys)
	}
	for _, con := range ct.Constraints {
		pc := con
		switch con.Kind {
		case sqlast.ConstraintPrimaryKey:
			if ts {
				pc.Columns = append([]string{mtsql.TTIDColumn}, con.Columns...)
			}
		case sqlast.ConstraintForeignKey:
			ref := schema.Table(con.RefTable)
			if ts && ref != nil && ref.TenantSpecific() {
				pc.Columns = append(append([]string{}, con.Columns...), mtsql.TTIDColumn)
				pc.RefColumns = append(append([]string{}, con.RefColumns...), mtsql.TTIDColumn)
			}
		}
		out.Constraints = append(out.Constraints, pc)
	}
	return out
}

// TenantFKAsCheck rewrites a tenant-specific referential integrity
// constraint (imposed by tenant c on her own data only) into a CHECK
// constraint, following Appendix A.1:
//
//	CHECK ((SELECT COUNT(col) FROM t WHERE ttid=c AND col NOT IN
//	        (SELECT refcol FROM ref WHERE ttid=c)) = 0)
func TenantFKAsCheck(c int64, table string, fk sqlast.Constraint) (sqlast.Constraint, error) {
	if fk.Kind != sqlast.ConstraintForeignKey || len(fk.Columns) != 1 || len(fk.RefColumns) != 1 {
		return sqlast.Constraint{}, fmt.Errorf("rewrite: tenant-specific FK must reference a single column")
	}
	inner := sqlast.NewSelect()
	inner.Items = []sqlast.SelectItem{{Expr: &sqlast.ColumnRef{Name: fk.RefColumns[0]}}}
	inner.From = []sqlast.TableExpr{&sqlast.TableName{Name: fk.RefTable}}
	inner.Where = &sqlast.BinaryExpr{Op: "=",
		L: &sqlast.ColumnRef{Name: mtsql.TTIDColumn}, R: sqlast.NewIntLit(c)}

	outer := sqlast.NewSelect()
	outer.Items = []sqlast.SelectItem{{Expr: &sqlast.FuncCall{
		Name: "COUNT", Args: []sqlast.Expr{&sqlast.ColumnRef{Name: fk.Columns[0]}},
	}}}
	outer.From = []sqlast.TableExpr{&sqlast.TableName{Name: table}}
	outer.Where = sqlast.AndExprs(
		&sqlast.BinaryExpr{Op: "=", L: &sqlast.ColumnRef{Name: mtsql.TTIDColumn}, R: sqlast.NewIntLit(c)},
		&sqlast.InExpr{X: &sqlast.ColumnRef{Name: fk.Columns[0]}, Not: true, Sub: inner},
	)

	name := fk.Name
	if name == "" {
		name = fmt.Sprintf("fk_check_%s_%d", strings.ToLower(table), c)
	} else {
		name = fmt.Sprintf("%s_%d", name, c)
	}
	return sqlast.Constraint{
		Kind:  sqlast.ConstraintCheck,
		Name:  name,
		Check: &sqlast.BinaryExpr{Op: "=", L: &sqlast.SubqueryExpr{Sub: outer}, R: sqlast.NewIntLit(0)},
	}, nil
}

// Insert rewrites an MTSQL INSERT into one physical INSERT per tenant in
// D′ (§2.5, Appendix A.2): the ttid column is added, and values for
// convertible columns — supplied in C's format — are converted into each
// target tenant's format.
func Insert(ctx *Context, ins *sqlast.Insert) ([]sqlast.Statement, error) {
	info := ctx.Schema.Table(ins.Table)
	if info == nil {
		return nil, fmt.Errorf("rewrite: unknown table %s", ins.Table)
	}
	if !info.TenantSpecific() {
		// Global tables are inserted as-is (values are universal format).
		return []sqlast.Statement{cloneInsert(ins)}, nil
	}
	targets := ins.Columns
	if len(targets) == 0 {
		targets = info.ColumnNames()
	}
	cols := make([]*mtsql.ColumnInfo, len(targets))
	for i, name := range targets {
		ci := info.Column(name)
		if ci == nil {
			return nil, fmt.Errorf("rewrite: no column %s in %s", name, ins.Table)
		}
		cols[i] = ci
	}

	var out []sqlast.Statement
	for _, d := range ctx.D {
		phys := &sqlast.Insert{
			Table:   ins.Table,
			Columns: append([]string{mtsql.TTIDColumn}, targets...),
		}
		if ins.Sub != nil {
			sub, err := Query(ctx, ins.Sub)
			if err != nil {
				return nil, err
			}
			// Name the subquery outputs positionally and convert per column.
			for i := range sub.Items {
				sub.Items[i].Alias = fmt.Sprintf("mt_c%d", i+1)
			}
			wrapper := sqlast.NewSelect()
			wrapper.From = []sqlast.TableExpr{&sqlast.DerivedTable{Sub: sub, Alias: "mt_src"}}
			wrapper.Items = append(wrapper.Items, sqlast.SelectItem{Expr: sqlast.NewIntLit(d)})
			for i, ci := range cols {
				var e sqlast.Expr = &sqlast.ColumnRef{Table: "mt_src", Name: fmt.Sprintf("mt_c%d", i+1)}
				if ci.Comparability == sqlast.Convertible {
					e = convertCToTenant(ci, e, ctx.C, d)
				}
				wrapper.Items = append(wrapper.Items, sqlast.SelectItem{Expr: e})
			}
			phys.Sub = wrapper
		} else {
			for _, row := range ins.Rows {
				if len(row) != len(cols) {
					return nil, fmt.Errorf("rewrite: INSERT row has %d values for %d columns", len(row), len(cols))
				}
				newRow := make([]sqlast.Expr, 0, len(row)+1)
				newRow = append(newRow, sqlast.NewIntLit(d))
				for i, e := range row {
					v := sqlast.CloneExpr(e)
					if cols[i].Comparability == sqlast.Convertible {
						v = convertCToTenant(cols[i], v, ctx.C, d)
					}
					newRow = append(newRow, v)
				}
				phys.Rows = append(phys.Rows, newRow)
			}
		}
		out = append(out, phys)
	}
	return out, nil
}

func cloneInsert(ins *sqlast.Insert) *sqlast.Insert {
	out := &sqlast.Insert{
		Table:   ins.Table,
		Columns: append([]string{}, ins.Columns...),
		Sub:     sqlast.CloneSelect(ins.Sub),
	}
	for _, row := range ins.Rows {
		newRow := make([]sqlast.Expr, len(row))
		for i, e := range row {
			newRow[i] = sqlast.CloneExpr(e)
		}
		out.Rows = append(out.Rows, newRow)
	}
	return out
}

// convertCToTenant builds fromUniversal(toUniversal(e, C), d).
func convertCToTenant(ci *mtsql.ColumnInfo, e sqlast.Expr, c, d int64) sqlast.Expr {
	to := &sqlast.FuncCall{Name: ci.ToFunc, Args: []sqlast.Expr{e, sqlast.NewIntLit(c)}}
	return &sqlast.FuncCall{Name: ci.FromFunc, Args: []sqlast.Expr{to, sqlast.NewIntLit(d)}}
}

// Update rewrites an MTSQL UPDATE: the WHERE clause is rewritten like a
// query predicate plus D-filter, and assignments to convertible columns
// convert the C-format value into each row owner's format via the row's
// own ttid.
func Update(ctx *Context, up *sqlast.Update) (*sqlast.Update, error) {
	info := ctx.Schema.Table(up.Table)
	if info == nil {
		return nil, fmt.Errorf("rewrite: unknown table %s", up.Table)
	}
	out := &sqlast.Update{Table: up.Table}
	binding := strings.ToLower(up.Table)
	res := &Resolver{schema: ctx.Schema, bindings: []*Binding{{Name: binding, Info: info}}}

	for _, a := range up.Sets {
		ci := info.Column(a.Column)
		if ci == nil {
			return nil, fmt.Errorf("rewrite: no column %s in %s", a.Column, up.Table)
		}
		if strings.EqualFold(a.Column, mtsql.TTIDColumn) {
			return nil, fmt.Errorf("rewrite: cannot assign to %s", mtsql.TTIDColumn)
		}
		e := sqlast.CloneExpr(a.Expr)
		if err := rewriteSubqueriesIn(ctx, e, res); err != nil {
			return nil, err
		}
		e, _ = wrapConvertibles(ctx, e, res)
		if ci.Comparability == sqlast.Convertible {
			// Store in the owner's format: from(to(expr, C), ttid).
			to := &sqlast.FuncCall{Name: ci.ToFunc, Args: []sqlast.Expr{e, sqlast.NewIntLit(ctx.C)}}
			e = &sqlast.FuncCall{Name: ci.FromFunc, Args: []sqlast.Expr{
				to, &sqlast.ColumnRef{Table: binding, Name: mtsql.TTIDColumn},
			}}
		}
		out.Sets = append(out.Sets, sqlast.Assignment{Column: a.Column, Expr: e})
	}

	var where sqlast.Expr
	if up.Where != nil {
		w, err := rewriteBoolExpr(ctx, sqlast.CloneExpr(up.Where), res)
		if err != nil {
			return nil, err
		}
		where = w
	}
	if info.TenantSpecific() {
		where = sqlast.AndExprs(where, DFilter(ctx, binding))
	}
	out.Where = where
	return out, nil
}

// Delete rewrites an MTSQL DELETE: predicate rewrite plus D-filter.
func Delete(ctx *Context, del *sqlast.Delete) (*sqlast.Delete, error) {
	info := ctx.Schema.Table(del.Table)
	if info == nil {
		return nil, fmt.Errorf("rewrite: unknown table %s", del.Table)
	}
	out := &sqlast.Delete{Table: del.Table}
	binding := strings.ToLower(del.Table)
	res := &Resolver{schema: ctx.Schema, bindings: []*Binding{{Name: binding, Info: info}}}
	if del.Where != nil {
		w, err := rewriteBoolExpr(ctx, sqlast.CloneExpr(del.Where), res)
		if err != nil {
			return nil, err
		}
		out.Where = w
	}
	if info.TenantSpecific() {
		out.Where = sqlast.AndExprs(out.Where, DFilter(ctx, binding))
	}
	return out, nil
}

// View rewrites CREATE VIEW: the defining query is rewritten with the
// creator's (C, D) so the view adheres to the invariant (§2.2.4).
func View(ctx *Context, cv *sqlast.CreateView) (*sqlast.CreateView, error) {
	sub, err := Query(ctx, cv.Sub)
	if err != nil {
		return nil, err
	}
	return &sqlast.CreateView{Name: cv.Name, Sub: sub}, nil
}

// Scope rewrites a complex SCOPE expression into the SQL query that
// resolves it to a set of ttids (§3.1, Listing 12): every tenant owning at
// least one record satisfying the predicate is in D. Conversion functions
// are applied to convertible attributes; the scope query itself is not
// D-filtered (it *defines* D).
func Scope(ctx *Context, sq *sqlast.ScopeQuery) (*sqlast.Select, error) {
	tmp := sqlast.NewSelect()
	tmp.From = make([]sqlast.TableExpr, len(sq.From))
	for i, te := range sq.From {
		tmp.From[i] = sqlast.CloneTableExpr(te)
	}
	res, err := NewResolver(ctx.Schema, tmp, nil, func(sub *sqlast.Select, scope *Resolver) error {
		return rewriteQuery(ctx, sub, scope)
	})
	if err != nil {
		return nil, err
	}
	// Project the ttid of the first tenant-specific base table.
	var tsBinding string
	for _, b := range res.bindings {
		if b.Info != nil && b.Info.TenantSpecific() {
			tsBinding = b.Name
			break
		}
	}
	if tsBinding == "" {
		return nil, fmt.Errorf("rewrite: complex scope requires a tenant-specific table in FROM")
	}
	out := sqlast.NewSelect()
	out.Distinct = true
	out.Items = []sqlast.SelectItem{{
		Expr: &sqlast.ColumnRef{Table: tsBinding, Name: mtsql.TTIDColumn}, Alias: mtsql.TTIDColumn,
	}}
	out.From = tmp.From
	if sq.Where != nil {
		w, err := rewriteBoolExpr(ctx, sqlast.CloneExpr(sq.Where), res)
		if err != nil {
			return nil, err
		}
		out.Where = w
	}
	return out, nil
}
