package middleware

import (
	"context"
	"fmt"

	"mtbase/internal/engine"
	"mtbase/internal/mtsql"
	"mtbase/internal/optimizer"
	"mtbase/internal/rewrite"
	"mtbase/internal/sqlast"
	"mtbase/internal/sqltypes"
)

// createTable handles MTSQL CREATE TABLE: only the data modeller (or a
// delegate) may define tables (§2.2). The statement is registered in the
// MT meta-data cache and executed on the DBMS in its physical form
// (ttid column, extended keys).
func (c *Conn) createTable(ct *sqlast.CreateTable) (*engine.Result, error) {
	if !c.srv.isModeller(c.c) {
		return nil, fmt.Errorf("middleware: tenant %d lacks the DDL role", c.c)
	}
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	if _, err := c.srv.schema.AddTable(ct); err != nil {
		return nil, err
	}
	phys := rewrite.PhysicalCreateTable(c.srv.schema, ct)
	res, err := c.srv.db.Exec(phys)
	if err != nil {
		c.srv.schema.DropTable(ct.Name)
		return nil, err
	}
	c.srv.schemaGen++
	return res, nil
}

func (c *Conn) dropTable(dt *sqlast.DropTable) (*engine.Result, error) {
	if !c.srv.isModeller(c.c) {
		return nil, fmt.Errorf("middleware: tenant %d lacks the DDL role", c.c)
	}
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	res, err := c.srv.db.Exec(dt)
	if err != nil {
		return nil, err
	}
	c.srv.schema.DropTable(dt.Name)
	c.srv.schemaGen++
	return res, nil
}

// createFunction registers a (conversion) UDF on the DBMS and retains its
// parsed body for the o4 inliner.
func (c *Conn) createFunction(cf *sqlast.CreateFunction) (*engine.Result, error) {
	if !c.srv.isModeller(c.c) {
		return nil, fmt.Errorf("middleware: tenant %d lacks the DDL role", c.c)
	}
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	res, err := c.srv.db.Exec(cf)
	if err != nil {
		return nil, err
	}
	c.srv.schema.AddFunction(cf)
	c.srv.schemaGen++
	return res, nil
}

// createView rewrites the defining query with the session's (C, D) so the
// stored view satisfies the invariant (§2.2.4), then creates it.
func (c *Conn) createView(cv *sqlast.CreateView) (*engine.Result, error) {
	ctx, err := c.RewriteContextFor(sqlast.Tables(cv))
	if err != nil {
		return nil, err
	}
	rw, err := rewrite.View(ctx, cv)
	if err != nil {
		return nil, err
	}
	opt, err := optimizer.Optimize(ctx, rw.Sub, c.level)
	if err != nil {
		return nil, err
	}
	res, err := c.srv.db.Exec(&sqlast.CreateView{Name: rw.Name, Sub: opt})
	if err != nil {
		return nil, err
	}
	c.srv.schema.AddView(cv.Name, visibleOutputs(cv.Sub))
	c.srv.setViewOwner(cv.Name, c.c)
	c.srv.bumpSchemaGen()
	return res, nil
}

// visibleOutputs derives the client-visible output column names of the
// original (pre-rewrite) view body.
func visibleOutputs(q *sqlast.Select) []string {
	var out []string
	for _, it := range q.Items {
		if !it.Star {
			out = append(out, it.OutputName())
		}
	}
	return out
}

// AddForeignKey adds a referential integrity constraint (§2.2.3,
// Appendix A.1). Issued by the data modeller it becomes a global
// constraint: the physical FK is extended with ttid when both tables are
// tenant-specific. Issued by a regular tenant it binds only her own data
// and is rewritten into a CHECK constraint.
func (c *Conn) AddForeignKey(table string, fk sqlast.Constraint) error {
	if fk.Kind != sqlast.ConstraintForeignKey {
		return fmt.Errorf("middleware: AddForeignKey requires a FOREIGN KEY constraint")
	}
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	info := c.srv.schema.Table(table)
	if info == nil {
		return fmt.Errorf("middleware: unknown table %s", table)
	}
	tab := c.srv.db.Table(table)
	if tab == nil {
		return fmt.Errorf("middleware: table %s missing in DBMS", table)
	}
	if c.srv.modellers[c.c] {
		phys := fk
		ref := c.srv.schema.Table(fk.RefTable)
		if info.TenantSpecific() && ref != nil && ref.TenantSpecific() {
			phys.Columns = append(append([]string{}, fk.Columns...), mtsql.TTIDColumn)
			phys.RefColumns = append(append([]string{}, fk.RefColumns...), mtsql.TTIDColumn)
		}
		tab.Constraints = append(tab.Constraints, phys)
		return nil
	}
	check, err := rewrite.TenantFKAsCheck(c.c, table, fk)
	if err != nil {
		return err
	}
	tab.Constraints = append(tab.Constraints, check)
	return nil
}

// insert applies the MTSQL DML semantics of §2.5: the statement is applied
// to each tenant in D separately, with value conversion into each target
// tenant's format. Bind parameters pass through the rewrite and are bound
// on every per-tenant physical statement. An INSERT ... SELECT is pruned by
// INSERT on the target and READ on its sources (pruneDataset): one D′ names
// both the tenants written and the rows read.
func (c *Conn) insert(ctx context.Context, ins *sqlast.Insert, args []sqltypes.Value) (*engine.Result, error) {
	rctx, err := c.RewriteContextFor(sqlast.Tables(ins))
	if err != nil {
		return nil, err
	}
	stmts, err := rewrite.Insert(rctx, ins)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, st := range stmts {
		res, err := c.srv.execSQLArgs(ctx, st.String(), args)
		if err != nil {
			return nil, err
		}
		total += res.Affected
	}
	return &engine.Result{Affected: total}, nil
}

func (c *Conn) update(ctx context.Context, up *sqlast.Update, args []sqltypes.Value) (*engine.Result, error) {
	rctx, err := c.RewriteContextFor(sqlast.Tables(up))
	if err != nil {
		return nil, err
	}
	rw, err := rewrite.Update(rctx, up)
	if err != nil {
		return nil, err
	}
	return c.srv.execSQLArgs(ctx, rw.String(), args)
}

func (c *Conn) delete(ctx context.Context, del *sqlast.Delete, args []sqltypes.Value) (*engine.Result, error) {
	rctx, err := c.RewriteContextFor(sqlast.Tables(del))
	if err != nil {
		return nil, err
	}
	rw, err := rewrite.Delete(rctx, del)
	if err != nil {
		return nil, err
	}
	return c.srv.execSQLArgs(ctx, rw.String(), args)
}

// grant implements the MTSQL GRANT semantics (§2.3): privileges are
// granted on C's instance of the table; GRANT ... TO ALL grants to every
// tenant in D.
func (c *Conn) grant(g *sqlast.Grant) (*engine.Result, error) {
	grantees := []int64{g.Grantee}
	if g.GranteeAll {
		d, _, err := c.resolveScope()
		if err != nil {
			return nil, err
		}
		grantees = d
	}
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	for _, grantee := range grantees {
		for _, p := range g.Privileges {
			c.srv.grantLocked(grantee, c.c, g.Table, p)
		}
	}
	return &engine.Result{}, nil
}

func (c *Conn) revoke(r *sqlast.Revoke) (*engine.Result, error) {
	grantees := []int64{r.Grantee}
	if r.GranteeAll {
		d, _, err := c.resolveScope()
		if err != nil {
			return nil, err
		}
		grantees = d
	}
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	for _, grantee := range grantees {
		for _, p := range r.Privileges {
			c.srv.revokeLocked(grantee, c.c, r.Table, p)
		}
	}
	return &engine.Result{}, nil
}
