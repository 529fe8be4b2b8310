package middleware

import (
	"fmt"

	"mtbase/internal/engine"
	"mtbase/internal/mtsql"
	"mtbase/internal/rewrite"
	"mtbase/internal/sqlast"
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

// createView compiles the statement — the defining query rewritten and
// optimized under the session's (C, D), so the stored view satisfies the
// invariant (§2.2.4) — and creates what it compiled to.
func (c *Conn) createView(st *Statement) (*engine.Result, error) {
	cv := st.ast.(*sqlast.CreateView)
	f, err := c.compile(st)
	if err != nil {
		return nil, err
	}
	res, err := c.srv.db.Exec(f.stmts[0])
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

// grant implements the MTSQL GRANT semantics (§2.3): privileges are
// granted on C's instance of the table; GRANT ... TO ALL grants to every
// tenant in D. revoke takes them back the same way.
func (c *Conn) grant(g *sqlast.Grant) (*engine.Result, error) {
	return c.eachGrant(g.Grantee, g.GranteeAll, g.Table, g.Privileges, c.srv.grantLocked)
}

func (c *Conn) revoke(r *sqlast.Revoke) (*engine.Result, error) {
	return c.eachGrant(r.Grantee, r.GranteeAll, r.Table, r.Privileges, c.srv.revokeLocked)
}

func (c *Conn) eachGrant(grantee int64, all bool, table string, privs []sqlast.Privilege,
	apply func(grantee, owner int64, table string, p sqlast.Privilege)) (*engine.Result, error) {
	grantees := []int64{grantee}
	if all {
		d, _, err := c.ResolveScope()
		if err != nil {
			return nil, err
		}
		grantees = d
	}
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	for _, grantee := range grantees {
		for _, p := range privs {
			apply(grantee, c.c, table, p)
		}
	}
	return &engine.Result{}, nil
}
