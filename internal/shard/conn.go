package shard

import (
	"context"
	"fmt"
	"sort"

	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/mtsql"
	"mtbase/internal/optimizer"
	"mtbase/internal/sqlast"
	"mtbase/internal/sqltypes"
)

// Conn is a sharded session: a middleware.Session whose core routes every
// statement by its resolved tenant set D′; the text-level surface and the
// prepared statement are the embedded middleware.Text's, resolving texts
// through the replica's statement cache. It is not safe for concurrent use by multiple
// goroutines (like middleware.Conn).
type Conn struct {
	middleware.Text
	srv   *Server
	c     int64
	level optimizer.Level
	scope *sqlast.SetScope // session scope AST; nil = default {C}

	rconn  *middleware.Conn   // coordinator replica connection
	sconns []*middleware.Conn // one per shard, rank order
}

// C returns the client tenant.
func (c *Conn) C() int64 { return c.c }

// SetOptLevel sets the optimization level for subsequent statements on
// every sub-connection.
func (c *Conn) SetOptLevel(l optimizer.Level) error {
	c.level = l
	for _, sc := range c.conns() {
		sc.SetOptLevel(l)
	}
	return nil
}

// OptLevel returns the session's optimization level.
func (c *Conn) OptLevel() optimizer.Level { return c.level }

// ExecStmt routes a statement other than a SELECT: SET SCOPE is installed
// on every server, DML goes to the owning shards, and everything else is
// schema or privilege state that fans out everywhere.
func (c *Conn) ExecStmt(ctx context.Context, st *middleware.Statement, args []sqltypes.Value) (*engine.Result, error) {
	switch ast := st.AST().(type) {
	case *sqlast.Select:
		return nil, fmt.Errorf("shard: unsupported statement %T (queries stream through QueryStmt)", ast)
	case *sqlast.SetScope:
		return c.setScope(ctx, st, ast, args)
	case *sqlast.Insert, *sqlast.Update, *sqlast.Delete:
		return c.execDML(ctx, st, args)
	default:
		return c.execDDL(ctx, st, args)
	}
}

// setScope installs the session scope on every sub-connection; the AST is
// kept to tell a data-dependent (complex) scope from a metadata one.
func (c *Conn) setScope(ctx context.Context, st *middleware.Statement, scope *sqlast.SetScope, args []sqltypes.Value) (*engine.Result, error) {
	c.srv.ddlMu.RLock()
	defer c.srv.ddlMu.RUnlock()
	if _, err := everywhere(ctx, c.conns(), st, args); err != nil {
		return nil, err
	}
	c.scope = scope
	return &engine.Result{}, nil
}

// conns lists the session's sub-connections: the replica's, then one per shard.
func (c *Conn) conns() []*middleware.Conn {
	return append([]*middleware.Conn{c.rconn}, c.sconns...)
}

// everywhere runs st on the replica and then on every shard, returning the
// first shard's result. The replica goes first: a statement that fails its
// checks (privileges, unknown table) fails there before any shard changed.
func everywhere(ctx context.Context, conns []*middleware.Conn, st *middleware.Statement, args []sqltypes.Value) (*engine.Result, error) {
	var first *engine.Result
	for i, sc := range conns {
		res, err := sc.ExecStmt(ctx, st, args)
		if err != nil && i > 0 {
			err = fmt.Errorf("shard: statement diverged across shards (replica succeeded): %w", err)
		}
		if err != nil {
			return nil, err
		}
		if i == 1 {
			first = res
		}
	}
	return first, nil
}

// sub is shard ss.rank's session under the tenant subset it owns: a value
// copy, so the session's own scope is never touched.
func (c *Conn) sub(ss shardSet) *middleware.Conn {
	return c.sconns[ss.rank].Scoped(&sqlast.SetScope{Simple: ss.ds})
}

// complexScope reports whether the session scope is data-dependent.
func (c *Conn) complexScope() bool { return c.scope != nil && c.scope.Complex != nil }

// resolveComplex evaluates a complex scope globally: each shard resolves it
// against its own partition — a tenant qualifies based on rows that live
// only on its owning shard — and the sorted union is the explicit scope
// every server must agree on.
func (c *Conn) resolveComplex() (*sqlast.SetScope, error) {
	seen := make(map[int64]bool)
	var union []int64
	for _, sc := range c.sconns {
		part, _, err := sc.ResolveScope()
		if err != nil {
			return nil, err
		}
		for _, t := range part {
			if !seen[t] {
				seen[t] = true
				union = append(union, t)
			}
		}
	}
	sort.Slice(union, func(i, j int) bool { return union[i] < union[j] })
	return &sqlast.SetScope{Simple: union}, nil
}

// resolveDPrime computes the global privilege-pruned tenant set D′ for a
// statement touching ts — its whole table set, pruned as the unsharded tier
// prunes it (middleware.Conn.RewriteContextFor). Default, simple and all
// scopes resolve on the replica (pure metadata, identical everywhere); a
// complex scope is resolved globally first and pruned on the replica under
// that result.
func (c *Conn) resolveDPrime(ts sqlast.TableSet) ([]int64, error) {
	rconn := c.rconn
	if c.complexScope() {
		resolved, err := c.resolveComplex()
		if err != nil {
			return nil, err
		}
		rconn = rconn.Scoped(resolved)
	}
	rctx, err := rconn.RewriteContextFor(ts)
	if err != nil {
		return nil, err
	}
	return rctx.D, nil
}

// readsTenant reports whether any of the tables named is tenant-specific.
func readsTenant(schema *mtsql.Schema, tables []string) bool {
	for _, t := range tables {
		if ti := schema.Table(t); ti != nil && ti.TenantSpecific() {
			return true
		}
	}
	return false
}

// QueryStmt picks the execution strategy for one SELECT and returns its
// cursor: routed to one shard when D′ lands on one, scattered and folded on
// the replica otherwise.
func (c *Conn) QueryStmt(ctx context.Context, st *middleware.Statement, args []sqltypes.Value) (*engine.Rows, error) {
	sel, err := st.Select()
	if err != nil {
		return nil, err
	}
	c.srv.ddlMu.RLock()
	defer c.srv.ddlMu.RUnlock()
	if len(c.sconns) == 1 {
		// One shard: the original scope passes through verbatim — this is
		// the differential oracle configuration.
		c.srv.stats.RoutedSingle.Add(1)
		return c.sconns[0].QueryStmt(ctx, st, args)
	}
	schema := c.srv.Schema()
	ts := st.Tables()
	hasView := false
	for _, t := range ts.Reads {
		if schema.View(t) != nil {
			hasView = true
		}
	}
	if !hasView && !readsTenant(schema, ts.Reads) {
		// Pure-global query: every shard holds the same global data; run
		// on the client's home shard.
		c.srv.stats.RoutedSingle.Add(1)
		return c.sconns[c.srv.ShardOf(c.c)].QueryStmt(ctx, st, args)
	}
	d, err := c.resolveDPrime(ts)
	if err != nil {
		return nil, err
	}
	if hasView {
		// A view's tenant set was baked at CREATE VIEW independently of
		// the session scope, so routing cannot see it; repartition every
		// tenant's rows of every tenant table to the replica and run there.
		c.srv.stats.RoutedScatter.Add(1)
		c.srv.stats.RoutedFallback.Add(1)
		return c.fallback(ctx, sel, args, d, c.srv.group(c.srv.Tenants()), c.srv.tenantTables())
	}
	sets := c.srv.group(d)
	if len(sets) <= 1 {
		// All of D′ lives on one shard: the shard's own middleware
		// resolves the original session scope to the same D′ locally.
		c.srv.stats.RoutedSingle.Add(1)
		return c.sconns[c.homeRank(sets)].QueryStmt(ctx, st, args)
	}
	return c.routeCross(ctx, st, args, d, sets)
}

// routeCross picks the route of a view-free SELECT whose D′ spans the shards
// in sets: a fold on the replica over what every owning shard returns (a
// pinned scan's own rows, or an aggregate's partials), or the repartition
// fallback. A statement the classifier rejects gets the
// staged plan (stage.go) before it is given up on: its closed scalar
// subqueries go through this same function as statements of their own — each
// counts as the routed statement it is — and what they yield is bound into the
// outer statement, which then takes the route its second classification found.
// An abandoned staged plan leaves the original statement to the fallback.
func (c *Conn) routeCross(ctx context.Context, st *middleware.Statement, args []sqltypes.Value, d []int64, sets []shardSet) (*engine.Rows, error) {
	client := st // names the header an un-aliased aggregate carries
	sel := st.AST().(*sqlast.Select)
	an := analyze(sel, c.srv.Schema())
	if !an.pinned() {
		sg, err := c.stage(ctx, st, args, d, sets)
		if err != nil {
			return nil, err
		}
		if sg != nil {
			c.srv.stats.HoistedSubqueries.Add(int64(len(sg.args) - len(args)))
			st, sel, args, an = middleware.NewStatement(sg.sel), sg.sel, sg.args, sg.an
		}
	}
	if an.tenantFree {
		// A staged outer statement whose tenant data all went into its binds:
		// every shard holds the global rows it reads, so one answers.
		c.srv.stats.RoutedSingle.Add(1)
		return c.sconns[c.srv.ShardOf(c.c)].QueryStmt(ctx, st, args)
	}
	c.srv.stats.RoutedScatter.Add(1)
	switch {
	case an.aggPush:
		c.srv.stats.PartialsPushed.Add(1)
		header, err := c.clientHeader(an.plan, client, d)
		if err != nil {
			return nil, err
		}
		return c.partialScatter(ctx, an.plan, header, args, sets)
	case an.plainScan:
		return c.scanScatter(ctx, st, sel.Limit, an.order, args, sets)
	default:
		c.srv.stats.RoutedFallback.Add(1)
		return c.fallback(ctx, sel, args, d, sets, st.Tables().Reads)
	}
}

// homeRank is the single-shard target: the one shard owning D′, or the
// client's home shard when D′ is empty.
func (c *Conn) homeRank(sets []shardSet) int {
	if len(sets) == 1 {
		return sets[0].rank
	}
	return c.srv.ShardOf(c.c)
}

// openParts opens one cursor per scatter target, in rank order. It is the
// only place shard cursors are opened, and its one error path closes the
// cursors already open before reporting the failure.
func openParts(sets []shardSet, open func(shardSet) (*engine.Rows, error)) ([]*engine.Rows, error) {
	parts := make([]*engine.Rows, 0, len(sets))
	for _, ss := range sets {
		rows, err := open(ss)
		if err != nil {
			for _, p := range parts {
				p.Close()
			}
			return nil, err
		}
		parts = append(parts, rows)
	}
	return parts, nil
}

// fallback repartitions: the original statement is rewritten on the replica
// under the explicit scope D′ and executed there over the rows the shards in
// from hold of their tenants, for the tenant tables in tables — the ones the
// statement reads, in any slot of any block, under D′'s owners; for a view,
// which bakes a table list and a tenant set of its own that routing cannot
// see, every tenant table of every tenant. The rows are statement-local relations shadowing the
// replica's (always empty) tenant tables: immutable shard snapshots that
// never enter the replica's catalog, so shards keep serving and fallbacks of
// other sessions run alongside.
func (c *Conn) fallback(ctx context.Context, sel *sqlast.Select, args []sqltypes.Value, d []int64, from []shardSet, tables []string) (*engine.Rows, error) {
	q, err := c.rewriteOnReplica(sel, d)
	if err != nil {
		return nil, err
	}
	rels, err := c.srv.repartition(from, tables)
	if err != nil {
		return nil, err
	}
	return c.srv.replica.DB().QueryWith(ctx, q, args, rels...)
}

// repartition gathers, per tenant table named in tables (other names are
// skipped), the rows the shards in from hold of the tenants listed with them,
// as one relation sized before it is filled.
func (s *Server) repartition(from []shardSet, tables []string) ([]engine.Relation, error) {
	want := make(map[int64]bool)
	for _, ss := range from {
		for _, t := range ss.ds {
			want[t] = true
		}
	}
	schema := s.Schema()
	rels := make([]engine.Relation, 0, len(tables))
	for _, name := range tables {
		ti := schema.Table(name)
		if ti == nil || !ti.TenantSpecific() || s.replica.DB().Table(ti.Name) == nil {
			continue
		}
		heaps := make([][][]sqltypes.Value, 0, len(from))
		ttid, size := -1, 0
		for _, ss := range from {
			st := s.shards[ss.rank].DB().Table(ti.Name)
			if st == nil {
				continue
			}
			if ttid = st.ColIndex("ttid"); ttid < 0 {
				return nil, fmt.Errorf("shard: table %s has no ttid column", ti.Name)
			}
			heap := st.Heap()
			heaps = append(heaps, heap)
			// Counted, not bounded by the heap: under a narrow scope a shard
			// holds mostly other tenants' rows.
			for _, row := range heap {
				if want[row[ttid].AsInt()] {
					size++
				}
			}
		}
		rel := engine.Relation{Name: ti.Name, Rows: make([][]sqltypes.Value, 0, size)}
		for _, heap := range heaps {
			for _, row := range heap {
				if want[row[ttid].AsInt()] {
					rel.Rows = append(rel.Rows, row)
				}
			}
		}
		rels = append(rels, rel)
	}
	return rels, nil
}

// execDML routes a write by its target table. A global target replicates to
// every shard and the replica; a tenant-specific one splits by the owning
// shard of each tenant in D′ (rewrite.Insert already derives one statement per
// target tenant; UPDATE and DELETE apply per tenant) — unless a nested block
// reads tenant data, whose value (an average, a membership) spans the shards.
func (c *Conn) execDML(ctx context.Context, st *middleware.Statement, args []sqltypes.Value) (*engine.Result, error) {
	c.srv.ddlMu.RLock()
	defer c.srv.ddlMu.RUnlock()
	schema := c.srv.Schema()
	ts := st.Tables()
	fromTenants := readsTenant(schema, ts.Reads)
	if info := schema.Table(ts.Write); info == nil || !info.TenantSpecific() {
		if _, isInsert := st.AST().(*sqlast.Insert); isInsert && fromTenants && len(c.sconns) > 1 {
			return nil, fmt.Errorf("shard: INSERT into global table from tenant-specific SELECT is not supported with %d shards", len(c.sconns))
		}
		return everywhere(ctx, c.conns(), st, args) // a global table lives on every server
	}
	return c.routeWrite(ctx, st, fromTenants, args)
}

// routeWrite applies a tenant-table write: on the one shard owning D′, or
// on every owning shard under its sub-scope, summing affected counts
// (per-tenant effects are disjoint). A write whose nested blocks read tenant
// data (fromTenants: an INSERT ... SELECT source, a subquery of an UPDATE or
// DELETE) cannot be split that way — each shard would compute the value from
// its own tenants' share.
func (c *Conn) routeWrite(ctx context.Context, st *middleware.Statement, fromTenants bool, args []sqltypes.Value) (*engine.Result, error) {
	ts := st.Tables()
	d, err := c.resolveDPrime(ts)
	if err != nil {
		return nil, err
	}
	sets := c.srv.group(d)
	if len(sets) <= 1 {
		c.srv.stats.RoutedSingle.Add(1)
		return c.sconns[c.homeRank(sets)].ExecStmt(ctx, st, args)
	}
	if fromTenants {
		return nil, fmt.Errorf("shard: %s reading tenant tables over a cross-shard tenant set is not supported", ts.Priv)
	}
	c.srv.stats.RoutedScatter.Add(1)
	affected := 0
	for _, ss := range sets {
		res, err := c.sub(ss).ExecStmt(ctx, st, args)
		if err != nil {
			return nil, err
		}
		affected += res.Affected
	}
	return &engine.Result{Affected: affected}, nil
}

// execDDL fans a schema/privilege statement out to the replica and every
// shard under the exclusive schema barrier. Statements whose semantics bake the
// resolved scope (CREATE VIEW; GRANT/REVOKE ... TO ALL) run under the globally
// resolved scope when the session scope is complex — each server evaluating
// a complex scope against its own partition would diverge.
func (c *Conn) execDDL(ctx context.Context, st *middleware.Statement, args []sqltypes.Value) (*engine.Result, error) {
	c.srv.ddlMu.Lock()
	defer c.srv.ddlMu.Unlock()
	conns := c.conns()
	if needsResolvedScope(st.AST()) && c.complexScope() {
		resolved, err := c.resolveComplex()
		if err != nil {
			return nil, err
		}
		for i, sc := range conns {
			conns[i] = sc.Scoped(resolved)
		}
	}
	return everywhere(ctx, conns, st, args)
}

// needsResolvedScope reports whether a statement's effect bakes the
// session's resolved dataset into durable state.
func needsResolvedScope(stmt sqlast.Statement) bool {
	switch st := stmt.(type) {
	case *sqlast.CreateView:
		return true
	case *sqlast.Grant:
		return st.GranteeAll
	case *sqlast.Revoke:
		return st.GranteeAll
	}
	return false
}

// RewriteSQL rewrites and optimizes a query without executing it — the
// text a single-shard route would run, or the replica's rewrite under the
// pre-resolved global D′ for cross-shard statements.
func (c *Conn) RewriteSQL(sql string) (*sqlast.Select, error) {
	st, err := c.Statement(sql)
	if err != nil {
		return nil, err
	}
	sel, err := st.Select()
	if err != nil {
		return nil, err
	}
	c.srv.ddlMu.RLock()
	defer c.srv.ddlMu.RUnlock()
	if len(c.sconns) == 1 {
		return c.sconns[0].RewriteOnly(sel)
	}
	d, err := c.resolveDPrime(st.Tables())
	if err != nil {
		return nil, err
	}
	if sets := c.srv.group(d); len(sets) == 1 {
		return c.sconns[sets[0].rank].RewriteOnly(sel)
	}
	return c.rewriteOnReplica(sel, d)
}

// rewriteOnReplica rewrites and optimizes sel on the coordinator replica
// under the explicit scope d (a pre-resolved D′) at the session's level.
func (c *Conn) rewriteOnReplica(sel *sqlast.Select, d []int64) (*sqlast.Select, error) {
	return c.rconn.Scoped(&sqlast.SetScope{Simple: d}).RewriteOnly(sel)
}
