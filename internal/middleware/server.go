// Package middleware implements MTBase proper (§3, Figure 4): an
// MTSQL-to-SQL translation layer between clients and a DBMS. Sessions
// carry the client tenant C (from the connection) and the SCOPE runtime
// parameter defining the dataset D. Each statement is processed as the
// paper describes: a complex scope is resolved against the DBMS, D is
// pruned against C's privileges to D′, the statement is canonically
// rewritten, optimized at the session's optimization level, serialized to
// SQL text and shipped to the DBMS.
package middleware

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"

	"mtbase/internal/engine"
	"mtbase/internal/mtsql"
	"mtbase/internal/optimizer"
	"mtbase/internal/rewrite"
	"mtbase/internal/sqlast"
	"mtbase/internal/sqltypes"
)

// privKey identifies one privilege grant: grantee may act on owner's
// instance of table (lower-case; empty = whole database).
type privKey struct {
	grantee int64
	owner   int64
	table   string
	priv    sqlast.Privilege
}

// Server is one MTBase deployment: the backing DBMS, the MT-specific
// meta-data cache (schema, conversion registry, privileges, tenants), and
// the data-modeller role.
type Server struct {
	mu     sync.Mutex
	db     *engine.DB
	schema *mtsql.Schema

	tenants    map[int64]bool
	privs      map[privKey]bool
	modellers  map[int64]bool   // tenants with DDL privilege (§2.2)
	viewOwners map[string]int64 // view name -> creating tenant

	// cache is the one statement cache (cache.go); schemaGen bumps on every
	// DDL so a form compiled against an older schema can never be served.
	cache     stmtCache
	schemaGen uint64

	// ddl is held shared by a statement from its compile until the engine has
	// pinned the plan its form holds, and exclusively by DDL, which swaps the
	// engine's catalog: a plan served from a form is never stale when it runs
	// (DESIGN.md ADR-027).
	ddl sync.RWMutex
}

// Option configures a Server.
type Option func(*Server)

// WithDataModeller grants the DDL role to a tenant at start-up.
func WithDataModeller(ttid int64) Option {
	return func(s *Server) { s.modellers[ttid] = true }
}

// NewServer wraps a DBMS instance in an MTBase middleware.
func NewServer(db *engine.DB, opts ...Option) *Server {
	s := &Server{
		db:         db,
		schema:     mtsql.NewSchema(),
		tenants:    make(map[int64]bool),
		privs:      make(map[privKey]bool),
		modellers:  make(map[int64]bool),
		viewOwners: make(map[string]int64),
	}
	for _, o := range opts {
		o(s)
	}
	s.bootstrapMetaTables()
	return s
}

// DB exposes the backing DBMS (used by generators and benchmarks).
func (s *Server) DB() *engine.DB { return s.db }

// Schema exposes the MT meta-data cache.
func (s *Server) Schema() *mtsql.Schema { return s.schema }

// bootstrapMetaTables creates the middleware's persisted meta tables
// (mirroring the Go-side cache, as in Figure 4 where MT meta data lives in
// the DBMS alongside user data).
func (s *Server) bootstrapMetaTables() {
	s.db.CreateTableDirect("mt_tenants", []engine.Column{
		{Name: "ttid", Type: sqltypes.KindInt, NotNull: true},
	}, []string{"ttid"})
	s.db.CreateTableDirect("mt_privileges", []engine.Column{
		{Name: "grantee", Type: sqltypes.KindInt, NotNull: true},
		{Name: "owner", Type: sqltypes.KindInt, NotNull: true},
		{Name: "table_name", Type: sqltypes.KindString},
		{Name: "privilege", Type: sqltypes.KindString, NotNull: true},
	}, nil)
}

// CreateTenant registers a tenant and installs the default privileges of
// §2.3: READ on global tables and full rights on her own instances.
func (s *Server) CreateTenant(ttid int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tenants[ttid] {
		return fmt.Errorf("middleware: tenant %d already exists", ttid)
	}
	s.tenants[ttid] = true
	s.db.Table("mt_tenants").AppendRow([]sqltypes.Value{sqltypes.NewInt(ttid)})
	for _, p := range []sqlast.Privilege{sqlast.PrivRead, sqlast.PrivInsert, sqlast.PrivUpdate, sqlast.PrivDelete} {
		s.grantLocked(ttid, ttid, "", p)
	}
	return nil
}

// Tenants returns all registered ttids, sorted.
func (s *Server) Tenants() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tenantsLocked()
}

func (s *Server) tenantsLocked() []int64 {
	return slices.Sorted(maps.Keys(s.tenants))
}

func (s *Server) grantLocked(grantee, owner int64, table string, p sqlast.Privilege) {
	key := privKey{grantee: grantee, owner: owner, table: strings.ToLower(table), priv: p}
	if s.privs[key] {
		return
	}
	s.privs[key] = true
	s.db.Table("mt_privileges").AppendRow([]sqltypes.Value{
		sqltypes.NewInt(grantee), sqltypes.NewInt(owner),
		sqltypes.NewString(strings.ToLower(table)), sqltypes.NewString(string(p)),
	})
}

func (s *Server) revokeLocked(grantee, owner int64, table string, p sqlast.Privilege) {
	key := privKey{grantee: grantee, owner: owner, table: strings.ToLower(table), priv: p}
	delete(s.privs, key)
	mt := s.db.Table("mt_privileges")
	// Build the kept set in a fresh slice: snapshots published to readers
	// are immutable, so the old backing array must not be compacted in
	// place.
	heap := mt.Heap()
	kept := make([][]sqltypes.Value, 0, len(heap))
	for _, row := range heap {
		if row[0].I == grantee && row[1].I == owner && row[2].S == strings.ToLower(table) && row[3].S == string(p) {
			continue
		}
		kept = append(kept, row)
	}
	mt.ReplaceRows(kept)
}

// hasPrivilege checks a privilege, honouring database-wide grants.
func (s *Server) hasPrivilege(grantee, owner int64, table string, p sqlast.Privilege) bool {
	if s.privs[privKey{grantee: grantee, owner: owner, table: "", priv: p}] {
		return true
	}
	return s.privs[privKey{grantee: grantee, owner: owner, table: strings.ToLower(table), priv: p}]
}

// Connect opens a session for tenant ttid; C is fixed for the connection
// lifetime (§2.1: derived from the connection string).
func (s *Server) Connect(ttid int64) (*Conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.tenants[ttid] && !s.modellers[ttid] {
		return nil, fmt.Errorf("middleware: unknown tenant %d", ttid)
	}
	c := &Conn{srv: s, c: ttid, level: optimizer.O4}
	c.Text = NewText(c, s)
	return c, nil
}

// Conn is one client session: the client tenant C, the current SCOPE and
// the optimization level applied to rewritten statements. It implements the
// core of Session; the embedded Text supplies Exec, Query, Prepare and the
// rest of the text-level surface.
type Conn struct {
	Text
	srv   *Server
	c     int64
	scope *sqlast.SetScope // nil = default scope {C}
	level optimizer.Level
}

// C returns the session's client tenant.
func (c *Conn) C() int64 { return c.c }

// Scoped returns a copy of the session under another scope: same server,
// client tenant and optimization level, nothing shared that a statement
// writes. The sharding layer addresses "this shard under D′ ∩ owned(shard)"
// this way, so a scatter leaves the session's own scope alone.
func (c *Conn) Scoped(scope *sqlast.SetScope) *Conn {
	cp := *c
	cp.scope = scope
	cp.Text = NewText(&cp, c.srv)
	return &cp
}

// SetOptLevel switches the optimization pass stack for this session.
func (c *Conn) SetOptLevel(l optimizer.Level) { c.level = l }

// OptLevel returns the session's optimization level.
func (c *Conn) OptLevel() optimizer.Level { return c.level }

// ExecStmt executes an MTSQL statement other than a SELECT (those stream
// through QueryStmt). DML runs the statements it compiles to — an INSERT is
// one per tenant of D′ (§2.5) — and reports the rows they affected together.
func (c *Conn) ExecStmt(ctx context.Context, st *Statement, args []sqltypes.Value) (*engine.Result, error) {
	switch st.ast.(type) {
	case *sqlast.Insert, *sqlast.Update, *sqlast.Delete:
		c.srv.ddl.RLock()
		defer c.srv.ddl.RUnlock()
		f, err := c.compile(st)
		if err != nil {
			return nil, err
		}
		total := 0
		for _, plan := range f.plans {
			res, err := c.srv.db.ExecPlanContext(ctx, plan, args...)
			if err != nil {
				return nil, err
			}
			total += res.Affected
		}
		return &engine.Result{Affected: total}, nil
	}
	if len(args) > 0 {
		return nil, fmt.Errorf("middleware: statement takes no bind parameters, got %d", len(args))
	}
	switch ast := st.ast.(type) {
	case *sqlast.SetScope:
		c.scope = ast
		return &engine.Result{}, nil
	case *sqlast.Grant:
		return c.grant(ast)
	case *sqlast.Revoke:
		return c.revoke(ast)
	}
	// DDL swaps the engine's catalog: it waits for every statement between
	// its compile and its pin (Server.ddl).
	c.srv.ddl.Lock()
	defer c.srv.ddl.Unlock()
	switch ast := st.ast.(type) {
	case *sqlast.CreateTable:
		return c.createTable(ast)
	case *sqlast.CreateView:
		return c.createView(ctx, st)
	case *sqlast.CreateFunction:
		return c.createFunction(ast)
	case *sqlast.DropTable:
		return c.dropTable(ast)
	case *sqlast.DropView:
		// Views are droppable by their creator or the data modeller
		// (tenants manage their own views, §2.2.4).
		if owner, ok := c.srv.viewOwner(ast.Name); ok && owner != c.c && !c.srv.isModeller(c.c) {
			return nil, fmt.Errorf("middleware: view %s belongs to tenant %d", ast.Name, owner)
		}
		res, err := c.srv.db.Exec(ast)
		if err != nil {
			return nil, err
		}
		c.srv.schema.DropView(ast.Name)
		c.srv.dropViewOwner(ast.Name)
		c.srv.bumpSchemaGen()
		return res, nil
	}
	return nil, fmt.Errorf("middleware: unsupported statement %T", st.ast)
}

func (s *Server) isModeller(ttid int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.modellers[ttid]
}

// DelegateDDL passes the data-modeller role to another tenant (§2.2: "the
// data modeller can delegate this privilege to any tenant she trusts").
// Only a current modeller may delegate.
func (c *Conn) DelegateDDL(to int64) error {
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	if !c.srv.modellers[c.c] {
		return fmt.Errorf("middleware: tenant %d lacks the DDL role", c.c)
	}
	if !c.srv.tenants[to] && !c.srv.modellers[to] {
		return fmt.Errorf("middleware: unknown tenant %d", to)
	}
	c.srv.modellers[to] = true
	return nil
}

// RevokeDDL removes a delegated modeller role.
func (c *Conn) RevokeDDL(from int64) error {
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	if !c.srv.modellers[c.c] {
		return fmt.Errorf("middleware: tenant %d lacks the DDL role", c.c)
	}
	if from == c.c {
		return fmt.Errorf("middleware: cannot revoke own DDL role")
	}
	delete(c.srv.modellers, from)
	return nil
}

func (s *Server) viewOwner(name string) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	owner, ok := s.viewOwners[strings.ToLower(name)]
	return owner, ok
}

func (s *Server) setViewOwner(name string, ttid int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.viewOwners[strings.ToLower(name)] = ttid
}

func (s *Server) dropViewOwner(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.viewOwners, strings.ToLower(name))
}

// RewriteContext resolves the session's scope into a concrete,
// privilege-pruned dataset D′ and returns the rewrite context for a
// statement that needs priv on each of the given tables.
func (c *Conn) RewriteContext(priv sqlast.Privilege, tables ...string) (*rewrite.Context, error) {
	return c.rewriteContext(priv, tables, nil)
}

// RewriteContextFor is the context every statement of this tier is rewritten
// under: D pruned over the statement's whole table set (sqlast.Tables) — the
// statement's own privilege on the table it writes and READ on every table
// any of its blocks reads. The sharding layer resolves D′ through here too.
func (c *Conn) RewriteContextFor(ts sqlast.TableSet) (*rewrite.Context, error) {
	return c.rewriteContext(ts.Priv, []string{ts.Write}, ts.Reads)
}

func (c *Conn) rewriteContext(priv sqlast.Privilege, tables, reads []string) (*rewrite.Context, error) {
	d, all, err := c.scopeDataset()
	if err != nil {
		return nil, err
	}
	c.srv.mu.Lock()
	defer c.srv.mu.Unlock()
	return c.srv.rewriteContextLocked(c.c, d, all, priv, tables, reads), nil
}

// rewriteContextLocked prunes D (every registered tenant when all) to D′.
func (s *Server) rewriteContextLocked(client int64, d []int64, all bool, priv sqlast.Privilege, tables, reads []string) *rewrite.Context {
	if all {
		d = s.tenantsLocked()
	}
	pruned := s.pruneDatasetLocked(client, d, priv, tables, reads)
	return &rewrite.Context{C: client, D: pruned, DAll: all && len(pruned) == len(d), Schema: s.schema}
}

// scopeDataset materializes D as far as the session alone can: the default
// scope {C}, a simple IN list, or the result of evaluating a complex scope
// query against the DBMS (§3, Listing 12). The empty IN list reports all and
// no d: the registered tenants are read under Server.mu by whoever prunes.
func (c *Conn) scopeDataset() (d []int64, all bool, err error) {
	switch {
	case c.scope == nil:
		return []int64{c.c}, false, nil
	case c.scope.Complex != nil:
		ctx := &rewrite.Context{C: c.c, Schema: c.srv.schema}
		sq, err := rewrite.Scope(ctx, c.scope.Complex)
		if err != nil {
			return nil, false, err
		}
		res, err := c.srv.db.Exec(sq)
		if err != nil {
			return nil, false, fmt.Errorf("middleware: evaluating scope: %w", err)
		}
		for _, row := range res.Rows {
			d = append(d, row[0].AsInt())
		}
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return d, false, nil
	case c.scope.All:
		return nil, true, nil
	default:
		return append(d, c.scope.Simple...), false, nil
	}
}

// pruneDatasetLocked drops tenants whose data C may not touch: D′ (§3). An
// owner stays when C holds priv on her instance of every table in tables and
// READ on her instance of every table in reads; only tenant-specific tables
// count. Statements hand in their whole table set (RewriteContextFor) and are
// rewritten under the one D′ that results, so every D-filter in a statement —
// the target's and each nested block's — agrees:
//
//	SELECT, CREATE VIEW   READ on every table named in any slot at any depth
//	UPDATE, DELETE        the DML privilege on the target and READ on every
//	                      table a nested block reads
//	INSERT ... SELECT     INSERT on the target and READ on the sources
func (s *Server) pruneDatasetLocked(client int64, d []int64, priv sqlast.Privilege, tables, reads []string) []int64 {
	may := func(owner int64, p sqlast.Privilege, names []string) bool {
		for _, t := range names {
			if info := s.schema.Table(t); info != nil && info.TenantSpecific() && !s.hasPrivilege(client, owner, t, p) {
				return false
			}
		}
		return true
	}
	var out []int64
	for _, owner := range d {
		if s.tenants[owner] && may(owner, priv, tables) && may(owner, sqlast.PrivRead, reads) {
			out = append(out, owner)
		}
	}
	return out
}

// rewritten is the rewrite step of §3: the canonical rewrite of one statement
// under ctx, and the optimization passes of level over the query it holds —
// the one place this package enters internal/rewrite's and the optimizer's
// statement entry points. An INSERT comes back as one statement per tenant
// of D′ (§2.5); everything else as one.
func rewritten(ctx *rewrite.Context, ast sqlast.Statement, level optimizer.Level) ([]sqlast.Statement, error) {
	var (
		q    *sqlast.Select
		view *sqlast.CreateView
		one  sqlast.Statement
		err  error
	)
	switch st := ast.(type) {
	case *sqlast.Select:
		q, err = rewrite.Query(ctx, st)
	case *sqlast.CreateView:
		if view, err = rewrite.View(ctx, st); err == nil {
			q = view.Sub
		}
	case *sqlast.Insert:
		return rewrite.Insert(ctx, st)
	case *sqlast.Update:
		one, err = rewrite.Update(ctx, st)
	case *sqlast.Delete:
		one, err = rewrite.Delete(ctx, st)
	default:
		err = fmt.Errorf("middleware: %T is not rewritten", ast)
	}
	if err != nil {
		return nil, err
	}
	if q != nil {
		if q, err = optimizer.Optimize(ctx, q, level); err != nil {
			return nil, err
		}
		if one = q; view != nil {
			one = &sqlast.CreateView{Name: view.Name, Sub: q}
		}
	}
	return []sqlast.Statement{one}, nil
}

// compiled is what a statement compiles to under one session context: the
// rewritten, optimized statements and the engine plans lowered from them. The
// DBMS is handed the statement the rewrite built rather than its text; that
// text is pure SQL (§3) — it parses back to an equal statement, which
// mth.TestRewriteDeterministic holds for every shape the rewrite emits — and it
// is what EXPLAIN prints.
type compiled struct {
	stmts []sqlast.Statement
	plans []*engine.Plan
}

// compile is the one place a client statement becomes what the DBMS runs
// (§3, Figure 4): the scope is resolved and pruned to D′ — always, it is what
// the cached form is keyed by — and the statement is rewritten, optimized and
// lowered unless the cache holds its form for this session context. Bind
// placeholders pass through the rewrite untouched, so one form — and therefore
// one engine plan — serves every binding. SELECTs and prepared statements keep
// their forms; other statements compile unstored. A panic below is the
// statement's error (engine.DB.Recover).
func (c *Conn) compile(st *Statement) (f *compiled, err error) {
	s := c.srv
	defer s.db.Recover(&err)
	d, all, err := c.scopeDataset()
	if err != nil {
		return nil, err
	}
	keep := st.prepared || st.IsQuery()
	s.mu.Lock()
	write := [1]string{st.tables.Write}
	ctx := s.rewriteContextLocked(c.c, d, all, st.tables.Priv, write[:], st.tables.Reads)
	var key formKey
	if keep {
		key = formKey{c: c.c, level: c.level, gen: s.schemaGen, d: datasetKey(ctx.D), all: ctx.DAll}
		f = s.cache.lookup(st.text, key)
	}
	s.mu.Unlock()
	if f != nil {
		return f, nil
	}
	f = &compiled{}
	if f.stmts, err = rewritten(ctx, st.ast, c.level); err != nil {
		return nil, err
	}
	for _, rw := range f.stmts {
		plan, err := s.db.PrepareStatement(rw)
		if err != nil {
			return nil, err
		}
		f.plans = append(f.plans, plan)
	}
	if keep {
		s.mu.Lock()
		s.cache.store(st, key, f)
		s.mu.Unlock()
	}
	return f, nil
}

// QueryStmt executes a SELECT through a streaming cursor over the plan its
// compiled form holds.
func (c *Conn) QueryStmt(ctx context.Context, st *Statement, args []sqltypes.Value) (*engine.Rows, error) {
	if _, err := st.Select(); err != nil {
		return nil, err
	}
	c.srv.ddl.RLock()
	defer c.srv.ddl.RUnlock()
	f, err := c.compile(st)
	if err != nil {
		return nil, err
	}
	return c.srv.db.QueryPlanContext(ctx, f.plans[0], args...)
}

// Columns names the header this tier gives st, a SELECT: an item without an
// alias is named by its rewritten text. The sharding layer heads a fold with
// it when the shards answer the statement by other means.
func (c *Conn) Columns(st *Statement) ([]string, error) {
	if _, err := st.Select(); err != nil {
		return nil, err
	}
	f, err := c.compile(st)
	if err != nil {
		return nil, err
	}
	items := f.stmts[0].(*sqlast.Select).Items
	header := make([]string, len(items))
	for i, it := range items {
		header[i] = it.OutputName()
	}
	return header, nil
}

// bumpSchemaGen retires every cached form compiled against the previous
// schema. DDL paths already holding s.mu increment schemaGen directly.
func (s *Server) bumpSchemaGen() {
	s.mu.Lock()
	s.schemaGen++
	s.mu.Unlock()
}

// RewriteCacheStats reports how many compilations the statement cache served
// (hits) and how many it could have but did not hold (misses).
func (s *Server) RewriteCacheStats() (hits, misses int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.hits, s.cache.misses
}

// Stat is one named counter of a stats surface (mtserve Stats frames,
// mtsh \stats).
type Stat struct {
	Name  string
	Value int64
}

// StatLines reports the engine and middleware counters in a stable order.
func (s *Server) StatLines() []Stat {
	es := s.db.Stats.Snapshot()
	rwHits, rwMisses := s.RewriteCacheStats()
	return []Stat{
		{Name: "engine.udf_calls", Value: es.UDFCalls},
		{Name: "engine.udf_cache_hits", Value: es.UDFCacheHits},
		{Name: "engine.plan_cache_hits", Value: es.PlanCacheHits},
		{Name: "engine.plan_cache_misses", Value: es.PlanCacheMisses},
		{Name: "engine.plan_cache_invalidations", Value: es.PlanCacheInvalidations},
		{Name: "engine.rows_streamed", Value: es.RowsStreamed},
		{Name: "engine.peak_batch", Value: es.PeakBatch},
		{Name: "engine.spill_runs", Value: es.SpillRuns},
		{Name: "engine.spill_bytes", Value: es.SpillBytes},
		{Name: "engine.peak_mem_bytes", Value: es.PeakMemBytes},
		{Name: "engine.join_build_rows", Value: es.JoinBuildRows},
		{Name: "engine.join_index_probes", Value: es.JoinIndexProbes},
		{Name: "engine.join_eager_fallbacks", Value: es.JoinEagerFallbacks},
		{Name: "engine.expr_slots", Value: es.ExprSlots},
		{Name: "engine.expr_slot_reuses", Value: es.ExprSlotReuses},
		{Name: "engine.panics", Value: es.Panics},
		{Name: "middleware.rewrite_cache_hits", Value: rwHits},
		{Name: "middleware.rewrite_cache_misses", Value: rwMisses},
		{Name: "engine.scan_rows", Value: es.ScanRows},
		{Name: "engine.scan_ranges", Value: es.ScanRanges},
	}
}

// SetStatementCaching toggles the statement cache (on by default) and empties
// it: with caching off every statement is parsed, compiled and lowered afresh.
func (s *Server) SetStatementCaching(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache.off = !on
	s.cache.reset()
}

// RewriteSQL parses, rewrites and optimizes a query without executing it.
func (c *Conn) RewriteSQL(sql string) (*sqlast.Select, error) {
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	q, err := st.Select()
	if err != nil {
		return nil, err
	}
	return c.rewriteOnly(q, st.tables)
}

// RewriteOnly rewrites and optimizes a query without executing, planning or
// caching it — used by tools (mtsh \explain), the benchmark harness and the
// sharding layer's fallback.
func (c *Conn) RewriteOnly(q *sqlast.Select) (*sqlast.Select, error) {
	return c.rewriteOnly(q, sqlast.Tables(q))
}

func (c *Conn) rewriteOnly(q *sqlast.Select, ts sqlast.TableSet) (*sqlast.Select, error) {
	ctx, err := c.RewriteContextFor(ts)
	if err != nil {
		return nil, err
	}
	out, err := rewritten(ctx, q, c.level)
	if err != nil {
		return nil, err
	}
	return out[0].(*sqlast.Select), nil
}

// TenantSpecificTables names the base tables q reads, in any slot of any
// block: the Reads of sqlast.Tables, which is what privilege pruning and the
// sharding layer's routing go by.
func TenantSpecificTables(q *sqlast.Select) []string {
	return sqlast.Tables(q).Reads
}

// ResolveScope materializes the session's dataset D without privilege
// pruning: the default scope {C}, a simple IN list, all registered tenants
// (all=true) for the empty IN list, or the evaluated complex scope query.
// The sharding layer uses it to pre-resolve scope-dependent DDL (views,
// grants to ALL) once, globally, before fanning the statement out — each
// shard evaluating a complex scope against its own partition would
// diverge.
func (c *Conn) ResolveScope() ([]int64, bool, error) {
	d, all, err := c.scopeDataset()
	if all {
		d = c.srv.Tenants()
	}
	return d, all, err
}
