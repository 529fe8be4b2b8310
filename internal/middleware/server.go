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
	"sort"
	"strings"
	"sync"

	"mtbase/internal/engine"
	"mtbase/internal/mtsql"
	"mtbase/internal/optimizer"
	"mtbase/internal/rewrite"
	"mtbase/internal/sqlast"
	"mtbase/internal/sqlparse"
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

	// Statement caches: selCache maps client MTSQL SELECT text to its parsed
	// form (rewrite and optimizer clone their input, so the AST is shared
	// safely); rwCache maps (text, C, level, schema generation, D′) to the
	// rewritten-and-optimized SQL text shipped to the DBMS, which the engine
	// plan cache then recognizes. schemaGen bumps on every DDL so rewrites
	// derived from an older schema can never be served.
	selCache   map[string]*sqlast.Select
	rwCache    map[rwKey]string
	schemaGen  uint64
	rwHits     int64
	rwMisses   int64
	cachingOff bool
}

// stmtCacheCap bounds both statement caches; on overflow they restart empty.
const stmtCacheCap = 512

// rwKey identifies one rewrite-cache entry. D′ is part of the key — scope,
// privilege and tenant changes land in a different slot instead of evicting.
type rwKey struct {
	sql   string
	c     int64
	level optimizer.Level
	gen   uint64
	dkey  string
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
		selCache:   make(map[string]*sqlast.Select),
		rwCache:    make(map[rwKey]string),
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
	out := make([]int64, 0, len(s.tenants))
	for t := range s.tenants { //mtlint:ignore detmap the ttids are sorted below before they are returned
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
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

// ExecStmt executes a parsed MTSQL statement other than a SELECT (those
// stream through QueryStmt).
func (c *Conn) ExecStmt(ctx context.Context, stmt sqlast.Statement, raw string, args []sqltypes.Value) (*engine.Result, error) {
	switch st := stmt.(type) {
	case *sqlast.Insert:
		return c.insert(ctx, st, args)
	case *sqlast.Update:
		return c.update(ctx, st, args)
	case *sqlast.Delete:
		return c.delete(ctx, st, args)
	}
	if len(args) > 0 {
		return nil, fmt.Errorf("middleware: statement takes no bind parameters, got %d", len(args))
	}
	switch st := stmt.(type) {
	case *sqlast.SetScope:
		c.scope = st
		return &engine.Result{}, nil
	case *sqlast.CreateTable:
		return c.createTable(st)
	case *sqlast.CreateView:
		return c.createView(st)
	case *sqlast.CreateFunction:
		return c.createFunction(st)
	case *sqlast.DropTable:
		return c.dropTable(st)
	case *sqlast.DropView:
		// Views are droppable by their creator or the data modeller
		// (tenants manage their own views, §2.2.4).
		if owner, ok := c.srv.viewOwner(st.Name); ok && owner != c.c && !c.srv.isModeller(c.c) {
			return nil, fmt.Errorf("middleware: view %s belongs to tenant %d", st.Name, owner)
		}
		res, err := c.srv.db.Exec(st)
		if err != nil {
			return nil, err
		}
		c.srv.schema.DropView(st.Name)
		c.srv.dropViewOwner(st.Name)
		c.srv.bumpSchemaGen()
		return res, nil
	case *sqlast.Grant:
		return c.grant(st)
	case *sqlast.Revoke:
		return c.revoke(st)
	}
	return nil, fmt.Errorf("middleware: unsupported statement %T", stmt)
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
	d, all, err := c.resolveScope()
	if err != nil {
		return nil, err
	}
	pruned := c.srv.pruneDataset(c.c, d, priv, tables, reads)
	return &rewrite.Context{
		C:      c.c,
		D:      pruned,
		DAll:   all && len(pruned) == len(d),
		Schema: c.srv.schema,
	}, nil
}

// resolveScope materializes D: the default scope {C}, a simple IN list,
// all tenants for the empty IN list, or the result of evaluating a
// complex scope query against the DBMS (§3, Listing 12).
func (c *Conn) resolveScope() (d []int64, all bool, err error) {
	switch {
	case c.scope == nil:
		return []int64{c.c}, false, nil
	case c.scope.Complex != nil:
		ctx := &rewrite.Context{C: c.c, Schema: c.srv.schema}
		sq, err := rewrite.Scope(ctx, c.scope.Complex)
		if err != nil {
			return nil, false, err
		}
		res, err := c.srv.db.Query(sq)
		if err != nil {
			return nil, false, fmt.Errorf("middleware: evaluating scope: %w", err)
		}
		for _, row := range res.Rows {
			d = append(d, row[0].AsInt())
		}
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return d, false, nil
	case c.scope.All:
		return c.srv.Tenants(), true, nil
	default:
		d = append(d, c.scope.Simple...)
		return d, false, nil
	}
}

// pruneDataset drops tenants whose data C may not touch: D′ (§3). An owner
// stays when C holds priv on her instance of every table in tables and READ
// on her instance of every table in reads; only tenant-specific tables count.
// Statements hand in their whole table set (RewriteContextFor) and are
// rewritten under the one D′ that results, so every D-filter in a statement —
// the target's and each nested block's — agrees:
//
//	SELECT, CREATE VIEW   READ on every table named in any slot at any depth
//	UPDATE, DELETE        the DML privilege on the target and READ on every
//	                      table a nested block reads
//	INSERT ... SELECT     INSERT on the target and READ on the sources
func (s *Server) pruneDataset(client int64, d []int64, priv sqlast.Privilege, tables, reads []string) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	specific := func(names []string) []string {
		var ts []string
		for _, t := range names {
			if info := s.schema.Table(t); info != nil && info.TenantSpecific() {
				ts = append(ts, t)
			}
		}
		return ts
	}
	tables, reads = specific(tables), specific(reads)
	may := func(owner int64, p sqlast.Privilege, names []string) bool {
		for _, t := range names {
			if !s.hasPrivilege(client, owner, t, p) {
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

// RewrittenText resolves the session context and returns the optimized SQL
// text for q, serving repeated texts from the rewrite cache. raw is the
// client's original text when the call came in as SQL; it keys the rewrite
// cache together with everything the rewrite depends on (C, level, schema
// generation, the resolved D′), so a hit skips rewrite, optimization and
// serialization. Bind-parameter placeholders pass through the rewrite
// untouched, so one parameterized text — and therefore one engine plan —
// serves every binding. Scope resolution and privilege pruning always run —
// they are what D′ captures. Exported for the sharding layer, which reads from
// the text the column names the unsharded tier gives a statement that the
// shards answer by other means.
func (c *Conn) RewrittenText(q *sqlast.Select, raw string) (string, error) {
	ctx, err := c.RewriteContextFor(sqlast.Tables(q))
	if err != nil {
		return "", err
	}
	var key rwKey
	if raw != "" {
		key = rwKey{sql: raw, c: c.c, level: c.level, gen: c.srv.schemaGeneration(), dkey: datasetKey(ctx)}
		if txt, ok := c.srv.rewriteLookup(key); ok {
			return txt, nil
		}
	}
	rewritten, err := rewrite.Query(ctx, q)
	if err != nil {
		return "", err
	}
	optimized, err := optimizer.Optimize(ctx, rewritten, c.level)
	if err != nil {
		return "", err
	}
	txt := optimized.String()
	if raw != "" {
		c.srv.rewriteStore(key, txt)
	}
	return txt, nil
}

// QueryStmt executes a parsed SELECT through a streaming cursor. The
// middleware communicates with the DBMS "by the means of pure SQL" (§3):
// the rewritten statement is serialized and reparsed there.
func (c *Conn) QueryStmt(ctx context.Context, q *sqlast.Select, raw string, args []sqltypes.Value) (*engine.Rows, error) {
	txt, err := c.RewrittenText(q, raw)
	if err != nil {
		return nil, err
	}
	plan, err := c.srv.plan(txt)
	if err != nil {
		return nil, err
	}
	return c.srv.db.QueryPlanContext(ctx, plan, args...)
}

// datasetKey serializes the rewrite-relevant dataset state: D′ in rewrite
// order plus the all-tenants flag.
func datasetKey(ctx *rewrite.Context) string {
	var sb strings.Builder
	for i, t := range ctx.D {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", t)
	}
	if ctx.DAll {
		sb.WriteString("|all")
	}
	return sb.String()
}

// plan resolves rewritten SQL through the engine's plan cache. A failure is
// a parse error of the rewritten text — a rewrite bug worth showing with the
// SQL; bind and execution errors are the caller's and pass through clean.
func (s *Server) plan(sql string) (*engine.Plan, error) {
	plan, err := s.db.PreparePlan(sql)
	if err != nil {
		return nil, fmt.Errorf("middleware: rewritten SQL failed to parse: %w\n%s", err, sql)
	}
	return plan, nil
}

func (s *Server) execSQLArgs(ctx context.Context, sql string, args []sqltypes.Value) (*engine.Result, error) {
	plan, err := s.plan(sql)
	if err != nil {
		return nil, err
	}
	return s.db.ExecPlanContext(ctx, plan, args...)
}

// ---------------------------------------------------------------- caches

func (s *Server) cachedSelect(sql string) (*sqlast.Select, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cachingOff {
		return nil, false
	}
	sel, ok := s.selCache[sql]
	return sel, ok
}

func (s *Server) storeSelect(sql string, sel *sqlast.Select) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cachingOff {
		return
	}
	if len(s.selCache) >= stmtCacheCap {
		s.selCache = make(map[string]*sqlast.Select)
	}
	s.selCache[sql] = sel
}

func (s *Server) schemaGeneration() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.schemaGen
}

// bumpSchemaGen retires every cached rewrite derived from the previous
// schema. DDL paths already holding s.mu increment schemaGen directly.
func (s *Server) bumpSchemaGen() {
	s.mu.Lock()
	s.schemaGen++
	s.mu.Unlock()
}

func (s *Server) rewriteLookup(key rwKey) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cachingOff {
		return "", false
	}
	txt, ok := s.rwCache[key]
	if ok {
		s.rwHits++
	} else {
		s.rwMisses++
	}
	return txt, ok
}

func (s *Server) rewriteStore(key rwKey, txt string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cachingOff {
		return
	}
	if len(s.rwCache) >= stmtCacheCap {
		s.rwCache = make(map[rwKey]string)
	}
	s.rwCache[key] = txt
}

// RewriteCacheStats reports rewrite-cache hits and misses.
func (s *Server) RewriteCacheStats() (hits, misses int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rwHits, s.rwMisses
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
		{Name: "middleware.rewrite_cache_hits", Value: rwHits},
		{Name: "middleware.rewrite_cache_misses", Value: rwMisses},
	}
}

// InvalidateStatementCaches drops the parse and rewrite caches and the
// engine's plan cache; benchmarks use it to measure cold planning.
func (s *Server) InvalidateStatementCaches() {
	s.mu.Lock()
	s.selCache = make(map[string]*sqlast.Select)
	s.rwCache = make(map[rwKey]string)
	s.mu.Unlock()
	s.db.InvalidatePlans()
}

// SetStatementCaching toggles the middleware statement caches and the
// engine plan cache together (on by default); mtbench -no-plan-cache uses
// it to A/B the pre-cache behaviour.
func (s *Server) SetStatementCaching(on bool) {
	s.mu.Lock()
	s.cachingOff = !on
	s.selCache = make(map[string]*sqlast.Select)
	s.rwCache = make(map[rwKey]string)
	s.mu.Unlock()
	s.db.SetPlanCache(on)
}

// RewriteSQL parses, rewrites and optimizes a query without executing it.
func (c *Conn) RewriteSQL(sql string) (*sqlast.Select, error) {
	q, err := sqlparse.ParseQuery(sql)
	if err != nil {
		return nil, err
	}
	return c.RewriteOnly(q)
}

// RewriteOnly rewrites and optimizes a query without executing it —
// used by tools (mtsh -explain) and the benchmark harness.
func (c *Conn) RewriteOnly(q *sqlast.Select) (*sqlast.Select, error) {
	ctx, err := c.RewriteContextFor(sqlast.Tables(q))
	if err != nil {
		return nil, err
	}
	rewritten, err := rewrite.Query(ctx, q)
	if err != nil {
		return nil, err
	}
	return optimizer.Optimize(ctx, rewritten, c.level)
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
	return c.resolveScope()
}
