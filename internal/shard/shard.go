// Package shard partitions tenants across N independent engine shards and
// routes every statement by its rewritten tenant set D′ (DESIGN.md
// ADR-009).
//
// Each shard is a full middleware.Server over its own engine.DB: global
// tables and all metadata (schema, tenants, privileges, conversion
// functions) are replicated to every shard, while each tenant-specific row
// lives on exactly one shard, chosen by a fixed Placement. MTBase's
// cross-tenant rewrite names the exact tenant set D′ for every statement,
// which turns placement into routing:
//
//   - statements whose D′ lands on one shard (the single-tenant default
//     scope above all) run there with zero cross-shard coordination — the
//     shard's own middleware resolves the original scope locally and
//     byte-identically;
//   - cross-shard statements scatter to the owning shards under explicit
//     per-shard sub-scopes and gather deterministically (engine.MergeRows /
//     engine.ConcatRows, partial-aggregation fold, or a repartition
//     fallback on the coordinator replica); a closed scalar subquery over
//     tenant data is routed first, as a statement of its own, and bound
//     into its outer statement (staged routing, ADR-015).
//
// A "replica" middleware.Server accompanies the shards as coordinator: it
// holds all metadata and global data but NO tenant rows, ever. It resolves
// scopes and privileges for routing and executes the two gathers that need
// an engine — the partial-aggregation fold and the repartition fallback —
// over statement-local relations (engine.QueryWith): the shards' rows are
// visible to that one statement and never enter the replica's catalog.
//
// A sharded session is a middleware.Session (DESIGN.md ADR-013): Conn
// implements the parsed-statement core — QueryStmt routes a SELECT, ExecStmt
// routes everything else — and embeds middleware.Text for the text-level
// entry points and the prepared statement, so Prepare returns the same
// *middleware.Stmt as the unsharded tier and every execution re-routes by
// the D′ of that moment.
//
// The coordinator keeps no per-statement state outside the statement
// (DESIGN.md ADR-012): a shard session under a sub-scope is a value copy
// (middleware.Conn.Scoped), so sessions share nothing but the shards.
//
// DDL, grants and tenant registration fan out to the replica and every
// shard under a schema-generation barrier (ddlMu): statements route under
// a read lock, schema changes take the write lock, so a scatter never
// observes half-applied schema.
package shard

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"

	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/mtsql"
)

// Server is a sharded counterpart of middleware.Server: Connect opens a
// middleware.Session, tenants partitioned over nshards engines.
type Server struct {
	place   Placement
	shards  []*middleware.Server
	replica *middleware.Server

	// ddlMu is the schema-generation barrier: statements hold it shared
	// while routing and executing, DDL/grants/tenant registration hold it
	// exclusively while fanning out to every shard.
	ddlMu sync.RWMutex

	stats Stats
}

type config struct {
	place     Placement
	modellers []int64
}

// Option configures a sharded server.
type Option func(*config)

// WithPlacement overrides the default hash placement — the hook for
// heat-based maps (MapPlacement).
func WithPlacement(p Placement) Option {
	return func(c *config) { c.place = p }
}

// WithDataModeller marks ttid as a data modeller on every shard (mirrors
// middleware.WithDataModeller).
func WithDataModeller(ttid int64) Option {
	return func(c *config) { c.modellers = append(c.modellers, ttid) }
}

// New builds a sharded server with nshards fresh engines (plus the
// coordinator replica) in the given engine mode. Each shard engine runs
// PartWorkers(0) workers; the replica keeps the engine default.
func New(nshards int, mode engine.Mode, opts ...Option) (*Server, error) {
	if nshards < 1 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", nshards)
	}
	cfg := config{}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.place == nil {
		cfg.place = HashPlacement{N: nshards}
	}
	mwOpts := make([]middleware.Option, 0, len(cfg.modellers))
	for _, m := range cfg.modellers {
		mwOpts = append(mwOpts, middleware.WithDataModeller(m))
	}
	s := &Server{place: cfg.place, shards: make([]*middleware.Server, nshards)}
	for i := range s.shards {
		db := engine.Open(mode)
		db.SetParallelism(s.PartWorkers(0))
		s.shards[i] = middleware.NewServer(db, mwOpts...)
	}
	s.replica = middleware.NewServer(engine.Open(mode), mwOpts...)
	return s, nil
}

// PartWorkers is the worker count each shard engine gets out of a
// deployment's n (n <= 0: GOMAXPROCS), so that a scatter's parts, which
// run side by side, together use no more than n: max(1, n/NumShards()).
// The replica is exempt and keeps n — it runs the partial-aggregate fold
// and the fallback after the parts or instead of them (DESIGN.md ADR-030).
// A caller that sets an explicit worker count gives the replica n and each
// shard engine PartWorkers(n).
func (s *Server) PartWorkers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return max(1, n/len(s.shards))
}

// NumShards returns the shard count (excluding the coordinator replica).
func (s *Server) NumShards() int { return len(s.shards) }

// ShardOf returns the rank of the shard owning ttid's rows.
func (s *Server) ShardOf(ttid int64) int { return s.place.ShardOf(ttid) }

// Shards exposes the per-shard middleware servers. Loaders use it to bulk
// load each tenant's rows onto its owning shard and to replicate global
// data; routing code never needs it.
func (s *Server) Shards() []*middleware.Server { return s.shards }

// Replica exposes the coordinator replica: all metadata and global data,
// no tenant rows. Loaders replicate global and meta state here too.
func (s *Server) Replica() *middleware.Server { return s.replica }

// Schema returns the MTSQL schema (identical on every shard; the
// replica's copy is the routing authority).
func (s *Server) Schema() *mtsql.Schema { return s.replica.Schema() }

// Stats returns the routing counters.
func (s *Server) Stats() *Stats { return &s.stats }

// CreateTenant registers a tenant on the replica and every shard —
// metadata is replicated even though the tenant's rows will live on
// exactly one shard.
func (s *Server) CreateTenant(ttid int64) error {
	s.ddlMu.Lock()
	defer s.ddlMu.Unlock()
	if err := s.replica.CreateTenant(ttid); err != nil {
		return err
	}
	for _, mw := range s.shards {
		if err := mw.CreateTenant(ttid); err != nil {
			return err
		}
	}
	return nil
}

// Tenants returns all registered tenant ids in ascending order.
func (s *Server) Tenants() []int64 { return s.replica.Tenants() }

// Connect opens a sharded session for tenant ttid: one sub-connection per
// shard plus one on the replica, all sharing the session's C, scope and
// optimization level. Like middleware.Conn, the returned Conn is not safe
// for concurrent use by multiple goroutines.
func (s *Server) Connect(ttid int64) (*Conn, error) {
	rconn, err := s.replica.Connect(ttid)
	if err != nil {
		return nil, err
	}
	sconns := make([]*middleware.Conn, len(s.shards))
	for i, mw := range s.shards {
		if sconns[i], err = mw.Connect(ttid); err != nil {
			return nil, err
		}
	}
	c := &Conn{srv: s, c: ttid, level: rconn.OptLevel(), rconn: rconn, sconns: sconns}
	c.Text = middleware.NewText(c, s.replica)
	return c, nil
}

// shardSet is one scatter target: a shard rank and the subset of D′ it
// owns (ascending tenant order).
type shardSet struct {
	rank int
	ds   []int64
}

// group partitions the (sorted) tenant set d by owning shard, returning
// targets in ascending rank order.
func (s *Server) group(d []int64) []shardSet {
	byRank := make(map[int][]int64)
	for _, t := range d {
		r := s.place.ShardOf(t)
		byRank[r] = append(byRank[r], t)
	}
	sets := make([]shardSet, 0, len(byRank))
	for _, r := range slices.Sorted(maps.Keys(byRank)) {
		sets = append(sets, shardSet{rank: r, ds: byRank[r]})
	}
	return sets
}

// Stat is the one counter type both tiers' StatLines return.
type Stat = middleware.Stat

// StatLines reports the routing counters plus per-shard engine counters
// in a stable order (shard rank; the replica last as "replica").
func (s *Server) StatLines() []Stat {
	snap := s.stats.Snapshot()
	out := []Stat{
		{Name: "shard.shards", Value: int64(len(s.shards))},
		{Name: "shard.routed_single", Value: snap.RoutedSingle},
		{Name: "shard.routed_scatter", Value: snap.RoutedScatter},
		{Name: "shard.routed_fallback", Value: snap.RoutedFallback},
		{Name: "shard.partials_pushed", Value: snap.PartialsPushed},
		{Name: "shard.hoisted_subqueries", Value: snap.HoistedSubqueries},
	}
	for i, mw := range s.shards {
		es := mw.DB().Stats.Snapshot()
		prefix := fmt.Sprintf("shard%d.", i)
		out = append(out,
			Stat{Name: prefix + "rows_streamed", Value: es.RowsStreamed},
			Stat{Name: prefix + "plan_cache_hits", Value: es.PlanCacheHits},
			Stat{Name: prefix + "spill_runs", Value: es.SpillRuns},
			Stat{Name: prefix + "peak_mem_bytes", Value: es.PeakMemBytes},
		)
	}
	es := s.replica.DB().Stats.Snapshot()
	out = append(out,
		Stat{Name: "replica.rows_streamed", Value: es.RowsStreamed},
		Stat{Name: "replica.spill_runs", Value: es.SpillRuns},
	)
	return out
}

// TenantShard is one row of the placement map.
type TenantShard struct {
	Tenant int64
	Shard  int
}

// PlacementMap lists every registered tenant with its owning shard, in
// ascending tenant order (mtsh \shards).
func (s *Server) PlacementMap() []TenantShard {
	ts := s.replica.Tenants()
	out := make([]TenantShard, 0, len(ts))
	for _, t := range ts {
		out = append(out, TenantShard{Tenant: t, Shard: s.place.ShardOf(t)})
	}
	return out
}

// tenantTables names every tenant-specific table of the schema.
func (s *Server) tenantTables() []string {
	var out []string
	for _, ti := range s.Schema().Tables() {
		if ti.TenantSpecific() {
			out = append(out, ti.Name)
		}
	}
	return out
}

// RowCounts reports, per shard rank, the number of tenant-specific rows it
// holds (mtsh \shards).
func (s *Server) RowCounts() []int64 {
	tables := s.tenantTables()
	out := make([]int64, len(s.shards))
	for i, mw := range s.shards {
		db := mw.DB()
		var n int64
		for _, name := range tables {
			if t := db.Table(name); t != nil {
				n += int64(t.RowCount())
			}
		}
		out[i] = n
	}
	return out
}
