package main

// The three deployments the workloads run against, each reached only
// through the exported surface a user of that tier has: an in-process
// middleware.Conn, client.Conn sessions to an in-process mtserve over TCP
// loopback with a WAL directory, and an in-process shard.Conn.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"mtbase/internal/client"
	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/mth"
	"mtbase/internal/optimizer"
	"mtbase/internal/server"
	"mtbase/internal/shard"
	"mtbase/internal/wal"
)

// counters are the program's own counts, read from outside before and
// after an op: engine.Stats of every engine the deployment owns, the
// middleware rewrite cache, and the shard router.
type counters struct {
	planHits, planMisses       int64
	rwHits, rwMisses           int64
	rows, udfCalls, spillRuns  int64
	single, scatter, partials  int64
	fallbacks                  int64
	allocs, allocBytes, wireIO int64 // filled by the tracer, not by deployments
}

func (a counters) sub(b counters) counters {
	return counters{
		planHits: a.planHits - b.planHits, planMisses: a.planMisses - b.planMisses,
		rwHits: a.rwHits - b.rwHits, rwMisses: a.rwMisses - b.rwMisses,
		rows: a.rows - b.rows, udfCalls: a.udfCalls - b.udfCalls, spillRuns: a.spillRuns - b.spillRuns,
		single: a.single - b.single, scatter: a.scatter - b.scatter,
		partials: a.partials - b.partials, fallbacks: a.fallbacks - b.fallbacks,
	}
}

func (c *counters) addEngine(mw *middleware.Server) {
	es := mw.DB().Stats.Snapshot()
	c.planHits += es.PlanCacheHits
	c.planMisses += es.PlanCacheMisses
	c.rows += es.RowsStreamed
	c.udfCalls += es.UDFCalls
	c.spillRuns += es.SpillRuns
	h, m := mw.RewriteCacheStats()
	c.rwHits += h
	c.rwMisses += m
}

// deployment is one stood-up system under test.
type deployment interface {
	// exec sends s on its session and drains the reply: the end-to-end
	// call a root span wraps.
	exec(s *stmt) (reply, error)
	// replay re-runs s stage by stage through the layers' exported
	// functions, one child span per stage (trace.go).
	replay(s *stmt, root reply, t *opTrace)
	counters() counters
	// verify runs the deployment's post-window checks and returns their
	// names with "ok" or what went wrong.
	verify() map[string]string
	close() error
}

func parseLevel(name string) optimizer.Level {
	l, err := optimizer.ParseLevel(name)
	if err != nil {
		panic(err) // workload table typo
	}
	return l
}

// ---------------------------------------------------------------- in-process

type mwDeployment struct {
	inst        *mth.Instance
	conns       []*middleware.Conn
	compileOnly bool
}

func deployMW(cfg mth.Config, sessions []session, level string, compileOnly bool) (*mwDeployment, error) {
	inst, err := mth.LoadMT(mth.Generate(cfg))
	if err != nil {
		return nil, err
	}
	d := &mwDeployment{inst: inst, compileOnly: compileOnly}
	for _, s := range sessions {
		conn, err := connectMW(inst, s, level)
		if err != nil {
			return nil, err
		}
		d.conns = append(d.conns, conn)
	}
	return d, nil
}

// connectMW opens a session; a non-default scope needs READ grants from
// every owner (the §6 evaluation set-up).
func connectMW(inst *mth.Instance, s session, level string) (*middleware.Conn, error) {
	if s.Scope != "" {
		if err := inst.GrantReadTo(s.Tenant); err != nil {
			return nil, err
		}
	}
	conn, err := inst.Connect(s.Tenant, s.Scope)
	if err != nil {
		return nil, err
	}
	conn.SetOptLevel(parseLevel(level))
	return conn, nil
}

func (d *mwDeployment) exec(s *stmt) (reply, error) {
	conn := d.conns[s.sess]
	if d.compileOnly {
		return compileOp(conn, d.inst.Srv.DB(), s.text)
	}
	res, err := conn.Query(s.text, s.args...)
	if err != nil {
		return reply{}, err
	}
	return reply{rows: res.Rows}, nil
}

// compileOp is the mtsql-compile op: MTSQL text → rewritten, optimized SQL
// text → engine plan; nothing executes.
func compileOp(conn *middleware.Conn, db *engine.DB, text string) (reply, error) {
	sel, err := conn.RewriteSQL(text)
	if err != nil {
		return reply{}, err
	}
	out := sel.String()
	if _, err := db.PreparePlan(out); err != nil {
		return reply{}, err
	}
	return reply{text: out}, nil
}

func (d *mwDeployment) counters() counters {
	var c counters
	c.addEngine(d.inst.Srv)
	return c
}

func (d *mwDeployment) verify() map[string]string { return nil }
func (d *mwDeployment) close() error              { return nil }

// ---------------------------------------------------------------- served

// flushPolicy states the durability settings wire-oltp runs under.
const flushPolicy = "wal: every write acknowledged after fsync, group commit shared across sessions (the Store default); automatic snapshots off"

type wireDeployment struct {
	dir      string
	manifest server.Manifest
	sessions []session
	store    *server.Store
	srv      *server.Server
	conns    []*client.Conn
	stmts    [][]*client.Stmt // [session][kind]
	gen      *oltpGen         // its tallies are what verify checks

	// Replay-only state, built on first use (trace.go).
	replayInit sync.Once
	replayErr  error
	local      []*middleware.Conn
	localStmts [][]*middleware.Stmt
	scratch    *wal.Log
}

func deployWire(cfg mth.Config, sessions []session, level, dir string) (*wireDeployment, error) {
	d := &wireDeployment{dir: dir, sessions: sessions, manifest: server.Manifest{
		SF: cfg.SF, Tenants: cfg.Tenants, Dist: string(cfg.Dist), Seed: cfg.Seed, Mode: "postgres",
	}}
	var err error
	// snapEvery 0: a periodic heap snapshot would land in some windows and
	// not in others; checkpoint cost is outside this benchmark.
	if d.store, err = server.OpenStore(filepath.Join(dir, "store"), d.manifest, 0); err != nil {
		return nil, err
	}
	d.srv = server.New(d.store.Instance().Srv, d.store, server.Config{AdminTenant: mth.ModellerTTID})
	addr, err := d.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// The event table is created over the wire so its DDL is WAL-logged
	// and survives the restart check.
	admin, err := client.Dial(addr.String(), mth.ModellerTTID, "")
	if err != nil {
		return nil, err
	}
	if _, err := admin.Exec(oltpCreateEvent); err != nil {
		return nil, err
	}
	admin.Close()
	for _, s := range sessions {
		conn, err := client.Dial(addr.String(), s.Tenant, level)
		if err != nil {
			return nil, err
		}
		d.conns = append(d.conns, conn)
		var stmts []*client.Stmt
		for _, text := range oltpTexts {
			st, err := conn.Prepare(text)
			if err != nil {
				return nil, err
			}
			stmts = append(stmts, st)
		}
		d.stmts = append(d.stmts, stmts)
	}
	return d, nil
}

// newGen builds the workload's generator over the customer and order keys
// each session's tenant owns in the generated data.
func (d *wireDeployment) newGen(seed int64) *oltpGen {
	var cust, orders [][]int64
	data := d.store.Instance().Data
	for _, s := range d.sessions {
		var ck, ok []int64
		for i, t := range data.CustTenant {
			if t == s.Tenant {
				ck = append(ck, data.Customer[i][0].I)
			}
		}
		for i, t := range data.OrderTenant {
			if t == s.Tenant {
				ok = append(ok, data.Orders[i][0].I)
			}
		}
		cust, orders = append(cust, ck), append(orders, ok)
	}
	d.gen = newOltpGen(seed, cust, orders)
	return d.gen
}

func (d *wireDeployment) exec(s *stmt) (reply, error) {
	st := d.stmts[s.sess][s.kindIdx]
	if s.write {
		res, err := st.Exec(s.args...)
		if err != nil {
			return reply{}, err
		}
		return reply{affected: res.Affected}, nil
	}
	res, err := st.QueryResult(s.args...)
	if err != nil {
		return reply{}, err
	}
	return reply{rows: res.Rows}, nil
}

func (d *wireDeployment) counters() counters {
	var c counters
	c.addEngine(d.store.Instance().Srv)
	return c
}

// admissionWaits sums the admission controller's rate waits and quota
// rejects as the served Stats frame reports them.
func (d *wireDeployment) admissionWaits() (int64, error) {
	pairs, err := d.conns[0].Stats()
	if err != nil {
		return 0, err
	}
	var n int64
	for _, p := range pairs {
		if strings.HasPrefix(p.Name, "admission.") &&
			(strings.HasSuffix(p.Name, ".rate_waits") || strings.HasSuffix(p.Name, ".quota_rejects")) {
			n += p.Value
		}
	}
	return n, nil
}

// walBytes is the size of the store's WAL segments on disk.
func (d *wireDeployment) walBytes() int64 {
	files, _ := filepath.Glob(filepath.Join(d.dir, "store", "wal-*.log"))
	var n int64
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// verify checks durability from outside: the per-tenant tally of live
// events equals the generator's own, first on the serving instance, then
// after Shutdown and reopening the Store from its directory alone — every
// acknowledged write survives the restart.
func (d *wireDeployment) verify() map[string]string {
	out := map[string]string{"tally": "ok", "restart": "ok"}
	check := func(name string, c int, q func(string, ...any) (*engine.Result, error)) {
		res, err := q(oltpTally)
		if err != nil {
			out[name] = err.Error()
			return
		}
		count, sum := d.gen.tally(c)
		row := res.Rows[0]
		if row[0].AsInt() != count || row[1].AsFloat() != sum {
			out[name] = fmt.Sprintf("tenant %d: have count=%d sum=%v, generator acknowledged count=%d sum=%v",
				d.sessions[c].Tenant, row[0].AsInt(), row[1].AsFloat(), count, sum)
		}
	}
	for c, conn := range d.conns {
		check("tally", c, conn.Query)
	}
	if err := d.shutdown(); err != nil {
		out["restart"] = err.Error()
		return out
	}
	store, err := server.OpenStore(filepath.Join(d.dir, "store"), d.manifest, 0)
	if err != nil {
		out["restart"] = err.Error()
		return out
	}
	defer store.Close()
	for c, s := range d.sessions {
		conn, err := store.Instance().Connect(s.Tenant, "")
		if err != nil {
			out["restart"] = err.Error()
			return out
		}
		check("restart", c, conn.Query)
	}
	return out
}

func (d *wireDeployment) shutdown() error {
	if d.srv == nil {
		return nil
	}
	for _, c := range d.conns {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx) // closes the store too
	d.srv = nil
	if d.scratch != nil {
		d.scratch.Close()
		d.scratch = nil
	}
	return err
}

func (d *wireDeployment) close() error {
	err := d.shutdown()
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// ---------------------------------------------------------------- sharded

type shardDeployment struct {
	inst     *mth.ShardedInstance
	sessions []session
	level    string
	conns    []*shard.Conn

	// Replay-only: parts[session][rank] is a direct session on one shard's
	// middleware under scope D ∩ owned(rank); nil where that is empty.
	parts [][]*middleware.Conn
}

func deployShard(cfg mth.Config, nshards int, sessions []session, level string) (*shardDeployment, error) {
	inst, err := mth.LoadMTSharded(mth.Generate(cfg), nshards)
	if err != nil {
		return nil, err
	}
	d := &shardDeployment{inst: inst, sessions: sessions, level: level}
	for _, s := range sessions {
		if s.Scope != "" {
			if err := inst.GrantReadTo(s.Tenant); err != nil {
				return nil, err
			}
		}
		conn, err := inst.Connect(s.Tenant, s.Scope)
		if err != nil {
			return nil, err
		}
		conn.SetOptLevel(parseLevel(level))
		d.conns = append(d.conns, conn)
	}
	return d, nil
}

func (d *shardDeployment) exec(s *stmt) (reply, error) {
	res, err := d.conns[s.sess].Query(s.text, s.args...)
	if err != nil {
		return reply{}, err
	}
	return reply{rows: res.Rows}, nil
}

func (d *shardDeployment) counters() counters {
	var c counters
	for _, mw := range d.inst.Srv.Shards() {
		c.addEngine(mw)
	}
	c.addEngine(d.inst.Srv.Replica())
	ss := d.inst.Srv.Stats().Snapshot()
	c.single, c.scatter = ss.RoutedSingle, ss.RoutedScatter
	c.partials, c.fallbacks = ss.PartialsPushed, ss.RoutedFallback
	return c
}

func (d *shardDeployment) verify() map[string]string { return nil }
func (d *shardDeployment) close() error              { return nil }
