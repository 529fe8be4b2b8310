package mth

// Differential acceptance suite for the sharded router (ADR-009): the
// same Data loaded over N shards must answer every MT-H query
// byte-identically to the unsharded middleware — across optimization
// levels, compile modes, shard counts and placements — while routing
// single-tenant statements to exactly one shard and pushing partial
// aggregation into the shards for cross-tenant aggregates.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/optimizer"
	"mtbase/internal/shard"
)

func shardTestConfig() Config {
	return Config{SF: 0.002, Tenants: 5, Dist: Uniform, Seed: 7, Mode: engine.ModePostgres}
}

var allLevels = []optimizer.Level{
	optimizer.Canonical, optimizer.O1, optimizer.O2,
	optimizer.O3, optimizer.O4, optimizer.InlOnly,
}

// setCompileAll flips expression compilation on every engine of a sharded
// server (shards + coordinator replica).
func setCompileAll(srv *shard.Server, on bool) {
	for _, mw := range srv.Shards() {
		mw.DB().SetCompileExprs(on)
	}
	srv.Replica().DB().SetCompileExprs(on)
}

// oracleKeys runs Q1–Q22 through an unsharded instance at every level and
// compile mode, returning exactKey per (level, compiled, query).
func oracleKeys(t *testing.T, d *Data, levels []optimizer.Level) map[optimizer.Level]map[bool]map[int]string {
	t.Helper()
	inst, err := LoadMT(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.GrantReadTo(1); err != nil {
		t.Fatal(err)
	}
	conn, err := inst.Connect(1, "IN ()")
	if err != nil {
		t.Fatal(err)
	}
	db := inst.Srv.DB()
	defer db.SetCompileExprs(true)
	keys := make(map[optimizer.Level]map[bool]map[int]string)
	for _, level := range levels {
		conn.SetOptLevel(level)
		keys[level] = make(map[bool]map[int]string)
		for _, compiled := range []bool{true, false} {
			db.SetCompileExprs(compiled)
			keys[level][compiled] = make(map[int]string)
			for _, q := range Queries(d.Cfg.SF) {
				res, err := RunOnMT(conn, q)
				if err != nil {
					t.Fatalf("oracle level=%v compiled=%v Q%d: %v", level, compiled, q.ID, err)
				}
				keys[level][compiled][q.ID] = exactKey(res)
			}
		}
	}
	return keys
}

// TestShardDifferentialQ1toQ22 is the acceptance gate of the sharded
// router: Q1–Q22 at all six optimization levels, in both compile modes,
// over 1, 2 and 4 shards, byte-identical to the unsharded oracle.
// shards=1 exercises the pass-through route; 2 and 4 exercise single-
// shard, scatter and fallback routing over a genuinely split tenant set.
func TestShardDifferentialQ1toQ22(t *testing.T) {
	cfg := shardTestConfig()
	d := Generate(cfg)
	oracle := oracleKeys(t, d, allLevels)

	for _, nshards := range []int{1, 2, 4} {
		sinst, err := LoadMTSharded(d, nshards)
		if err != nil {
			t.Fatal(err)
		}
		if err := sinst.GrantReadTo(1); err != nil {
			t.Fatal(err)
		}
		conn, err := sinst.Connect(1, "IN ()")
		if err != nil {
			t.Fatal(err)
		}
		for _, level := range allLevels {
			conn.SetOptLevel(level)
			for _, compiled := range []bool{true, false} {
				setCompileAll(sinst.Srv, compiled)
				for _, q := range Queries(cfg.SF) {
					res, err := RunOnMT(conn, q)
					if err != nil {
						t.Fatalf("shards=%d level=%v compiled=%v Q%d: %v", nshards, level, compiled, q.ID, err)
					}
					if got, want := exactKey(res), oracle[level][compiled][q.ID]; got != want {
						t.Errorf("shards=%d level=%v compiled=%v Q%d: differs from unsharded oracle\n got: %.400s\nwant: %.400s",
							nshards, level, compiled, q.ID, got, want)
					}
				}
			}
		}
		setCompileAll(sinst.Srv, true)
		if nshards > 1 {
			snap := sinst.Srv.Stats().Snapshot()
			if snap.RoutedScatter == 0 {
				t.Errorf("shards=%d: expected cross-shard statements, routed_scatter=0", nshards)
			}
			if snap.PartialsPushed == 0 {
				t.Errorf("shards=%d: expected partial aggregation pushdown, partials_pushed=0", nshards)
			}
		}
	}
}

// TestShardSkewedPlacement pins four of five tenants onto shard 0 (a hot
// co-location map) and the fifth onto shard 2 of 3, leaving shard 1
// empty: placement must be invisible to results.
func TestShardSkewedPlacement(t *testing.T) {
	cfg := shardTestConfig()
	d := Generate(cfg)
	levels := []optimizer.Level{optimizer.Canonical, optimizer.O4}
	oracle := oracleKeys(t, d, levels)

	place := shard.MapPlacement{
		Assign:   map[int64]int{1: 0, 2: 0, 3: 0, 4: 0, 5: 2},
		Fallback: shard.HashPlacement{N: 3},
	}
	sinst, err := LoadMTSharded(d, 3, shard.WithPlacement(place))
	if err != nil {
		t.Fatal(err)
	}
	if err := sinst.GrantReadTo(1); err != nil {
		t.Fatal(err)
	}
	conn, err := sinst.Connect(1, "IN ()")
	if err != nil {
		t.Fatal(err)
	}
	counts := sinst.Srv.RowCounts()
	if counts[1] != 0 {
		t.Errorf("shard 1 should hold no tenant rows under the skewed map, has %d", counts[1])
	}
	if counts[0] == 0 || counts[2] == 0 {
		t.Errorf("skewed map did not split rows as pinned: %v", counts)
	}
	for _, level := range levels {
		conn.SetOptLevel(level)
		for _, q := range Queries(cfg.SF) {
			res, err := RunOnMT(conn, q)
			if err != nil {
				t.Fatalf("skewed level=%v Q%d: %v", level, q.ID, err)
			}
			if got, want := exactKey(res), oracle[level][true][q.ID]; got != want {
				t.Errorf("skewed level=%v Q%d: differs from unsharded oracle", level, q.ID)
			}
		}
	}
}

// rowsStreamedPerShard snapshots each shard engine's RowsStreamed counter.
func rowsStreamedPerShard(srv *shard.Server) []int64 {
	out := make([]int64, srv.NumShards())
	for i, mw := range srv.Shards() {
		out[i] = mw.DB().Stats.Snapshot().RowsStreamed
	}
	return out
}

// TestShardSingleTenantRouting: a statement under the default scope (D′ =
// {C}) must execute on exactly the owning shard — zero coordination, no
// other shard engine touched.
func TestShardSingleTenantRouting(t *testing.T) {
	cfg := shardTestConfig()
	sinst, err := LoadMTSharded(Generate(cfg), 4)
	if err != nil {
		t.Fatal(err)
	}
	srv := sinst.Srv
	for _, ttid := range []int64{1, 2, 3} {
		conn, err := sinst.Connect(ttid, "")
		if err != nil {
			t.Fatal(err)
		}
		before := rowsStreamedPerShard(srv)
		preSingle := srv.Stats().Snapshot().RoutedSingle
		q, err := QueryByID(cfg.SF, 6)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunOnMT(conn, q); err != nil {
			t.Fatalf("tenant %d Q6: %v", ttid, err)
		}
		after := rowsStreamedPerShard(srv)
		home := srv.ShardOf(ttid)
		for rank := range after {
			moved := after[rank] != before[rank]
			if rank == home && !moved {
				t.Errorf("tenant %d: owning shard %d streamed no rows", ttid, home)
			}
			if rank != home && moved {
				t.Errorf("tenant %d: shard %d touched by a single-tenant statement (home %d)", ttid, rank, home)
			}
		}
		snap := srv.Stats().Snapshot()
		if snap.RoutedSingle <= preSingle {
			t.Errorf("tenant %d: routed_single did not advance", ttid)
		}
		if snap.RoutedScatter != 0 || snap.RoutedFallback != 0 {
			t.Errorf("tenant %d: single-tenant statement scattered: %+v", ttid, snap)
		}
	}
}

// TestShardPartialAggPushdown: a cross-tenant aggregate must push partial
// aggregation into the shards (partials_pushed advances) and still match
// the unsharded result byte for byte.
func TestShardPartialAggPushdown(t *testing.T) {
	cfg := shardTestConfig()
	d := Generate(cfg)
	levels := []optimizer.Level{optimizer.O4}
	oracle := oracleKeys(t, d, levels)

	sinst, err := LoadMTSharded(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sinst.GrantReadTo(1); err != nil {
		t.Fatal(err)
	}
	conn, err := sinst.Connect(1, "IN ()")
	if err != nil {
		t.Fatal(err)
	}
	conn.SetOptLevel(optimizer.O4)
	for _, id := range []int{1, 6} {
		q, err := QueryByID(cfg.SF, id)
		if err != nil {
			t.Fatal(err)
		}
		pre := sinst.Srv.Stats().Snapshot().PartialsPushed
		res, err := RunOnMT(conn, q)
		if err != nil {
			t.Fatalf("Q%d: %v", id, err)
		}
		if got := sinst.Srv.Stats().Snapshot().PartialsPushed; got <= pre {
			t.Errorf("Q%d: partials_pushed did not advance (%d -> %d)", id, pre, got)
		}
		if exactKey(res) != oracle[optimizer.O4][true][id] {
			t.Errorf("Q%d: pushed-partial result differs from unsharded oracle", id)
		}
	}
}

func spillLeftovers(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(os.TempDir(), "mtbase-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestShardGatherCancellation: closing a scatter-gather cursor early —
// explicitly or via context cancellation mid-stream — must release every
// in-flight shard cursor and leave no spill files behind, and the session
// must stay usable.
func TestShardGatherCancellation(t *testing.T) {
	if n := spillLeftovers(t); len(n) > 0 {
		t.Skipf("pre-existing spill files in temp dir: %v", n)
	}
	cfg := shardTestConfig()
	sinst, err := LoadMTSharded(Generate(cfg), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sinst.GrantReadTo(1); err != nil {
		t.Fatal(err)
	}
	conn, err := sinst.Connect(1, "IN ()")
	if err != nil {
		t.Fatal(err)
	}
	// A pinned scan with ORDER BY: cross-shard k-way merge keeps shard
	// cursors open while the client iterates.
	const scan = "SELECT c_custkey, c_name FROM customer ORDER BY c_custkey"

	// Early Rows.Close after a single row.
	rows, err := conn.QueryRows(scan)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("expected at least one row: %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}

	// Context cancellation mid-scatter.
	ctx, cancel := context.WithCancel(context.Background())
	rows, err = conn.QueryContext(ctx, scan)
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	cancel()
	for rows.Next() { // drain until the cancellation surfaces or EOF
	}
	rows.Close()

	if left := spillLeftovers(t); len(left) > 0 {
		t.Errorf("gather cancellation leaked spill files: %v", left)
	}
	// The session and its shard sub-connections must still work.
	res, err := conn.Query("SELECT COUNT(*) AS n FROM customer")
	if err != nil {
		t.Fatalf("session unusable after cancelled gather: %v", err)
	}
	if res.Rows[0][0].I == 0 {
		t.Error("count after cancelled gather returned 0")
	}
}

// TestShardSnapshotIsolation: a cross-shard gather cursor pins each
// shard's snapshot at creation; a write landing on one shard mid-gather
// is invisible to the open cursor and visible to the next statement.
func TestShardSnapshotIsolation(t *testing.T) {
	cfg := shardTestConfig()
	sinst, err := LoadMTSharded(Generate(cfg), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sinst.GrantReadTo(1); err != nil {
		t.Fatal(err)
	}
	reader, err := sinst.Connect(1, "IN ()")
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := reader.Query("SELECT COUNT(*) AS n FROM customer")
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.Rows[0][0].I

	rows, err := reader.QueryRows("SELECT c_custkey FROM customer ORDER BY c_custkey")
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no rows: %v", rows.Err())
	}
	// Tenant 2 lives on the other shard than tenant 1 under 2-way hash
	// placement; its insert lands mid-gather on a scattered shard.
	writer, err := sinst.Connect(2, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Exec(`INSERT INTO customer (c_custkey, c_name, c_address, c_nationkey, c_phone, c_acctbal, c_mktsegment, c_comment)
		VALUES (999999, 'late', 'addr', 1, '11-123', 0, 'BUILDING', 'mid-gather insert')`); err != nil {
		t.Fatal(err)
	}
	got := int64(1) // the row already consumed
	for rows.Next() {
		got++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if got != want {
		t.Errorf("open gather cursor saw the concurrent insert: got %d rows, want %d", got, want)
	}
	after, err := reader.Query("SELECT COUNT(*) AS n FROM customer")
	if err != nil {
		t.Fatal(err)
	}
	if after.Rows[0][0].I != want+1 {
		t.Errorf("next statement should see the insert: got %d, want %d", after.Rows[0][0].I, want+1)
	}
}

// TestShardWriteRouting: single-tenant DML lands on the owning shard
// only; a cross-tenant UPDATE (with UPDATE grants) scatters and reports
// the summed affected count; global-table writes replicate everywhere.
func TestShardWriteRouting(t *testing.T) {
	cfg := shardTestConfig()
	sinst, err := LoadMTSharded(Generate(cfg), 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := sinst.Srv

	// Single-tenant INSERT routes to the owning shard.
	conn3, err := sinst.Connect(3, "")
	if err != nil {
		t.Fatal(err)
	}
	home := srv.ShardOf(3)
	countOn := func(rank int, table string) int {
		return srv.Shards()[rank].DB().Table(table).RowCount()
	}
	beforeHome := countOn(home, "orders")
	beforeOther := countOn(1-home, "orders")
	if _, err := conn3.Exec(`INSERT INTO orders (o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate, o_orderpriority, o_clerk, o_shippriority, o_comment)
		VALUES (888888, 1, 'O', 10, DATE '1995-01-01', '1-URGENT', 'Clerk#1', 0, 'routed insert')`); err != nil {
		t.Fatal(err)
	}
	if got := countOn(home, "orders"); got != beforeHome+1 {
		t.Errorf("insert did not land on owning shard %d: %d -> %d", home, beforeHome, got)
	}
	if got := countOn(1-home, "orders"); got != beforeOther {
		t.Errorf("insert leaked onto shard %d: %d -> %d", 1-home, beforeOther, got)
	}

	// Cross-tenant UPDATE: grant UPDATE to client 1 from every tenant,
	// then update under scope ALL; affected must equal the unsharded
	// per-tenant sum (every orders row matches the predicate).
	for t2 := int64(2); t2 <= int64(cfg.Tenants); t2++ {
		c, err := sinst.Connect(t2, "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Exec("GRANT READ, UPDATE ON DATABASE TO 1"); err != nil {
			t.Fatal(err)
		}
	}
	upd, err := sinst.Connect(1, "IN ()")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, mw := range srv.Shards() {
		total += mw.DB().Table("orders").RowCount()
	}
	res, err := upd.Exec("UPDATE orders SET o_clerk = 'Clerk#X' WHERE o_shippriority >= 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != total {
		t.Errorf("cross-shard UPDATE affected %d rows, want %d", res.Affected, total)
	}
	if snap := srv.Stats().Snapshot(); snap.RoutedScatter == 0 {
		t.Error("cross-tenant UPDATE did not scatter")
	}

	// Global-table write replicates to every shard and the replica.
	admin, err := sinst.Connect(ModellerTTID, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Exec("INSERT INTO region (r_regionkey, r_name, r_comment) VALUES (99, 'NOWHERE', 'added')"); err != nil {
		t.Fatal(err)
	}
	for rank, mw := range srv.Shards() {
		if n := mw.DB().Table("region").RowCount(); n != 6 {
			t.Errorf("shard %d region rows = %d, want 6", rank, n)
		}
	}
	if n := srv.Replica().DB().Table("region").RowCount(); n != 6 {
		t.Errorf("replica region rows = %d, want 6", n)
	}
}

// TestShardCoordinatorStateless (ADR-012): sessions with different scopes
// run partial folds (Q1/Q3/Q6), the repartition fallback (Q22) and the
// copy-all fallback of a view query (Q15) at the same time; every result
// equals what an unsharded instance answers for that scope, and the
// coordinator replica is left exactly as it was — same catalog, empty
// tenant tables, not one plan invalidated — because the gathered rows were
// never anything but statement-local relations. A shard that then fails to
// open its cursor fails the statement and leaves nothing behind either.
func TestShardCoordinatorStateless(t *testing.T) {
	cfg := shardTestConfig()
	d := Generate(cfg)
	place := shard.MapPlacement{Assign: map[int64]int{1: 0, 2: 1, 3: 2, 4: 3, 5: 0}, Fallback: shard.HashPlacement{N: 4}}
	sinst, err := LoadMTSharded(d, 4, shard.WithPlacement(place))
	if err != nil {
		t.Fatal(err)
	}
	oinst, err := LoadMT(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := sinst.GrantReadTo(1); err != nil {
		t.Fatal(err)
	}
	if err := oinst.GrantReadTo(1); err != nil {
		t.Fatal(err)
	}
	q15, _ := QueryByID(cfg.SF, 15)
	stmts := []string{q15.SQL}
	for _, id := range []int{1, 3, 6, 22} {
		q, err := QueryByID(cfg.SF, id)
		if err != nil {
			t.Fatal(err)
		}
		stmts = append(stmts, q.SQL)
	}

	// Every scope spans at least two shards under the placement above.
	scopes := []string{"IN ()", "IN (1, 2, 3)", "IN (2, 4, 5)", "IN (1, 3, 4, 5)", "IN (3, 4)"}
	conns := make([]*shard.Conn, len(scopes))
	want := make([][]string, len(scopes))
	for i, scope := range scopes {
		if conns[i], err = sinst.Connect(1, scope); err != nil {
			t.Fatal(err)
		}
		oconn, err := oinst.Connect(1, scope)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 { // the view bakes the creator's tenant set: everyone
			for _, c := range []middleware.Session{conns[0], oconn} {
				if _, err := c.Exec(q15.Setup[0]); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, sql := range stmts {
			res, err := oconn.Exec(sql)
			if err != nil {
				t.Fatalf("oracle scope %s: %v", scope, err)
			}
			want[i] = append(want[i], exactKey(res))
		}
	}

	rdb := sinst.Srv.Replica().DB()
	tenantTables := []string{"customer", "orders", "lineitem"}
	replicaState := func() string {
		names := rdb.TableNames()
		for _, n := range names {
			if strings.HasPrefix(strings.ToLower(n), "mt_gather") || strings.EqualFold(n, "mt_partials") {
				return "scratch table " + n
			}
		}
		for _, n := range tenantTables {
			if c := rdb.Table(n).RowCount(); c != 0 {
				return fmt.Sprintf("%s holds %d rows", n, c)
			}
		}
		return strings.Join(names, ",")
	}
	names, stats0, routes0 := replicaState(), rdb.Stats.Snapshot(), sinst.Srv.Stats().Snapshot()

	const rounds = 3
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < rounds*len(stmts); n++ {
				k := (n + i) % len(stmts) // sessions are on different routes at any moment
				res, err := conns[i].Exec(stmts[k])
				if err != nil {
					t.Errorf("scope %s statement %d: %v", scopes[i], k, err)
					return
				}
				if got := exactKey(res); got != want[i][k] {
					t.Errorf("scope %s statement %d differs from the unsharded answer\n got: %.300s\nwant: %.300s", scopes[i], k, got, want[i][k])
				}
				if got := replicaState(); got != names {
					t.Errorf("replica while statements run: %s, want %s", got, names)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	if got := replicaState(); got != names {
		t.Errorf("replica after the run: %s, want %s", got, names)
	}
	stats, routes, n := rdb.Stats.Snapshot(), sinst.Srv.Stats().Snapshot(), int64(rounds*len(scopes))
	if got := stats.PlanCacheInvalidations - stats0.PlanCacheInvalidations; got != 0 {
		t.Errorf("replica plan cache: %d invalidations over %d folds and %d fallbacks, want 0", got, 3*n, 2*n)
	}
	if p, f := routes.PartialsPushed-routes0.PartialsPushed, routes.RoutedFallback-routes0.RoutedFallback; p != 3*n || f != 2*n {
		t.Errorf("routes: %d partial folds and %d fallbacks, want %d and %d", p, f, 3*n, 2*n)
	}

	// Shard 3 (tenant 4) loses a table behind the coordinator's back: its
	// cursor fails to open after shards 0–2 opened theirs. The statement
	// fails as a whole, on the merge and on the partial route, and the same
	// session answers correctly again under a scope that avoids the shard.
	if _, err := sinst.Srv.Shards()[3].DB().ExecSQL("DROP TABLE lineitem"); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{stmts[3], "SELECT l_orderkey, l_linenumber FROM lineitem ORDER BY l_orderkey, l_linenumber"} {
		if _, err := conns[0].Exec(sql); err == nil {
			t.Errorf("statement over a broken shard succeeded: %.60s", sql)
		}
	}
	if _, err := conns[0].Exec(`SET SCOPE = "IN (1, 2, 3)"`); err != nil {
		t.Fatal(err)
	}
	for k, sql := range stmts[1:] {
		res, err := conns[0].Exec(sql)
		if err != nil {
			t.Fatalf("after the failed scatter, statement %d: %v", k+1, err)
		}
		if exactKey(res) != want[1][k+1] {
			t.Errorf("after the failed scatter, statement %d differs from the unsharded answer", k+1)
		}
	}
	if got := replicaState(); got != names {
		t.Errorf("replica after the failed scatter: %s, want %s", got, names)
	}
}
