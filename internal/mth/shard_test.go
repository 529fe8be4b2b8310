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
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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
			for _, q := range append(Queries(d.Cfg.SF), StagedExtras()...) {
				res, err := RunOnMT(conn, q)
				if err != nil && q.ID <= 22 {
					t.Fatalf("oracle level=%v compiled=%v Q%d: %v", level, compiled, q.ID, err)
				}
				keys[level][compiled][q.ID] = outcomeKey(res, err)
			}
		}
	}
	return keys
}

// outcomeKey is exactKey of a result, or the error's text for the extras
// that are meant to fail the same way everywhere.
func outcomeKey(res *engine.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return exactKey(res)
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
				for _, q := range append(Queries(cfg.SF), StagedExtras()...) {
					res, err := RunOnMT(conn, q)
					if err != nil && q.ID <= 22 {
						t.Fatalf("shards=%d level=%v compiled=%v Q%d: %v", nshards, level, compiled, q.ID, err)
					}
					if got, want := outcomeKey(res, err), oracle[level][compiled][q.ID]; got != want {
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

// TestShardGatherCancellation: closing a cross-shard cursor early —
// explicitly or via context cancellation mid-stream — must release every
// shard part and the replica's fold and leave no spill files behind, and the
// session must stay usable.
func TestShardGatherCancellation(t *testing.T) {
	// A directory of its own: under MTBASE_TEST_MEMLIMIT the engine package's
	// capped tests, in another process, spill into the shared temp directory.
	t.Setenv("TMPDIR", t.TempDir())
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
	// A pinned scan with ORDER BY: the shard parts are drained and the
	// replica's sort/limit fold is the cursor the client iterates.
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
// run partial folds (Q1/Q3/Q6), the staged plan (Q22: a hoisted partial, then
// a partial — ADR-015), the repartition fallback (Q13) and the copy-all
// fallback of a view query (Q15) at the same time; every result equals what
// an unsharded instance answers for that scope, and the coordinator replica
// is left exactly as it was — same catalog, empty tenant tables, not one
// plan invalidated — because the gathered rows were never anything but
// statement-local relations and a stage's value nothing but a bind of its
// statement. A shard that then fails to open its cursor — in a merge, a
// partial, or the second stage after the first succeeded — fails the
// statement and leaves nothing behind either, and so does a context
// cancelled between the stages.
func TestShardCoordinatorStateless(t *testing.T) {
	// Spill files go to a directory of this test's own: the leak check below
	// must not see what another package's tests are spilling meanwhile.
	t.Setenv("TMPDIR", t.TempDir())
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
	for _, id := range []int{1, 3, 6, 22, 13} {
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
		t.Errorf("replica plan cache: %d invalidations over %d folds and %d fallbacks, want 0", got, 5*n, 2*n)
	}
	// Q1, Q3, Q6 fold once, Q22 twice (its hoisted AVG, then itself); Q15 and
	// Q13 fall back.
	if p, f, h := routes.PartialsPushed-routes0.PartialsPushed, routes.RoutedFallback-routes0.RoutedFallback, routes.HoistedSubqueries-routes0.HoistedSubqueries; p != 5*n || f != 2*n || h != n {
		t.Errorf("routes: %d partial folds, %d fallbacks, %d hoisted stages; want %d, %d, %d", p, f, h, 5*n, 2*n, n)
	}

	// A context that reports cancellation once stage 1 of Q22 has delivered
	// its value: stage 2 is refused at its first cursor, the statement answers
	// the context's error, nothing falls back.
	routes0 = sinst.Srv.Stats().Snapshot()
	between := &cancelWhen{Context: context.Background(), when: func() bool {
		return sinst.Srv.Stats().Snapshot().HoistedSubqueries > routes0.HoistedSubqueries
	}}
	rows, err := conns[0].QueryContext(between, stmts[4])
	if err == nil {
		_, err = rows.Collect()
	}
	if routes = sinst.Srv.Stats().Snapshot(); err != context.Canceled || routes.HoistedSubqueries != routes0.HoistedSubqueries+1 || routes.RoutedFallback != routes0.RoutedFallback {
		t.Errorf("Q22 cancelled between its stages: %v, %+v -> %+v; want context.Canceled after one hoisted stage and no fallback", err, routes0, routes)
	}

	// Shard 3 (tenant 4) loses two tables behind the coordinator's back: its
	// cursor fails to open after shards 0–2 opened theirs. The statement
	// fails as a whole — on the merge, on the partial route, and on Q22's
	// second stage (customer and orders) after its first (customer only)
	// succeeded — no goroutine or spill file stays behind, and the same
	// session answers correctly again under a scope that avoids the shard.
	goroutines := runtime.NumGoroutine()
	for _, table := range []string{"lineitem", "orders"} {
		if _, err := sinst.Srv.Shards()[3].DB().ExecSQL("DROP TABLE " + table); err != nil {
			t.Fatal(err)
		}
	}
	routes0 = sinst.Srv.Stats().Snapshot()
	for _, sql := range []string{stmts[3], "SELECT l_orderkey, l_linenumber FROM lineitem ORDER BY l_orderkey, l_linenumber", stmts[4]} {
		if _, err := conns[0].Exec(sql); err == nil {
			t.Errorf("statement over a broken shard succeeded: %.60s", sql)
		}
	}
	if routes = sinst.Srv.Stats().Snapshot(); routes.HoistedSubqueries != routes0.HoistedSubqueries+1 || routes.RoutedFallback != routes0.RoutedFallback {
		t.Errorf("Q22 over the broken shard: %+v -> %+v; want its first stage to have succeeded and nothing to fall back", routes0, routes)
	}
	for wait := 0; runtime.NumGoroutine() > goroutines && wait < 100; wait++ {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after the failed statements, %d before", n, goroutines)
	}
	if left := spillLeftovers(t); len(left) > 0 {
		t.Errorf("failed statements leaked spill files: %v", left)
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

// TestShardRouteCensus pins the route of every MT-H query at 4 shards, o4,
// scope all, from the routing counters — so a classifier or decomposition
// regression fails here, by query and by name, not as a slower benchmark.
// What is left on the repartition fallback is listed with the classifier's
// reason (shard.TestAnalyzeReason pins the strings): none of the four is a
// closed scalar the staged plan (ADR-015) could take out.
func TestShardRouteCensus(t *testing.T) {
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
	conn.SetOptLevel(optimizer.O4)

	// A route is a set of counter deltas; a hoisted stage is a routed
	// statement of its own and adds its route's deltas to the statement's.
	type routes struct{ single, scatter, partial, fallback, hoisted int64 }
	var (
		single   = routes{single: 1}
		partial  = routes{scatter: 1, partial: 1}
		fallback = routes{scatter: 1, fallback: 1}
	)
	want := map[int]struct {
		routes
		why string
	}{
		1: {routes: partial}, 3: {routes: partial}, 4: {routes: partial}, 5: {routes: partial},
		6: {routes: partial}, 7: {routes: partial}, 8: {routes: partial}, 9: {routes: partial},
		10: {routes: partial}, 12: {routes: partial}, 14: {routes: partial}, 18: {routes: partial},
		19: {routes: partial}, 21: {routes: partial},
		2:  {single, "global tables only"},
		11: {single, "global tables only"},
		16: {single, "global tables only"},
		20: {fallback, "tenant rows only inside subqueries: supplier rows filtered by SUM(l_quantity) over every tenant's lineitem (scattered before PR 17, wrongly)"},
		13: {fallback, "derived table groups across tenants: c_orders counts per c_custkey, a value that collides between tenants"},
		15: {fallback, "view: revenue0 baked its tenant set at CREATE VIEW"},
		17: {fallback, "2 unlinked tenant components: the inner lineitem correlates through the global p_partkey only"},
		22: {routes{scatter: 2, partial: 2, hoisted: 1}, "partial, after the uncorrelated AVG(c_acctbal) ran as a partial of its own; NOT EXISTS links orders to customer"},

		101: {routes{scatter: 2, partial: 2, hoisted: 1}, "Q22's shape with a non-empty answer"},
		102: {routes{scatter: 2, partial: 1, hoisted: 1}, "merge, after a stage-1 partial that yields a NULL threshold"},
		103: {routes{scatter: 2, fallback: 1}, "a merged stage 1 yields two rows: the stage is abandoned, the original falls back"},
		104: {fallback, "as Q20"},
		105: {routes{scatter: 2, partial: 1, hoisted: 1}, "merge, after MAX(c_acctbal) ran as a partial"},
		106: {routes{scatter: 3, partial: 2, hoisted: 2}, "merge, after two stage-1 partials"},
		107: {routes{scatter: 2, partial: 1, hoisted: 1}, "as Q105, over orders"},
		108: {routes{scatter: 3, partial: 2, hoisted: 2}, "as Q106, over orders"},
		109: {routes{scatter: 3, partial: 3, hoisted: 2}, "partial, its BETWEEN bounds two stage-1 partials"},
		110: {routes{scatter: 3, partial: 2, hoisted: 2}, "merge, its IN-list members two stage-1 partials"},
		111: {partial, "GROUP BY cc resolves to the SUBSTRING it names (fell back before ADR-018)"},
		112: {partial, "GROUP BY band resolves to the CASE it names"},
	}
	for _, q := range append(Queries(cfg.SF), StagedExtras()...) {
		w, ok := want[q.ID]
		if !ok {
			t.Fatalf("Q%d has no census entry", q.ID)
		}
		b := sinst.Srv.Stats().Snapshot()
		res, err := RunOnMT(conn, q)
		a := sinst.Srv.Stats().Snapshot()
		got := routes{a.RoutedSingle - b.RoutedSingle, a.RoutedScatter - b.RoutedScatter, a.PartialsPushed - b.PartialsPushed,
			a.RoutedFallback - b.RoutedFallback, a.HoistedSubqueries - b.HoistedSubqueries}
		if got != w.routes {
			t.Errorf("Q%d routed %+v, want %+v (%s)", q.ID, got, w.routes, w.why)
		}
		switch q.ID {
		case 101, 105, 106, 107, 108, 110, 111, 112:
			if err != nil || len(res.Rows) == 0 {
				t.Errorf("Q%d must return rows to be a check at all: %v", q.ID, err)
			}
		case 102:
			if err != nil || len(res.Rows) != 0 {
				t.Errorf("Q102: a NULL threshold keeps no row: %v", err)
			}
		case 103:
			if err == nil || !strings.Contains(err.Error(), "scalar subquery returned") {
				t.Errorf("Q103: %v, want the engine's scalar-subquery error", err)
			}
		default:
			if err != nil {
				t.Errorf("Q%d: %v", q.ID, err)
			}
		}
	}
}

// cancelWhen is a context that reports cancellation from the moment when()
// first holds. The engine polls Err, so no Done channel is needed.
type cancelWhen struct {
	context.Context
	when func() bool
}

func (c *cancelWhen) Err() error {
	if c.when() {
		return context.Canceled
	}
	return nil
}

// TestShardStagedConcurrency (ADR-015 under ADR-012): eight sessions run the
// staged Q22 shape at once while two tenants insert and delete customer rows
// its predicates never keep. A stage's value lives in its statement's bind
// slice and nowhere else, so every execution answers what the unsharded tier
// answers, and the race detector sees no state shared between statements.
func TestShardStagedConcurrency(t *testing.T) {
	cfg := shardTestConfig()
	d := Generate(cfg)
	sinst, err := LoadMTSharded(d, 4)
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
	oconn, err := oinst.Connect(1, "IN ()")
	if err != nil {
		t.Fatal(err)
	}
	staged := StagedExtras()[0]
	res, err := RunOnMT(oconn, staged)
	if err != nil {
		t.Fatal(err)
	}
	want := exactKey(res)

	const sessions, rounds = 8, 12
	done := make(chan struct{})
	var writers, readers sync.WaitGroup
	for _, tenant := range []int64{2, 4} {
		w, err := sinst.Connect(tenant, "")
		if err != nil {
			t.Fatal(err)
		}
		// A phone no code list of the query starts with, in the tenant's format.
		insert := fmt.Sprintf(`INSERT INTO customer (c_custkey, c_name, c_address, c_nationkey, c_phone, c_acctbal, c_mktsegment, c_comment)
			VALUES (900001, 'churn', 'addr', 1, '%s', 1000000, 'BUILDING', 'written while staged statements run')`, d.ConvertPhone("99-000-000-0000", tenant))
		writers.Add(1)
		go func() {
			defer writers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, sql := range []string{insert, "DELETE FROM customer WHERE c_custkey = 900001"} {
					if _, err := w.Exec(sql); err != nil {
						t.Errorf("writer: %v", err)
						return
					}
				}
			}
		}()
	}
	before := sinst.Srv.Stats().Snapshot()
	for i := 0; i < sessions; i++ {
		conn, err := sinst.Connect(1, "IN ()")
		if err != nil {
			t.Fatal(err)
		}
		readers.Add(1)
		go func() {
			defer readers.Done()
			for n := 0; n < rounds; n++ {
				res, err := RunOnMT(conn, staged)
				if err != nil {
					t.Errorf("staged statement: %v", err)
					return
				}
				if got := exactKey(res); got != want {
					t.Errorf("staged statement beside writers differs from the unsharded answer\n got: %.300s\nwant: %.300s", got, want)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(done)
	writers.Wait()
	after := sinst.Srv.Stats().Snapshot()
	if h, f := after.HoistedSubqueries-before.HoistedSubqueries, after.RoutedFallback-before.RoutedFallback; h != sessions*rounds || f != 0 {
		t.Errorf("%d hoisted stages and %d fallbacks over %d executions, want one stage each and no fallback", h, f, sessions*rounds)
	}
}

// TestShardUnaliasedAggregateHeader: an aggregate the client did not alias is
// named by its *rewritten* text — conversions, o3's partial columns and o4's
// inlined joins included — so the partial route, whose combine statement can
// only carry an internal alias for it, restores the header the unsharded tier
// gives: byte for byte, at every level, without leaving the partial route.
func TestShardUnaliasedAggregateHeader(t *testing.T) {
	cfg := shardTestConfig()
	d := Generate(cfg)
	sinst, err := LoadMTSharded(d, 2)
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
	conn, err := sinst.Connect(1, "IN ()")
	if err != nil {
		t.Fatal(err)
	}
	oconn, err := oinst.Connect(1, "IN ()")
	if err != nil {
		t.Fatal(err)
	}
	stmts := []string{
		"SELECT AVG(c_acctbal) FROM customer",
		"SELECT COUNT(*) FROM orders",
		"SELECT SUM(o_totalprice) / COUNT(*), MAX(c_acctbal) FROM orders, customer WHERE o_custkey = c_custkey",
		"SELECT l_returnflag, SUM(l_extendedprice * (1 - l_discount)), 100.00 * AVG(l_discount) AS pct FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag",
		"SELECT COUNT(*), MIN(c_acctbal) FROM customer WHERE c_acctbal > (SELECT AVG(c_acctbal) FROM customer)",
	}
	for _, level := range allLevels {
		conn.SetOptLevel(level)
		oconn.SetOptLevel(level)
		for _, sql := range stmts {
			before := sinst.Srv.Stats().Snapshot()
			res, err := conn.Exec(sql)
			if err != nil {
				t.Fatalf("level=%v %s: %v", level, sql, err)
			}
			ores, err := oconn.Exec(sql)
			if err != nil {
				t.Fatalf("oracle level=%v %s: %v", level, sql, err)
			}
			if got, want := strings.Join(res.Cols, "\x00"), strings.Join(ores.Cols, "\x00"); got != want {
				t.Errorf("level=%v %s:\nheader %q\n  want %q", level, sql, res.Cols, ores.Cols)
			}
			if exactKey(res) != exactKey(ores) {
				t.Errorf("level=%v %s: rows differ from the unsharded answer", level, sql)
			}
			after := sinst.Srv.Stats().Snapshot()
			if after.PartialsPushed == before.PartialsPushed || after.RoutedFallback != before.RoutedFallback {
				t.Errorf("level=%v %s: routed %+v -> %+v, want the partial route", level, sql, before, after)
			}
			// Executed again, the header costs no second rewrite: the replica
			// serves the statement's text from its rewrite cache.
			_, misses := sinst.Srv.Replica().RewriteCacheStats()
			again, err := conn.Exec(sql)
			if err != nil {
				t.Fatalf("level=%v %s: re-executed: %v", level, sql, err)
			}
			if strings.Join(again.Cols, "\x00") != strings.Join(res.Cols, "\x00") {
				t.Errorf("level=%v %s: re-executed: header %q, first %q", level, sql, again.Cols, res.Cols)
			}
			if _, m := sinst.Srv.Replica().RewriteCacheStats(); m != misses {
				t.Errorf("level=%v %s: re-execution rewrote the statement on the replica %d time(s)", level, sql, m-misses)
			}
		}
	}
}
