package mth

// The coordinator replica's folds (DESIGN.md ADR-031) off the happy path: a
// data-dependent scope, resolved globally before routing, and a panic in one
// shard's part of a cross-shard statement.

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/optimizer"
	"mtbase/internal/sqltypes"
)

// TestShardComplexScopeDifferential: under a complex scope (SET SCOPE =
// "FROM … WHERE …") the sharded tier resolves D globally — each shard judges
// the tenants it owns — and then routes like any other scope: two plain scans
// fold on the replica, a grouped aggregate pushes partials, and CREATE VIEW
// bakes the globally resolved tenant set, so reading the view back falls back
// over every shard. Every outcome is byte-identical to the unsharded tier on
// the same rows, over shards {1, 2, 4} at canonical and o4, and for a scope no
// tenant satisfies.
func TestShardComplexScopeDifferential(t *testing.T) {
	d := Generate(shardTestConfig())
	scopes := []string{
		"FROM customer WHERE c_acctbal > 9000",
		"FROM customer WHERE c_mktsegment = 'BUILDING'",
		"FROM orders WHERE o_totalprice > 400000", // no order is that large: D is empty
	}
	scans := []string{
		"SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_acctbal > 0 ORDER BY c_acctbal DESC, c_custkey LIMIT 7",
		"SELECT o_orderkey, o_custkey, o_orderdate FROM orders ORDER BY o_orderdate, 1",
	}
	stmts := append(scans,
		"SELECT c_mktsegment, COUNT(*) AS n, SUM(c_acctbal) AS s FROM customer GROUP BY c_mktsegment ORDER BY c_mktsegment",
		"CREATE VIEW scoped_customers AS SELECT c_custkey, c_name, c_acctbal FROM customer",
		"SELECT c_custkey, c_name, c_acctbal FROM scoped_customers ORDER BY c_custkey",
		"DROP VIEW scoped_customers",
	)
	levels := []optimizer.Level{optimizer.Canonical, optimizer.O4}

	run := func(t *testing.T, conn middleware.Session) []string {
		t.Helper()
		var out []string
		for _, scope := range scopes {
			if _, err := conn.Exec(fmt.Sprintf("SET SCOPE = \"%s\"", scope)); err != nil {
				t.Fatalf("scope %s: %v", scope, err)
			}
			for _, level := range levels {
				if err := conn.SetOptLevel(level); err != nil {
					t.Fatal(err)
				}
				for _, sql := range stmts {
					res, err := conn.Exec(sql)
					out = append(out, fmt.Sprintf("%s | %v | %s\n%s", scope, level, sql, outcomeKey(res, err)))
				}
			}
		}
		return out
	}

	oinst, err := LoadMT(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := oinst.GrantReadTo(1); err != nil {
		t.Fatal(err)
	}
	oconn, err := oinst.Connect(1, "")
	if err != nil {
		t.Fatal(err)
	}
	want := run(t, oconn)
	if all := strings.Join(want, ""); strings.Contains(all, "error:") {
		t.Fatalf("a statement fails unsharded:\n%s", all)
	}
	empty := fmt.Sprintf("%s | %v | %s\n", scopes[2], levels[0], scans[0])
	for _, o := range want {
		if strings.HasPrefix(o, empty) && strings.Count(o, "\n") != 2 {
			t.Fatalf("scope %q selects rows unsharded; it is meant to resolve to an empty D:\n%s", scopes[2], o)
		}
	}

	for _, nshards := range []int{1, 2, 4} {
		sinst, err := LoadMTSharded(d, nshards)
		if err != nil {
			t.Fatal(err)
		}
		if err := sinst.GrantReadTo(1); err != nil {
			t.Fatal(err)
		}
		conn, err := sinst.Connect(1, "")
		if err != nil {
			t.Fatal(err)
		}
		got := run(t, conn)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("shards=%d: differs from the unsharded tier\n got: %.600s\nwant: %.600s", nshards, got[i], want[i])
			}
		}

		// The scans take the plain route: a fold on the replica, counted as a
		// scatter and nothing else, whenever the scope's tenants span shards.
		if nshards == 1 {
			continue
		}
		if _, err := conn.Exec(fmt.Sprintf("SET SCOPE = \"%s\"", scopes[1])); err != nil {
			t.Fatal(err)
		}
		for _, sql := range scans {
			before := sinst.Srv.Stats().Snapshot()
			if _, err := conn.Exec(sql); err != nil {
				t.Fatal(err)
			}
			after := sinst.Srv.Stats().Snapshot()
			if after.RoutedScatter != before.RoutedScatter+1 || after.RoutedSingle != before.RoutedSingle ||
				after.RoutedFallback != before.RoutedFallback || after.PartialsPushed != before.PartialsPushed {
				t.Errorf("shards=%d %s: routed %+v -> %+v, want one plain scatter", nshards, sql, before, after)
			}
		}
	}
}

// TestShardPanicIsTheStatementsError: a panic in one shard's part of a
// cross-shard statement — a plain scan and a partial aggregate — is that
// statement's ErrInternal, counted once over every engine of the deployment,
// with no spill file and no goroutine left behind, and the session's next
// statement runs. The panic is a UDF whose body reads a row one shard holds
// short: its projection indexes past the row's end for one late order key, so
// the shard's sort has spilled under its 16 KB cap when it fires.
func TestShardPanicIsTheStatementsError(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	sinst, err := LoadMTSharded(Generate(shardTestConfig()), 4)
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
	engines := []*engine.DB{sinst.Srv.Replica().DB()}
	for _, sh := range sinst.Srv.Shards() {
		engines = append(engines, sh.DB())
	}
	for _, db := range engines {
		if _, err := db.ExecScript(`
			CREATE TABLE mt_boom_arg (k INTEGER, b INTEGER);
			CREATE FUNCTION mt_boom (INTEGER) RETURNS INTEGER
				AS 'SELECT b FROM mt_boom_arg WHERE k = $1' LANGUAGE SQL IMMUTABLE`); err != nil {
			t.Fatal(err)
		}
		db.SetMemoryLimit(16 << 10)
	}
	// The last lineitem tenant 2's shard holds: its order key has a short row
	// there.
	boom := sinst.Srv.Shards()[sinst.Srv.ShardOf(2)].DB()
	lineitem := boom.Table("lineitem")
	heap := lineitem.Heap()
	key := heap[len(heap)-1][lineitem.ColIndex("l_orderkey")]
	boom.Table("mt_boom_arg").AppendRow([]sqltypes.Value{key})

	panics := func() int64 {
		var n int64
		for _, db := range engines {
			n += db.Stats.Panics.Load()
		}
		return n
	}
	for _, tc := range []struct {
		sql    string
		spills bool // the shard's sort has written runs when the panic fires
	}{
		{"SELECT l_orderkey, l_linenumber, l_comment, mt_boom(l_orderkey) AS b FROM lineitem ORDER BY l_comment, l_orderkey, l_linenumber", true},
		{"SELECT l_returnflag, COUNT(*) AS n, SUM(mt_boom(l_orderkey)) AS s FROM lineitem GROUP BY l_returnflag", false},
	} {
		sql := tc.sql
		before, runs, goroutines := panics(), boom.Stats.SpillRuns.Load(), runtime.NumGoroutine()
		_, err := conn.Exec(sql)
		if !errors.Is(err, engine.ErrInternal) || !strings.Contains(err.Error(), "index out of range") {
			t.Fatalf("%s: got %v, want ErrInternal carrying the panic", sql, err)
		}
		if got := panics() - before; got != 1 {
			t.Errorf("%s: engine.panics moved by %d, want 1", sql, got)
		}
		if spilled := boom.Stats.SpillRuns.Load() > runs; tc.spills && !spilled {
			t.Errorf("%s: the shard wrote no spill run before the panic", sql)
		}
		if left := spillLeftovers(t); len(left) > 0 {
			t.Errorf("%s: spill files left behind: %v", sql, left)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > goroutines {
			t.Errorf("%s: %d goroutines after the statement, %d before", sql, n, goroutines)
		}
		res, err := conn.Exec("SELECT COUNT(*) AS n FROM customer")
		if err != nil || res.Rows[0][0].AsInt() == 0 {
			t.Fatalf("%s: the next statement: %v %v", sql, res, err)
		}
	}
}
