package client_test

// Session conformance: one suite, written against middleware.Session, run
// over every tier a client can reach — the unsharded middleware.Conn, a
// two-shard shard.Conn, and client.Conn through a loopback mtserve. The three
// are one interface with one cursor (engine.Rows) and one prepared statement
// (middleware.Stmt), so the suite holds no adapter of its own.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"mtbase/internal/client"
	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/mth"
	"mtbase/internal/server"
	"mtbase/internal/shard"
	"mtbase/internal/sqltypes"
)

var (
	_ middleware.Session = (*middleware.Conn)(nil)
	_ middleware.Session = (*shard.Conn)(nil)
	_ middleware.Session = (*client.Conn)(nil)
)

// acrossTiers holds, per statement, the header and rows the first tier
// answered; every later tier must answer the same bytes.
var acrossTiers = map[string]string{}

var conformanceCfg = mth.Config{SF: 0.002, Tenants: 3, Dist: mth.Uniform, Seed: 3, Mode: engine.ModePostgres}

func TestSessionConformance(t *testing.T) {
	t.Run("middleware", func(t *testing.T) {
		inst, err := mth.BuildMT(conformanceCfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.GrantReadTo(1); err != nil {
			t.Fatal(err)
		}
		conformance(t, middleware.Connector(inst.Srv.Connect))
	})
	t.Run("shard", func(t *testing.T) {
		inst, err := mth.BuildMTSharded(conformanceCfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.GrantReadTo(1); err != nil {
			t.Fatal(err)
		}
		conformance(t, middleware.Connector(inst.Srv.Connect))
	})
	t.Run("client", func(t *testing.T) {
		inst, err := mth.BuildMT(conformanceCfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.GrantReadTo(1); err != nil {
			t.Fatal(err)
		}
		srv := server.New(inst.Srv, nil, server.Config{})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Shutdown(context.Background()) })
		conformance(t, func(ttid int64) (middleware.Session, error) {
			c, err := client.Dial(addr.String(), ttid, "")
			if err != nil {
				return nil, err
			}
			t.Cleanup(func() { c.Close() })
			return c, nil
		})
	})
}

// conformance runs the suite on sessions opened by connect: the data
// modeller for the DDL, tenant 1 (who may read tenants 2 and 3) for the rest.
func conformance(t *testing.T, connect func(ttid int64) (middleware.Session, error)) {
	admin, err := connect(mth.ModellerTTID)
	if err != nil {
		t.Fatal(err)
	}
	s, err := connect(1)
	if err != nil {
		t.Fatal(err)
	}
	one := func(res *engine.Result, err error) sqltypes.Value {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
			t.Fatalf("want one value, got %v", res.Rows)
		}
		return res.Rows[0][0]
	}
	affected := func(want int, res *engine.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if res.Affected != want {
			t.Fatalf("affected %d, want %d", res.Affected, want)
		}
	}

	// DDL, DML and SELECT all go through Exec.
	if _, err := admin.Exec(`CREATE TABLE conf_note SPECIFIC (
		n_id INTEGER NOT NULL SPECIFIC, n_text VARCHAR(20) NOT NULL COMPARABLE)`); err != nil {
		t.Fatal(err)
	}
	res, err := s.Exec(`INSERT INTO conf_note (n_id, n_text) VALUES (1, 'a'), (2, 'b')`)
	affected(2, res, err)
	if got := one(s.Exec(`SELECT n_text FROM conf_note WHERE n_id = 2`)).AsString(); got != "b" {
		t.Fatalf("SELECT through Exec: %q", got)
	}
	res, err = s.Exec(`DELETE FROM conf_note WHERE n_id = 2`)
	affected(1, res, err)

	// Query is for queries only: anything else is refused before it runs, with
	// the same error on every tier, through the text surface and through a
	// prepared handle alike.
	if _, err := s.Query(`SET SCOPE = "IN (1)"`); err == nil {
		t.Fatal("Query accepted a non-SELECT")
	}
	const orders = `SELECT COUNT(*) FROM orders`
	before := one(s.Query(orders)).AsInt()
	_, err = s.Query(`DELETE FROM orders`)
	if err == nil {
		t.Fatal("Query accepted a DELETE")
	}
	refused := err.Error()
	if _, err := s.QueryContext(context.Background(), `DELETE FROM orders`); err == nil || err.Error() != refused {
		t.Fatalf("QueryContext of a DELETE: %v, want %q", err, refused)
	}
	del, err := s.Prepare(`DELETE FROM orders WHERE o_orderkey > ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := del.Query(0); err == nil || err.Error() != refused {
		t.Fatalf("prepared DELETE's Query: %v, want %q", err, refused)
	}
	del.Close()
	if after := one(s.Query(orders)).AsInt(); before == 0 || after != before {
		t.Fatalf("refused DELETEs changed the orders: %d before, %d after", before, after)
	}
	agree(t, "refused DELETE", refused)

	// Prepared query: parameter count, arity check, execution.
	sel, err := s.Prepare(`SELECT n_text FROM conf_note WHERE n_id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()
	if sel.NumParams() != 1 || !sel.IsQuery() {
		t.Fatalf("prepared query: NumParams %d IsQuery %v", sel.NumParams(), sel.IsQuery())
	}
	if _, err := sel.QueryResult(); err == nil {
		t.Fatal("prepared query ran with a missing argument")
	}
	if got := one(sel.QueryResult(1)).AsString(); got != "a" {
		t.Fatalf("prepared query: %q", got)
	}
	// A closed handle refuses to run; another of the same text still does.
	again, err := s.Prepare(`SELECT n_text FROM conf_note WHERE n_id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if err := again.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := again.QueryResult(1); err == nil {
		t.Fatal("closed statement executed")
	}
	if got := one(sel.QueryResult(1)).AsString(); got != "a" {
		t.Fatalf("prepared query after closing its twin: %q", got)
	}

	// Prepared DML: not a query, binds reach the per-tenant rewrite.
	upd, err := s.Prepare(`UPDATE conf_note SET n_text = ? WHERE n_id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	defer upd.Close()
	if upd.NumParams() != 2 || upd.IsQuery() {
		t.Fatalf("prepared DML: NumParams %d IsQuery %v", upd.NumParams(), upd.IsQuery())
	}
	if _, err := upd.Query("x", 1); err == nil {
		t.Fatal("Query ran prepared DML")
	}
	res, err = upd.Exec("z", 1)
	affected(1, res, err)
	if got := one(sel.QueryResult(1)).AsString(); got != "z" {
		t.Fatalf("after prepared update: %q", got)
	}
	if _, err := s.Prepare(`CREATE TABLE nope (x INTEGER)`); err == nil {
		t.Fatal("Prepare accepted DDL")
	}

	// A prepared statement reads the session's scope at each execution.
	cnt, err := s.Prepare(`SELECT COUNT(*) FROM customer`)
	if err != nil {
		t.Fatal(err)
	}
	defer cnt.Close()
	own := one(cnt.QueryResult()).AsInt()
	if _, err := s.Exec(`SET SCOPE = "IN ()"`); err != nil {
		t.Fatal(err)
	}
	if all := one(cnt.QueryResult()).AsInt(); own == 0 || all <= own {
		t.Fatalf("COUNT(*) under {1} = %d, under all tenants = %d", own, all)
	}

	// Names that are not bare identifiers survive the rewritten text every
	// tier hands its engine: as an output alias, as a column, as a table.
	for _, alias := range []string{"my count", "select"} {
		res, err := s.Query(`SELECT COUNT(*) AS "` + alias + `" FROM customer`)
		if got := one(res, err).AsInt(); got != one(cnt.QueryResult()).AsInt() || res.Cols[0] != alias {
			t.Fatalf("quoted alias %q: %d under %v", alias, got, res.Cols)
		}
	}
	if _, err := admin.Exec(`CREATE TABLE "conf t" SPECIFIC ("a b" INTEGER NOT NULL COMPARABLE)`); err != nil {
		t.Fatal(err)
	}
	res, err = s.Exec(`INSERT INTO "conf t" ("a b") VALUES (7)`)
	affected(1, res, err)
	res, err = s.Query(`SELECT "a b" FROM "conf t"`)
	if got := one(res, err).AsInt(); got != 7 || res.Cols[0] != "a b" {
		t.Fatalf("quoted column and table: %d under %v", got, res.Cols)
	}

	// An integer ORDER BY key is the output position (SQL's ordinal), on the
	// single-engine route, through a scatter's merge keys and through a
	// partial-aggregate fold alike; out of range it is an error. The last
	// statement's un-aliased aggregates are headed by their rewritten text (at
	// o4 a COUNT is a SUM over per-tenant counts) — which a sharded tier asks
	// its replica for (middleware.Conn.Columns).
	render := func(res *engine.Result) string {
		out := strings.Join(res.Cols, "|")
		for _, row := range res.Rows {
			out += "\n"
			for _, v := range row {
				out += v.String() + "|"
			}
		}
		return out
	}
	for _, q := range []struct{ ordinal, named string }{
		{`SELECT c_custkey, c_name FROM customer ORDER BY 1`, `SELECT c_custkey, c_name FROM customer ORDER BY c_custkey`},
		{`SELECT c_custkey, c_name FROM customer ORDER BY 2 DESC`, `SELECT c_custkey, c_name FROM customer ORDER BY c_name DESC`},
		{`SELECT c_mktsegment, COUNT(*), SUM(c_acctbal) FROM customer GROUP BY c_mktsegment ORDER BY 2 DESC, 1`, ""},
	} {
		res, err := s.Query(q.ordinal)
		if err != nil {
			t.Fatalf("%s: %v", q.ordinal, err)
		}
		got := render(res)
		if q.named != "" {
			want, err := s.Query(q.named)
			if err != nil || got != render(want) || len(res.Rows) < 100 {
				t.Fatalf("%s answers differently from %s (%v)", q.ordinal, q.named, err)
			}
		} else if len(res.Rows) != 5 || !strings.Contains(res.Cols[1], "SUM(") || !strings.Contains(res.Cols[2], "SUM(") ||
			res.Rows[0][1].AsInt() < res.Rows[4][1].AsInt() {
			t.Fatalf("%s: %s", q.ordinal, got)
		}
		agree(t, q.ordinal, got)
	}
	for _, q := range []string{
		`SELECT c_custkey, c_name FROM customer ORDER BY 3`,
		`SELECT c_mktsegment, COUNT(*) FROM customer GROUP BY c_mktsegment ORDER BY 3`,
	} {
		if _, err := s.Query(q); err == nil || !strings.Contains(err.Error(), "ORDER BY position 3") {
			t.Fatalf("%s: %v, want an out-of-range error", q, err)
		}
	}

	// Cancelling the context mid-stream surfaces the context's error. The
	// result (every lineitem of three tenants x 25 nations) is far larger
	// than anything a socket buffers, so the stream is still open. Whatever
	// the cursor started — parallel workers, the shard tier's part drains,
	// the wire client's context watcher — is gone once it is closed.
	const big = `SELECT * FROM lineitem, nation`
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	goroutines := runtime.NumGoroutine()
	rows, err := s.QueryContext(ctx, big)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	for rows.Next() {
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("after cancel: want context.Canceled, got %v", rows.Err())
	}
	rows.Close()
	settled(t, "cancel", goroutines)

	// Closing a cursor early leaves the session usable — under a context that
	// is still live, so nothing ends by the context alone.
	live, stop := context.WithCancel(context.Background())
	defer stop()
	goroutines = runtime.NumGoroutine()
	rows, err = s.QueryContext(live, big)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() || len(rows.Row()) == 0 {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("early close: %v", err)
	}
	settled(t, "early close", goroutines)
	if n := one(s.Query(`SELECT COUNT(*) FROM region`)).AsInt(); n != 5 {
		t.Fatalf("after early close: %d regions", n)
	}
}

// agree holds every tier to the answer the first tier gave under key.
func agree(t *testing.T, key, got string) {
	t.Helper()
	if first, seen := acrossTiers[key]; !seen {
		acrossTiers[key] = got
	} else if got != first {
		t.Fatalf("%s differs from the first tier's answer:\n%s\nfirst:\n%s", key, got, first)
	}
}

// settled waits until the goroutine count is back at before, failing with
// every goroutine's stack if it is not within a few seconds.
func settled(t *testing.T, arm string, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%s: %d goroutines, %d before the query:\n%s", arm, runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
