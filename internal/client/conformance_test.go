package client_test

// Session conformance: one suite, written against middleware.Session, run
// over every tier a client can reach — the unsharded middleware.Conn, a
// two-shard shard.Conn, and client.Conn through a loopback mtserve. The
// wire transport has cursor and statement types of its own (client.Rows,
// client.Stmt), so the suite is generic over those two and the in-process
// instantiation is exactly middleware.Session; wireSession is the whole
// adapter the client needs.

import (
	"context"
	"errors"
	"strings"
	"testing"

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
)

type cursor interface {
	Next() bool
	Row() []sqltypes.Value
	Err() error
	Close() error
}

type statement[R cursor] interface {
	NumParams() int
	IsQuery() bool
	Close() error
	Query(args ...any) (R, error)
	QueryResult(args ...any) (*engine.Result, error)
	Exec(args ...any) (*engine.Result, error)
}

type session[R cursor, S statement[R]] interface {
	Exec(sql string) (*engine.Result, error)
	Query(sql string, args ...any) (*engine.Result, error)
	QueryContext(ctx context.Context, sql string, args ...any) (R, error)
	Prepare(sql string) (S, error)
}

// wireSession narrows client.Conn.Exec (which also takes bind arguments) to
// the session's Exec(sql).
type wireSession struct{ *client.Conn }

func (w wireSession) Exec(sql string) (*engine.Result, error) { return w.Conn.Exec(sql) }

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
		conformance[*engine.Rows, *middleware.Stmt](t, middleware.Connector(inst.Srv.Connect))
	})
	t.Run("shard", func(t *testing.T) {
		inst, err := mth.BuildMTSharded(conformanceCfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.GrantReadTo(1); err != nil {
			t.Fatal(err)
		}
		conformance[*engine.Rows, *middleware.Stmt](t, middleware.Connector(inst.Srv.Connect))
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
		conformance[*client.Rows, *client.Stmt](t, func(ttid int64) (wireSession, error) {
			c, err := client.Dial(addr.String(), ttid, "")
			if err != nil {
				return wireSession{}, err
			}
			t.Cleanup(func() { c.Close() })
			return wireSession{c}, nil
		})
	})
}

// conformance runs the suite on sessions opened by connect: the data
// modeller for the DDL, tenant 1 (who may read tenants 2 and 3) for the rest.
func conformance[R cursor, S statement[R], C session[R, S]](t *testing.T, connect func(ttid int64) (C, error)) {
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

	// Query is for queries only.
	if _, err := s.Query(`SET SCOPE = "IN (1)"`); err == nil {
		t.Fatal("Query accepted a non-SELECT")
	}

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
		if first, seen := acrossTiers[q.ordinal]; !seen {
			acrossTiers[q.ordinal] = got
		} else if got != first {
			t.Fatalf("%s differs from the first tier's answer:\n%s\nfirst:\n%s", q.ordinal, got, first)
		}
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
	// than anything a socket buffers, so the stream is still open.
	const big = `SELECT * FROM lineitem, nation`
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
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

	// Closing a cursor early leaves the session usable.
	rows, err = s.QueryContext(context.Background(), big)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() || len(rows.Row()) == 0 {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("early close: %v", err)
	}
	if n := one(s.Query(`SELECT COUNT(*) FROM region`)).AsInt(); n != 5 {
		t.Fatalf("after early close: %d regions", n)
	}
}
