package server_test

// End-to-end acceptance for mtserve: the full MT-H query suite over a real
// TCP socket must return byte-identical results to the in-process
// middleware path at every optimization level; admission control,
// cancellation, graceful shutdown and the Stats message behave per the
// protocol contract.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mtbase/internal/client"
	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/mth"
	"mtbase/internal/optimizer"
	"mtbase/internal/server"
	"mtbase/internal/wire"
)

// exactKey renders a result order- and type-sensitively: the differential
// claim is byte identity, not multiset equality.
func exactKey(res *engine.Result) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Cols, "|"))
	sb.WriteByte('\n')
	for _, row := range res.Rows {
		for j, v := range row {
			if j > 0 {
				sb.WriteByte('|')
			}
			fmt.Fprintf(&sb, "%v:%s", v.K, v.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

var (
	e2eOnce sync.Once
	e2eInst *mth.Instance
	e2eSrv  *server.Server
	e2eAddr string
	e2eErr  error
)

// e2e lazily builds one shared small instance served over a loopback
// socket; tests share it read-mostly.
func e2e(t *testing.T) (*mth.Instance, string) {
	t.Helper()
	e2eOnce.Do(func() {
		cfg := mth.Config{SF: 0.002, Tenants: 3, Dist: mth.Uniform, Seed: 7, Mode: engine.ModePostgres}
		e2eInst, e2eErr = mth.BuildMT(cfg)
		if e2eErr != nil {
			return
		}
		for c := int64(1); c <= 3; c++ {
			if e2eErr = e2eInst.GrantReadTo(c); e2eErr != nil {
				return
			}
		}
		e2eSrv = server.New(e2eInst.Srv, nil, server.Config{})
		addr, err := e2eSrv.Listen("127.0.0.1:0")
		if err != nil {
			e2eErr = err
			return
		}
		e2eAddr = addr.String()
	})
	if e2eErr != nil {
		t.Fatal(e2eErr)
	}
	return e2eInst, e2eAddr
}

// TestE2EQueriesByteIdentical is the tentpole acceptance test: Q1–Q22 over
// TCP, at every optimization level, against the in-process path on the
// same instance.
func TestE2EQueriesByteIdentical(t *testing.T) {
	inst, addr := e2e(t)
	local, err := inst.Connect(1, "IN ()")
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range optimizer.Levels {
		remote, err := client.Dial(addr, 1, level.String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := remote.Exec(`SET SCOPE = "IN ()"`); err != nil {
			t.Fatal(err)
		}
		local.SetOptLevel(level)
		for _, q := range mth.Queries(inst.Cfg.SF) {
			want, err := mth.RunOnMT(local, q)
			if err != nil {
				t.Fatalf("%s Q%d local: %v", level, q.ID, err)
			}
			for _, s := range q.Setup {
				if _, err := remote.Exec(s); err != nil {
					t.Fatalf("%s Q%d setup: %v", level, q.ID, err)
				}
			}
			got, err := remote.Query(q.SQL)
			for _, s := range q.Teardown {
				if _, terr := remote.Exec(s); terr != nil && err == nil {
					err = terr
				}
			}
			if err != nil {
				t.Fatalf("%s Q%d remote: %v", level, q.ID, err)
			}
			if exactKey(got) != exactKey(want) {
				t.Fatalf("%s Q%d: remote result differs from in-process", level, q.ID)
			}
		}
		remote.Close()
	}
}

func TestE2EPreparedStatements(t *testing.T) {
	inst, addr := e2e(t)
	remote, err := client.Dial(addr, 1, "o3")
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if _, err := remote.Exec(`SET SCOPE = "IN ()"`); err != nil {
		t.Fatal(err)
	}
	local, err := inst.Connect(1, "IN ()")
	if err != nil {
		t.Fatal(err)
	}
	local.SetOptLevel(optimizer.O3)

	const sql = `SELECT c_custkey, c_name FROM customer WHERE c_acctbal > ? AND c_nationkey < ? ORDER BY c_custkey LIMIT 10`
	rst, err := remote.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if rst.NumParams() != 2 || !rst.IsQuery() {
		t.Fatalf("prepared meta: %d params, query=%v", rst.NumParams(), rst.IsQuery())
	}
	lst, err := local.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, bal := range []float64{0, 1000, 5000} {
		want, err := lst.QueryResult(bal, int64(20))
		if err != nil {
			t.Fatal(err)
		}
		got, err := rst.QueryResult(bal, int64(20))
		if err != nil {
			t.Fatal(err)
		}
		if exactKey(got) != exactKey(want) {
			t.Fatalf("prepared bal=%v differs", bal)
		}
	}
	// Bind arity failure answers both pipelined replies deterministically,
	// and the connection stays usable.
	if _, err := rst.QueryResult(1.0); wire.ErrCode(err) != wire.CodeBind {
		t.Fatalf("bad arity: %v", err)
	}
	if _, err := rst.QueryResult(0.0, int64(20)); err != nil {
		t.Fatalf("connection unusable after bind error: %v", err)
	}
	if err := rst.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rst.QueryResult(0.0, int64(20)); err == nil {
		t.Fatal("closed statement executed")
	}
}

func TestE2EStatsAndExplain(t *testing.T) {
	_, addr := e2e(t)
	remote, err := client.Dial(addr, 1, "o3")
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if _, err := remote.Query(`SELECT COUNT(*) FROM customer`); err != nil {
		t.Fatal(err)
	}
	pairs, err := remote.Stats()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int64{}
	for _, p := range pairs {
		byName[p.Name] = p.Value
	}
	if byName["engine.rows_streamed"] <= 0 {
		t.Fatalf("no engine counters over the wire: %v", pairs)
	}
	if byName["server.statements"] <= 0 || byName["server.sessions_open"] <= 0 {
		t.Fatalf("no server counters: %v", pairs)
	}
	plan, err := remote.RewriteSQL(`SELECT c_name FROM customer WHERE c_custkey = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "ttid") {
		t.Fatalf("explain returned no rewritten SQL: %s", plan)
	}
}

func TestE2ETypedErrors(t *testing.T) {
	_, addr := e2e(t)
	remote, err := client.Dial(addr, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	// Text is parsed on the client, as in process: a parse error is the
	// parser's own and nothing reaches the server.
	_, want := middleware.Parse(`SELEC nonsense`)
	if _, err := remote.Query(`SELEC nonsense`); err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("parse error: %v, want %v", err, want)
	}
	// The server types the same text when a raw-protocol client sends it.
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteFrame(nc, wire.MsgHello, wire.EncodeHello(wire.Hello{Version: wire.MaxVersion, Tenant: 1})); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := wire.ReadFrame(nc); err != nil || mt != wire.MsgHelloOK {
		t.Fatalf("handshake: %v %v", mt, err)
	}
	if err := wire.WriteFrame(nc, wire.MsgQuery, wire.EncodeQuery(wire.Query{SQL: `SELEC nonsense`})); err != nil {
		t.Fatal(err)
	}
	mt, payload, err := wire.ReadFrame(nc)
	if err != nil || mt != wire.MsgError {
		t.Fatalf("raw parse error: %v %v", mt, err)
	}
	if e, err := wire.DecodeError(payload); err != nil || wire.ErrCode(e) != wire.CodeParse {
		t.Fatalf("raw parse error: %v %v", e, err)
	}
	if _, err := remote.Query(`SELECT no_such_col FROM customer`); wire.ErrCode(err) != wire.CodeExec {
		t.Fatalf("exec error: %v", err)
	}
	// The session survives statement errors.
	if _, err := remote.Query(`SELECT COUNT(*) FROM customer`); err != nil {
		t.Fatalf("session dead after errors: %v", err)
	}
	if _, err := client.Dial(addr, 999, ""); wire.ErrCode(err) != wire.CodeAuth {
		t.Fatalf("unknown tenant: %v", err)
	}
}

func TestAdmissionLimits(t *testing.T) {
	cfg := mth.Config{SF: 0.001, Tenants: 2, Dist: mth.Uniform, Seed: 1, Mode: engine.ModePostgres}
	inst, err := mth.BuildMT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(inst.Srv, nil, server.Config{Limits: server.Limits{
		TenantConns: 1,
		StmtRate:    1, StmtBurst: 2, MaxStmtWait: 0,
	}})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	c1, err := client.Dial(addr.String(), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := client.Dial(addr.String(), 1, ""); wire.ErrCode(err) != wire.CodeTooManyConns {
		t.Fatalf("second tenant-1 connection: %v", err)
	}
	// A different tenant still connects.
	c2, err := client.Dial(addr.String(), 2, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// Burst of 2 statements passes, the third trips the token bucket.
	var rateErr error
	for i := 0; i < 3; i++ {
		if _, err := c1.Query(`SELECT COUNT(*) FROM customer`); err != nil {
			rateErr = err
			break
		}
	}
	if wire.ErrCode(rateErr) != wire.CodeRateLimited {
		t.Fatalf("rate limit: %v", rateErr)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	cfg := mth.Config{SF: 0.002, Tenants: 2, Dist: mth.Uniform, Seed: 3, Mode: engine.ModePostgres}
	inst, err := mth.BuildMT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(inst.Srv, nil, server.Config{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(addr.String(), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	// A streaming statement started before Shutdown finishes cleanly.
	rows, err := c.QueryRows(`SELECT c_custkey FROM customer ORDER BY c_custkey`)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	n := 0
	for rows.Next() {
		n++
	}
	if rows.Err() != nil || n == 0 {
		t.Fatalf("drained stream: n=%d err=%v", n, rows.Err())
	}
	rows.Close()
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// New connections are refused after shutdown.
	if _, err := client.Dial(addr.String(), 1, ""); err == nil {
		t.Fatal("connected to a stopped server")
	}
}

// TestDisconnectMidQueryCleansSpills is the fault-path acceptance: a
// client that vanishes mid-stream aborts the statement at the next batch
// boundary and every spill file the query produced is released.
func TestDisconnectMidQueryCleansSpills(t *testing.T) {
	cfg := mth.Config{SF: 0.005, Tenants: 2, Dist: mth.Uniform, Seed: 5, Mode: engine.ModePostgres}
	inst, err := mth.BuildMT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := int64(1); c <= 2; c++ {
		if err := inst.GrantReadTo(c); err != nil {
			t.Fatal(err)
		}
	}
	spillDir := t.TempDir()
	db := inst.Srv.DB()
	db.SetSpillDir(spillDir)
	db.SetMemoryLimit(64 << 10) // force spilling on any real sort
	srv := server.New(inst.Srv, nil, server.Config{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	// Raw wire session: handshake, fire a spill-heavy streaming query,
	// read a bit, then slam the socket shut mid-stream.
	nc, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	hello := wire.EncodeHello(wire.Hello{Version: wire.MaxVersion, Tenant: 1})
	if err := wire.WriteFrame(nc, wire.MsgHello, hello); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := wire.ReadFrame(nc); err != nil || mt != wire.MsgHelloOK {
		t.Fatalf("handshake: %v %v", mt, err)
	}
	scope := wire.EncodeQuery(wire.Query{SQL: `SET SCOPE = "IN ()"`})
	wire.WriteFrame(nc, wire.MsgQuery, scope)
	if mt, _, err := wire.ReadFrame(nc); err != nil || mt != wire.MsgDone {
		t.Fatalf("scope: %v %v", mt, err)
	}
	q := wire.EncodeQuery(wire.Query{SQL: `SELECT * FROM lineitem ORDER BY l_comment`})
	if err := wire.WriteFrame(nc, wire.MsgQuery, q); err != nil {
		t.Fatal(err)
	}
	if mt, _, err := wire.ReadFrame(nc); err != nil || mt != wire.MsgRowHeader {
		t.Fatalf("header: %v %v", mt, err)
	}
	if mt, _, err := wire.ReadFrame(nc); err != nil || mt != wire.MsgRowBatch {
		t.Fatalf("first batch: %v %v", mt, err)
	}
	nc.Close() // vanish mid-stream

	deadline := time.Now().Add(10 * time.Second)
	for {
		entries, err := os.ReadDir(spillDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) == 0 {
			break
		}
		if time.Now().After(deadline) {
			names := make([]string, len(entries))
			for i, e := range entries {
				names[i] = filepath.Join(spillDir, e.Name())
			}
			t.Fatalf("spill files leaked after disconnect: %v", names)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if snap := db.Stats.Snapshot(); snap.SpillRuns == 0 {
		t.Fatal("query did not spill; the test exercised nothing")
	}
}

// TestCancelMidStream exercises the protocol-level Cancel: a context
// cancellation client-side aborts the statement and frees the connection.
func TestCancelMidStream(t *testing.T) {
	_, addr := e2e(t)
	remote, err := client.Dial(addr, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if _, err := remote.Exec(`SET SCOPE = "IN ()"`); err != nil {
		t.Fatal(err)
	}
	rows, err := remote.QueryRows(`SELECT * FROM lineitem ORDER BY l_comment`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("early close: %v", err)
	}
	// The connection is immediately reusable.
	res, err := remote.Query(`SELECT COUNT(*) FROM customer`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("after cancel: %v", err)
	}

	// The ad-hoc path under a context: cancelling it mid-stream ends the
	// cursor with the context's error (the server reports the failure as
	// cancelled, which the client maps back), and the session lives on.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err = remote.QueryContext(ctx, `SELECT * FROM lineitem, nation`)
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
		t.Fatalf("ad-hoc cancel: want context.Canceled, got %v", rows.Err())
	}
	if res, err = remote.Query(`SELECT COUNT(*) FROM customer`); err != nil || len(res.Rows) != 1 {
		t.Fatalf("after ad-hoc cancel: %v", err)
	}
}

// countWrites is a listener whose connections count the writes made on them.
type countWrites struct {
	net.Listener
	n *atomic.Int64
}

func (l countWrites) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return writeCounted{nc, l.n}, nil
}

type writeCounted struct {
	net.Conn
	n *atomic.Int64
}

func (c writeCounted) Write(p []byte) (int, error) {
	c.n.Add(1)
	return c.Conn.Write(p)
}

// TestPipelinedGroupOneWrite: the server answers a pipelined request group
// in one write on its socket — a one-row prepared read's Bind and Execute
// (and, the first time, its Prepare) get every answer frame together — and
// still flushes a long stream batch by batch, its last partial batch riding
// with Done.
func TestPipelinedGroupOneWrite(t *testing.T) {
	inst, _ := e2e(t)
	srv := server.New(inst.Srv, nil, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var writes atomic.Int64
	go srv.Serve(countWrites{ln, &writes})
	defer srv.Shutdown(context.Background())
	remote, err := client.Dial(ln.Addr().String(), 1, "o4")
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	point, err := remote.Prepare(`SELECT c_name FROM customer WHERE c_custkey = ?`)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := remote.Query(`SELECT c_custkey FROM customer ORDER BY c_custkey LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys.Rows) != 3 {
		t.Fatalf("%d customer keys, want 3", len(keys.Rows))
	}
	for _, row := range keys.Rows {
		key := row[0].I
		writes.Store(0)
		res, err := point.QueryResult(key)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("c_custkey = %d: %d rows, want 1", key, len(res.Rows))
		}
		if n := writes.Load(); n != 1 {
			t.Errorf("c_custkey = %d answered in %d writes, want 1", key, n)
		}
	}

	scan, err := remote.Prepare(`SELECT l_orderkey, l_linenumber FROM lineitem WHERE l_quantity > ?`)
	if err != nil {
		t.Fatal(err)
	}
	writes.Store(0)
	res, err := scan.QueryResult(int64(0))
	if err != nil {
		t.Fatal(err)
	}
	const batchRows = 256 // server.batchRows: the rows of one RowBatch frame
	if len(res.Rows) < 4*batchRows {
		t.Fatalf("%d rows: the stream must span several batches", len(res.Rows))
	}
	if n, want := writes.Load(), int64(len(res.Rows)/batchRows+1); n != want {
		t.Errorf("%d rows answered in %d writes, want %d: one per full batch, then the rest with Done", len(res.Rows), n, want)
	}
}
