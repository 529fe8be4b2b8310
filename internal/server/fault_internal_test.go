package server

// Regression tests for fault paths that need package internals: admission
// slot accounting across handshake failures, and snapshot WaitGroup
// accounting across WAL sync failures.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"mtbase/internal/client"
	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/mth"
	"mtbase/internal/sqltypes"
	"mtbase/internal/wal"
	"mtbase/internal/wire"
)

// TestHandshakeFailureReleasesConnSlot: a client that vanishes between
// Hello and the HelloOK flush must not leak its admission slot — with
// TenantConns=1 a leaked slot locks the tenant out forever. net.Pipe makes
// the flush failure deterministic: the peer closes before reading HelloOK.
func TestHandshakeFailureReleasesConnSlot(t *testing.T) {
	cfg := mth.Config{SF: 0.001, Tenants: 1, Dist: mth.Uniform, Seed: 1, Mode: engine.ModePostgres}
	inst, err := mth.BuildMT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(inst.Srv, nil, Config{Limits: Limits{TenantConns: 1}})

	clientSide, serverSide := net.Pipe()
	defer serverSide.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sess := &session{
		srv: srv, id: 1, nc: serverSide,
		br: bufio.NewReader(serverSide), bw: bufio.NewWriter(serverSide),
		ctx: ctx, cancel: cancel,
	}
	done := make(chan error, 1)
	go func() { done <- sess.handshake() }()
	hello := wire.EncodeHello(wire.Hello{Version: wire.MaxVersion, Tenant: 1})
	if err := wire.WriteFrame(clientSide, wire.MsgHello, hello); err != nil {
		t.Fatal(err)
	}
	clientSide.Close() // vanish before reading HelloOK; the server's flush fails
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("handshake succeeded against a closed pipe")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handshake did not return")
	}
	if e := srv.adm.acquireConn(1); e != nil {
		t.Fatalf("conn slot leaked by failed handshake: %v", e)
	}
	srv.adm.releaseConn(1)
}

// cancelledOpen is a session whose statements fail only after the client's
// Cancel has landed — the deterministic form of a statement that is
// cancelled while it is still opening (a scatter draining its partials, a
// write waiting on the engine lock).
type cancelledOpen struct {
	middleware.Session
	sess *session
}

func (c cancelledOpen) QueryStmt(context.Context, *middleware.Statement, []sqltypes.Value) (*engine.Rows, error) {
	c.sess.cancelStmt()
	return nil, context.Canceled
}

func (c cancelledOpen) ExecStmt(context.Context, *middleware.Statement, []sqltypes.Value) (*engine.Result, error) {
	c.sess.cancelStmt()
	return nil, context.Canceled
}

// TestCancelledAtOpenIsTypedCancelled: every statement kind that fails while
// its context is cancelled answers `cancelled`, ad-hoc SELECT and SET SCOPE
// included (they used to answer `exec`, unlike the prepared path and DML).
func TestCancelledAtOpenIsTypedCancelled(t *testing.T) {
	cfg := mth.Config{SF: 0.001, Tenants: 1, Dist: mth.Uniform, Seed: 1, Mode: engine.ModePostgres}
	inst, err := mth.BuildMT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := inst.Srv.Connect(1)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sess := &session{
		srv: New(inst.Srv, nil, Config{}), tenant: 1,
		bw: bufio.NewWriter(&out), ctx: context.Background(),
	}
	sess.conn = cancelledOpen{Session: conn, sess: sess}
	for _, sql := range []string{
		`SELECT COUNT(*) FROM customer`,
		`SET SCOPE = "IN ()"`,
		`DELETE FROM customer WHERE c_custkey = 1`,
	} {
		out.Reset()
		if !sess.handleQuery(wire.EncodeQuery(wire.Query{SQL: sql})) {
			t.Fatalf("%s: session did not survive", sql)
		}
		sess.bw.Flush()
		typ, payload, err := wire.ReadFrame(bufio.NewReader(&out))
		if err != nil || typ != wire.MsgError {
			t.Fatalf("%s: want an Error frame, got %s %v", sql, typ, err)
		}
		if e, _ := wire.DecodeError(payload); e == nil || e.Code != wire.CodeCancelled {
			t.Errorf("%s: answered %v, want code %q", sql, e, wire.CodeCancelled)
		}
	}
}

// countedSession counts what the served path asks of its session and
// remembers the statement values that crossed.
type countedSession struct {
	middleware.Session
	resolved, queried []*middleware.Statement
}

func (c *countedSession) Statement(sql string) (*middleware.Statement, error) {
	st, err := c.Session.Statement(sql)
	c.resolved = append(c.resolved, st)
	return st, err
}

func (c *countedSession) QueryStmt(ctx context.Context, st *middleware.Statement, args []sqltypes.Value) (*engine.Rows, error) {
	c.queried = append(c.queried, st)
	return c.Session.QueryStmt(ctx, st, args)
}

// TestAdHocStatementParsedOnce: a served ad-hoc statement is resolved to its
// Statement once — one middleware.Parse on a new text, none on a repeated one
// — and that one value is what the session's core executes: the server has no
// parser of its own (TestSessionSeam) and hands no text further down. The
// statement cache is the witness: the value served is the value it holds, a
// first serve is its one miss and a second its one hit.
func TestAdHocStatementParsedOnce(t *testing.T) {
	cfg := mth.Config{SF: 0.001, Tenants: 1, Dist: mth.Uniform, Seed: 1, Mode: engine.ModePostgres}
	inst, err := mth.BuildMT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := inst.Srv.Connect(1)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	counted := &countedSession{Session: conn}
	sess := &session{
		srv: New(inst.Srv, nil, Config{}), tenant: 1, conn: counted,
		bw: bufio.NewWriter(&out), ctx: context.Background(),
	}
	const text = `SELECT COUNT(*) FROM region WHERE r_regionkey = 3`
	hits0, misses0 := inst.Srv.RewriteCacheStats()
	for i := 0; i < 2; i++ {
		if !sess.handleQuery(wire.EncodeQuery(wire.Query{SQL: text})) {
			t.Fatal("session did not survive")
		}
	}
	if len(counted.resolved) != 2 || len(counted.queried) != 2 {
		t.Fatalf("two served statements resolved %d texts and ran %d queries", len(counted.resolved), len(counted.queried))
	}
	first := counted.resolved[0]
	for i, st := range append(counted.resolved[1:], counted.queried...) {
		if st != first {
			t.Errorf("statement value %d differs from the first one resolved: the text was parsed again", i+1)
		}
	}
	if cached, _ := conn.Statement(text); cached != first {
		t.Error("the statement cache does not hold the value the served path executed")
	}
	hits, misses := inst.Srv.RewriteCacheStats()
	if hits-hits0 != 1 || misses-misses0 != 1 {
		t.Errorf("two serves of one new text: %d hits / %d misses, want 1/1", hits-hits0, misses-misses0)
	}
}

// shortRows is a session whose queries over region read it as a statement-
// local relation with a row shorter than the table's schema — what a shard
// handing the coordinator a malformed partial would be. Evaluating a column
// past the row's end panics inside the operator tree.
type shortRows struct {
	middleware.Session
	db *engine.DB
}

func (c shortRows) QueryStmt(ctx context.Context, st *middleware.Statement, args []sqltypes.Value) (*engine.Rows, error) {
	if reads := st.Tables().Reads; len(reads) != 1 || reads[0] != "region" {
		return c.Session.QueryStmt(ctx, st, args)
	}
	sel, _ := st.Select()
	return c.db.QueryWith(ctx, sel, args, engine.Relation{Name: "region", Rows: [][]sqltypes.Value{{sqltypes.NewInt(1)}}})
}

// TestPanicIsAnErrorFrame: a statement that panics in the engine answers an
// `internal` error frame; its session goes on, its admission slot is returned
// (the tenant's quota is one statement in flight), and another tenant's
// session never notices.
func TestPanicIsAnErrorFrame(t *testing.T) {
	cfg := mth.Config{SF: 0.001, Tenants: 2, Dist: mth.Uniform, Seed: 1, Mode: engine.ModePostgres}
	inst, err := mth.BuildMT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(inst.Srv, nil, Config{Limits: Limits{TenantInflight: 1}})
	plain := srv.connect
	srv.connect = func(ttid int64) (middleware.Session, error) {
		conn, err := plain(ttid)
		if err != nil || ttid != 1 {
			return conn, err
		}
		return shortRows{Session: conn, db: inst.Srv.DB()}, nil
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	victim, err := client.Dial(addr.String(), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	bystander, err := client.Dial(addr.String(), 2, "")
	if err != nil {
		t.Fatal(err)
	}
	defer bystander.Close()

	count := func(c *client.Conn, sql string) int64 {
		t.Helper()
		res, err := c.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res.Rows[0][0].AsInt()
	}
	if n := count(bystander, `SELECT COUNT(*) FROM region`); n != 5 {
		t.Fatalf("bystander before: %d regions", n)
	}
	for i := 0; i < 2; i++ { // twice: the first must have returned its slot
		_, err = victim.Query(`SELECT r_name FROM region`)
		var we *wire.Err
		if !errors.As(err, &we) || we.Code != wire.CodeInternal {
			t.Fatalf("panicking statement answered %v, want code %q", err, wire.CodeInternal)
		}
	}
	if n := count(victim, `SELECT COUNT(*) FROM nation`); n != 25 {
		t.Fatalf("victim's next statement: %d nations", n)
	}
	if n := count(bystander, `SELECT COUNT(*) FROM region`); n != 5 {
		t.Fatalf("bystander after: %d regions", n)
	}
	if got := inst.Srv.DB().Stats.Snapshot().Panics; got != 2 {
		t.Errorf("engine.panics = %d, want 2", got)
	}
}

// TestApplySyncFailureUnwindsSnapshotTrigger: a WAL sync failure on a
// record that tripped the snapshot trigger must not strand snapWG — before
// the fix, Store.Close (and so Server.Shutdown) deadlocked forever.
func TestApplySyncFailureUnwindsSnapshotTrigger(t *testing.T) {
	man := Manifest{SF: 0.001, Tenants: 1, Dist: string(mth.Uniform), Seed: 1, Mode: "postgres"}
	st, err := OpenStore(t.TempDir(), man, 1) // snapshot after every record
	if err != nil {
		t.Fatal(err)
	}
	// Kill the segment fd. The next Append still lands in the bufio buffer
	// and succeeds; the Sync flush then fails against the closed file.
	if err := st.log.Close(); err != nil {
		t.Fatal(err)
	}
	exec := func() (*engine.Result, error) { return &engine.Result{Affected: 1}, nil }
	if _, err := st.Apply(wal.KindData, 1, 0, "", "INSERT INTO t VALUES (1)", nil, exec); err == nil {
		t.Fatal("Apply acknowledged a write the log could not sync")
	}
	done := make(chan struct{})
	go func() {
		st.Close() // errors (log is dead) but must not hang on snapWG.Wait
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Store.Close deadlocked on the stranded snapshot WaitGroup")
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.snapping {
		t.Fatal("snapping flag left set by the failed trigger")
	}
}
