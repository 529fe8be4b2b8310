package server

// Regression tests for fault paths that need package internals: admission
// slot accounting across handshake failures, and snapshot WaitGroup
// accounting across WAL sync failures.

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/mth"
	"mtbase/internal/sqlast"
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

func (c cancelledOpen) QueryStmt(context.Context, *sqlast.Select, string, []sqltypes.Value) (*engine.Rows, error) {
	c.sess.cancelStmt()
	return nil, context.Canceled
}

func (c cancelledOpen) ExecStmt(context.Context, sqlast.Statement, string, []sqltypes.Value) (*engine.Result, error) {
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
