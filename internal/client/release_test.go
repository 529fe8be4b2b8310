package client

import (
	"context"
	"strings"
	"testing"

	"mtbase/internal/engine"
	"mtbase/internal/mth"
	"mtbase/internal/server"
	"mtbase/internal/wire"
)

// TestClosedStmtFreesServerID: a session that prepares, runs and closes many
// distinct texts (IN lists of growing length) keeps no id of them on either
// side of the socket — every CloseStmt reached the server.
func TestClosedStmtFreesServerID(t *testing.T) {
	inst, err := mth.BuildMT(mth.Config{SF: 0.001, Tenants: 2, Dist: mth.Uniform, Seed: 1, Mode: engine.ModePostgres})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(inst.Srv, nil, server.Config{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	c, err := Dial(addr.String(), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 20
	for i := 1; i <= n; i++ {
		st, err := c.Prepare(`SELECT COUNT(*) FROM nation WHERE n_nationkey IN (?` + strings.Repeat(", ?", i-1) + `)`)
		if err != nil {
			t.Fatal(err)
		}
		args := make([]any, i)
		for k := range args {
			args[k] = k
		}
		res, err := st.QueryResult(args...)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].AsInt(); got != int64(i) {
			t.Fatalf("IN list of %d: COUNT(*) = %d", i, got)
		}
		st.Close()
	}
	// The last close travels with the next statement.
	if _, err := c.Query(`SELECT COUNT(*) FROM region`); err != nil {
		t.Fatal(err)
	}
	if c.nextStmt != n || len(c.stmts) != 0 || len(c.closing) != 0 {
		t.Fatalf("%d ids registered, %d still held, %d closes pending", c.nextStmt, len(c.stmts), len(c.closing))
	}
	for id := uint32(1); id <= n; id++ {
		if err := c.writeFrames(frameOut{wire.MsgCloseStmt, wire.EncodeStmtID(id)}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.expect(wire.MsgCloseOK); wire.ErrCode(err) != wire.CodeUnknownStmt {
			t.Fatalf("statement id %d is still on the server: %v", id, err)
		}
	}
}
