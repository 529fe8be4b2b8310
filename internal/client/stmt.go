package client

// Prepared statements over the wire. Statement ids are client-assigned so
// Bind and Execute pipeline in one network flush; the server replays a
// failed Bind deterministically to the pipelined Execute, so the client
// reads exactly one reply per request either way.

import (
	"context"
	"fmt"

	"mtbase/internal/engine"
	"mtbase/internal/sqltypes"
	"mtbase/internal/wire"
)

// Stmt is a prepared statement bound to its Conn.
type Stmt struct {
	c       *Conn
	id      uint32
	sql     string
	nParams int
	isQuery bool
	closed  bool
}

// Prepare parses one statement server-side and returns a reusable handle.
func (c *Conn) Prepare(sql string) (*Stmt, error) {
	if err := c.acquire(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.nextStmt++
	id := c.nextStmt
	c.mu.Unlock()
	p := wire.EncodePrepare(wire.Prepare{StmtID: id, SQL: sql})
	if err := c.writeFrames(frameOut{wire.MsgPrepare, p}); err != nil {
		return nil, err
	}
	t, payload, err := c.readReply()
	if err != nil {
		return nil, err
	}
	if t != wire.MsgPrepareOK {
		return nil, fmt.Errorf("client: unexpected %s in Prepare reply", t)
	}
	ok, err := wire.DecodePrepareOK(payload)
	if err != nil {
		return nil, err
	}
	return &Stmt{c: c, id: ok.StmtID, sql: sql, nParams: int(ok.NumParams), isQuery: ok.IsQuery}, nil
}

// NumParams returns the number of bind parameters the statement expects.
func (st *Stmt) NumParams() int { return st.nParams }

// SQL returns the statement text.
func (st *Stmt) SQL() string { return st.sql }

// IsQuery reports whether the statement returns rows.
func (st *Stmt) IsQuery() bool { return st.isQuery }

// Close releases the server-side handle.
func (st *Stmt) Close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	if err := st.c.acquire(); err != nil {
		return err
	}
	if err := st.c.writeFrames(frameOut{wire.MsgCloseStmt, wire.EncodeStmtID(st.id)}); err != nil {
		return err
	}
	t, _, err := st.c.readReply()
	if err != nil {
		return err
	}
	if t != wire.MsgCloseOK {
		return fmt.Errorf("client: unexpected %s in Close reply", t)
	}
	return nil
}

// bindExecute pipelines Bind+Execute in one flush and consumes the Bind
// reply, leaving the Execute reply on the wire.
func (st *Stmt) bindExecute(args []any, wantRows bool) error {
	if st.closed {
		return fmt.Errorf("client: statement closed")
	}
	vals, err := sqltypes.BindValues(args)
	if err != nil {
		return err
	}
	if err := st.c.acquire(); err != nil {
		return err
	}
	b := wire.EncodeBind(wire.Bind{StmtID: st.id, Args: vals})
	e := wire.EncodeExecute(wire.Execute{StmtID: st.id, WantRows: wantRows})
	if err := st.c.writeFrames(frameOut{wire.MsgBind, b}, frameOut{wire.MsgExecute, e}); err != nil {
		return err
	}
	t, _, err := st.c.readReply()
	if err != nil {
		// Bind failed; the server answers the pipelined Execute with the
		// same error — consume it so the connection stays in lockstep.
		st.c.readReply()
		return err
	}
	if t != wire.MsgBindOK {
		return fmt.Errorf("client: unexpected %s in Bind reply", t)
	}
	return nil
}

// Query executes a prepared query with the given bind values, streaming.
func (st *Stmt) Query(args ...any) (*Rows, error) {
	return st.QueryContext(context.Background(), args...)
}

// QueryContext is Query with cancellation.
func (st *Stmt) QueryContext(ctx context.Context, args ...any) (*Rows, error) {
	if err := st.bindExecute(args, true); err != nil {
		return nil, err
	}
	return st.c.startRows(ctx)
}

// QueryResult executes a prepared query and materializes the result.
func (st *Stmt) QueryResult(args ...any) (*engine.Result, error) {
	rows, err := st.Query(args...)
	if err != nil {
		return nil, err
	}
	return rows.collect()
}

// Exec executes prepared DML (or a query, materialized) and returns the
// result.
func (st *Stmt) Exec(args ...any) (*engine.Result, error) {
	return st.ExecContext(context.Background(), args...)
}

// ExecContext is Exec with cancellation.
func (st *Stmt) ExecContext(ctx context.Context, args ...any) (*engine.Result, error) {
	if err := st.bindExecute(args, st.isQuery); err != nil {
		return nil, err
	}
	rows, err := st.c.startRows(ctx)
	if err != nil {
		return nil, err
	}
	return rows.collect()
}
