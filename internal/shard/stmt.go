package shard

// Prepared statements over the sharded router: the client text is parsed
// once; every execution re-routes by the D′ of that moment, so a scope
// change between executions can move a statement from single-shard to
// scatter and back. The per-shard middlewares keep their own rewrite and
// plan caches keyed on the parameterized text, so repeated executions hit
// warm caches on whichever shards they land on.

import (
	"context"
	"fmt"

	"mtbase/internal/engine"
	"mtbase/internal/sqlast"
	"mtbase/internal/sqlparse"
)

// Stmt is a prepared MTSQL statement bound to one sharded session. Like
// the session itself it is not safe for concurrent use.
type Stmt struct {
	conn    *Conn
	raw     string
	sel     *sqlast.Select   // non-nil for queries
	stmt    sqlast.Statement // non-nil for DML
	nParams int
}

// Prepare parses one MTSQL statement with `?` / `$n` placeholders and
// returns a reusable handle. Queries and DML are accepted; DDL and
// session statements have nothing to parameterize and are rejected.
func (c *Conn) Prepare(sql string) (*Stmt, error) {
	st := &Stmt{conn: c, raw: sql}
	if sel, err := c.rconn.ParseSelect(sql); err == nil {
		st.sel = sel
		st.nParams = sqlast.MaxParam(sel)
		return st, nil
	}
	stmt, err := sqlparse.ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	switch stmt.(type) {
	case *sqlast.Insert, *sqlast.Update, *sqlast.Delete:
		st.stmt = stmt
	default:
		return nil, fmt.Errorf("shard: cannot prepare %T (only queries and DML)", stmt)
	}
	st.nParams = sqlast.MaxParam(stmt)
	return st, nil
}

// NumParams returns the number of bind parameters the statement expects.
func (st *Stmt) NumParams() int { return st.nParams }

// SQL returns the client text the statement was prepared from.
func (st *Stmt) SQL() string { return st.raw }

// IsQuery reports whether the statement is a SELECT (row-returning)
// rather than DML.
func (st *Stmt) IsQuery() bool { return st.sel != nil }

// Close releases the handle; cached parses and the shards' rewrite caches
// stay warm for future preparations of the same text.
func (st *Stmt) Close() error { return nil }

// Query executes a prepared SELECT and returns a streaming cursor —
// direct from one shard, or a gather cursor for cross-shard routes.
func (st *Stmt) Query(args ...any) (*engine.Rows, error) {
	return st.QueryContext(context.Background(), args...)
}

// QueryContext is Query with cancellation polled inside every operator
// and across the gather.
func (st *Stmt) QueryContext(ctx context.Context, args ...any) (*engine.Rows, error) {
	if st.sel == nil {
		return nil, fmt.Errorf("shard: not a query: %s (use Exec)", st.raw)
	}
	st.conn.srv.ddlMu.RLock()
	defer st.conn.srv.ddlMu.RUnlock()
	return st.conn.routeQuery(ctx, st.sel, st.raw, args)
}

// QueryResult executes a prepared SELECT and materializes the result.
func (st *Stmt) QueryResult(args ...any) (*engine.Result, error) {
	rows, err := st.QueryContext(context.Background(), args...)
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// Exec executes a prepared statement (query or DML) with the given bind
// values, materializing the outcome.
func (st *Stmt) Exec(args ...any) (*engine.Result, error) {
	return st.ExecContext(context.Background(), args...)
}

// ExecContext is Exec with cancellation checked at batch boundaries.
func (st *Stmt) ExecContext(ctx context.Context, args ...any) (*engine.Result, error) {
	if st.sel != nil {
		rows, err := st.QueryContext(ctx, args...)
		if err != nil {
			return nil, err
		}
		return rows.Collect()
	}
	return st.conn.dispatch(ctx, st.stmt, st.raw, args)
}
