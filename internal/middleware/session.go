package middleware

// This file is the one place the session shape is declared (DESIGN.md
// ADR-013). The paper has a single session concept — a client connects as
// tenant C, holds a scope D and an optimization level, and sends MTSQL text
// — and every tier that answers such a client (this package's Conn, the
// sharded shard.Conn) is one Session.
//
// The seam runs through the middle of the interface. A tier implements the
// statement-valued core: six methods that take a *Statement (statement.go) and
// what a bind decoder produces. Everything a client calls with text and Go
// values — Exec, Query, the cursor variants, Prepare and the prepared
// statement — is written once here, over that core, in Text and Stmt; a
// tier gets it by embedding Text. Callers that already hold a Statement and
// decoded values (the network server) call the core directly.

import (
	"context"
	"fmt"

	"mtbase/internal/engine"
	"mtbase/internal/optimizer"
	"mtbase/internal/sqlast"
	"mtbase/internal/sqltypes"
)

// Session is one client session of an in-process tier.
type Session interface {
	// The core a tier implements. QueryStmt streams a SELECT; ExecStmt runs
	// everything else (DML, DDL, grants, SET SCOPE) to its materialized
	// outcome.
	C() int64
	OptLevel() optimizer.Level
	SetOptLevel(optimizer.Level)
	RewriteSQL(sql string) (*sqlast.Select, error)
	QueryStmt(ctx context.Context, st *Statement, args []sqltypes.Value) (*engine.Rows, error)
	ExecStmt(ctx context.Context, st *Statement, args []sqltypes.Value) (*engine.Result, error)

	// The text-level surface, supplied by the embedded Text.
	Statement(sql string) (*Statement, error)
	Exec(sql string) (*engine.Result, error)
	ExecContext(ctx context.Context, sql string, args ...any) (*engine.Result, error)
	Query(sql string, args ...any) (*engine.Result, error)
	QueryRows(sql string, args ...any) (*engine.Rows, error)
	QueryContext(ctx context.Context, sql string, args ...any) (*engine.Rows, error)
	Prepare(sql string) (*Stmt, error)
}

// Connector adapts a tier's Connect — which returns the tier's concrete
// session type, as constructors should — to the Session-typed function that
// code serving either tier holds.
func Connector[C Session](connect func(ttid int64) (C, error)) func(int64) (Session, error) {
	return func(ttid int64) (Session, error) {
		c, err := connect(ttid)
		if err != nil {
			return nil, err
		}
		return c, nil
	}
}

// Text is the text-level half of a Session: it resolves text to a Statement
// (through a server's statement cache), converts bind arguments, and hands
// both to the tier's core. A tier embeds it and points it at itself with
// NewText; a copied session must be given a Text of its own.
type Text struct {
	tier  Session
	cache *Server
}

// NewText returns the text-level surface over tier, resolving texts through
// cache's statement cache.
func NewText(tier Session, cache *Server) Text { return Text{tier: tier, cache: cache} }

// Statement resolves sql to its Statement: the cached one when the text has
// been seen, a fresh Parse otherwise.
func (t Text) Statement(sql string) (*Statement, error) { return t.cache.statement(sql) }

// run executes a statement of any kind to its materialized outcome.
func (t Text) run(ctx context.Context, st *Statement, args []sqltypes.Value) (*engine.Result, error) {
	if !st.IsQuery() {
		return t.tier.ExecStmt(ctx, st, args)
	}
	rows, err := t.tier.QueryStmt(ctx, st, args)
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// Exec parses and executes one MTSQL statement. A repeated SELECT text is
// served from the statement cache: its parse, and its rewritten and optimized
// form while session context and schema are unchanged.
func (t Text) Exec(sql string) (*engine.Result, error) {
	return t.ExecContext(context.Background(), sql)
}

// ExecContext executes one MTSQL statement with bind-parameter values;
// ctx cancellation is checked at batch boundaries of the DBMS execution.
func (t Text) ExecContext(ctx context.Context, sql string, args ...any) (*engine.Result, error) {
	vals, err := sqltypes.BindValues(args)
	if err != nil {
		return nil, err
	}
	st, err := t.Statement(sql)
	if err != nil {
		return nil, err
	}
	return t.run(ctx, st, vals)
}

// Query executes a SELECT and materializes the result, which is atomic:
// the execution reads the table snapshots current when it started. Unlike
// Exec it rejects anything that is not a query — DML/DDL must go through
// Exec.
func (t Text) Query(sql string, args ...any) (*engine.Result, error) {
	rows, err := t.QueryContext(context.Background(), sql, args...)
	if err != nil {
		return nil, err
	}
	return rows.Collect()
}

// QueryRows executes a SELECT and returns a streaming cursor.
func (t Text) QueryRows(sql string, args ...any) (*engine.Rows, error) {
	return t.QueryContext(context.Background(), sql, args...)
}

// QueryContext executes a SELECT with bind-parameter values, returning a
// streaming cursor over the engine's operator tree — every query shape
// streams batch-at-a-time, joins and grouping included; ctx cancellation
// is polled inside every operator. Only queries are accepted. See
// engine.Rows for the cursor's concurrency contract.
func (t Text) QueryContext(ctx context.Context, sql string, args ...any) (*engine.Rows, error) {
	vals, err := sqltypes.BindValues(args)
	if err != nil {
		return nil, err
	}
	st, err := t.Statement(sql)
	if err != nil {
		return nil, err
	}
	return t.tier.QueryStmt(ctx, st, vals)
}

// Stmt is a prepared MTSQL statement: a Statement bound to one session. The
// client text is parsed once; scope and optimization level are read per
// execution, like any other statement on the connection, so each execution
// resolves D′ anew (a sharded session re-routes by it) and serves the
// compiled form from the statement cache keyed on the *parameterized* text.
// The form — the rewritten statement and the engine plan it holds — is
// therefore shared across every binding, which is what makes plan hits the
// common case for literal-varying workloads.
type Stmt struct {
	t    Text
	stmt *Statement
}

// Prepare parses one MTSQL statement with `?` / `$n` placeholders and
// returns a reusable handle. Queries and DML are accepted; DDL and
// session statements have nothing to parameterize and are rejected.
func (t Text) Prepare(sql string) (*Stmt, error) {
	st, err := t.Statement(sql)
	if err != nil {
		return nil, err
	}
	switch st.ast.(type) {
	case *sqlast.Select, *sqlast.Insert, *sqlast.Update, *sqlast.Delete:
		return &Stmt{t: t, stmt: st.asPrepared()}, nil
	}
	return nil, fmt.Errorf("middleware: cannot prepare %T (only queries and DML)", st.ast)
}

// NumParams returns the number of bind parameters the statement expects.
func (st *Stmt) NumParams() int { return st.stmt.nParams }

// SQL returns the client text the statement was prepared from.
func (st *Stmt) SQL() string { return st.stmt.text }

// Statement returns the statement value, for callers that run it on the
// session's core themselves.
func (st *Stmt) Statement() *Statement { return st.stmt }

// IsQuery reports whether the statement is a SELECT (row-returning)
// rather than DML.
func (st *Stmt) IsQuery() bool { return st.stmt.IsQuery() }

// Close releases the handle; the cached parse and compiled forms stay warm
// for future preparations of the same text.
func (st *Stmt) Close() error { return nil }

// Query executes a prepared SELECT with the given bind values and returns
// a streaming cursor — over one engine's operator tree, or a gather cursor
// for a cross-shard route.
func (st *Stmt) Query(args ...any) (*engine.Rows, error) {
	return st.QueryContext(context.Background(), args...)
}

// QueryContext is Query with cancellation polled inside every operator; the
// tier's core rejects a statement that is not a query.
func (st *Stmt) QueryContext(ctx context.Context, args ...any) (*engine.Rows, error) {
	vals, err := sqltypes.BindValues(args)
	if err != nil {
		return nil, err
	}
	return st.t.tier.QueryStmt(ctx, st.stmt, vals)
}

// QueryResult executes a prepared SELECT and materializes the result — a
// convenience over Query for callers that want the whole set.
func (st *Stmt) QueryResult(args ...any) (*engine.Result, error) {
	rows, err := st.Query(args...)
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
	vals, err := sqltypes.BindValues(args)
	if err != nil {
		return nil, err
	}
	return st.t.run(ctx, st.stmt, vals)
}
