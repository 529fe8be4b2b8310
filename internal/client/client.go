// Package client is the native mtserve client: the Conn / Stmt / Rows API
// of an in-process middleware.Conn, spoken over the internal/wire protocol
// instead of function calls. Results use the same engine.Result and
// sqltypes.Value types, so code (and tests) can swap an embedded
// connection for a remote one and compare outputs byte for byte.
//
// A Conn is a single session and, like its in-process counterpart, is not
// safe for concurrent use — except Cancel-driven aborts: closing a Rows
// mid-stream or cancelling a QueryContext sends an asynchronous Cancel
// that the server honors at the next row-batch boundary.
package client

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"mtbase/internal/engine"
	"mtbase/internal/optimizer"
	"mtbase/internal/sqltypes"
	"mtbase/internal/wire"
)

// Conn is one open session with an mtserve server.
type Conn struct {
	nc net.Conn
	br *bufio.Reader

	wmu sync.Mutex // serializes socket writes (Cancel races the request path)
	bw  *bufio.Writer

	mu       sync.Mutex
	cursor   *Rows // open streaming result, if any
	nextStmt uint32
	closed   bool

	tenant    int64
	version   uint32
	server    string
	sessionID uint64
}

// DialTimeout bounds connection establishment and the handshake.
const DialTimeout = 10 * time.Second

// Dial connects to an mtserve server at addr and binds the session to
// tenant. level may be empty for the server default, or any
// optimizer.Level name ("canonical", "o1" … "o4", "inline-only").
func Dial(addr string, tenant int64, level string) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Conn{
		nc: nc, br: bufio.NewReaderSize(nc, 64<<10), bw: bufio.NewWriterSize(nc, 64<<10),
		tenant: tenant,
	}
	nc.SetDeadline(time.Now().Add(DialTimeout))
	hello := wire.EncodeHello(wire.Hello{Version: wire.MaxVersion, Tenant: tenant, Level: level})
	if err := c.writeFrames(frameOut{wire.MsgHello, hello}); err != nil {
		nc.Close()
		return nil, err
	}
	t, payload, err := wire.ReadFrame(c.br)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	switch t {
	case wire.MsgHelloOK:
		ok, err := wire.DecodeHelloOK(payload)
		if err != nil {
			nc.Close()
			return nil, err
		}
		c.version, c.server, c.sessionID = ok.Version, ok.Server, ok.SessionID
	case wire.MsgError:
		e, derr := wire.DecodeError(payload)
		nc.Close()
		if derr != nil {
			return nil, derr
		}
		return nil, e
	default:
		nc.Close()
		return nil, fmt.Errorf("client: handshake: unexpected %s", t)
	}
	nc.SetDeadline(time.Time{})
	return c, nil
}

// C returns the tenant this session is bound to.
func (c *Conn) C() int64 { return c.tenant }

// Server returns the server name from the handshake.
func (c *Conn) Server() string { return c.server }

// SessionID returns the server-assigned session id.
func (c *Conn) SessionID() uint64 { return c.sessionID }

// Close ends the session.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.writeFrames(frameOut{wire.MsgGoodbye, nil}) // best effort
	return c.nc.Close()
}

type frameOut struct {
	t       wire.MsgType
	payload []byte
}

// writeFrames ships frames in one flush (the pipelining primitive:
// Bind+Execute travel together).
func (c *Conn) writeFrames(frames ...frameOut) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	for _, f := range frames {
		if err := wire.WriteFrame(c.bw, f.t, f.payload); err != nil {
			return err
		}
	}
	return c.bw.Flush()
}

// sendCancel asks the server to abort the statement in flight. Safe to
// call concurrently with the request path.
func (c *Conn) sendCancel() { c.writeFrames(frameOut{wire.MsgCancel, nil}) }

// acquire marks the connection busy for one request; it fails while a
// streaming result is open.
func (c *Conn) acquire() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("client: connection closed")
	}
	if c.cursor != nil {
		return fmt.Errorf("client: connection busy: a streaming result is open (close it first)")
	}
	return nil
}

// readReply reads one reply frame, decoding Error frames into *wire.Err.
func (c *Conn) readReply() (wire.MsgType, []byte, error) {
	t, payload, err := wire.ReadFrame(c.br)
	if err != nil {
		return 0, nil, err
	}
	if t == wire.MsgError {
		e, derr := wire.DecodeError(payload)
		if derr != nil {
			return 0, nil, derr
		}
		return t, nil, e
	}
	return t, payload, nil
}

// Exec runs one statement (any kind) and returns its materialized result.
func (c *Conn) Exec(sql string, args ...any) (*engine.Result, error) {
	return c.ExecContext(context.Background(), sql, args...)
}

// ExecContext is Exec with cancellation: ctx expiry sends Cancel and the
// server aborts the statement at its next batch boundary.
func (c *Conn) ExecContext(ctx context.Context, sql string, args ...any) (*engine.Result, error) {
	rows, err := c.QueryContext(ctx, sql, args...)
	if err != nil {
		return nil, err
	}
	return rows.collect()
}

// Query runs a statement and returns its materialized result, failing for
// statements that return no rows.
func (c *Conn) Query(sql string, args ...any) (*engine.Result, error) {
	res, err := c.Exec(sql, args...)
	if err != nil {
		return nil, err
	}
	if res.Cols == nil {
		return nil, &wire.Err{Code: wire.CodeNotQuery, Message: "statement returned no rows"}
	}
	return res, nil
}

// QueryRows runs a statement and streams its result.
func (c *Conn) QueryRows(sql string, args ...any) (*Rows, error) {
	return c.QueryContext(context.Background(), sql, args...)
}

// QueryContext streams a statement's result with cancellation. For
// row-less statements the returned Rows has nil Columns and is already
// exhausted; Result() (or collect via ExecContext) carries the affected
// count.
func (c *Conn) QueryContext(ctx context.Context, sql string, args ...any) (*Rows, error) {
	vals, err := sqltypes.BindValues(args)
	if err != nil {
		return nil, err
	}
	if err := c.acquire(); err != nil {
		return nil, err
	}
	q := wire.EncodeQuery(wire.Query{SQL: sql, Args: vals})
	if err := c.writeFrames(frameOut{wire.MsgQuery, q}); err != nil {
		return nil, err
	}
	return c.startRows(ctx)
}

// startRows reads the head of a statement reply: RowHeader begins a
// stream, Done ends a row-less statement, Error fails it.
func (c *Conn) startRows(ctx context.Context) (*Rows, error) {
	rows := &Rows{c: c, ctx: ctx}
	rows.watch()
	t, payload, err := c.readReply()
	if err != nil {
		rows.unwatch()
		return nil, rows.mapErr(err)
	}
	switch t {
	case wire.MsgRowHeader:
		h, err := wire.DecodeRowHeader(payload)
		if err != nil {
			rows.unwatch()
			return nil, err
		}
		rows.cols = h.Cols
		c.mu.Lock()
		c.cursor = rows
		c.mu.Unlock()
		return rows, nil
	case wire.MsgDone:
		d, err := wire.DecodeDone(payload)
		rows.unwatch()
		if err != nil {
			return nil, err
		}
		rows.done = true
		rows.affected = d.Affected
		return rows, nil
	default:
		rows.unwatch()
		return nil, fmt.Errorf("client: unexpected %s at statement start", t)
	}
}

// SetOptLevel switches the session's optimization level.
func (c *Conn) SetOptLevel(l optimizer.Level) error {
	_, err := c.set("level", l.String())
	return err
}

// Explain returns the cross-tenant rewrite of a query as SQL text.
func (c *Conn) Explain(sql string) (string, error) { return c.set("explain", sql) }

// Backup runs an online backup of the server's durability directory into
// dir (a path on the server's filesystem). Admin tenant only.
func (c *Conn) Backup(dir string) (string, error) { return c.set("backup", dir) }

// Snapshot forces a durability snapshot. Admin tenant only.
func (c *Conn) Snapshot() (string, error) { return c.set("snapshot", "") }

func (c *Conn) set(name, value string) (string, error) {
	if err := c.acquire(); err != nil {
		return "", err
	}
	if err := c.writeFrames(frameOut{wire.MsgSet, wire.EncodeSet(wire.Set{Name: name, Value: value})}); err != nil {
		return "", err
	}
	t, payload, err := c.readReply()
	if err != nil {
		return "", err
	}
	if t != wire.MsgSetOK {
		return "", fmt.Errorf("client: unexpected %s in Set reply", t)
	}
	return wire.DecodeSetOK(payload)
}

// Stats fetches the server's counter snapshot (engine, middleware, server
// and WAL counters, in stable order).
func (c *Conn) Stats() ([]wire.StatPair, error) {
	if err := c.acquire(); err != nil {
		return nil, err
	}
	if err := c.writeFrames(frameOut{wire.MsgStats, nil}); err != nil {
		return nil, err
	}
	t, payload, err := c.readReply()
	if err != nil {
		return nil, err
	}
	if t != wire.MsgStatsOK {
		return nil, fmt.Errorf("client: unexpected %s in Stats reply", t)
	}
	ok, err := wire.DecodeStatsOK(payload)
	return ok.Pairs, err
}
