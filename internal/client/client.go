// Package client is the native mtserve client: a middleware.Session spoken
// over the internal/wire protocol instead of function calls. A Conn embeds
// middleware.Text, so Exec, Query, the cursor variants, Prepare and the
// prepared statement are the very ones of an in-process session; the Conn
// supplies the statement-valued core, and its cursor is an engine.Rows over
// the reply stream. Code (and tests) can therefore swap an embedded session
// for a remote one and compare outputs byte for byte.
//
// A Conn is a single session and, like its in-process counterpart, is not
// safe for concurrent use — except Cancel-driven aborts: closing a cursor
// mid-stream or cancelling a QueryContext sends an asynchronous Cancel that
// the server honors at the next row-batch boundary.
package client

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/optimizer"
	"mtbase/internal/sqlast"
	"mtbase/internal/sqltypes"
	"mtbase/internal/wire"
)

// Stmt is the prepared statement a Conn's Prepare returns: the one
// middleware.Stmt of every tier.
type Stmt = middleware.Stmt

// Conn is one open session with an mtserve server.
type Conn struct {
	middleware.Text

	nc net.Conn
	br *bufio.Reader

	wmu sync.Mutex // serializes socket writes (Cancel races the request path)
	bw  *bufio.Writer

	mu     sync.Mutex
	busy   bool // a streaming result is open
	closed bool

	// stmts holds the server-side id of each prepared text, registered by
	// the text's first execution and shared by every open handle of the text.
	// Closing a handle frees the id: its CloseStmt waits in closing for the
	// next statement's flush, and a handle of the text still open registers
	// it afresh when it next runs.
	stmts    map[string]uint32
	closing  []uint32
	nextStmt uint32

	tenant    int64
	level     optimizer.Level
	server    string
	sessionID uint64
}

// DialTimeout bounds connection establishment and the handshake.
const DialTimeout = 10 * time.Second

// Dial connects to an mtserve server at addr and binds the session to
// tenant. level may be empty for the tiers' default (middleware.DefaultLevel),
// or any optimizer.Level name ("canonical", "o1" … "o4", "inline-only").
func Dial(addr string, tenant int64, level string) (*Conn, error) {
	lv := middleware.DefaultLevel
	if level != "" {
		var err error
		if lv, err = optimizer.ParseLevel(level); err != nil {
			return nil, err
		}
	}
	nc, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		return nil, err
	}
	c := &Conn{
		nc: nc, br: bufio.NewReaderSize(nc, 64<<10), bw: bufio.NewWriterSize(nc, 64<<10),
		stmts: make(map[string]uint32), tenant: tenant, level: lv,
	}
	c.Text = middleware.NewText(c, nil)
	nc.SetDeadline(time.Now().Add(DialTimeout))
	hello := wire.EncodeHello(wire.Hello{Version: wire.MaxVersion, Tenant: tenant, Level: level})
	if err := c.writeFrames(frameOut{wire.MsgHello, hello}); err != nil {
		nc.Close()
		return nil, err
	}
	payload, err := c.expect(wire.MsgHelloOK)
	var ok wire.HelloOK
	if err == nil {
		ok, err = wire.DecodeHelloOK(payload)
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	c.server, c.sessionID = ok.Server, ok.SessionID
	nc.SetDeadline(time.Time{})
	return c, nil
}

// C returns the tenant this session is bound to.
func (c *Conn) C() int64 { return c.tenant }

// OptLevel returns the session's optimization level.
func (c *Conn) OptLevel() optimizer.Level { return c.level }

// SetOptLevel switches the session's optimization level on the server.
func (c *Conn) SetOptLevel(l optimizer.Level) error {
	if _, err := c.set("level", l.String()); err != nil {
		return err
	}
	c.level = l
	return nil
}

// RewriteSQL returns the cross-tenant rewrite of a query as the server's
// session computes it, without executing it.
func (c *Conn) RewriteSQL(sql string) (*sqlast.Select, error) {
	text, err := c.set("explain", sql)
	if err != nil {
		return nil, err
	}
	st, err := middleware.Parse(text)
	if err != nil {
		return nil, err
	}
	return st.Select()
}

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

// QueryStmt streams a SELECT. Anything else is refused before a frame is
// sent, with the error an in-process tier gives.
func (c *Conn) QueryStmt(ctx context.Context, st *middleware.Statement, args []sqltypes.Value) (*engine.Rows, error) {
	if _, err := st.Select(); err != nil {
		return nil, err
	}
	s, err := c.run(ctx, st, args, true)
	if err != nil {
		return nil, err
	}
	return engine.NewRows(s.cols, s), nil
}

// ExecStmt runs a statement other than a SELECT (those stream through
// QueryStmt) and reports the rows it affected.
func (c *Conn) ExecStmt(ctx context.Context, st *middleware.Statement, args []sqltypes.Value) (*engine.Result, error) {
	if st.IsQuery() {
		return nil, fmt.Errorf("client: queries stream through QueryStmt")
	}
	s, err := c.run(ctx, st, args, false)
	if err != nil {
		return nil, err
	}
	return &engine.Result{Affected: int(s.affected)}, nil
}

// ReleaseStmt frees the server-side id of a prepared statement's text as a
// handle of it closes. The CloseStmt travels with the next statement, so a
// close neither waits on the socket nor fails while a stream is open.
func (c *Conn) ReleaseStmt(st *middleware.Statement) {
	if id, ok := c.stmts[st.Text()]; ok {
		delete(c.stmts, st.Text())
		c.closing = append(c.closing, id)
	}
}

type frameOut struct {
	t       wire.MsgType
	payload []byte
}

// writeFrames ships frames in one flush (the pipelining primitive:
// Prepare, Bind and Execute travel together).
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
	if c.busy {
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

// expect reads one reply frame that must be of type want.
func (c *Conn) expect(want wire.MsgType) ([]byte, error) {
	t, payload, err := c.readReply()
	if err == nil && t != want {
		err = fmt.Errorf("client: unexpected %s, want %s", t, want)
	}
	return payload, err
}

// run sends one statement and reads the head of its reply: a stream when the
// server answers rows, one already done, with the affected count, when it
// answers Done. A prepared statement travels as Bind+Execute of the
// server-side id its text was registered under; the text's first execution
// registers it, pipelining Prepare in the same flush. Every other statement
// is one Query frame. The ids of handles closed since the last statement are
// freed at the head of the flush.
func (c *Conn) run(ctx context.Context, st *middleware.Statement, args []sqltypes.Value, wantRows bool) (*stream, error) {
	if err := c.acquire(); err != nil {
		return nil, err
	}
	text := st.Text()
	frames := make([]frameOut, 0, len(c.closing)+3)
	for _, id := range c.closing {
		frames = append(frames, frameOut{wire.MsgCloseStmt, wire.EncodeStmtID(id)})
	}
	closes := len(c.closing)
	c.closing = c.closing[:0]
	var (
		id                  uint32
		registered, prepare bool
	)
	if st.Prepared() {
		if id, registered = c.stmts[text]; !registered {
			prepare = true
			c.nextStmt++
			id = c.nextStmt
			frames = append(frames, frameOut{wire.MsgPrepare, wire.EncodePrepare(wire.Prepare{StmtID: id, SQL: text})})
		}
		frames = append(frames,
			frameOut{wire.MsgBind, wire.EncodeBind(wire.Bind{StmtID: id, Args: args})},
			frameOut{wire.MsgExecute, wire.EncodeExecute(wire.Execute{StmtID: id, WantRows: wantRows})})
	} else {
		frames = append(frames, frameOut{wire.MsgQuery, wire.EncodeQuery(wire.Query{SQL: text, Args: args})})
	}
	if err := c.writeFrames(frames...); err != nil {
		return nil, err
	}
	// The server answers every pipelined frame, a failed one included, so the
	// client reads one reply per frame and the connection stays in lockstep:
	// the first failure is the statement's, the replies after it are dropped.
	for range closes {
		c.readReply() // CloseOK
	}
	var err error
	if prepare {
		if _, err = c.expect(wire.MsgPrepareOK); err == nil {
			c.stmts[text] = id
		}
	}
	if st.Prepared() {
		if _, berr := c.expect(wire.MsgBindOK); err == nil {
			err = berr
		}
	}
	if err != nil {
		c.readReply() // the Execute's
		return nil, err
	}
	return c.head(ctx)
}

// Backup runs an online backup of the server's durability directory into
// dir (a path on the server's filesystem). Admin tenant only.
func (c *Conn) Backup(dir string) (string, error) { return c.set("backup", dir) }

// Snapshot forces a durability snapshot. Admin tenant only.
func (c *Conn) Snapshot() (string, error) { return c.set("snapshot", "") }

func (c *Conn) set(name, value string) (string, error) {
	payload, err := c.request(frameOut{wire.MsgSet, wire.EncodeSet(wire.Set{Name: name, Value: value})}, wire.MsgSetOK)
	if err != nil {
		return "", err
	}
	return wire.DecodeSetOK(payload)
}

// Stats fetches the server's counter snapshot (engine, middleware, server
// and WAL counters, in stable order).
func (c *Conn) Stats() ([]middleware.Stat, error) {
	payload, err := c.request(frameOut{wire.MsgStats, nil}, wire.MsgStatsOK)
	if err != nil {
		return nil, err
	}
	ok, err := wire.DecodeStatsOK(payload)
	if err != nil {
		return nil, err
	}
	stats := make([]middleware.Stat, len(ok.Pairs))
	for i, p := range ok.Pairs {
		stats[i] = middleware.Stat(p)
	}
	return stats, nil
}

// request sends one frame and reads its reply, which must be of type want.
func (c *Conn) request(f frameOut, want wire.MsgType) ([]byte, error) {
	if err := c.acquire(); err != nil {
		return nil, err
	}
	if err := c.writeFrames(f); err != nil {
		return nil, err
	}
	return c.expect(want)
}
