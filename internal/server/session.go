package server

// One session per accepted connection. The handshake binds the session to
// a tenant (the cross-tenant rewrite context C / SCOPE / level lives here,
// at the edge, exactly like an in-process middleware.Conn); after it, a
// reader goroutine feeds frames to the session loop so an asynchronous
// Cancel — or the socket dying — can abort the statement in flight at the
// next batch boundary via context cancellation.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/optimizer"
	"mtbase/internal/sqlast"
	"mtbase/internal/sqltypes"
	"mtbase/internal/wal"
	"mtbase/internal/wire"
)

// handshakeTimeout bounds how long an accepted socket may dawdle before
// sending Hello.
const handshakeTimeout = 10 * time.Second

// batchRows and batchBytes bound one RowBatch frame; whichever trips first
// flushes the batch, so cancellation latency and frame size stay bounded
// even for wide rows.
const (
	batchRows  = 256
	batchBytes = 256 << 10
)

type frame struct {
	t       wire.MsgType
	payload []byte
	more    bool // the next request is already in: this answer rides with its
}

type sessStmt struct {
	st      *middleware.Stmt
	args    []sqltypes.Value
	bound   bool
	bindErr *wire.Err // deterministic failure replayed to the pipelined Execute
}

type session struct {
	srv    *Server
	id     uint64
	nc     net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	ctx    context.Context
	cancel context.CancelFunc

	tenant int64
	conn   middleware.Session
	scope  string // verbatim SET SCOPE statement in effect; "" = default
	stmts  map[uint32]*sessStmt

	stmtMu     sync.Mutex
	stmtCancel context.CancelFunc // cancels the statement in flight, if any
}

// run drives the session to completion; it owns the socket.
func (s *session) run() {
	defer s.nc.Close()
	defer s.cancel()
	if err := s.handshake(); err != nil {
		return
	}
	defer s.srv.adm.releaseConn(s.tenant)

	frames := make(chan frame, 64)
	go s.readLoop(frames)
	// A pipelined request group (CloseStmt, Prepare, Bind, Execute sent in
	// one flush) is answered in one write: the answers of a frame marked more
	// wait in s.bw for the group's last.
	defer s.bw.Flush()
	for fr := range frames {
		if !s.dispatch(fr) {
			return
		}
		if fr.more {
			continue
		}
		if err := s.bw.Flush(); err != nil {
			return
		}
	}
}

// readLoop pulls frames off the socket. Cancel is handled here — it must
// work while the session loop is busy streaming — and everything else is
// handed over. A dead socket cancels the session context, which aborts any
// running statement at its next batch boundary.
func (s *session) readLoop(frames chan<- frame) {
	defer close(frames)
	for {
		t, payload, err := wire.ReadFrame(s.br)
		if err != nil {
			s.cancel()
			return
		}
		if t == wire.MsgCancel {
			s.cancelStmt()
			continue
		}
		select {
		case frames <- frame{t, payload, nextFrameIn(s.br)}:
		case <-s.ctx.Done():
			return
		}
	}
}

// nextFrameIn reports whether a whole frame other than Cancel, which the
// session loop never sees, is already in br's buffer.
func nextFrameIn(br *bufio.Reader) bool {
	if br.Buffered() < 5 {
		return false
	}
	hdr, _ := br.Peek(5)
	n := int(binary.BigEndian.Uint32(hdr[:4]))
	return wire.MsgType(hdr[4]) != wire.MsgCancel && br.Buffered() >= 4+n
}

func (s *session) cancelStmt() {
	s.stmtMu.Lock()
	if s.stmtCancel != nil {
		s.stmtCancel()
	}
	s.stmtMu.Unlock()
}

// beginStmtCtx derives the context for one statement and registers its
// cancel function for MsgCancel.
func (s *session) beginStmtCtx() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(s.ctx)
	s.stmtMu.Lock()
	s.stmtCancel = cancel
	s.stmtMu.Unlock()
	return ctx, func() {
		s.stmtMu.Lock()
		s.stmtCancel = nil
		s.stmtMu.Unlock()
		cancel()
	}
}

func (s *session) send(t wire.MsgType, payload []byte) bool {
	return wire.WriteFrame(s.bw, t, payload) == nil
}

func (s *session) sendErr(e *wire.Err) bool {
	return s.send(wire.MsgError, wire.EncodeError(e))
}

// wireErr wraps an arbitrary failure as a typed wire error.
func wireErr(code string, err error) *wire.Err {
	if we, ok := err.(*wire.Err); ok {
		return we
	}
	return &wire.Err{Code: code, Message: err.Error()}
}

// handshake reads Hello, admits the connection and answers HelloOK.
// Handshake failures answer a typed Error and drop the connection.
func (s *session) handshake() error {
	s.nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	t, payload, err := wire.ReadFrame(s.br)
	if err != nil {
		return err
	}
	fail := func(e *wire.Err) error {
		s.sendErr(e)
		s.bw.Flush()
		return e
	}
	if t != wire.MsgHello {
		return fail(&wire.Err{Code: wire.CodeProtocol, Message: fmt.Sprintf("expected Hello, got %s", t)})
	}
	hello, err := wire.DecodeHello(payload)
	if err != nil {
		return fail(wireErr(wire.CodeProtocol, err))
	}
	if hello.Version < 1 {
		return fail(&wire.Err{Code: wire.CodeProtocol, Message: "client speaks no supported protocol version"})
	}
	version := min(hello.Version, wire.MaxVersion)
	if s.srv.isDraining() {
		return fail(&wire.Err{Code: wire.CodeDraining, Message: "server is shutting down"})
	}
	if e := s.srv.adm.acquireConn(hello.Tenant); e != nil {
		return fail(e)
	}
	// The slot is held from here on; every error return below must give it
	// back (run only defers releaseConn once handshake succeeds), or a
	// client dying mid-handshake leaks a conn slot forever.
	release := func(err error) error {
		s.srv.adm.releaseConn(hello.Tenant)
		return err
	}
	conn, err := s.srv.connect(hello.Tenant)
	if err != nil {
		return release(fail(wireErr(wire.CodeAuth, err)))
	}
	if hello.Level != "" {
		lv, err := optimizer.ParseLevel(hello.Level)
		if err != nil {
			return release(fail(wireErr(wire.CodeProtocol, err)))
		}
		conn.SetOptLevel(lv)
	}
	s.tenant = hello.Tenant
	s.conn = conn
	s.stmts = make(map[uint32]*sessStmt)
	ok := wire.EncodeHelloOK(wire.HelloOK{Version: version, Server: s.srv.cfg.Name, SessionID: s.id})
	if !s.send(wire.MsgHelloOK, ok) {
		return release(fmt.Errorf("handshake write failed"))
	}
	s.nc.SetReadDeadline(time.Time{})
	if err := s.bw.Flush(); err != nil {
		return release(err)
	}
	return nil
}

// dispatch handles one frame, reporting whether the session survives.
// Statement failures answer a typed Error and keep the session; protocol
// violations answer and close it.
func (s *session) dispatch(fr frame) bool {
	switch fr.t {
	case wire.MsgQuery:
		return s.handleQuery(fr.payload)
	case wire.MsgPrepare:
		return s.handlePrepare(fr.payload)
	case wire.MsgBind:
		return s.handleBind(fr.payload)
	case wire.MsgExecute:
		return s.handleExecute(fr.payload)
	case wire.MsgCloseStmt:
		return s.handleCloseStmt(fr.payload)
	case wire.MsgStats:
		return s.handleStats()
	case wire.MsgSet:
		return s.handleSet(fr.payload)
	case wire.MsgGoodbye:
		return false
	default:
		s.sendErr(&wire.Err{Code: wire.CodeProtocol, Message: fmt.Sprintf("unexpected %s", fr.t)})
		s.bw.Flush()
		return false
	}
}

// admit runs per-tenant admission + draining checks for one statement.
// A non-nil cleanup means the statement was admitted and must be released.
func (s *session) admit() (func(), *wire.Err) {
	if !s.srv.beginStmt() {
		return nil, &wire.Err{Code: wire.CodeDraining, Message: "server is shutting down"}
	}
	if e := s.srv.adm.acquireStmt(s.ctx, s.tenant); e != nil {
		s.srv.endStmt()
		return nil, e
	}
	return func() {
		s.srv.adm.releaseStmt(s.tenant)
		s.srv.endStmt()
	}, nil
}

func (s *session) handleQuery(payload []byte) bool {
	q, err := wire.DecodeQuery(payload)
	if err != nil {
		s.sendErr(wireErr(wire.CodeProtocol, err))
		return false
	}
	done, e := s.admit()
	if e != nil {
		return s.sendErr(e)
	}
	defer done()
	st, err := s.conn.Statement(q.SQL)
	if err != nil {
		return s.sendErr(wireErr(wire.CodeParse, err))
	}
	return s.execute(st, q.Args)
}

// execute runs one admitted statement on the session's core and answers
// it: a SELECT streams, anything else answers Done with its affected count,
// after going through the WAL when it mutates durable state. The caller
// already holds the Statement and the decoded bind values, so nothing is
// parsed or converted again on the way down.
func (s *session) execute(st *middleware.Statement, args []sqltypes.Value) bool {
	ctx, finish := s.beginStmtCtx()
	defer finish()
	if st.IsQuery() {
		rows, err := s.conn.QueryStmt(ctx, st, args)
		if err != nil {
			return s.sendErr(s.execErr(ctx, err))
		}
		return s.streamRows(ctx, rows)
	}
	exec := func() (*engine.Result, error) { return s.conn.ExecStmt(ctx, st, args) }
	var (
		res *engine.Result
		err error
	)
	if kind, logged := classify(st.AST()); logged && s.srv.store != nil {
		res, err = s.srv.store.Apply(kind, s.tenant, s.conn.OptLevel(), s.scope, st.Text(), args, exec)
	} else {
		res, err = exec()
	}
	if err != nil {
		return s.sendErr(s.execErr(ctx, err))
	}
	if _, ok := st.AST().(*sqlast.SetScope); ok {
		s.scope = st.Text()
	}
	// Only SELECTs return rows, and those streamed above.
	return s.send(wire.MsgDone, wire.EncodeDone(wire.Done{Affected: int64(res.Affected)}))
}

// classify sorts a mutating statement into its WAL record kind; the second
// result is false for statements that are not logged (session state,
// scope queries).
func classify(stmt sqlast.Statement) (wal.Kind, bool) {
	switch stmt.(type) {
	case *sqlast.Insert, *sqlast.Update, *sqlast.Delete:
		return wal.KindData, true
	case *sqlast.CreateTable, *sqlast.CreateView, *sqlast.CreateFunction,
		*sqlast.DropTable, *sqlast.DropView, *sqlast.Grant, *sqlast.Revoke:
		return wal.KindSchema, true
	}
	return 0, false
}

// execErr types a statement failure: cancellation (client Cancel or
// disconnect) and a panic the engine recovered into the statement's error
// are distinguished from an execution error.
func (s *session) execErr(ctx context.Context, err error) *wire.Err {
	switch {
	case ctx.Err() != nil:
		return &wire.Err{Code: wire.CodeCancelled, Message: err.Error()}
	case errors.Is(err, engine.ErrInternal):
		return &wire.Err{Code: wire.CodeInternal, Message: err.Error()}
	}
	return wireErr(wire.CodeExec, err)
}

func (s *session) handlePrepare(payload []byte) bool {
	p, err := wire.DecodePrepare(payload)
	if err != nil {
		s.sendErr(wireErr(wire.CodeProtocol, err))
		return false
	}
	if _, dup := s.stmts[p.StmtID]; dup {
		return s.sendErr(&wire.Err{Code: wire.CodeProtocol,
			Message: fmt.Sprintf("statement id %d already prepared", p.StmtID)})
	}
	st, err := s.conn.Prepare(p.SQL)
	if err != nil {
		return s.sendErr(wireErr(wire.CodeParse, err))
	}
	s.stmts[p.StmtID] = &sessStmt{st: st}
	ok := wire.EncodePrepareOK(wire.PrepareOK{
		StmtID: p.StmtID, NumParams: uint32(st.NumParams()), IsQuery: st.IsQuery(),
	})
	return s.send(wire.MsgPrepareOK, ok)
}

func (s *session) handleBind(payload []byte) bool {
	b, err := wire.DecodeBind(payload)
	if err != nil {
		s.sendErr(wireErr(wire.CodeProtocol, err))
		return false
	}
	st, ok := s.stmts[b.StmtID]
	if !ok {
		return s.sendErr(&wire.Err{Code: wire.CodeUnknownStmt,
			Message: fmt.Sprintf("bind of unknown statement id %d", b.StmtID)})
	}
	if len(b.Args) != st.st.NumParams() {
		// Remember the failure: the client pipelines Execute behind Bind,
		// and the pipelined Execute must fail deterministically too.
		st.bound, st.args = false, nil
		st.bindErr = &wire.Err{Code: wire.CodeBind,
			Message: fmt.Sprintf("statement wants %d args, got %d", st.st.NumParams(), len(b.Args))}
		return s.sendErr(st.bindErr)
	}
	st.bound, st.args, st.bindErr = true, b.Args, nil
	return s.send(wire.MsgBindOK, wire.EncodeStmtID(b.StmtID))
}

func (s *session) handleExecute(payload []byte) bool {
	e, err := wire.DecodeExecute(payload)
	if err != nil {
		s.sendErr(wireErr(wire.CodeProtocol, err))
		return false
	}
	st, ok := s.stmts[e.StmtID]
	if !ok {
		return s.sendErr(&wire.Err{Code: wire.CodeUnknownStmt,
			Message: fmt.Sprintf("execute of unknown statement id %d", e.StmtID)})
	}
	if st.bindErr != nil {
		return s.sendErr(st.bindErr)
	}
	if !st.bound {
		return s.sendErr(&wire.Err{Code: wire.CodeProtocol,
			Message: fmt.Sprintf("statement id %d executed before bind", e.StmtID)})
	}
	done, adErr := s.admit()
	if adErr != nil {
		return s.sendErr(adErr)
	}
	defer done()
	if e.WantRows && !st.st.IsQuery() {
		return s.sendErr(&wire.Err{Code: wire.CodeNotQuery,
			Message: fmt.Sprintf("statement id %d is not a query", e.StmtID)})
	}
	return s.execute(st.st.Statement(), st.args)
}

func (s *session) handleCloseStmt(payload []byte) bool {
	id, err := wire.DecodeStmtID(payload)
	if err != nil {
		s.sendErr(wireErr(wire.CodeProtocol, err))
		return false
	}
	st, ok := s.stmts[id]
	if !ok {
		return s.sendErr(&wire.Err{Code: wire.CodeUnknownStmt,
			Message: fmt.Sprintf("close of unknown statement id %d", id)})
	}
	st.st.Close()
	delete(s.stmts, id)
	return s.send(wire.MsgCloseOK, wire.EncodeStmtID(id))
}

// streamRows pulls the cursor and ships RowHeader / RowBatch* / Done,
// encoding rows straight into the batch buffer (cursor rows may be reused
// by the engine between Next calls). Each full batch is flushed as it is
// made, so a long stream moves and a Cancel lands between batches; the last,
// partial one rides with Done in run's flush. Rows.Close always runs — it is what
// releases spill files and accounted memory — and a mid-stream failure
// (including cancellation) terminates the stream with a typed Error frame.
func (s *session) streamRows(ctx context.Context, rows *engine.Rows) bool {
	defer rows.Close()
	if !s.send(wire.MsgRowHeader, wire.EncodeRowHeader(wire.RowHeader{Cols: rows.Columns()})) {
		return false
	}
	var (
		count int
		body  []byte
		total int64
	)
	batch := func() bool {
		if count == 0 {
			return true
		}
		payload := wire.AppendUvarint(make([]byte, 0, len(body)+4), uint64(count))
		payload = append(payload, body...)
		ok := s.send(wire.MsgRowBatch, payload)
		count, body = 0, body[:0]
		return ok
	}
	for rows.Next() {
		body = wire.AppendValues(body, rows.Row())
		count++
		total++
		if count >= batchRows || len(body) >= batchBytes {
			if !batch() || s.bw.Flush() != nil {
				return false // client gone; Close cleans up spills
			}
		}
	}
	if err := rows.Err(); err != nil {
		return s.sendErr(s.execErr(ctx, err))
	}
	return batch() && s.send(wire.MsgDone, wire.EncodeDone(wire.Done{Rows: total}))
}

// handleStats replies with the tier's (engine + middleware, or shard) and
// the server's counters in a stable order (StatsOK is part of the protocol;
// map iteration would leak nondeterminism onto the wire).
func (s *session) handleStats() bool {
	var pairs []wire.StatPair
	for _, st := range s.srv.stats() {
		pairs = append(pairs, wire.StatPair(st))
	}
	pairs = append(pairs,
		wire.StatPair{Name: "server.sessions_open", Value: s.srv.sessionsOpen()},
		wire.StatPair{Name: "server.statements", Value: s.srv.statements.Load()},
	)
	pairs = append(pairs, s.srv.adm.statPairs()...)
	if st := s.srv.store; st != nil {
		pairs = append(pairs,
			wire.StatPair{Name: "wal.last_lsn", Value: int64(st.LastLSN())},
			wire.StatPair{Name: "wal.snapshots", Value: st.Snapshots()},
			wire.StatPair{Name: "wal.recovered", Value: int64(st.Recovered())},
		)
	}
	return s.send(wire.MsgStatsOK, wire.EncodeStatsOK(wire.StatsOK{Pairs: pairs}))
}

// handleSet multiplexes session options and admin operations.
func (s *session) handleSet(payload []byte) bool {
	set, err := wire.DecodeSet(payload)
	if err != nil {
		s.sendErr(wireErr(wire.CodeProtocol, err))
		return false
	}
	switch set.Name {
	case "level":
		lv, err := optimizer.ParseLevel(set.Value)
		if err != nil {
			return s.sendErr(wireErr(wire.CodeUnsupported, err))
		}
		s.conn.SetOptLevel(lv)
		return s.send(wire.MsgSetOK, wire.EncodeSetOK(lv.String()))
	case "explain":
		sel, err := s.conn.RewriteSQL(set.Value)
		if err != nil {
			return s.sendErr(wireErr(wire.CodeParse, err))
		}
		return s.send(wire.MsgSetOK, wire.EncodeSetOK(sel.String()))
	case "backup":
		if e := s.adminOnly(); e != nil {
			return s.sendErr(e)
		}
		n, err := s.srv.store.Backup(set.Value)
		if err != nil {
			return s.sendErr(wireErr(wire.CodeInternal, err))
		}
		return s.send(wire.MsgSetOK, wire.EncodeSetOK(fmt.Sprintf("%d files", n)))
	case "snapshot":
		if e := s.adminOnly(); e != nil {
			return s.sendErr(e)
		}
		lsn, err := s.srv.store.ForceSnapshot()
		if err != nil {
			return s.sendErr(wireErr(wire.CodeInternal, err))
		}
		return s.send(wire.MsgSetOK, wire.EncodeSetOK(fmt.Sprintf("lsn %d", lsn)))
	default:
		return s.sendErr(&wire.Err{Code: wire.CodeUnsupported,
			Message: fmt.Sprintf("unknown option %q", set.Name)})
	}
}

// adminOnly gates durability operations to the admin tenant (the data
// modeller, by default) on a durable server.
func (s *session) adminOnly() *wire.Err {
	if s.tenant != s.srv.cfg.AdminTenant {
		return &wire.Err{Code: wire.CodeAuth,
			Message: fmt.Sprintf("tenant %d may not run durability operations", s.tenant)}
	}
	if s.srv.store == nil {
		return &wire.Err{Code: wire.CodeUnsupported, Message: "server runs without a durability directory"}
	}
	return nil
}
