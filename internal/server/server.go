// Package server exposes an MTBase middleware instance over TCP: one
// tenant-bound session per connection, per-tenant admission control, and —
// when opened over a Store — write-ahead logged durability. The wire
// format lives in internal/wire; a native client in internal/client.
//
// Sessions do exactly what an embedded middleware.Conn does (the
// cross-tenant MTSQL rewrite happens at the session edge, so the engine
// under the server is byte-for-byte the in-process engine), which is what
// makes the differential server tests possible: any query, at any
// optimization level, must return the identical bytes over a socket and
// in process.
package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"mtbase/internal/middleware"
	"mtbase/internal/shard"
)

func newReader(nc net.Conn) *bufio.Reader { return bufio.NewReaderSize(nc, 64<<10) }
func newWriter(nc net.Conn) *bufio.Writer { return bufio.NewWriterSize(nc, 64<<10) }

// Config tunes a Server. The zero value serves unlimited tenants with no
// admission limits and no durability.
type Config struct {
	Name        string // server name sent in HelloOK
	AdminTenant int64  // tenant allowed to run backup/snapshot (the data modeller)
	Limits      Limits
}

// Server accepts connections and runs sessions until Shutdown.
type Server struct {
	// The tier the server fronts — the unsharded middleware or the
	// tenant-partitioned shard router — is these two functions; sessions
	// speak middleware.Session, so the wire behavior (streaming,
	// cancellation, prepared statements, typed errors) is identical over
	// either, which the differential server suite leans on.
	connect func(ttid int64) (middleware.Session, error)
	stats   func() []middleware.Stat

	store *Store // nil = ephemeral
	cfg   Config
	adm   *admission

	mu         sync.Mutex
	cond       *sync.Cond // signalled when inflight hits zero
	ln         net.Listener
	sessions   map[uint64]*session
	nextSID    uint64
	inflight   int
	draining   bool
	statements atomic.Int64

	connWG sync.WaitGroup
}

// New wraps mw (and, optionally, the Store that recovered it) in a Server.
func New(mw *middleware.Server, store *Store, cfg Config) *Server {
	if cfg.Name == "" {
		cfg.Name = "mtserve/1"
	}
	s := &Server{connect: middleware.Connector(mw.Connect), stats: mw.StatLines, store: store, cfg: cfg,
		adm: newAdmission(cfg.Limits, nil), sessions: make(map[uint64]*session)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// NewSharded fronts a tenant-partitioned shard.Server. Sharded servers are
// ephemeral — durability (WAL + snapshots) is an unsharded-tier feature —
// and admission attributes per-tenant counters to the owning shard.
func NewSharded(ss *shard.Server, cfg Config) *Server {
	if cfg.Name == "" {
		cfg.Name = "mtserve/1"
	}
	s := &Server{connect: middleware.Connector(ss.Connect), stats: ss.StatLines, cfg: cfg,
		adm: newAdmission(cfg.Limits, ss.ShardOf), sessions: make(map[uint64]*session)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Listen binds addr and starts serving in a background goroutine,
// returning the bound address (useful with ":0").
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go s.Serve(ln)
	return ln.Addr(), nil
}

// Serve accepts connections on ln until it closes (normally via
// Shutdown). Each connection runs its session on its own goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				return nil
			}
			return err
		}
		s.startSession(nc)
	}
}

func (s *Server) startSession(nc net.Conn) {
	ctx, cancel := context.WithCancel(context.Background())
	s.mu.Lock()
	s.nextSID++
	sess := &session{
		srv: s, id: s.nextSID, nc: nc,
		br: newReader(nc), bw: newWriter(nc),
		ctx: ctx, cancel: cancel,
	}
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	s.connWG.Add(1)
	go func() {
		defer s.connWG.Done()
		sess.run()
		s.mu.Lock()
		delete(s.sessions, sess.id)
		s.mu.Unlock()
	}()
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) sessionsOpen() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.sessions))
}

// beginStmt admits one statement into the drain accounting; it fails once
// shutdown started (the caller answers CodeDraining).
func (s *Server) beginStmt() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	s.statements.Add(1)
	return true
}

func (s *Server) endStmt() {
	s.mu.Lock()
	s.inflight--
	if s.inflight == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// Shutdown drains gracefully: stop accepting, refuse new statements, let
// in-flight statements finish streaming, then close every connection and
// the durability store. If ctx expires first, in-flight statements are
// cancelled instead of awaited.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	drained := make(chan struct{})
	go func() {
		s.mu.Lock()
		for s.inflight > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		close(drained)
	}()
	var timedOut bool
	select {
	case <-drained:
	case <-ctx.Done():
		timedOut = true
	}

	s.mu.Lock()
	for _, sess := range s.sessions {
		sess.cancel()   // aborts anything still running at its batch boundary
		sess.nc.Close() // unblocks the reader
	}
	s.mu.Unlock()
	// cond.Wait above must not strand the drain goroutine.
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.connWG.Wait()

	var err error
	if s.store != nil {
		err = s.store.Close()
	}
	if timedOut && err == nil {
		err = fmt.Errorf("server: drain timed out: %w", context.Cause(ctx))
	}
	return err
}
