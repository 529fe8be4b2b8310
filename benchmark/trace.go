package main

// Outside-in tracing. Nothing inside the program may change for this
// benchmark, so a traced statement is timed twice: a root span around the
// real end-to-end call, then a replay of the same statement stage by stage
// through the layers' exported functions, each stage's output feeding the
// next, one child span per stage. The replay is not the original
// execution; trace_coverage = Σ stage spans ÷ root says how faithful it is.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/optimizer"
	"mtbase/internal/rewrite"
	"mtbase/internal/sqlast"
	"mtbase/internal/sqlparse"
	"mtbase/internal/sqltypes"
	"mtbase/internal/wal"
	"mtbase/internal/wire"
)

// span is one timed interval. Spans of one statement share stmt_id; a
// stage span's parent is the statement's root span.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StmtID  int64  `json:"stmt_id"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// stageTime is a stage span reduced to what aggregation needs.
type stageTime struct {
	name string
	ns   int64
}

// opTrace is one traced statement: its root span, the child span of every
// replayed stage, and the counter deltas read around the root call.
type opTrace struct {
	stmtID  int64
	kindIdx int
	kind    string
	rootNS  int64
	stages  []stageTime
	delta   counters
	err     error
	rec     *recorder
}

// recorder keeps one client's spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	spans []span
}

func (t *opTrace) record(name, layer, parent string, t0, t1 time.Time) {
	t.rec.spans = append(t.rec.spans, span{Name: name, Layer: layer, StmtID: t.stmtID, Parent: parent,
		StartNS: t0.Sub(t.rec.epoch).Nanoseconds(), EndNS: t1.Sub(t.rec.epoch).Nanoseconds()})
}

// stage times one replayed stage as a child span of the root. After a
// failed stage the rest of the replay is skipped and the op is flagged.
func (t *opTrace) stage(name, layer string, f func() error) {
	if t.err != nil {
		return
	}
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	t.record(name, layer, "root", t0, t1)
	t.stages = append(t.stages, stageTime{name, t1.Sub(t0).Nanoseconds()})
	if err != nil {
		t.err = fmt.Errorf("replay %s of %s: %w", name, t.kind, err)
	}
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------- in-process

// replay walks the middleware's own pipeline (rewrittenText + execSQLArgs)
// through its exported pieces. On the xt workloads the real call skips
// parse…serialize (statement caches hit), so those stages show what a miss
// would cost and add their (small) share to trace_coverage.
func (d *mwDeployment) replay(s *stmt, root reply, t *opTrace) {
	conn := d.conns[s.sess]
	db := d.inst.Srv.DB()
	var (
		sel, rewritten, optimized *sqlast.Select
		rctx                      *rewrite.Context
		text                      string
		plan                      *engine.Plan
	)
	t.stage("parse", "sqlparse", func() error {
		st, err := sqlparse.ParseStatement(s.text)
		if err == nil {
			sel = st.(*sqlast.Select)
		}
		return err
	})
	t.stage("rewrite", "rewrite", func() (err error) {
		if rctx, err = conn.RewriteContext(sqlast.PrivRead, middleware.TenantSpecificTables(sel)...); err != nil {
			return err
		}
		rewritten, err = rewrite.Query(rctx, sel)
		return err
	})
	t.stage("optimize", "optimizer", func() (err error) {
		optimized, err = optimizer.Optimize(rctx, rewritten, conn.OptLevel())
		return err
	})
	t.stage("serialize", "sqlast", func() error {
		text = optimized.String()
		return nil
	})
	if t.delta.planMisses > 0 {
		// The real call lowered this text from scratch and left it cached.
		// A trailing blank is a new cache key with the identical parse and
		// lowering, so the replayed stage pays what the real one paid.
		text += " "
	}
	t.stage("plan", "engine.plan", func() (err error) {
		plan, err = db.PreparePlan(text)
		return err
	})
	if d.compileOnly {
		return
	}
	vals, err := bindArgs(s.args)
	if err != nil {
		t.err = err
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t.stage("execute", "engine.execute", func() error {
		_, err := db.ExecPlanContext(context.Background(), plan, vals...)
		return err
	})
	runtime.ReadMemStats(&after)
	t.delta.allocs = int64(after.Mallocs - before.Mallocs)
	t.delta.allocBytes = int64(after.TotalAlloc - before.TotalAlloc)
}

func bindArgs(args []any) ([]sqltypes.Value, error) {
	vals := make([]sqltypes.Value, len(args))
	for i, a := range args {
		v, err := sqltypes.BindValue(a)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// ---------------------------------------------------------------- served

// streamChunk mirrors the server's row-batch bound (session.go batchRows).
const streamChunk = 256

func (d *wireDeployment) initReplay() error {
	inst := d.store.Instance()
	for _, s := range d.sessions {
		conn, err := inst.Connect(s.Tenant, s.Scope)
		if err != nil {
			return err
		}
		d.local = append(d.local, conn)
		var stmts []*middleware.Stmt
		for _, text := range oltpTexts {
			st, err := conn.Prepare(text)
			if err != nil {
				return err
			}
			stmts = append(stmts, st)
		}
		d.localStmts = append(d.localStmts, stmts)
	}
	var err error
	d.scratch, _, err = wal.Open(filepath.Join(d.dir, "scratch-wal"))
	return err
}

// replay prices the served path's layers: the same prepared statement on
// the store instance's own middleware.Conn (no socket), the request and
// reply frames through the codec into a buffer and back, and — for a
// write — Append+Sync of the equivalent record on a scratch log. What is
// left of the root span is the hop itself: syscalls, loopback, goroutine
// hand-offs, admission, session dispatch — not replayable from outside.
//
// A replayed insert uses the negated event id (a shadow row the tallies
// exclude, never logged); a replayed update re-applies the value the real
// call just wrote, which changes nothing.
func (d *wireDeployment) replay(s *stmt, root reply, t *opTrace) {
	d.replayInit.Do(func() { d.replayErr = d.initReplay() })
	if d.replayErr != nil {
		t.err = fmt.Errorf("replay set-up: %w", d.replayErr)
		return
	}
	st := d.localStmts[s.sess][s.kindIdx]
	args := s.args
	if s.kind == "event_insert" {
		args = append([]any{-s.args[0].(int64)}, s.args[1:]...)
	}
	var cols []string
	t.stage("inproc", "middleware+engine", func() error {
		if s.write {
			_, err := st.Exec(args...)
			return err
		}
		rows, err := st.Query(args...)
		if err != nil {
			return err
		}
		cols = rows.Columns()
		for rows.Next() {
		}
		rows.Close()
		return rows.Err()
	})
	vals, err := bindArgs(s.args)
	if err != nil {
		t.err = err
		return
	}
	var buf bytes.Buffer
	t.stage("encode", "wire", func() error {
		type frame struct {
			t wire.MsgType
			p []byte
		}
		frames := []frame{
			{wire.MsgBind, wire.EncodeBind(wire.Bind{StmtID: 1, Args: vals})},
			{wire.MsgExecute, wire.EncodeExecute(wire.Execute{StmtID: 1, WantRows: !s.write})},
			{wire.MsgBindOK, wire.EncodeStmtID(1)},
		}
		if !s.write {
			frames = append(frames, frame{wire.MsgRowHeader, wire.EncodeRowHeader(wire.RowHeader{Cols: cols})})
			for lo := 0; lo < len(root.rows); lo += streamChunk {
				hi := min(lo+streamChunk, len(root.rows))
				frames = append(frames, frame{wire.MsgRowBatch, wire.EncodeRowBatch(wire.RowBatch{Rows: root.rows[lo:hi]})})
			}
		}
		frames = append(frames, frame{wire.MsgDone, wire.EncodeDone(wire.Done{Rows: int64(len(root.rows)), Affected: int64(root.affected)})})
		for _, f := range frames {
			if err := wire.WriteFrame(&buf, f.t, f.p); err != nil {
				return err
			}
		}
		return nil
	})
	t.delta.wireIO = int64(buf.Len())
	t.stage("decode", "wire", func() error {
		for {
			mt, payload, err := wire.ReadFrame(&buf)
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			switch mt {
			case wire.MsgBind:
				_, err = wire.DecodeBind(payload)
			case wire.MsgExecute:
				_, err = wire.DecodeExecute(payload)
			case wire.MsgBindOK:
				_, err = wire.DecodeStmtID(payload)
			case wire.MsgRowHeader:
				_, err = wire.DecodeRowHeader(payload)
			case wire.MsgRowBatch:
				_, err = wire.DecodeRowBatch(payload)
			case wire.MsgDone:
				_, err = wire.DecodeDone(payload)
			}
			if err != nil {
				return err
			}
		}
	})
	if s.write {
		t.stage("wal_commit", "wal", func() error {
			lsn, err := d.scratch.Append(&wal.Record{Kind: wal.KindData, Tenant: d.sessions[s.sess].Tenant,
				Level: uint8(optimizer.O4), SQL: s.text, Args: vals})
			if err != nil {
				return err
			}
			return d.scratch.Sync(lsn)
		})
	}
}

// ---------------------------------------------------------------- sharded

func (d *shardDeployment) initParts() error {
	srv := d.inst.Srv
	for _, s := range d.sessions {
		// D′ as the router resolves it: on the replica, privilege-pruned.
		rc, err := srv.Replica().Connect(s.Tenant)
		if err != nil {
			return err
		}
		if s.Scope != "" {
			if _, err := rc.Exec(fmt.Sprintf("SET SCOPE = \"%s\"", s.Scope)); err != nil {
				return err
			}
		}
		rctx, err := rc.RewriteContext(sqlast.PrivRead, "customer", "orders", "lineitem")
		if err != nil {
			return err
		}
		owned := make([][]string, srv.NumShards())
		for _, t := range rctx.D {
			owned[srv.ShardOf(t)] = append(owned[srv.ShardOf(t)], fmt.Sprint(t))
		}
		parts := make([]*middleware.Conn, srv.NumShards())
		for rank, ts := range owned {
			if len(ts) == 0 {
				continue
			}
			conn, err := srv.Shards()[rank].Connect(s.Tenant)
			if err != nil {
				return err
			}
			if _, err := conn.Exec(fmt.Sprintf("SET SCOPE = \"IN (%s)\"", strings.Join(ts, ", "))); err != nil {
				return err
			}
			conn.SetOptLevel(parseLevel(d.level))
			parts[rank] = conn
		}
		d.parts = append(d.parts, parts)
	}
	return nil
}

// replay runs the statement's part on every owning shard directly, one
// after the other, under scope D′ ∩ owned(rank). In the real scatter the
// parts overlap and the slowest sets the time, so Σ parts exceeds the root
// where parts ran in parallel; gather_self = root − slowest part is what
// the coordinator added. Partial-aggregate routes run a pushed-down
// partial of the text and fallbacks copy rows to the replica instead —
// the replayed part is the closest statement reachable from outside.
func (d *shardDeployment) replay(s *stmt, root reply, t *opTrace) {
	if d.parts == nil {
		if err := d.initParts(); err != nil {
			t.err = err
			return
		}
	}
	for rank, conn := range d.parts[s.sess] {
		if conn == nil {
			continue
		}
		t.stage(fmt.Sprintf("part%d", rank), "shard.part", func() error {
			_, err := conn.Query(s.text, s.args...)
			return err
		})
	}
}
