package client

// Rows is the streaming cursor over a remote result. It mirrors
// engine.Rows: Columns / Next / Row / Err / Close, with Close safe to call
// early — an early Close cancels the statement server-side and drains the
// stream, so the connection is immediately reusable and no spill files
// leak on the server.

import (
	"context"

	"mtbase/internal/engine"
	"mtbase/internal/sqltypes"
	"mtbase/internal/wire"
)

// Rows streams a remote result set.
type Rows struct {
	c    *Conn
	ctx  context.Context
	cols []string

	batch [][]sqltypes.Value
	pos   int
	cur   []sqltypes.Value

	done      bool // terminator received, connection released
	closed    bool
	cancelled bool // we asked for the abort; suppress the Cancelled error
	err       error
	affected  int64
	total     int64

	stopWatch chan struct{}
}

// watch arms ctx-driven cancellation for the statement this Rows streams.
func (r *Rows) watch() {
	if r.ctx == nil || r.ctx.Done() == nil {
		return
	}
	r.stopWatch = make(chan struct{})
	go func(stop <-chan struct{}) {
		select {
		case <-r.ctx.Done():
			r.c.sendCancel()
		case <-stop:
		}
	}(r.stopWatch)
}

func (r *Rows) unwatch() {
	if r.stopWatch != nil {
		close(r.stopWatch)
		r.stopWatch = nil
	}
}

// mapErr converts a server-side Cancelled error into the context's error
// when our context caused it, and suppresses it after an early Close.
func (r *Rows) mapErr(err error) error {
	if wire.ErrCode(err) == wire.CodeCancelled {
		if r.cancelled {
			return nil
		}
		if r.ctx != nil && r.ctx.Err() != nil {
			return r.ctx.Err()
		}
	}
	return err
}

// Columns returns the column labels (nil for row-less statements).
func (r *Rows) Columns() []string { return r.cols }

// Row returns the current row; valid until the next Next call.
func (r *Rows) Row() []sqltypes.Value { return r.cur }

// Err returns the error that terminated the stream, if any.
func (r *Rows) Err() error { return r.err }

// Next advances to the next row.
func (r *Rows) Next() bool {
	if r.closed || r.done || r.err != nil {
		return false
	}
	for r.pos >= len(r.batch) {
		t, payload, err := r.c.readReply()
		if err != nil {
			r.terminate(r.mapErr(err))
			return false
		}
		switch t {
		case wire.MsgRowBatch:
			b, err := wire.DecodeRowBatch(payload)
			if err != nil {
				r.terminate(err)
				return false
			}
			r.batch, r.pos = b.Rows, 0
		case wire.MsgDone:
			d, err := wire.DecodeDone(payload)
			if err == nil {
				r.affected = d.Affected
			}
			r.terminate(err)
			return false
		default:
			r.terminate(&wire.Err{Code: wire.CodeProtocol, Message: "unexpected " + t.String() + " mid-stream"})
			return false
		}
	}
	r.cur = r.batch[r.pos]
	r.pos++
	r.total++
	return true
}

// terminate records the stream end and releases the connection.
func (r *Rows) terminate(err error) {
	if r.err == nil {
		r.err = err
	}
	r.done = true
	r.unwatch()
	r.c.mu.Lock()
	if r.c.cursor == r {
		r.c.cursor = nil
	}
	r.c.mu.Unlock()
}

// Close releases the cursor. Called before the stream finished, it cancels
// the statement on the server and drains the remaining frames; like
// engine.Rows, an abandoned (not failed) stream leaves Err nil.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if !r.done {
		r.cancelled = true
		r.c.sendCancel()
		for {
			t, _, err := r.c.readReply()
			if err != nil {
				r.terminate(r.mapErr(err))
				break
			}
			if t == wire.MsgDone {
				r.terminate(nil)
				break
			}
		}
	}
	r.unwatch()
	return r.err
}

// collect drains the stream into a materialized engine.Result.
func (r *Rows) collect() (*engine.Result, error) {
	res := &engine.Result{Cols: r.cols, Affected: int(r.affected)}
	for r.Next() {
		row := make([]sqltypes.Value, len(r.cur))
		copy(row, r.cur)
		res.Rows = append(res.Rows, row)
	}
	r.Close()
	if r.err != nil {
		return nil, r.err
	}
	res.Affected = int(r.affected)
	return res, nil
}
