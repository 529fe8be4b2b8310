package client

// The reply stream of one statement as an engine.RowSource: RowBatch frames
// up to Done. Close is safe to call early — it cancels the statement
// server-side and drains the stream, so the connection is immediately
// reusable and no spill files leak on the server.

import (
	"context"
	"fmt"

	"mtbase/internal/sqltypes"
	"mtbase/internal/wire"
)

// stream holds its Conn busy from the row header to the terminator.
type stream struct {
	c        *Conn
	ctx      context.Context
	cols     []string
	affected int64

	batch     [][]sqltypes.Value
	done      bool // terminator read, connection released
	cancelled bool // Close asked for the abort; the Cancelled error is expected

	stopWatch chan struct{}
}

// head reads the first frame of a statement's reply: RowHeader begins a
// stream, Done ends a row-less statement, Error fails it. ctx is watched
// while the statement runs: its expiry sends Cancel.
func (c *Conn) head(ctx context.Context) (*stream, error) {
	s := &stream{c: c, ctx: ctx}
	s.watch()
	t, payload, err := c.readReply()
	switch {
	case err != nil:
		err = s.mapErr(err)
	case t == wire.MsgRowHeader:
		var h wire.RowHeader
		if h, err = wire.DecodeRowHeader(payload); err == nil {
			s.cols = h.Cols
			c.mu.Lock()
			c.busy = true
			c.mu.Unlock()
			return s, nil
		}
	case t == wire.MsgDone:
		var d wire.Done
		d, err = wire.DecodeDone(payload)
		s.affected = d.Affected
	default:
		err = fmt.Errorf("client: unexpected %s at statement start", t)
	}
	s.unwatch()
	s.done = true
	return s, err
}

// watch arms ctx-driven cancellation for the statement this stream reads.
func (s *stream) watch() {
	if s.ctx.Done() == nil {
		return
	}
	s.stopWatch = make(chan struct{})
	go func(stop <-chan struct{}) {
		select {
		case <-s.ctx.Done():
			s.c.sendCancel()
		case <-stop:
		}
	}(s.stopWatch)
}

func (s *stream) unwatch() {
	if s.stopWatch != nil {
		close(s.stopWatch)
		s.stopWatch = nil
	}
}

// mapErr converts a server-side Cancelled error into the context's error
// when the context caused it, and suppresses it after an early Close.
func (s *stream) mapErr(err error) error {
	if wire.ErrCode(err) == wire.CodeCancelled {
		if s.cancelled {
			return nil
		}
		if s.ctx.Err() != nil {
			return s.ctx.Err()
		}
	}
	return err
}

// Next returns the following row; every RowBatch decodes into fresh rows, so
// a row handed out is never overwritten.
func (s *stream) Next() ([]sqltypes.Value, error) {
	for len(s.batch) == 0 {
		if s.done {
			return nil, nil
		}
		t, payload, err := s.c.readReply()
		switch {
		case err != nil:
			s.end()
			return nil, s.mapErr(err)
		case t == wire.MsgRowBatch:
			b, err := wire.DecodeRowBatch(payload)
			if err != nil {
				s.end()
				return nil, err
			}
			s.batch = b.Rows
		case t == wire.MsgDone:
			s.end()
		default:
			s.end()
			return nil, &wire.Err{Code: wire.CodeProtocol, Message: "unexpected " + t.String() + " mid-stream"}
		}
	}
	row := s.batch[0]
	s.batch = s.batch[1:]
	return row, nil
}

// end records the terminator and releases the connection.
func (s *stream) end() {
	s.done = true
	s.unwatch()
	s.c.mu.Lock()
	s.c.busy = false
	s.c.mu.Unlock()
}

// Close releases the stream. Called before the terminator, it cancels the
// statement on the server and drains the remaining frames; an abandoned
// (not failed) stream reports no error.
func (s *stream) Close() error {
	s.batch = nil
	if s.done {
		return nil
	}
	s.cancelled = true
	s.c.sendCancel()
	for {
		t, _, err := s.c.readReply()
		if err != nil || t == wire.MsgDone {
			s.end()
			return s.mapErr(err)
		}
	}
}
