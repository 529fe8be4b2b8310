package engine

// This file implements the streaming consumer API: a Rows cursor with the
// database/sql-style Next/Scan/Close contract. Every query shape — joins,
// GROUP BY, ORDER BY, DISTINCT, subqueries — streams through the same
// pull-based operator tree (operator.go): Next pulls one batch at a time
// from the root operator, so memory is bounded by batch size plus whatever
// the tree's pipeline breakers (hash-join builds, group buckets, sort
// buffers) hold, never by the full result set.
//
// Concurrency: the cursor's exec pins its catalog and every table heap
// snapshot under DB.mu at creation (newExecArgs), then the lock is released
// and never touched again — batch pulls run entirely against those
// immutable snapshots. An open cursor therefore observes one consistent
// database state for its whole lifetime, no matter how many writers commit
// between pulls (writers publish fresh snapshots; they never mutate pinned
// ones), never starves writers, and never deadlocks on Close. Plan-level
// shared state the pulls touch (UDF body plans, select analyses) is
// internally synchronized (Plan.mu, udfPlan.mu).

import (
	"context"
	"fmt"

	"mtbase/internal/sqlast"
	"mtbase/internal/sqltypes"
)

// rowSource is an external row supplier a Rows can wrap (gather.go):
// next returns the following row (nil on exhaustion), close releases the
// source and every resource behind it. Both are called by the single
// cursor consumer only.
type rowSource interface {
	next() ([]sqltypes.Value, error)
	close()
}

// Rows is a forward-only cursor over a query result.
type Rows struct {
	cols []string
	ex   *exec
	db   *DB // whose statement this is: a panic below the cursor is counted there

	// Streaming mode: pull batches from the root operator.
	root   Operator
	opened bool
	b      *Batch
	pos    int

	// Materialized mode (SetStreamExec(false)): every row precomputed.
	buf    [][]sqltypes.Value
	bufPos int

	// External-source mode (gather.go): rows come from a rowSource —
	// a scatter/gather tree over other cursors rather than an operator
	// tree of this engine.
	src rowSource

	cur    []sqltypes.Value
	err    error
	closed bool
}

// Columns returns the output column names.
func (r *Rows) Columns() []string { return r.cols }

// Err returns the first error encountered while iterating, nil after a
// clean exhaustion.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor and its operator tree. It is idempotent: safe
// to call multiple times, after exhaustion, and after a mid-stream error;
// Next returns false afterwards and Err keeps reporting the first error.
func (r *Rows) Close() (err error) {
	if r.closed {
		return nil
	}
	r.closed = true
	r.b, r.buf, r.cur = nil, nil, nil
	defer r.db.Recover(&err)
	if r.ex != nil {
		// Backstop: remove any spill file an errored or abandoned subtree
		// left behind (operator Close handles the common case).
		defer r.ex.releaseSpills()
	}
	if r.root != nil {
		r.root.Close()
	}
	if r.src != nil {
		// Cancels and joins the source's feeders: by the time Close
		// returns, every child cursor is closed and its spills released.
		r.src.close()
	}
	return nil
}

// Row returns the current row (valid until the next call to Next). The
// slice must not be modified.
func (r *Rows) Row() []sqltypes.Value { return r.cur }

// Next advances to the next row, reporting whether one is available. After
// it returns false, check Err for the difference between exhaustion and
// failure.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	if r.src != nil {
		row, err := r.srcNext()
		if err != nil {
			r.err = err
			r.Close()
			return false
		}
		if row == nil {
			r.Close()
			return false
		}
		r.cur = row
		return true
	}
	if r.root == nil {
		if r.bufPos >= len(r.buf) {
			r.Close()
			return false
		}
		r.cur = r.buf[r.bufPos]
		r.bufPos++
		return true
	}
	for r.b == nil || r.pos >= len(r.b.sel) {
		if !r.pull() {
			r.Close()
			return false
		}
	}
	r.cur = r.b.rows[r.b.sel[r.pos]]
	r.pos++
	return true
}

// pull fetches the next batch from the root operator, opening the tree on
// the first call. It runs lock-free against the exec's pinned snapshots
// and reports false on exhaustion or error (r.err set).
func (r *Rows) pull() bool {
	b, err := r.pullBatch()
	if err != nil {
		r.err = err
		return false
	}
	if b == nil {
		return false
	}
	r.b, r.pos = b, 0
	return true
}

func (r *Rows) pullBatch() (b *Batch, err error) {
	defer r.db.Recover(&err)
	ex := r.ex
	if err := ex.cancelled(); err != nil {
		return nil, err
	}
	if !r.opened {
		r.opened = true
		if err := r.root.Open(ex); err != nil {
			return nil, err
		}
	}
	return r.root.Next(ex)
}

func (r *Rows) srcNext() (row []sqltypes.Value, err error) {
	defer r.db.Recover(&err)
	return r.src.next()
}

// Scan copies the current row into dest, one target per output column.
// Supported targets: *sqltypes.Value (any value, including NULL), *int64,
// *float64, *string and *bool (which reject NULL).
func (r *Rows) Scan(dest ...any) error {
	if r.cur == nil {
		return fmt.Errorf("engine: Scan called without a successful Next")
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("engine: Scan expects %d targets, got %d", len(r.cur), len(dest))
	}
	for i, d := range dest {
		v := r.cur[i]
		switch t := d.(type) {
		case *sqltypes.Value:
			*t = v
		case *int64:
			if v.IsNull() {
				return fmt.Errorf("engine: Scan column %d: cannot scan NULL into *int64", i+1)
			}
			*t = v.AsInt()
		case *float64:
			if v.IsNull() {
				return fmt.Errorf("engine: Scan column %d: cannot scan NULL into *float64", i+1)
			}
			*t = v.AsFloat()
		case *string:
			if v.IsNull() {
				return fmt.Errorf("engine: Scan column %d: cannot scan NULL into *string", i+1)
			}
			*t = v.AsString()
		case *bool:
			if v.IsNull() {
				return fmt.Errorf("engine: Scan column %d: cannot scan NULL into *bool", i+1)
			}
			*t = v.Bool()
		default:
			return fmt.Errorf("engine: Scan column %d: unsupported target %T", i+1, d)
		}
	}
	return nil
}

// Collect drains the cursor into a materialized Result and closes it — the
// bridge that keeps Result a thin convenience over Rows. A mid-stream
// operator error propagates as the call's error; no partial result is
// returned.
func (r *Rows) Collect() (*Result, error) {
	defer r.Close()
	res := &Result{Cols: r.cols}
	if r.root == nil && r.src == nil && r.bufPos == 0 && r.err == nil && !r.closed {
		// Materialized cursor, untouched: hand the buffer over wholesale.
		res.Rows = r.buf
		r.buf = nil
		return res, nil
	}
	for r.Next() {
		res.Rows = append(res.Rows, r.cur)
	}
	if r.err != nil {
		return nil, r.err
	}
	return res, nil
}

// queryRows builds the cursor for one execution of p, a SELECT. Plan
// revalidation, bind coercion and snapshot pinning happen under db.mu
// (pinExec); operator tree construction and all execution run against the
// exec's immutable pinned snapshots, overlapping freely with writers and other
// cursors.
func (db *DB) queryRows(ctx context.Context, p *Plan, args []sqltypes.Value) (rows *Rows, err error) {
	var ex *exec
	defer func() {
		if err != nil && ex != nil {
			ex.releaseSpills() // no cursor will: it was never handed out
		}
	}()
	defer db.Recover(&err)
	if ex, err = db.pinExec(ctx, p, args); err != nil {
		return nil, err
	}
	sel := ex.plan.stmt.(*sqlast.Select)
	// An already-cancelled context fails at cursor creation, not on the
	// first pull — the contract the eager-FROM/WHERE cursor had.
	if err := ex.cancelled(); err != nil {
		return nil, err
	}
	if ex.reference {
		res, err := ex.runQueryMaterialized(sel, rootScope())
		if err != nil {
			return nil, err
		}
		return &Rows{cols: res.Cols, ex: ex, db: db, buf: res.Rows}, nil
	}
	root, err := ex.buildQueryOp(sel, rootScope())
	if err != nil {
		return nil, err
	}
	return &Rows{cols: root.cols, ex: ex, db: db, root: root.op}, nil
}
