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

// RowSource is a row supplier a Rows can wrap instead of an operator tree:
// the reference executor's materialized result, a result streamed over the
// wire. Next returns the following row, nil on exhaustion; a row it returns
// is never overwritten, so Collect keeps it without a copy. Close releases
// the source and every resource behind it. Both are called by the single
// cursor consumer only.
type RowSource interface {
	Next() ([]sqltypes.Value, error)
	Close() error
}

// NewRows returns a cursor labelled cols over the rows of src.
func NewRows(cols []string, src RowSource) *Rows { return &Rows{cols: cols, src: src} }

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

	// Source mode: rows come from a RowSource rather than an operator tree
	// of this engine.
	src RowSource

	cur    []sqltypes.Value
	err    error
	closed bool
}

// Columns returns the output column names.
func (r *Rows) Columns() []string { return r.cols }

// Relabel names the cursor's columns cols, one per column, and returns the
// cursor: the shard tier heads a fold on its replica as the client's
// statement is headed.
func (r *Rows) Relabel(cols []string) *Rows {
	r.cols = cols
	return r
}

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
	r.b, r.cur = nil, nil
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
		return r.src.Close()
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
	return r.src.Next()
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
		return &Rows{cols: res.Cols, ex: ex, db: db, src: &sliceSource{rows: res.Rows}}, nil
	}
	root, err := ex.buildQueryOp(sel, rootScope())
	if err != nil {
		return nil, err
	}
	return &Rows{cols: root.cols, ex: ex, db: db, root: root.op}, nil
}

// sliceSource hands out the rows of a materialized result in order.
type sliceSource struct{ rows [][]sqltypes.Value }

func (s *sliceSource) Next() ([]sqltypes.Value, error) {
	if len(s.rows) == 0 {
		return nil, nil
	}
	row := s.rows[0]
	s.rows = s.rows[1:]
	return row, nil
}

func (s *sliceSource) Close() error {
	s.rows = nil
	return nil
}
