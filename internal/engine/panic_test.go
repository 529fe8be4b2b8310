package engine

// A panic in one statement is that statement's error (DB.Recover): the
// process, the DB and the next statement live on, the exec's spill files are
// gone, and engine.panics counts it. The panic is injected as a scalar
// builtin that blows up on one value late in the heap, so breakers upstream
// have already spilled when it fires.

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"mtbase/internal/sqltypes"
)

// injectBoom registers MT_BOOM(x): x, except that it panics on trigger.
func injectBoom(t *testing.T, trigger int64) {
	t.Helper()
	strictBuiltins["MT_BOOM"] = func(v sqltypes.Value) sqltypes.Value {
		if v.AsInt() == trigger {
			panic("boom: injected by panic_test")
		}
		return v
	}
	t.Cleanup(func() { delete(strictBuiltins, "MT_BOOM") })
}

func TestPanicIsTheStatementsError(t *testing.T) {
	const n = 6000
	injectBoom(t, n-1)
	SetMorselSize(1024)
	t.Cleanup(func() { SetMorselSize(0) })

	drain := func(rows *Rows, err error) error {
		if err != nil {
			return err
		}
		defer rows.Close()
		for rows.Next() {
		}
		return rows.Err()
	}
	cases := []struct {
		name string
		par  int
		run  func(db *DB) error
	}{
		{"cursor over a spilled sort", 1, func(db *DB) error {
			return drain(db.QueryRows(`SELECT id, MT_BOOM(id) AS b FROM fact ORDER BY val, id`))
		}},
		{"materialized result", 1, func(db *DB) error {
			_, err := db.QuerySQL(`SELECT id, MT_BOOM(id) AS b FROM fact ORDER BY val, id`)
			return err
		}},
		{"parallelFor worker", 4, func(db *DB) error {
			return drain(db.QueryRows(`SELECT id FROM fact WHERE MT_BOOM(id) >= 0 ORDER BY val, id`))
		}},
		{"reference executor", 1, func(db *DB) error {
			db.SetStreamExec(false)
			defer db.SetStreamExec(true)
			return drain(db.QueryRows(`SELECT id FROM fact WHERE MT_BOOM(id) >= 0`))
		}},
		{"write under the DB lock", 1, func(db *DB) error {
			_, err := db.ExecSQL(`UPDATE fact SET val = MT_BOOM(id)`)
			return err
		}},
		{"gather feeder", 1, func(db *DB) error {
			part, err := db.QueryRows(`SELECT id, MT_BOOM(id) AS b FROM fact ORDER BY val, id`)
			if err != nil {
				return err
			}
			return drain(ConcatRows(part.Columns(), -1, part), nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := streamTestDB(t, n)
			dir := t.TempDir()
			db.SetSpillDir(dir)
			db.SetMemoryLimit(16 << 10)
			db.SetParallelism(tc.par)

			err := tc.run(db)
			if !errors.Is(err, ErrInternal) || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("got %v, want ErrInternal carrying the panic value", err)
			}
			if got := atomic.LoadInt64(&db.Stats.Panics); got != 1 {
				t.Errorf("engine.panics = %d, want 1", got)
			}
			assertDirEmpty(t, dir)

			// The same DB answers the next statement, a write included: no
			// lock, snapshot or spill state was left behind.
			if _, err := db.ExecSQL(`UPDATE fact SET val = val + 1 WHERE id = 0`); err != nil {
				t.Fatalf("write after the panic: %v", err)
			}
			rows, err := db.QueryContext(context.Background(), `SELECT COUNT(*) FROM fact WHERE MT_BOOM(id % 7) >= 0`)
			if err != nil {
				t.Fatal(err)
			}
			res, err := rows.Collect()
			if err != nil || res.Rows[0][0].AsInt() != n {
				t.Fatalf("statement after the panic: %v %v", res, err)
			}
			assertDirEmpty(t, dir)
		})
	}
}
