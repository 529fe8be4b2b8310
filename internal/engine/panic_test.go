package engine

// A panic in one statement is that statement's error (DB.Recover): the
// process, the DB and the next statement live on, the exec's spill files are
// gone, and engine.panics counts it. The panic is injected as a scalar
// builtin that blows up on one value late in the heap, so breakers upstream
// have already spilled when it fires.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mtbase/internal/sqlast"
	"mtbase/internal/sqlparse"
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
			return drain(db.QueryPlanContext(context.Background(), mustPrepare(db, `SELECT id, MT_BOOM(id) AS b FROM fact ORDER BY val, id`)))
		}},
		{"materialized result", 1, func(db *DB) error {
			_, err := db.QuerySQL(`SELECT id, MT_BOOM(id) AS b FROM fact ORDER BY val, id`)
			return err
		}},
		{"parallelFor worker", 4, func(db *DB) error {
			return drain(db.QueryPlanContext(context.Background(), mustPrepare(db, `SELECT id FROM fact WHERE MT_BOOM(id) >= 0 ORDER BY val, id`)))
		}},
		{"reference executor", 1, func(db *DB) error {
			db.SetStreamExec(false)
			defer db.SetStreamExec(true)
			return drain(db.QueryPlanContext(context.Background(), mustPrepare(db, `SELECT id FROM fact WHERE MT_BOOM(id) >= 0`)))
		}},
		{"write under the DB lock", 1, func(db *DB) error {
			_, err := db.ExecSQL(`UPDATE fact SET val = MT_BOOM(id)`)
			return err
		}},
		{"gather feeder", 1, func(db *DB) error {
			part, err := db.QueryPlanContext(context.Background(), mustPrepare(db, `SELECT id, MT_BOOM(id) AS b FROM fact ORDER BY val, id`))
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
			if got := db.Stats.Panics.Load(); got != 1 {
				t.Errorf("engine.panics = %d, want 1", got)
			}
			assertDirEmpty(t, dir)

			// The same DB answers the next statement, a write included: no
			// lock, snapshot or spill state was left behind.
			if _, err := db.ExecSQL(`UPDATE fact SET val = val + 1 WHERE id = 0`); err != nil {
				t.Fatalf("write after the panic: %v", err)
			}
			rows, err := db.QueryPlanContext(context.Background(), mustPrepare(db, `SELECT COUNT(*) FROM fact WHERE MT_BOOM(id % 7) >= 0`))
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

// TestPanicInLoweringIsTheStatementsError: a plan is lowered by the prepare
// entries, or for one execution by Exec and QueryWith, under Recover — and a
// stale one is re-lowered inside the locked region of its execution, which
// releases the lock and recovers whatever the lowering does. A malformed AST
// (EXISTS over no block) makes the walker panic under Exec and QueryWith; a
// catalog holding a view without a body makes the arity check panic under the
// text entries, PrepareStatement and the re-lowering of a held plan.
func TestPanicInLoweringIsTheStatementsError(t *testing.T) {
	ctx := context.Background()
	badSel := func() *sqlast.Select {
		sel := sqlast.NewSelect()
		sel.Items = []sqlast.SelectItem{{Star: true}}
		sel.From = []sqlast.TableExpr{&sqlast.TableName{Name: "fact"}}
		sel.Where = &sqlast.ExistsExpr{}
		return sel
	}
	drain := func(rows *Rows, err error) error {
		if err != nil {
			return err
		}
		_, err = rows.Collect()
		return err
	}
	const overView = `SELECT id FROM fact WHERE id IN (SELECT * FROM hollow)`
	hollow := func(db *DB) {
		db.mu.Lock()
		defer db.mu.Unlock()
		nc := db.catalogNow().clone()
		nc.views["hollow"] = nil
		db.cat.Store(nc)
	}
	hollowed := func(run func(db *DB) error) func(db *DB) error {
		return func(db *DB) error { hollow(db); return run(db) }
	}
	// stale prepares over a table, then puts the bodiless view in its place.
	stale := func(run func(db *DB, p *Plan) error) func(db *DB) error {
		return func(db *DB) error {
			if _, err := db.ExecSQL(`CREATE TABLE hollow (id INTEGER)`); err != nil {
				return err
			}
			p, err := db.PreparePlan(overView)
			if err != nil || db.Stats.Panics.Load() != 0 {
				return fmt.Errorf("preparing over the table: %v", err)
			}
			hollow(db)
			return run(db, p)
		}
	}
	cases := []struct {
		name string
		run  func(db *DB) error
	}{
		{"Exec", func(db *DB) error {
			_, err := db.Exec(&sqlast.Delete{Table: "fact", Where: &sqlast.ExistsExpr{}})
			return err
		}},
		{"Exec of a query", func(db *DB) error { _, err := db.Exec(badSel()); return err }},
		{"QueryWith", func(db *DB) error { return drain(db.QueryWith(ctx, badSel(), nil)) }},
		{"QueryWith relations", func(db *DB) error {
			return drain(db.QueryWith(ctx, badSel(), nil, Relation{Name: "extra", Cols: []Column{{Name: "id", Type: sqltypes.KindInt}}}))
		}},
		{"ExecSQL", hollowed(func(db *DB) error { _, err := db.ExecSQL(overView); return err })},
		{"QuerySQL", hollowed(func(db *DB) error { _, err := db.QuerySQL(overView); return err })},
		{"PrepareStatement", hollowed(func(db *DB) error {
			stmt, err := sqlparse.ParseStatement(overView)
			if err == nil {
				_, err = db.PrepareStatement(stmt)
			}
			return err
		})},
		{"PreparePlan", hollowed(func(db *DB) error { _, err := db.PreparePlan(overView); return err })},
		{"ExecPlanContext re-lowering", stale(func(db *DB, p *Plan) error { _, err := db.ExecPlanContext(ctx, p); return err })},
		{"QueryPlanContext re-lowering", stale(func(db *DB, p *Plan) error { return drain(db.QueryPlanContext(ctx, p)) })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := streamTestDB(t, 100)
			err := tc.run(db)
			if !errors.Is(err, ErrInternal) {
				t.Fatalf("got %v, want ErrInternal", err)
			}
			if got := db.Stats.Panics.Load(); got != 1 {
				t.Errorf("engine.panics = %d, want 1", got)
			}
			// The lock was released: a write and a read go through.
			if _, err := db.ExecSQL(`UPDATE fact SET val = val + 1 WHERE id = 0`); err != nil {
				t.Fatalf("write after the panic: %v", err)
			}
			if res, err := db.QuerySQL(`SELECT COUNT(*) FROM fact`); err != nil || res.Rows[0][0].AsInt() != 100 {
				t.Fatalf("statement after the panic: %v %v", res, err)
			}
		})
	}
}
