package engine

// Tests for the bind-parameter subsystem: plan-time arity validation,
// type-slot coercion, NULL binds, differential compiled/interpreted
// execution, plan-cache sharing across bindings and concurrent Stmt reuse.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mtbase/internal/sqltypes"
)

// bindTestDB builds a small two-table database in the given compile mode.
func bindTestDB(t *testing.T, compiled bool) *DB {
	t.Helper()
	db := Open(ModePostgres)
	db.SetCompileExprs(compiled)
	ddl := []string{
		`CREATE TABLE items (id INTEGER NOT NULL, name VARCHAR(20) NOT NULL,
			price DECIMAL(10,2) NOT NULL, qty INTEGER NOT NULL, shipped DATE NOT NULL)`,
		`CREATE TABLE tags (item_id INTEGER NOT NULL, tag VARCHAR(20) NOT NULL)`,
	}
	for _, s := range ddl {
		if _, err := db.ExecSQL(s); err != nil {
			t.Fatal(err)
		}
	}
	ins := []string{
		`INSERT INTO items VALUES (1, 'anvil',  10.5, 3,  DATE '1995-01-10')`,
		`INSERT INTO items VALUES (2, 'bolt',   0.25, 90, DATE '1995-06-01')`,
		`INSERT INTO items VALUES (3, 'crate',  7.0,  12, DATE '1996-02-20')`,
		`INSERT INTO items VALUES (4, 'drill',  99.9, 1,  DATE '1997-11-05')`,
		`INSERT INTO tags VALUES (1, 'heavy'), (2, 'small'), (2, 'cheap'), (4, 'power')`,
	}
	for _, s := range ins {
		if _, err := db.ExecSQL(s); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func resultKey(t *testing.T, res *Result) string {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Cols, ","))
	sb.WriteByte('\n')
	for _, row := range res.Rows {
		for j, v := range row {
			if j > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(v.K.String())
			sb.WriteByte(':')
			sb.WriteString(v.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestBindDifferential executes the same parameterized statements with the
// same bindings on a compiled and an interpreted DB and on literal-inlined
// equivalents; all four results must agree.
func TestBindDifferential(t *testing.T) {
	type tc struct {
		name    string
		param   string
		inlined string
		args    []sqltypes.Value
	}
	cases := []tc{
		{
			name:    "where-compare",
			param:   `SELECT id, name FROM items WHERE qty > ? ORDER BY id`,
			inlined: `SELECT id, name FROM items WHERE qty > 5 ORDER BY id`,
			args:    []sqltypes.Value{sqltypes.NewInt(5)},
		},
		{
			name:    "dollar-reuse",
			param:   `SELECT id FROM items WHERE price > $1 OR qty > $1 ORDER BY id`,
			inlined: `SELECT id FROM items WHERE price > 10 OR qty > 10 ORDER BY id`,
			args:    []sqltypes.Value{sqltypes.NewInt(10)},
		},
		{
			name:    "date-coercion-from-string",
			param:   `SELECT id FROM items WHERE shipped < ? ORDER BY id`,
			inlined: `SELECT id FROM items WHERE shipped < DATE '1996-01-01' ORDER BY id`,
			args:    []sqltypes.Value{sqltypes.NewString("1996-01-01")},
		},
		{
			name:    "float-slot-int-bind",
			param:   `SELECT name FROM items WHERE price <= ? ORDER BY name`,
			inlined: `SELECT name FROM items WHERE price <= 7 ORDER BY name`,
			args:    []sqltypes.Value{sqltypes.NewInt(7)},
		},
		{
			name:    "between-binds",
			param:   `SELECT id FROM items WHERE qty BETWEEN ? AND ? ORDER BY id`,
			inlined: `SELECT id FROM items WHERE qty BETWEEN 2 AND 20 ORDER BY id`,
			args:    []sqltypes.Value{sqltypes.NewInt(2), sqltypes.NewInt(20)},
		},
		{
			name:    "like-bind",
			param:   `SELECT id FROM items WHERE name LIKE ? ORDER BY id`,
			inlined: `SELECT id FROM items WHERE name LIKE '%l%' ORDER BY id`,
			args:    []sqltypes.Value{sqltypes.NewString("%l%")},
		},
		{
			name:    "in-list-binds",
			param:   `SELECT name FROM items WHERE id IN (?, ?, ?) ORDER BY name`,
			inlined: `SELECT name FROM items WHERE id IN (1, 3, 4) ORDER BY name`,
			args:    []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewInt(3), sqltypes.NewInt(4)},
		},
		{
			name:    "null-bind-compare",
			param:   `SELECT id FROM items WHERE qty > ? ORDER BY id`,
			inlined: `SELECT id FROM items WHERE qty > NULL ORDER BY id`,
			args:    []sqltypes.Value{sqltypes.Null},
		},
		{
			name:    "null-bind-in-list",
			param:   `SELECT id FROM items WHERE id IN (?, ?) ORDER BY id`,
			inlined: `SELECT id FROM items WHERE id IN (2, NULL) ORDER BY id`,
			args:    []sqltypes.Value{sqltypes.NewInt(2), sqltypes.Null},
		},
		{
			name:    "bind-in-projection",
			param:   `SELECT id, price * ? AS scaled FROM items ORDER BY id`,
			inlined: `SELECT id, price * 2.0 AS scaled FROM items ORDER BY id`,
			args:    []sqltypes.Value{sqltypes.NewFloat(2.0)},
		},
		{
			name:    "bind-in-subquery",
			param:   `SELECT name FROM items WHERE id IN (SELECT item_id FROM tags WHERE tag = ?) ORDER BY name`,
			inlined: `SELECT name FROM items WHERE id IN (SELECT item_id FROM tags WHERE tag = 'cheap') ORDER BY name`,
			args:    []sqltypes.Value{sqltypes.NewString("cheap")},
		},
		{
			name:    "bind-in-join-on",
			param:   `SELECT items.name, tags.tag FROM items JOIN tags ON items.id = tags.item_id AND tags.tag <> ? ORDER BY items.name, tags.tag`,
			inlined: `SELECT items.name, tags.tag FROM items JOIN tags ON items.id = tags.item_id AND tags.tag <> 'small' ORDER BY items.name, tags.tag`,
			args:    []sqltypes.Value{sqltypes.NewString("small")},
		},
		{
			name:    "grouped-with-bind",
			param:   `SELECT tag, COUNT(*) AS n FROM tags WHERE item_id < ? GROUP BY tag ORDER BY tag`,
			inlined: `SELECT tag, COUNT(*) AS n FROM tags WHERE item_id < 3 GROUP BY tag ORDER BY tag`,
			args:    []sqltypes.Value{sqltypes.NewInt(3)},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var keys []string
			for _, compiled := range []bool{true, false} {
				db := bindTestDB(t, compiled)
				got, err := db.ExecArgs(c.param, c.args...)
				if err != nil {
					t.Fatalf("compiled=%v param: %v", compiled, err)
				}
				want, err := db.ExecSQL(c.inlined)
				if err != nil {
					t.Fatalf("compiled=%v inlined: %v", compiled, err)
				}
				gk, wk := resultKey(t, got), resultKey(t, want)
				if gk != wk {
					t.Fatalf("compiled=%v: param result differs from inlined:\nparam:\n%s\ninlined:\n%s", compiled, gk, wk)
				}
				keys = append(keys, gk)
			}
			if keys[0] != keys[1] {
				t.Fatalf("compiled and interpreted disagree:\n%s\nvs\n%s", keys[0], keys[1])
			}
		})
	}
}

// TestBindDML exercises binds in UPDATE/DELETE/INSERT in both modes.
func TestBindDML(t *testing.T) {
	for _, compiled := range []bool{true, false} {
		t.Run(fmt.Sprintf("compiled=%v", compiled), func(t *testing.T) {
			db := bindTestDB(t, compiled)
			res, err := db.ExecArgs(`UPDATE items SET qty = qty + ? WHERE price < ?`,
				sqltypes.NewInt(100), sqltypes.NewFloat(5.0))
			if err != nil {
				t.Fatal(err)
			}
			if res.Affected != 1 {
				t.Fatalf("update affected %d, want 1", res.Affected)
			}
			got, err := db.QuerySQL(`SELECT qty FROM items WHERE id = 2`)
			if err != nil {
				t.Fatal(err)
			}
			if got.Rows[0][0].AsInt() != 190 {
				t.Fatalf("qty = %v, want 190", got.Rows[0][0])
			}
			if _, err := db.ExecArgs(`INSERT INTO items VALUES (?, ?, ?, ?, ?)`,
				sqltypes.NewInt(5), sqltypes.NewString("epoxy"), sqltypes.NewFloat(3.5),
				sqltypes.NewInt(7), sqltypes.NewString("1998-03-04")); err != nil {
				t.Fatal(err)
			}
			got, err = db.QuerySQL(`SELECT shipped FROM items WHERE id = 5`)
			if err != nil {
				t.Fatal(err)
			}
			if got.Rows[0][0].K != sqltypes.KindDate {
				t.Fatalf("INSERT bind not coerced to DATE: %s", got.Rows[0][0].K)
			}
			res, err = db.ExecArgs(`DELETE FROM items WHERE id = ?`, sqltypes.NewInt(5))
			if err != nil {
				t.Fatal(err)
			}
			if res.Affected != 1 {
				t.Fatalf("delete affected %d, want 1", res.Affected)
			}
		})
	}
}

// TestBindArity checks wrong-arity errors at execution time, identically in
// both modes, and that extra args on parameterless statements fail.
func TestBindArity(t *testing.T) {
	for _, compiled := range []bool{true, false} {
		db := bindTestDB(t, compiled)
		_, err := db.ExecArgs(`SELECT id FROM items WHERE qty > ? AND price < ?`, sqltypes.NewInt(1))
		if err == nil || !strings.Contains(err.Error(), "requires 2 bind parameters, got 1") {
			t.Fatalf("compiled=%v: want arity error, got %v", compiled, err)
		}
		_, err = db.ExecArgs(`SELECT id FROM items`, sqltypes.NewInt(1))
		if err == nil || !strings.Contains(err.Error(), "requires 0 bind parameters, got 1") {
			t.Fatalf("compiled=%v: want zero-arity error, got %v", compiled, err)
		}
		// $2 referenced without $1: arity is the max index; unused slots are
		// legal but the count must match.
		_, err = db.ExecArgs(`SELECT id FROM items WHERE qty > $2`, sqltypes.NewInt(0))
		if err == nil || !strings.Contains(err.Error(), "requires 2 bind parameters") {
			t.Fatalf("compiled=%v: want max-index arity error, got %v", compiled, err)
		}
		if _, err = db.ExecArgs(`SELECT id FROM items WHERE qty > $2`,
			sqltypes.Null, sqltypes.NewInt(0)); err != nil {
			t.Fatalf("compiled=%v: unused slot should be legal: %v", compiled, err)
		}
		// DDL never takes binds.
		_, err = db.ExecArgs(`DROP TABLE tags`, sqltypes.NewInt(1))
		if err == nil || !strings.Contains(err.Error(), "takes no bind parameters") {
			t.Fatalf("compiled=%v: want DDL bind rejection, got %v", compiled, err)
		}
	}
}

// TestBindCoercionFallback: hints are advisory. A bind that cannot be
// coerced losslessly to its slot's hinted kind passes through unconverted
// and evaluates exactly like the literal-inlined form — a malformed date
// string compares as SQL unknown (no rows, no error), a fractional float
// against an INTEGER slot compares numerically.
func TestBindCoercionFallback(t *testing.T) {
	for _, compiled := range []bool{true, false} {
		db := bindTestDB(t, compiled)
		res, err := db.ExecArgs(`SELECT id FROM items WHERE shipped < ?`, sqltypes.NewString("not-a-date"))
		if err != nil {
			t.Fatalf("compiled=%v: %v", compiled, err)
		}
		if len(res.Rows) != 0 {
			t.Fatalf("compiled=%v: string/date comparison must be unknown, got %d rows", compiled, len(res.Rows))
		}
		got, err := db.ExecArgs(`SELECT id FROM items WHERE qty > ? ORDER BY id`, sqltypes.NewFloat(1.5))
		if err != nil {
			t.Fatalf("compiled=%v: %v", compiled, err)
		}
		want, err := db.ExecSQL(`SELECT id FROM items WHERE qty > 1.5 ORDER BY id`)
		if err != nil {
			t.Fatal(err)
		}
		if gk, wk := resultKey(t, got), resultKey(t, want); gk != wk {
			t.Fatalf("compiled=%v: fractional bind against int slot differs from inlined:\n%s\nvs\n%s", compiled, gk, wk)
		}
	}
}

// TestPlanCacheSharedAcrossBindings executes one parameterized text 100×
// with distinct bindings: every execution after the first must be a plan
// cache hit (the acceptance criterion for literal-varying workloads).
func TestPlanCacheSharedAcrossBindings(t *testing.T) {
	db := bindTestDB(t, true)
	const sql = `SELECT id, name FROM items WHERE qty > ? ORDER BY id`
	db.Stats = Stats{}
	for i := 0; i < 100; i++ {
		// The middleware's statement: the text through the plan cache, then
		// the plan with this execution's bindings.
		p, err := db.PreparePlan(sql)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := db.QueryPlanContext(context.Background(), p, sqltypes.NewInt(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rows.Collect(); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats.PlanCacheHits.Load() < 99 {
		t.Fatalf("plan cache hits = %d of 100, want >= 99", db.Stats.PlanCacheHits.Load())
	}
	if db.Stats.PlanCacheMisses.Load() > 1 {
		t.Fatalf("plan cache misses = %d, want <= 1", db.Stats.PlanCacheMisses.Load())
	}
}

// TestPlanConcurrent reuses one Plan from many goroutines with different
// bindings; run under -race this enforces that executions of one cached
// plan share no mutable state.
func TestPlanConcurrent(t *testing.T) {
	db := bindTestDB(t, true)
	p, err := db.PreparePlan(`SELECT COUNT(*) AS n FROM items WHERE qty >= ?`)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]int64{0: 4, 2: 3, 10: 2, 100: 0}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				for arg, n := range want {
					rows, err := db.QueryPlanContext(context.Background(), p, sqltypes.NewInt(arg))
					if err != nil {
						errs <- err
						return
					}
					res, err := rows.Collect()
					if err != nil {
						errs <- err
						return
					}
					if got := res.Rows[0][0].AsInt(); got != n {
						errs <- fmt.Errorf("qty >= %d: got %d, want %d", arg, got, n)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestBindInsideUDFBodyKeepsFunctionArgs: $n inside a UDF body still
// resolves to the function argument, not to a statement bind, even when
// the statement itself carries binds.
func TestBindInsideUDFBodyKeepsFunctionArgs(t *testing.T) {
	for _, compiled := range []bool{true, false} {
		db := bindTestDB(t, compiled)
		if _, err := db.ExecSQL(`CREATE FUNCTION triple (INTEGER) RETURNS INTEGER
			AS 'SELECT $1 * 3' LANGUAGE SQL IMMUTABLE`); err != nil {
			t.Fatal(err)
		}
		res, err := db.ExecArgs(`SELECT id, triple(qty) AS t3 FROM items WHERE id = $1`, sqltypes.NewInt(2))
		if err != nil {
			t.Fatalf("compiled=%v: %v", compiled, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][1].AsInt() != 270 {
			t.Fatalf("compiled=%v: triple(qty) rows = %v", compiled, res.Rows)
		}
	}
}

// TestQueryContextCancel: an already-cancelled context aborts execution at
// the first batch boundary.
func TestQueryContextCancel(t *testing.T) {
	db := bindTestDB(t, true)
	// Blow the table up past several batches so the scan must hit a
	// boundary check.
	tab := db.Table("items")
	row := append([]sqltypes.Value(nil), tab.Heap()[0]...)
	for i := 0; i < 5000; i++ {
		r := append([]sqltypes.Value(nil), row...)
		tab.AppendRow(r)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.ExecContext(ctx, `SELECT COUNT(*) AS n FROM items WHERE qty > 0`)
	if err == nil || err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Streaming cursor: cancellation surfaces from Next.
	ctx2, cancel2 := context.WithCancel(context.Background())
	rows, err := db.QueryContext(ctx2, `SELECT id FROM items`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("first Next failed: %v", rows.Err())
	}
	cancel2()
	for rows.Next() {
	}
	if rows.Err() != context.Canceled {
		t.Fatalf("want context.Canceled from cursor, got %v", rows.Err())
	}
}
