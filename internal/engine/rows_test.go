package engine

// Tests for the streaming Rows cursor: parity with the materialized Result,
// genuine laziness of the projection (rows arrive before later batches are
// evaluated), Scan targets and LIMIT handling.

import (
	"context"
	"strings"
	"testing"

	"mtbase/internal/sqltypes"
)

// rowsTestDB builds a table with n rows (id 0..n-1, val = id, div = n-1-id).
func rowsTestDB(t *testing.T, compiled bool, n int) *DB {
	t.Helper()
	db := Open(ModePostgres)
	db.SetCompileExprs(compiled)
	if _, err := db.ExecSQL(`CREATE TABLE seq (id INTEGER NOT NULL, val INTEGER NOT NULL, div INTEGER NOT NULL)`); err != nil {
		t.Fatal(err)
	}
	tab := db.Table("seq")
	rows := make([][]sqltypes.Value, n)
	for i := 0; i < n; i++ {
		rows[i] = []sqltypes.Value{
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(n - 1 - i)),
		}
	}
	tab.BulkLoad(rows)
	return db
}

// TestRowsMatchesResult drains cursors for a spread of query shapes —
// every one of which streams through the operator tree — in the production
// and evaluator-check configurations and compares their outcomes, rows or
// error, against the reference executor's; a shape with wantErr must raise
// it in the reference, every other shape must answer.
func TestRowsMatchesResult(t *testing.T) {
	queries := []struct{ sql, wantErr string }{
		{`SELECT id, val FROM seq WHERE val % 3 = 0`, ""},              // scan shape
		{`SELECT id, val * 2 AS dbl FROM seq WHERE id < 100`, ""},      // scan w/ expr
		{`SELECT * FROM seq WHERE id >= 2500`, ""},                     // star
		{`SELECT id FROM seq WHERE id < 10 ORDER BY id DESC`, ""},      // sort breaker
		{`SELECT val % 5 AS k, COUNT(*) AS n FROM seq GROUP BY k`, ""}, // group breaker
		{`SELECT DISTINCT val % 7 AS k FROM seq`, ""},                  // distinct: a grouping
		{`SELECT id FROM seq WHERE id > 100 LIMIT 17`, ""},             // streamed limit
		// DISTINCT drains its input before LIMIT takes a row, so the last
		// row's modulo by zero is raised, as the reference raises it.
		{`SELECT DISTINCT val % 7 AS k, 100 % div AS m FROM seq LIMIT 3`, "modulo by zero"},
	}
	db := rowsTestDB(t, true, 3000)
	for _, q := range queries {
		cfgReference.apply(db)
		want := execKey(db.QuerySQL(q.sql))
		if isErr := strings.HasPrefix(want, "error: "); isErr != (q.wantErr != "") || !strings.Contains(want, q.wantErr) {
			t.Fatalf("reference %q: %.300s (want error %q)", q.sql, want, q.wantErr)
		}
		for _, cfg := range checkedConfigs {
			cfg.apply(db)
			rows, err := db.QueryPlanContext(context.Background(), mustPrepare(db, q.sql))
			got := "error: "
			if err == nil {
				got = execKey(rows.Collect())
			} else {
				got += err.Error()
			}
			if got != want {
				t.Fatalf("%s %q: cursor differs from reference\n%.300s\nvs\n%.300s", cfg.name, q.sql, got, want)
			}
		}
	}
}

// TestRowsStreamsLazily proves the projection is not materialized up front:
// a row deep in the table poisons the projection (modulo by zero), yet every
// row of the earlier batches is delivered through Next before the error
// surfaces. The materialized Result path fails wholesale on the same query.
func TestRowsStreamsLazily(t *testing.T) {
	db := rowsTestDB(t, true, 3000)
	// div = 0 only at id = 2999, far past the first batch of 1024.
	q := `SELECT id, 100 % div AS m FROM seq`
	rows, err := db.QueryPlanContext(context.Background(), mustPrepare(db, q))
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for rows.Next() {
		seen++
	}
	if rows.Err() == nil || !strings.Contains(rows.Err().Error(), "modulo by zero") {
		t.Fatalf("want modulo error from cursor, got %v", rows.Err())
	}
	// Everything before the poisoned batch was already delivered.
	if seen < batchSize || seen >= 3000 {
		t.Fatalf("delivered %d rows before error; want >= %d and < 3000", seen, batchSize)
	}
	// The convenience wrapper fails as a whole, like the old Result path.
	if _, err := db.QuerySQL(q); err == nil {
		t.Fatal("QuerySQL should fail on the poisoned projection")
	}
}

// TestRowsScan exercises the Scan targets, NULL rejection included.
func TestRowsScan(t *testing.T) {
	db := bindTestDB(t, true)
	rows, err := db.QueryPlanContext(context.Background(), mustPrepare(db, `SELECT id, name, price FROM seqless LIMIT 1`))
	if err == nil {
		t.Fatal("expected error for unknown table")
	}
	rows, err = db.QueryPlanContext(context.Background(), mustPrepare(db, `SELECT id, name, price FROM items WHERE id = 1`))
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no row: %v", rows.Err())
	}
	var (
		id    int64
		name  string
		price float64
	)
	if err := rows.Scan(&id, &name, &price); err != nil {
		t.Fatal(err)
	}
	if id != 1 || name != "anvil" || price != 10.5 {
		t.Fatalf("scanned (%d, %q, %v)", id, name, price)
	}
	if err := rows.Scan(&id); err == nil || !strings.Contains(err.Error(), "expects 3 targets") {
		t.Fatalf("want target-count error, got %v", err)
	}
	var v sqltypes.Value
	if err := rows.Scan(&v, &v, &v); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if rows.Next() {
		t.Fatal("Next after Close must be false")
	}

	// NULL into a typed target errors; into *sqltypes.Value it is fine.
	nr, err := db.QueryPlanContext(context.Background(), mustPrepare(db, `SELECT NULL AS n FROM items WHERE id = 1`))
	if err != nil {
		t.Fatal(err)
	}
	if !nr.Next() {
		t.Fatalf("no row: %v", nr.Err())
	}
	var s string
	if err := nr.Scan(&s); err == nil || !strings.Contains(err.Error(), "NULL") {
		t.Fatalf("want NULL scan error, got %v", err)
	}
	if err := nr.Scan(&v); err != nil || !v.IsNull() {
		t.Fatalf("NULL into Value: %v %v", v, err)
	}
}

// TestRowsLimitStreams checks LIMIT stops the cursor without draining the
// source (the countdown path).
func TestRowsLimitStreams(t *testing.T) {
	for _, compiled := range []bool{true, false} {
		db := rowsTestDB(t, compiled, 3000)
		rows, err := db.QueryPlanContext(context.Background(), mustPrepare(db, `SELECT id FROM seq LIMIT 5`))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		if n != 5 {
			t.Fatalf("compiled=%v: LIMIT 5 delivered %d rows", compiled, n)
		}
	}
}

// TestMaterializedQueryAtomicWithWriters: the materializing entry points
// run end to end under DB.mu, so they stay safe against concurrent
// in-place UPDATEs (regression for the streaming redesign; run with -race).
func TestMaterializedQueryAtomicWithWriters(t *testing.T) {
	db := rowsTestDB(t, true, 2000)
	done := make(chan error, 2)
	go func() {
		for i := 0; i < 50; i++ {
			if _, err := db.QuerySQL(`SELECT id, val * 2 AS d FROM seq WHERE val % 3 = 0`); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < 50; i++ {
			if _, err := db.ExecPlanContext(context.Background(), mustPrepare(db, `UPDATE seq SET val = val + ? WHERE id % 7 = 0`), sqltypes.NewInt(1)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
