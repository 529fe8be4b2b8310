package engine

import (
	"fmt"
	"testing"

	"mtbase/internal/sqltypes"
)

// outcome renders a statement's result kind-sensitively, or its error text.
func outcome(db *DB, sql string) string {
	res, err := db.QuerySQL(sql)
	if err != nil {
		return "error: " + err.Error()
	}
	out := ""
	for _, row := range res.Rows {
		for _, v := range row {
			out += fmt.Sprintf("%v:%s ", v.K, v)
		}
		out += "\n"
	}
	return out
}

// acrossModesAndEvaluators runs sql on a fresh database per engine mode,
// under production and under the evaluator check, and requires one outcome.
func acrossModesAndEvaluators(t *testing.T, setup func(*DB), sql, want string) {
	t.Helper()
	for _, mode := range []Mode{ModePostgres, ModeSystemC} {
		for _, compiled := range []bool{true, false} {
			db := Open(mode)
			setup(db)
			db.SetCompileExprs(compiled)
			if got := outcome(db, sql); got != want {
				t.Errorf("mode %s compiled=%v %q:\n got %q\nwant %q", mode, compiled, sql, got, want)
			}
		}
	}
}

// TestUDFResultCacheKey: the statement's IMMUTABLE-result cache must tell
// apart what a body can tell apart. Its key used to be the function name
// followed by grouping keys, so INTEGER 3 hit DECIMAL 3.00's entry and
// f(NULL) hit fn()'s.
func TestUDFResultCacheKey(t *testing.T) {
	setup := func(db *DB) {
		if _, err := db.ExecScript(`
			CREATE TABLE t (a INTEGER, b DECIMAL);
			CREATE FUNCTION half (DECIMAL) RETURNS DECIMAL AS 'SELECT $1 / 2' LANGUAGE SQL IMMUTABLE;
			CREATE FUNCTION f (INTEGER) RETURNS INTEGER AS 'SELECT 1' LANGUAGE SQL IMMUTABLE;
			CREATE FUNCTION fn () RETURNS INTEGER AS 'SELECT 2' LANGUAGE SQL IMMUTABLE`); err != nil {
			t.Fatal(err)
		}
		db.Table("t").AppendRow([]sqltypes.Value{sqltypes.NewInt(3), sqltypes.NewFloat(3)})
	}
	acrossModesAndEvaluators(t, setup, "SELECT half(a), half(b) FROM t", "INTEGER:1 DECIMAL:1.50 \n")
	acrossModesAndEvaluators(t, setup, "SELECT half(b), half(a) FROM t", "DECIMAL:1.50 INTEGER:1 \n")
	acrossModesAndEvaluators(t, setup, "SELECT f(NULL), fn() FROM t", "INTEGER:1 INTEGER:2 \n")
}

// TestPlannedUDFProjectionWindows: a planned body's projection runs over its
// cached relation in batch-sized windows. Like the interpreter it returns
// the first row's value and evaluates every row, so an error in a later
// window surfaces — the first one in row order, whichever window it is in.
func TestPlannedUDFProjectionWindows(t *testing.T) {
	const rows = 2*batchSize + 500
	setup := func(divZero, modZero int) func(*DB) {
		return func(db *DB) {
			if _, err := db.ExecScript(`
				CREATE TABLE m (k INTEGER, v INTEGER);
				CREATE TABLE one (x INTEGER);
				CREATE FUNCTION g (INTEGER, INTEGER) RETURNS INTEGER
					AS 'SELECT CASE WHEN v < 0 THEN $1 % (v + 1) ELSE $1 / v END FROM m WHERE k >= $2'
					LANGUAGE SQL IMMUTABLE`); err != nil {
				t.Fatal(err)
			}
			m := db.Table("m")
			for i := 0; i < rows; i++ {
				v := int64(4 + i%3)
				switch i {
				case divZero:
					v = 0
				case modZero:
					v = -1
				}
				m.AppendRow([]sqltypes.Value{sqltypes.NewInt(int64(i)), sqltypes.NewInt(v)})
			}
			db.Table("one").AppendRow([]sqltypes.Value{sqltypes.NewInt(100)})
		}
	}
	const (
		divErr = "error: engine: in function g: sqltypes: division by zero"
		modErr = "error: engine: in function g: engine: modulo by zero"
	)
	for _, c := range []struct {
		name             string
		divZero, modZero int
		sql, want        string
	}{
		{"first row's value", -1, -1, "SELECT g(x, 0), g(x, 1) FROM one", "INTEGER:25 INTEGER:20 \n"},
		{"empty relation", -1, -1, "SELECT g(x, 5000) FROM one", "NULL:NULL \n"},
		{"error in the last window", rows - 10, -1, "SELECT g(x, 0) FROM one", divErr},
		{"filtered out by the body's WHERE", 3, -1, "SELECT g(x, 4) FROM one", "INTEGER:20 \n"},
		{"first error in row order, two windows", batchSize + 7, 2*batchSize + 7, "SELECT g(x, 0) FROM one", divErr},
		{"first error in row order, swapped", 2*batchSize + 7, batchSize + 7, "SELECT g(x, 0) FROM one", modErr},
		{"first error in row order, one window", batchSize + 9, batchSize + 8, "SELECT g(x, 0) FROM one", modErr},
	} {
		t.Run(c.name, func(t *testing.T) {
			acrossModesAndEvaluators(t, setup(c.divZero, c.modZero), c.sql, c.want)
		})
	}
}

// TestRecursiveUDFLiftedSubtree: a subtree without a kernel (a non-literal IN
// list) is interpreted in the projection's one scope, and the recursive call
// in the middle of it runs the same projection over other rows; the row the
// outer activation was on must be back when the call returns.
func TestRecursiveUDFLiftedSubtree(t *testing.T) {
	setup := func(db *DB) {
		if _, err := db.ExecScript(`
			CREATE TABLE t2 (y INTEGER);
			CREATE FUNCTION f (INTEGER) RETURNS INTEGER
				AS 'SELECT CASE WHEN $1 <= 0 THEN 0 WHEN y IN (f($1 - 1), y) THEN 1 + $1 ELSE 100 END FROM t2'
				LANGUAGE SQL IMMUTABLE`); err != nil {
			t.Fatal(err)
		}
		db.Table("t2").AppendRow([]sqltypes.Value{sqltypes.NewInt(0)})
		db.Table("t2").AppendRow([]sqltypes.Value{sqltypes.NewInt(1)})
	}
	acrossModesAndEvaluators(t, setup, "SELECT f(2), f(3) FROM t2", "INTEGER:3 INTEGER:4 \nINTEGER:3 INTEGER:4 \n")
}

// TestNestedUDFProjections: a planned body that calls another planned body
// mid-batch finds its own batch untouched afterwards — each level of UDF
// nesting projects on a batch of its own.
func TestNestedUDFProjections(t *testing.T) {
	setup := func(db *DB) {
		if _, err := db.ExecScript(`
			CREATE TABLE t1 (w INTEGER);
			CREATE TABLE t3 (y INTEGER);
			CREATE FUNCTION g (INTEGER) RETURNS INTEGER AS 'SELECT $1 * w FROM t1' LANGUAGE SQL IMMUTABLE;
			CREATE FUNCTION f (INTEGER) RETURNS INTEGER AS 'SELECT g($1 + y) + y FROM t3' LANGUAGE SQL IMMUTABLE`); err != nil {
			t.Fatal(err)
		}
		db.Table("t1").AppendRow([]sqltypes.Value{sqltypes.NewInt(2)})
		for _, y := range []int64{10, 20, 30} {
			db.Table("t3").AppendRow([]sqltypes.Value{sqltypes.NewInt(y)})
		}
	}
	acrossModesAndEvaluators(t, setup, "SELECT f(5), f(y) FROM t3", "INTEGER:40 INTEGER:50 \nINTEGER:40 INTEGER:70 \nINTEGER:40 INTEGER:90 \n")
}
