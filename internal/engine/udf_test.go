package engine

import (
	"context"
	"fmt"
	"maps"
	"math"
	"strings"
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
// f(NULL) hit fn()'s; and the grouping key encodes every INTERVAL alike, so a
// day hit two days' entry.
func TestUDFResultCacheKey(t *testing.T) {
	setup := func(db *DB) {
		if _, err := db.ExecScript(`
			CREATE TABLE t (a INTEGER, b DECIMAL);
			CREATE FUNCTION half (DECIMAL) RETURNS DECIMAL AS 'SELECT $1 / 2' LANGUAGE SQL IMMUTABLE;
			CREATE FUNCTION f (INTEGER) RETURNS INTEGER AS 'SELECT 1' LANGUAGE SQL IMMUTABLE;
			CREATE FUNCTION fn () RETURNS INTEGER AS 'SELECT 2' LANGUAGE SQL IMMUTABLE;
			CREATE FUNCTION later (DATE, INTEGER) RETURNS DATE AS 'SELECT $1 + $2' LANGUAGE SQL IMMUTABLE`); err != nil {
			t.Fatal(err)
		}
		db.Table("t").AppendRow([]sqltypes.Value{sqltypes.NewInt(3), sqltypes.NewFloat(3)})
	}
	acrossModesAndEvaluators(t, setup, "SELECT half(a), half(b) FROM t", "INTEGER:1 DECIMAL:1.50 \n")
	acrossModesAndEvaluators(t, setup, "SELECT half(b), half(a) FROM t", "DECIMAL:1.50 INTEGER:1 \n")
	acrossModesAndEvaluators(t, setup, "SELECT f(NULL), fn() FROM t", "INTEGER:1 INTEGER:2 \n")
	acrossModesAndEvaluators(t, setup, "SELECT later(DATE '2020-01-01', INTERVAL '1' DAY), later(DATE '2020-01-01', INTERVAL '2' DAY) FROM t",
		"DATE:2020-01-02 DATE:2020-01-03 \n")
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

// udfParityDB holds facts over five tenant keys, one of them (5) without a
// meta row and one (3) whose body divides by zero, and a function of every
// kind the call kernel meets: a planned conversion, the same without
// IMMUTABLE, a VARCHAR argument and a third argument (the encoded cache key),
// a recursive body, a projection whose IN list is lifted to the interpreter
// with a $n inside it, a cross product whose join order follows the WHERE
// key, a body whose result is VARCHAR for some keys and DECIMAL for others,
// and one that fails for -0 and not for +0, which are one key.
func udfParityDB(t *testing.T, mode Mode, n int) *DB {
	t.Helper()
	db := Open(mode)
	if _, err := db.ExecScript(`
		CREATE TABLE meta (tk INTEGER, rate DECIMAL, label VARCHAR(8), div INTEGER);
		CREATE TABLE facts (id INTEGER, tk INTEGER, amt DECIMAL, name VARCHAR(8));
		CREATE FUNCTION conv (DECIMAL, INTEGER) RETURNS DECIMAL
			AS 'SELECT rate * $1 / div FROM meta WHERE tk = $2' LANGUAGE SQL IMMUTABLE;
		CREATE FUNCTION convv (DECIMAL, INTEGER) RETURNS DECIMAL
			AS 'SELECT rate * $1 / div FROM meta WHERE tk = $2' LANGUAGE SQL;
		CREATE FUNCTION tag (VARCHAR(8), INTEGER) RETURNS VARCHAR(16)
			AS 'SELECT CONCAT(label, $1) FROM meta WHERE tk = $2' LANGUAGE SQL IMMUTABLE;
		CREATE FUNCTION scale3 (DECIMAL, INTEGER, INTEGER) RETURNS DECIMAL
			AS 'SELECT rate * $1 + $3 FROM meta WHERE tk = $2' LANGUAGE SQL IMMUTABLE;
		CREATE FUNCTION fact (INTEGER) RETURNS INTEGER
			AS 'SELECT CASE WHEN $1 <= 0 THEN 1 ELSE $1 * fact($1 - 1) END' LANGUAGE SQL IMMUTABLE;
		CREATE FUNCTION lifted (INTEGER, INTEGER) RETURNS DECIMAL
			AS 'SELECT CASE WHEN $1 IN (div, tk, 2) THEN rate ELSE $1 END FROM meta WHERE tk = $2' LANGUAGE SQL IMMUTABLE;
		CREATE TABLE cx (k INTEGER, v INTEGER);
		CREATE TABLE cy (k INTEGER, w INTEGER);
		CREATE TABLE cz (k INTEGER, u INTEGER);
		CREATE FUNCTION cross3 (INTEGER, INTEGER) RETURNS INTEGER
			AS 'SELECT v * 100 + w * 10 + u FROM cx, cy, cz WHERE cx.k = $1 AND cy.k = $2 AND cz.k = $2' LANGUAGE SQL IMMUTABLE;
		CREATE FUNCTION mixed (DECIMAL, INTEGER) RETURNS VARCHAR(16)
			AS 'SELECT CASE WHEN $1 > 3 THEN CONCAT(label, $1) ELSE rate * $1 END FROM meta WHERE tk = $2' LANGUAGE SQL IMMUTABLE;
		CREATE FUNCTION fragile (DECIMAL, INTEGER) RETURNS DECIMAL
			AS 'SELECT rate / (CHAR_LENGTH(CONCAT(label, $1)) - 8) FROM meta WHERE tk = $2' LANGUAGE SQL IMMUTABLE`); err != nil {
		t.Fatal(err)
	}
	// cross3's three sources share no join conjunct, so the cross product
	// takes the smaller of cy and cz first: cy for key 1, cz for key 2.
	db.Table("cx").AppendRow([]sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewInt(1)})
	for _, r := range [][3]int64{{1, 1, 2}, {2, 3, 4}, {2, 5, 6}} {
		db.Table("cy").AppendRow([]sqltypes.Value{sqltypes.NewInt(r[0]), sqltypes.NewInt(r[1])})
		db.Table("cz").AppendRow([]sqltypes.Value{sqltypes.NewInt(3 - r[0]), sqltypes.NewInt(r[2])})
	}
	for tk := int64(1); tk <= 4; tk++ {
		div := tk
		if tk == 3 {
			div = 0
		}
		db.Table("meta").AppendRow([]sqltypes.Value{sqltypes.NewInt(tk), sqltypes.NewFloat(float64(tk) + 0.5),
			sqltypes.NewString(fmt.Sprintf("+%d-", tk)), sqltypes.NewInt(div)})
	}
	rows := make([][]sqltypes.Value, n)
	for i := range rows {
		id := int64(i)
		tk, amt := sqltypes.NewInt(id%5+1), sqltypes.NewFloat(float64(id%7)*1.5)
		if id%13 == 0 {
			tk = sqltypes.Null
		}
		if id%11 == 0 {
			amt = sqltypes.Null
		}
		rows[i] = []sqltypes.Value{sqltypes.NewInt(id), tk, amt, sqltypes.NewString(fmt.Sprintf("n%d", id%4))}
	}
	db.Table("facts").BulkLoad(rows)
	return db
}

// udfParityStmts call every function of udfParityDB over the facts: in a
// projection, a filter, an aggregate's argument and a group's output, with
// tenant 3 filtered out and not, with an argument that fails on one row, and
// with -0 and +0, which are one key: a later call is answered what the first
// one returned.
var udfParityStmts = []string{
	`SELECT id, conv(amt, tk) FROM facts WHERE tk <> 3 OR tk IS NULL`,
	`SELECT id, conv(amt, tk) FROM facts`,
	`SELECT SUM(conv(amt, tk)), COUNT(*) FROM facts WHERE tk <> 3`,
	`SELECT COUNT(*) FROM facts WHERE tk <> 3 AND conv(amt, tk) > 2`,
	`SELECT tk, conv(SUM(amt), tk) FROM facts WHERE tk <> 3 GROUP BY tk`,
	`SELECT id, conv(100 / (id - 1717), 1) FROM facts`,
	`SELECT id, convv(amt, tk) FROM facts WHERE tk <> 3`,
	`SELECT id, tag(name, tk) FROM facts`,
	`SELECT id, scale3(amt, tk, id % 3) FROM facts WHERE tk <> 3`,
	`SELECT id, fact(id % 8) FROM facts`,
	`SELECT id, lifted(id % 5, tk) FROM facts`,
	`SELECT id, conv(conv(amt, tk), id % 2 + 1) FROM facts WHERE tk <> 3`,
	`SELECT id, conv(CASE WHEN id % 3 = 1 THEN -(0.0) ELSE 0.0 END, tk) FROM facts WHERE tk <> 3`,
	`SELECT id, cross3(1, id % 2 + 1) FROM facts`,
	// A failing key (tenant 3) repeats in every batch beside a succeeding one.
	`SELECT id, conv(1, tk) FROM facts WHERE tk = 3 OR tk = 1`,
	// NULL and VARCHAR arguments in one batch: fixed and encoded keys meet.
	`SELECT id, tag(CASE WHEN id % 3 = 0 THEN NULL ELSE name END, tk) FROM facts`,
	// VARCHAR results for some keys, DECIMAL for others, and ±0 among them.
	`SELECT id, mixed(CASE WHEN id % 7 = 1 THEN -(0.0) WHEN id % 7 = 2 THEN 0.0 ELSE amt END, tk) FROM facts WHERE tk <> 3`,
	// -0 fails ('+1--0.00' is eight characters) and +0 does not: a key's
	// first call fails where it is -0, and the next row of the key runs it
	// again. Which row that is decides the count of body executions.
	`SELECT id, fragile(CASE WHEN id % 3 = 1 THEN -(0.0) ELSE 0.0 END, tk) FROM facts WHERE tk <> 3`,
}

// exactKey renders a statement's outcome like execKey, with every DECIMAL's
// bits, so that a value is compared byte for byte and not as printed.
func exactKey(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	for _, row := range res.Rows {
		for _, v := range row {
			fmt.Fprintf(&sb, "%v:%s:%x|", v.K, v.String(), math.Float64bits(v.F))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestUDFBatchParity: the call kernel answers a batch of calls at once — the
// cache's hits, then one memo probe per tenant key and one projection run —
// and must answer what calling one row at a time does. Over more than three
// batches of one-batch morsels, values and the first error equal the
// evaluator check's (SetCompileExprs(false), which interprets every call) at
// parallelism 1 and 4; at parallelism 1, where both run the same rows in the
// same order, so do the body executions and cache hits, in both modes. A
// held plan's next execution takes the emptied result caches its last one
// handed back (udfPlan.spare): after an INSERT of new keys it answers and
// counts the same through them, and the plan keeps no more tables than one
// execution uses at once.
func TestUDFBatchParity(t *testing.T) {
	SetMorselSize(1)
	defer SetMorselSize(0)
	const n = 3*batchSize + 300
	for _, mode := range []Mode{ModePostgres, ModeSystemC} {
		db := udfParityDB(t, mode, n)
		for _, q := range udfParityStmts {
			for _, par := range []int{1, 4} {
				db.SetParallelism(par)
				checkUDFParity(t, db, fmt.Sprintf("%s par=%d %q", mode, par, q), par,
					func() (*Result, error) { return db.QuerySQL(q) })
			}
		}
	}
	var ins strings.Builder
	ins.WriteString("INSERT INTO facts VALUES ")
	for i := range 2000 {
		if i > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, "(%d, %d, %d.25, 'g')", n+i, i%5+1, 100+i)
	}
	for _, mode := range []Mode{ModePostgres, ModeSystemC} {
		for _, par := range []int{1, 4} {
			db := udfParityDB(t, mode, n)
			db.SetParallelism(par)
			p, err := db.PreparePlan(udfParityStmts[0])
			if err != nil {
				t.Fatal(err)
			}
			spare := func() map[*udfResults]bool {
				tables := map[*udfResults]bool{}
				for _, up := range p.udfPlans {
					for _, r := range up.spare {
						if r.keys.len() != 0 || len(r.calls) != 0 || len(r.side) != 0 {
							t.Errorf("%s par=%d: a spare result cache holds %d keys", mode, par, r.keys.len())
						}
						tables[r] = true
					}
				}
				return tables
			}
			var left map[*udfResults]bool
			for step, write := range []string{"", ins.String()} {
				if write != "" {
					if _, err := db.ExecSQL(write); err != nil {
						t.Fatal(err)
					}
				}
				label := fmt.Sprintf("%s par=%d held plan, execution %d", mode, par, step+1)
				checkUDFParity(t, db, label, par, func() (*Result, error) {
					return db.ExecPlanContext(context.Background(), p)
				})
				now, lo, hi := spare(), 1, par+1
				if mode == ModeSystemC {
					lo, hi = 0, 0 // the mode caches nothing
				}
				if len(now) < lo || len(now) > hi {
					t.Errorf("%s: the plan keeps %d result caches, want %d to %d", label, len(now), lo, hi)
				}
				if par == 1 && step > 0 && !maps.Equal(now, left) {
					t.Errorf("%s: the execution made result caches of its own: %d kept, %d left before", label, len(now), len(left))
				}
				for r := range left {
					if !now[r] {
						t.Errorf("%s: a result cache the last execution left is gone", label)
					}
				}
				left = now
			}
		}
	}
}

// checkUDFParity runs one statement under the evaluator check and in
// production and compares values and the first error, and at parallelism 1
// the body executions and cache hits.
func checkUDFParity(t *testing.T, db *DB, label string, par int, run func() (*Result, error)) {
	t.Helper()
	var want string
	var wantStats StatsSnapshot
	for _, cfg := range []execConfig{cfgEvalCheck, cfgProduction} {
		cfg.apply(db)
		before := db.Stats.Snapshot()
		got := exactKey(run())
		after := db.Stats.Snapshot()
		calls, hits := after.UDFCalls-before.UDFCalls, after.UDFCacheHits-before.UDFCacheHits
		if cfg == cfgEvalCheck {
			want, wantStats = got, StatsSnapshot{UDFCalls: calls, UDFCacheHits: hits}
			continue
		}
		if got != want {
			t.Errorf("%s:\ngot  %.300s\nwant %.300s", label, got, want)
		}
		if par == 1 && (calls != wantStats.UDFCalls || hits != wantStats.UDFCacheHits) {
			t.Errorf("%s: %d body executions and %d cache hits, the interpreter %d and %d",
				label, calls, hits, wantStats.UDFCalls, wantStats.UDFCacheHits)
		}
	}
}
