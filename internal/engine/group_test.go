package engine

// Tests for the streaming hash aggregate (DESIGN.md ADR-021): the fold that
// runs as rows arrive — resident, frozen-and-spilled, serial and in parallel
// windows — must answer exactly what evalAggregate's row loop, run by the
// reference executor over each group's rows, answers.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"mtbase/internal/sqltypes"
)

// groupTestDB holds the inputs the fold is sensitive to: a nullable group
// key, DECIMAL values whose sum depends on the order of addition, a column
// mixing INTEGER and DECIMAL images of the same number (a MIN/MAX tie keeps
// whichever arrived first, and its kind shows which), strings, and two UDFs.
func groupTestDB(t *testing.T, n int) *DB {
	t.Helper()
	db := Open(ModePostgres)
	if _, err := db.ExecScript(`
		CREATE TABLE g (id INTEGER NOT NULL, k INTEGER, v INTEGER NOT NULL, f DECIMAL NOT NULL, m DECIMAL NOT NULL, s VARCHAR NOT NULL, d DATE NOT NULL, b BOOLEAN NOT NULL);
		CREATE TABLE lbl (v INTEGER NOT NULL, name VARCHAR NOT NULL);
		CREATE FUNCTION twice (DECIMAL) RETURNS DECIMAL AS 'SELECT $1 * 2' LANGUAGE SQL IMMUTABLE;
		CREATE FUNCTION label (INTEGER) RETURNS VARCHAR
			AS 'SELECT name FROM lbl WHERE v = $1' LANGUAGE SQL IMMUTABLE`); err != nil {
		t.Fatal(err)
	}
	swing := []float64{1e16, 3.25, -1e16, 2.5, 1e-3, 7e15, -7e15, 0.1}
	rows := make([][]sqltypes.Value, n)
	for i := range rows {
		k := sqltypes.NewInt(int64(i % 13))
		if i%11 == 0 {
			k = sqltypes.Null
		}
		m := sqltypes.NewInt(int64(i % 3))
		if i%2 == 0 {
			m = sqltypes.NewFloat(float64(i % 3))
		}
		rows[i] = []sqltypes.Value{
			sqltypes.NewInt(int64(i)), k, sqltypes.NewInt(int64(i % 100)),
			sqltypes.NewFloat(swing[i%len(swing)] * float64(1+i%5)), m,
			sqltypes.NewString(fmt.Sprintf("s%02d", i%17)),
			sqltypes.NewDate(int64(10000 + i%400)), sqltypes.NewBool(i%2 == 0),
		}
	}
	db.Table("g").BulkLoad(rows)
	for v := 0; v < 5; v++ {
		db.Table("lbl").AppendRow([]sqltypes.Value{sqltypes.NewInt(int64(v)), sqltypes.NewString(fmt.Sprintf("l%d", v))})
	}
	return db
}

// foldShapes: row 4242 sits in group k = 4 and is the one row the division
// fails on; a shape marked wantErr must raise in every configuration, every
// other shape in none.
var foldShapes = []struct {
	sql     string
	wantErr string
}{
	// NULL key, MIN/MAX ties across kinds, order-sensitive DECIMAL sums.
	{`SELECT k, COUNT(*), COUNT(k), SUM(f), AVG(f), SUM(v), AVG(v), MIN(m), MAX(m), MIN(s), MAX(s), MIN(d), MAX(b) FROM g GROUP BY k`, ""},
	// Expression keys, DISTINCT sets.
	{`SELECT v % 7 AS r, k + 1, SUM(f * 2), COUNT(DISTINCT v), SUM(DISTINCT v), AVG(DISTINCT m), COUNT(DISTINCT s) FROM g GROUP BY v % 7, k + 1`, ""},
	// The global group, full and empty; an empty grouped input.
	{`SELECT COUNT(*), SUM(f), AVG(v), MAX(s), COUNT(DISTINCT k) FROM g`, ""},
	{`SELECT COUNT(*), SUM(f), MIN(s), 2 * SUM(v), k FROM g WHERE id < 0`, ""},
	{`SELECT k, COUNT(*) FROM g WHERE id < 0 GROUP BY k`, ""},
	// One group per row: whatever the budget freezes out comes back from
	// the merge in first-seen order, HAVING and ORDER BY keys included.
	{`SELECT id, SUM(f), COUNT(*), MIN(s) FROM g GROUP BY id`, ""},
	{`SELECT id % 3000 AS r, SUM(f) AS sf, COUNT(DISTINCT v) FROM g GROUP BY id % 3000 HAVING SUM(v) > 150 ORDER BY MAX(f) DESC, r`, ""},
	// An argument that fails on one row of one group: raised when the site
	// is evaluated, not when HAVING rejects the group first or CASE never
	// reaches the site.
	{`SELECT k, SUM(100 / (id - 4242)) FROM g GROUP BY k`, "division by zero"},
	{`SELECT k, SUM(100 / (id - 4242)) FROM g GROUP BY k HAVING k <> 4`, ""},
	{`SELECT k, SUM(100 / (id - 4242)) FROM g GROUP BY k HAVING SUM(100 / (id - 4242)) > 0`, "division by zero"},
	{`SELECT id, SUM(100 / (id - 4242)) FROM g GROUP BY id HAVING id <> 4242`, ""},
	{`SELECT k, CASE WHEN COUNT(*) > 1000000 THEN SUM(1 / (v - v)) ELSE COUNT(v) END FROM g GROUP BY k`, ""},
	{`SELECT k, CASE WHEN COUNT(*) > 0 THEN SUM(1 / (v - v)) ELSE 0 END FROM g GROUP BY k`, "division by zero"},
	// A group key that fails is the statement's error whatever the sites do.
	{`SELECT 10 / (id - 7777), SUM(1 / (v - v)) FROM g GROUP BY 10 / (id - 7777)`, "division by zero"},
	// Sites the SELECT list does not hold.
	{`SELECT k FROM g GROUP BY k ORDER BY SUM(f) DESC, k`, ""},
	{`SELECT k FROM g GROUP BY k HAVING MIN(v) = 0 AND COUNT(DISTINCT s) > 3`, ""},
	// UDFs in the argument, a planned body and a lookup.
	{`SELECT k, SUM(twice(f)), MAX(label(v % 5)), COUNT(label(v % 7)) FROM g GROUP BY k`, ""},
	// Errors that belong to the site, not to a row.
	{`SELECT k, SUM(v, f) FROM g GROUP BY k`, "takes exactly one argument"},
	{`SELECT k, CASE WHEN COUNT(*) < 0 THEN SUM(v, f) ELSE 1 END FROM g GROUP BY k`, ""},
	{`SELECT k, SUM(COUNT(*)) FROM g GROUP BY k`, "outside grouped context"},
	// ... in the last group alone, which under a limit comes from the merge.
	{`SELECT id, CASE WHEN id = 11999 THEN SUM(COUNT(*)) ELSE 0 END FROM g GROUP BY id`, "outside grouped context"},
	{`SELECT k, MIN(s), SUM(s) FROM g GROUP BY k`, "SUM over VARCHAR"},
	// INTEGER overflow raises where it wrapped: a sum that leaves the range
	// in one group (k = 4 holds id 4242), an argument that does on one row,
	// and neither when HAVING or CASE keeps the site from being evaluated.
	{`SELECT k, SUM(v + 9223372036854770000) FROM g GROUP BY k`, "integer out of range"},
	{`SELECT k, AVG(CASE WHEN k = 4 THEN 4611686018427387904 ELSE v END) FROM g GROUP BY k`, "integer out of range"},
	{`SELECT k, SUM(CASE WHEN k = 4 THEN 4611686018427387904 ELSE v END) FROM g GROUP BY k HAVING k <> 4`, ""},
	{`SELECT k, SUM(id * 2174000000000000) FROM g GROUP BY k`, "integer out of range"},
	{`SELECT k, SUM(id - 9223372036854775807) FROM g WHERE id > 0 GROUP BY k`, "integer out of range"},
	{`SELECT k, CASE WHEN COUNT(*) < 0 THEN SUM(id * 2174000000000000) ELSE MAX(id) * 768614336404564 END FROM g GROUP BY k`, ""},
	// The output side runs over batches of groups (ADR-035): twelve
	// thousand groups span a dozen batches, and within one batch HAVING runs
	// for every group before the items do. The first group that fails is the
	// statement's error either way: an item's in group 1500 before HAVING's
	// in group 1600, HAVING's in group 1400 before the item's in 1500.
	{`SELECT id, 10 / (id - 1500) FROM g GROUP BY id HAVING CASE WHEN id = 1600 THEN SUM(s) ELSE 1 END IS NOT NULL`, "division by zero"},
	{`SELECT id, 10 / (id - 1500) FROM g GROUP BY id HAVING CASE WHEN id = 1400 THEN SUM(s) ELSE 1 END IS NOT NULL`, "SUM over VARCHAR"},
	// A UDF over an aggregate beside a UDF over a column no key holds, read
	// from the group's first row: o4's q10 keeps both shapes in its output.
	{`SELECT k, twice(SUM(f)), label(v % 5), twice(m) + COUNT(*) FROM g GROUP BY k ORDER BY label(v % 5), k`, ""},
	// Scalar subqueries, correlated with the group's key, in HAVING and in
	// an item that reads an aggregate too.
	{`SELECT k, (SELECT COUNT(*) FROM lbl WHERE lbl.v < k % 5) + SUM(v) FROM g GROUP BY k HAVING (SELECT MAX(lbl.v) FROM lbl WHERE lbl.v <= k) > COUNT(*) % 3`, ""},
	// An aggregate in a subquery is the subquery's, outside any group — also
	// where the semi-join lowers the subquery's key into the group's output.
	{`SELECT k FROM g GROUP BY k HAVING EXISTS (SELECT 1 FROM lbl WHERE lbl.v = SUM(g.v))`, "outside grouped context"},
	// The empty global group: its bare columns are NULL, inside an
	// expression and as a UDF's argument.
	{`SELECT COUNT(*), v + 1, label(v), twice(f) * SUM(f), COALESCE(s, 'none') FROM g WHERE id < 0`, ""},
}

// TestGroupFoldDifferential: every shape, in production and in the evaluator
// check, at parallelism 1, 2 and 8, with one-batch and default morsels,
// unlimited and under every memory limit down to 8 KB, is byte-identical to
// the reference executor — values, kinds, row order and error text.
func TestGroupFoldDifferential(t *testing.T) {
	db := groupTestDB(t, 12000)
	db.SetSpillDir(t.TempDir())
	defer SetMorselSize(0)

	cfgReference.apply(db)
	db.SetMemoryLimit(0)
	want := make([]string, len(foldShapes))
	for i, tc := range foldShapes {
		want[i] = execKey(db.QuerySQL(tc.sql))
		if isErr := strings.HasPrefix(want[i], "error: "); isErr != (tc.wantErr != "") || !strings.Contains(want[i], tc.wantErr) {
			t.Fatalf("reference %q: %.300s (want error %q)", tc.sql, want[i], tc.wantErr)
		}
	}
	for _, limit := range []int64{0, 1 << 20, 64 << 10, 8 << 10} {
		for _, cfg := range checkedConfigs {
			for _, par := range []int{1, 2, 8} {
				for _, morsel := range []int{1024, 0} {
					cfg.apply(db)
					db.SetParallelism(par)
					db.SetMemoryLimit(limit)
					SetMorselSize(morsel)
					for i, tc := range foldShapes {
						if got := execKey(db.QuerySQL(tc.sql)); got != want[i] {
							t.Errorf("limit=%d %s par=%d morsel=%d %q:\ngot  %.300s\nwant %.300s", limit, cfg.name, par, morsel, tc.sql, got, want[i])
						}
					}
				}
			}
		}
	}
}

// TestGroupFreezeAndSpill: what a memory limit does to the group table. A
// table of a few groups folds within 64 KB and never spills; a thousand
// groups do not fit, so the table freezes and the rest spills — and the
// accounted peak stays within one batch of the limit, for ten thousand
// groups too: nothing of a key the freeze kept out stays resident (ADR-039).
func TestGroupFreezeAndSpill(t *testing.T) {
	db := streamTestDB(t, 10000)
	db.SetSpillDir(t.TempDir())
	db.SetParallelism(1) // a parallel scan's row references alone exceed these limits
	for _, cfg := range checkedConfigs {
		cfg.apply(db)
		for _, tc := range []struct {
			sql    string
			limit  int64
			spills bool
		}{
			{`SELECT d.name, COUNT(*) AS n FROM fact f, dim d WHERE f.k = d.k GROUP BY d.name HAVING COUNT(*) > 10`, 64 << 10, false},
			{`SELECT grp, k, COUNT(*), SUM(val), AVG(val), MIN(id), MAX(id) FROM fact GROUP BY grp, k`, 64 << 10, false},
			{`SELECT id % 1000, COUNT(*), SUM(val) FROM fact GROUP BY id % 1000`, 64 << 10, true},
			{`SELECT id % 1000, COUNT(*), SUM(val) FROM fact GROUP BY id % 1000`, 8 << 10, true},
			{`SELECT id, COUNT(*) AS c FROM fact GROUP BY id`, 8 << 10, true},
			// A DISTINCT set has no bound a group count gives it: spill route.
			{`SELECT k, COUNT(DISTINCT val) FROM fact GROUP BY k`, 8 << 10, true},
		} {
			db.SetMemoryLimit(tc.limit)
			db.Stats = Stats{}
			if _, err := db.QuerySQL(tc.sql); err != nil {
				t.Fatalf("%s %q: %v", cfg.name, tc.sql, err)
			}
			st := db.Stats.Snapshot()
			if spilled := st.SpillRuns > 0; spilled != tc.spills {
				t.Errorf("%s limit=%d %q: spilled = %v, want %v", cfg.name, tc.limit, tc.sql, spilled, tc.spills)
			}
			if st.PeakMemBytes > tc.limit+512<<10 {
				t.Errorf("%s limit=%d %q: PeakMemBytes %d exceeds the limit plus one batch of slack", cfg.name, tc.limit, tc.sql, st.PeakMemBytes)
			}
		}
	}
}

// TestMergedGroupErrorOrder: a cursor gets every row ahead of the first
// failing one, in order, and then its error — that of id 5000, not of id
// 9000. It holds for a plain projection and a grouping alike, unlimited,
// where the failing row sits mid-batch behind 904 good ones that must not be
// dropped with it, and under a memory limit, where the groups
// the frozen table kept out come back from the merge, which runs their output
// before any is emitted (ADR-039) and, in key order, may run 9000's first.
func TestMergedGroupErrorOrder(t *testing.T) {
	db := groupTestDB(t, 12000)
	db.SetSpillDir(t.TempDir())
	db.SetParallelism(1)
	for _, limit := range []int64{0, 8 << 10} {
		db.SetMemoryLimit(limit)
		for _, q := range []string{
			`SELECT id, 10 / ((id - 5000) * (id - 9000)) AS q FROM g GROUP BY id`,
			`SELECT id, 10 / ((id - 5000) * (id - 9000)) AS q FROM g`,
		} {
			for _, cfg := range checkedConfigs {
				cfg.apply(db)
				db.Stats = Stats{}
				rows, err := db.QueryPlanContext(context.Background(), mustPrepare(db, q))
				if err != nil {
					t.Fatal(err)
				}
				seen := int64(0)
				for rows.Next() {
					var id, v int64
					if err := rows.Scan(&id, &v); err != nil || id != seen {
						t.Fatalf("%s limit=%d: row %d is id %d (%v)", cfg.name, limit, seen, id, err)
					}
					seen++
				}
				if err := rows.Err(); err == nil || !strings.Contains(err.Error(), "division by zero") || seen != 5000 {
					t.Errorf("%s limit=%d %q: %d rows, then %v; want 5000, then division by zero", cfg.name, limit, q, seen, err)
				}
				rows.Close()
				grouped := strings.Contains(q, "GROUP BY")
				if spilled := db.Stats.Snapshot().SpillRuns > 0; spilled != (grouped && limit > 0) {
					t.Errorf("%s limit=%d %q: spilled = %v", cfg.name, limit, q, spilled)
				}
			}
		}
	}
}

// TestGroupOutputFillsBatches: the grouped projection hands on output
// batches of up to batchSize rows, merged groups included, so a sort above it
// under a memory limit spills once per batch, not once per group. Both shapes
// spill 11 and 29 runs in all (the groups' and the sort's); with each merged
// group emitted as a batch of its own they spilled ≈ 500 and 5 000.
func TestGroupOutputFillsBatches(t *testing.T) {
	db := streamTestDB(t, 10000)
	db.SetSpillDir(t.TempDir())
	db.SetParallelism(1)
	db.SetMemoryLimit(8 << 10)
	for _, cfg := range checkedConfigs {
		cfg.apply(db)
		for _, q := range []string{
			`SELECT id % 1000, COUNT(*), SUM(val) FROM fact GROUP BY id % 1000 ORDER BY 3, 1`,
			`SELECT id, COUNT(*) FROM fact GROUP BY id ORDER BY 2 DESC, 1`,
		} {
			db.Stats = Stats{}
			if _, err := db.QuerySQL(q); err != nil {
				t.Fatalf("%s %q: %v", cfg.name, q, err)
			}
			if runs := db.Stats.Snapshot().SpillRuns; runs > 40 {
				t.Errorf("%s %q: %d spill runs; full output batches spill at most 40", cfg.name, q, runs)
			}
		}
	}
}

// TestSumOverNonNumeric: SUM and AVG take numbers. Over VARCHAR they used to
// answer 0 and over DATE or BOOLEAN the sum of the internal integers; now
// the first such value is the site's error, in every configuration, while
// MIN, MAX and COUNT keep accepting every kind.
func TestSumOverNonNumeric(t *testing.T) {
	db := groupTestDB(t, 500)
	for _, cfg := range []execConfig{cfgReference, cfgProduction, cfgEvalCheck} {
		cfg.apply(db)
		for q, want := range map[string]string{
			`SELECT SUM(s) FROM g`:                           "engine: SUM over VARCHAR",
			`SELECT AVG(s) FROM g`:                           "engine: AVG over VARCHAR",
			`SELECT k, SUM(d) FROM g GROUP BY k`:             "engine: SUM over DATE",
			`SELECT AVG(b) FROM g`:                           "engine: AVG over BOOLEAN",
			`SELECT SUM(DISTINCT s) FROM g`:                  "engine: SUM over VARCHAR",
			`SELECT SUM(CASE WHEN id = 7 THEN s END) FROM g`: "engine: SUM over VARCHAR",
		} {
			if _, err := db.QuerySQL(q); err == nil || err.Error() != want {
				t.Errorf("%s %q: err = %v, want %s", cfg.name, q, err, want)
			}
		}
		res, err := db.QuerySQL(`SELECT MIN(s), MAX(s), COUNT(s), MIN(d), MAX(b), COUNT(DISTINCT b), SUM(v), AVG(f), SUM(CASE WHEN id < 0 THEN s END) FROM g`)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if got := execKey(res, nil); !strings.Contains(got, "VARCHAR:s00|VARCHAR:s16|INTEGER:500|DATE:") || !strings.HasSuffix(got, "|NULL:NULL\n") {
			t.Errorf("%s: MIN/MAX/COUNT over non-numeric kinds answered %s", cfg.name, got)
		}
	}
}

// TestAggAccBytes keeps the accountant's constant at the accumulator's size.
func TestAggAccBytes(t *testing.T) {
	if got := unsafe.Sizeof(aggAcc{}); got != aggAccBytes {
		t.Errorf("unsafe.Sizeof(aggAcc{}) = %d, aggAccBytes = %d", got, aggAccBytes)
	}
}

// TestIntegerOverflowRaises: INTEGER +, -, *, unary minus and SUM past the
// 64-bit range raise one error text in every configuration — they used to wrap (SELECT
// 9223372036854775807 + 1 answered -9223372036854775808) — and the last
// value inside the range still answers.
func TestIntegerOverflowRaises(t *testing.T) {
	db := groupTestDB(t, 500)
	const want = "sqltypes: integer out of range"
	for _, cfg := range []execConfig{cfgReference, cfgProduction, cfgEvalCheck} {
		cfg.apply(db)
		for _, q := range []string{
			`SELECT 9223372036854775807 + 1`,
			`SELECT -9223372036854775807 - 2`,
			`SELECT 3037000500 * 3037000500`,
			`SELECT id + 9223372036854775807 FROM g WHERE id = 1`,
			`SELECT id FROM g WHERE id * 4611686018427387904 > 0`,
			`SELECT SUM(v + 9223372036854775000) FROM g`,
			`SELECT AVG(id + 4611686018427387904) FROM g`,
			`SELECT k, SUM(DISTINCT id * 2251799813685248) FROM g GROUP BY k`,
			`SELECT -(-9223372036854775807 - 1)`, // unary minus of the smallest INTEGER wrapped to itself
			`SELECT -(id - 9223372036854775807 - 2) FROM g WHERE id = 1`,
			`SELECT k FROM g WHERE -(id - 9223372036854775807 - 2) > 0 GROUP BY k`,
		} {
			if _, err := db.QuerySQL(q); err == nil || err.Error() != want {
				t.Errorf("%s %q: err = %v, want %s", cfg.name, q, err, want)
			}
		}
		res, err := db.QuerySQL(`SELECT 9223372036854775806 + 1, -9223372036854775807 - 1, 3037000499 * 3037000499, 4611686018427387904 * -2, SUM(id + 18446744073709000), -(-9223372036854775807) FROM g`)
		if got := execKey(res, err); !strings.HasSuffix(got, "\nINTEGER:9223372036854775807|INTEGER:-9223372036854775808|INTEGER:9223372030926249001|INTEGER:-9223372036854775808|INTEGER:9223372036854624750|INTEGER:9223372036854775807\n") {
			t.Errorf("%s: the edge of the range answered %s", cfg.name, got)
		}
	}
}
