package engine

// Tests for the pull-based operator executor: differential equivalence of
// the production and evaluator-check configurations against the reference
// executor across query shapes, cancellation inside operators (mid-join
// included), cursor lifecycle (idempotent Close, error propagation through
// Collect), and the bounded-memory property of streamed joins.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"mtbase/internal/sqltypes"
)

// streamTestDB builds a small schema exercising every operator: two
// fact-ish tables, a dimension, a view and a UDF.
func streamTestDB(t *testing.T, n int) *DB {
	t.Helper()
	db := Open(ModePostgres)
	if _, err := db.ExecScript(`
		CREATE TABLE fact (id INTEGER NOT NULL, k INTEGER NOT NULL, val INTEGER NOT NULL, grp INTEGER NOT NULL);
		CREATE TABLE dim (k INTEGER NOT NULL, name VARCHAR NOT NULL);
		CREATE TABLE other (id INTEGER NOT NULL, tag VARCHAR NOT NULL);
		CREATE VIEW bigval AS SELECT id, val FROM fact WHERE val >= 50;
		CREATE FUNCTION dimname (INTEGER) RETURNS VARCHAR
			AS 'SELECT name FROM dim WHERE k = $1' LANGUAGE SQL IMMUTABLE`); err != nil {
		t.Fatal(err)
	}
	fact := db.Table("fact")
	rows := make([][]sqltypes.Value, n)
	for i := 0; i < n; i++ {
		rows[i] = []sqltypes.Value{
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 7)),
			sqltypes.NewInt(int64(i % 100)), sqltypes.NewInt(int64(i % 5)),
		}
	}
	fact.BulkLoad(rows)
	dim := db.Table("dim")
	for k := 0; k < 7; k++ {
		dim.AppendRow([]sqltypes.Value{sqltypes.NewInt(int64(k)), sqltypes.NewString(fmt.Sprintf("d%d", k))})
	}
	other := db.Table("other")
	for i := 0; i < n/3; i++ {
		other.AppendRow([]sqltypes.Value{sqltypes.NewInt(int64(i * 3)), sqltypes.NewString("t")})
	}
	return db
}

// streamShapes covers every operator and composition: scans, filters,
// index probes, hash and nested-loop joins, LEFT JOIN, cross products,
// grouping with HAVING, ORDER BY (column and expression keys), DISTINCT,
// LIMIT, derived tables, views, correlated and uncorrelated subqueries,
// EXISTS, IN, and UDF calls.
var streamShapes = append([]string{
	`SELECT id, val FROM fact WHERE val % 3 = 0`,
	`SELECT * FROM fact WHERE id >= 2500`,
	`SELECT f.id, d.name FROM fact f, dim d WHERE f.k = d.k AND f.val < 40`,
	`SELECT f.id, d.name FROM fact f JOIN dim d ON f.k = d.k WHERE f.val < 10 ORDER BY f.id`,
	`SELECT f.id, o.tag FROM fact f LEFT JOIN other o ON f.id = o.id WHERE f.id < 50 ORDER BY f.id`,
	`SELECT d.name, COUNT(*) AS n, SUM(f.val) AS tot FROM fact f, dim d WHERE f.k = d.k GROUP BY d.name HAVING COUNT(*) > 10 ORDER BY tot DESC, d.name`,
	`SELECT grp, COUNT(*) AS n FROM fact GROUP BY grp ORDER BY n DESC, grp LIMIT 3`,
	`SELECT DISTINCT val % 7 AS m FROM fact ORDER BY m DESC`,
	`SELECT DISTINCT k FROM fact`,
	`SELECT DISTINCT *`,             // no column: every row is the one empty row ...
	`SELECT DISTINCT * WHERE 1 = 0`, // ... and no row is none, not an empty global group
	`SELECT id FROM fact WHERE id > 100 LIMIT 17`,
	`SELECT x.id, x.v2 FROM (SELECT id, val * 2 AS v2 FROM fact WHERE grp = 1) AS x WHERE x.v2 > 150 ORDER BY x.id LIMIT 9`,
	`SELECT b.id, b.val FROM bigval b WHERE b.id < 200 ORDER BY b.val, b.id`,
	`SELECT id FROM fact WHERE val > (SELECT AVG(val) FROM fact) AND id < 100`,
	`SELECT id FROM fact f WHERE EXISTS (SELECT 1 FROM other o WHERE o.id = f.id) AND id < 90 ORDER BY id`,
	`SELECT id FROM fact WHERE k IN (SELECT k FROM dim WHERE name <> 'd3') AND id < 60`,
	`SELECT id, dimname(k) AS dn FROM fact WHERE id < 40 ORDER BY dn, id`,
	`SELECT COUNT(*) AS n FROM fact WHERE 1 = 0`,
	`SELECT f.id, o.tag FROM fact f, other o WHERE f.id = o.id AND f.val + o.id > 10 ORDER BY f.id LIMIT 25`,
	`SELECT MAX(val) AS mx, MIN(val) AS mn FROM fact WHERE grp = 2`,
	`SELECT grp, AVG(val) AS a FROM fact WHERE id % 2 = 0 GROUP BY grp ORDER BY grp`,
	`SELECT 1 AS one`,
	`SELECT f1.id FROM fact f1, fact2 f2 WHERE f1.id = f2.id AND f1.id < 30 ORDER BY f1.id`,
	`SELECT id, val FROM fact WHERE id < 300 ORDER BY 2 DESC, 1`,
	`SELECT grp, COUNT(*) FROM fact GROUP BY grp ORDER BY 2 DESC, 1`,
	`SELECT id, val FROM fact ORDER BY 3`,
	// ORDER BY keys ride at the end of each row until the sort (ADR-040):
	// expression keys outside the select list, plain and grouped; DISTINCT
	// sorted by a key it does not output; NULL and DESC mixes; sorted derived
	// tables feeding a join and an aggregate; and a sorted derived table read
	// back with *, which must have one column, not its key too.
	`SELECT id FROM fact WHERE id < 500 ORDER BY val * 3 - grp DESC, id`,
	`SELECT k, COUNT(*) AS n FROM fact GROUP BY k ORDER BY SUM(val) DESC, MIN(id)`,
	`SELECT DISTINCT grp, val % 4 AS m FROM fact ORDER BY id DESC, m`,
	`SELECT id, CASE WHEN grp = 2 THEN NULL ELSE val END AS v FROM fact WHERE id < 400 ORDER BY v DESC, id`,
	`SELECT f.id, o.tag FROM fact f LEFT JOIN other o ON f.id = o.id WHERE f.id < 90 ORDER BY o.tag DESC, f.id DESC`,
	`SELECT d.name, COUNT(*) AS n, SUM(x.val) AS s FROM (SELECT id, k, val FROM fact WHERE id < 900 ORDER BY val DESC, id) x JOIN dim d ON x.k = d.k GROUP BY d.name ORDER BY s DESC, d.name`,
	`SELECT b.id, o.tag FROM (SELECT id, val FROM bigval ORDER BY val, id DESC LIMIT 200) b, other o WHERE b.id = o.id ORDER BY b.val DESC, b.id`,
	`SELECT * FROM (SELECT id FROM fact WHERE id < 300 ORDER BY val DESC, id) x`,
}, raiseLastShapes...)

// raiseLastShapes write a conjunct that can raise (100 / val: val is 0 on
// every hundredth fact row) before one that cannot and that rejects every row
// it raises on (val is 0 only where grp is 0) — a client's predicate before
// D′'s ttid IN (…) — on each access path: a heap scan (morsel-parallel under
// forceParallel), an equality probe, an IN range, an inner JOIN's ON, a LEFT
// JOIN's ON residual and an EXISTS probe. Every filter runs the conjunct that
// cannot raise first (ADR-043), so none of them raises.
var raiseLastShapes = []string{
	`SELECT id FROM fact WHERE 100 / val > 1 AND grp IN (1, 2) ORDER BY id`,
	`SELECT id FROM fact WHERE k = 3 AND 100 / val > 1 AND grp <> 0 ORDER BY id`,
	`SELECT id FROM fact WHERE k IN (3) AND 100 / val > 1 AND grp > 0 ORDER BY id`,
	`SELECT f.id, d.name FROM fact f JOIN dim d ON f.k = d.k AND 100 / f.val > 1 AND f.grp > 0 ORDER BY f.id`,
	`SELECT f.id, o.tag FROM fact f LEFT JOIN other o ON f.id = o.id AND 100 / f.val > 1 AND f.grp > 0 ORDER BY f.id`,
	`SELECT d.name FROM dim d WHERE EXISTS (SELECT 1 FROM fact f WHERE f.k = d.k AND 100 / f.val > 1 AND f.grp > 0) ORDER BY d.name`,
}

// TestRaiseLastShapes: each of raiseLastShapes answers rows, and the same
// rows in production and the evaluator check, morsel-parallel at parallelism
// 4 and under an 8 KB limit, as in the reference.
func TestRaiseLastShapes(t *testing.T) {
	forceParallel(t)
	db := streamTestDB(t, 3000)
	db.SetSpillDir(t.TempDir())
	for _, q := range raiseLastShapes {
		cfgReference.apply(db)
		want := execKey(db.QuerySQL(q))
		if strings.HasPrefix(want, "error: ") || strings.Count(want, "\n") < 2 {
			t.Errorf("%q: reference answered no rows: %s", q, want)
			continue
		}
		for _, cfg := range checkedConfigs {
			cfg.apply(db)
			for _, par := range []int{1, 4} {
				for _, limit := range []int64{0, 8 << 10} {
					db.SetParallelism(par)
					db.SetMemoryLimit(limit)
					if got := execKey(db.QuerySQL(q)); got != want {
						t.Errorf("%s par=%d limit=%d %q:\ngot:\n%.300s\nreference:\n%.300s", cfg.name, par, limit, q, got, want)
					}
				}
			}
		}
		db.SetMemoryLimit(0)
	}
}

func execKey(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Cols, "|"))
	sb.WriteByte('\n')
	for _, row := range res.Rows {
		for j, v := range row {
			if j > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(fmt.Sprintf("%v:%s", v.K, v.String()))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// execConfig is one of the three execution configurations (DESIGN.md
// ADR-010). Every differential suite compares cfgProduction and
// cfgEvalCheck against cfgReference.
type execConfig struct {
	name            string
	compile, stream bool
}

var (
	cfgProduction = execConfig{"production", true, true}       // operator tree + compiled kernels
	cfgEvalCheck  = execConfig{"evaluator-check", false, true} // operator tree + lifted interpreter
	cfgReference  = execConfig{"reference", true, false}       // materializing executor; interprets whatever compile says

	checkedConfigs = []execConfig{cfgProduction, cfgEvalCheck}
)

func (c execConfig) apply(db *DB) {
	db.SetCompileExprs(c.compile)
	db.SetStreamExec(c.stream)
}

// addFact2 adds the second fact-ish table of the self-join shape.
func addFact2(t *testing.T, db *DB) {
	t.Helper()
	if _, err := db.ExecSQL(`CREATE TABLE fact2 (id INTEGER NOT NULL)`); err != nil {
		t.Fatal(err)
	}
	f2 := db.Table("fact2")
	for i := 0; i < 300; i++ {
		f2.AppendRow([]sqltypes.Value{sqltypes.NewInt(int64(i * 2))})
	}
}

// TestOperatorTreeMatchesReference runs every shape through the operator
// tree — with compiled kernels and with the lifted interpreter, as a
// materialized Result and through the cursor — requiring results
// byte-identical to the reference executor's.
func TestOperatorTreeMatchesReference(t *testing.T) {
	db := streamTestDB(t, 3000)
	addFact2(t, db)
	for _, q := range streamShapes {
		cfgReference.apply(db)
		want := execKey(db.QuerySQL(q))
		for _, cfg := range checkedConfigs {
			cfg.apply(db)
			if got := execKey(db.QuerySQL(q)); got != want {
				t.Errorf("%s %q:\ngot:\n%s\nreference:\n%s", cfg.name, q, got, want)
			}
			rows, err := db.QueryPlanContext(context.Background(), mustPrepare(db, q))
			var ck string
			if err != nil {
				ck = "error: " + err.Error()
			} else {
				ck = execKey(rows.Collect())
			}
			if ck != want {
				t.Errorf("%s %q: cursor differs:\n%s\nreference:\n%s", cfg.name, q, ck, want)
			}
		}
	}
}

// TestOrderByOrdinal: an integer ORDER BY key is the 1-based output position,
// not a constant (which left heap order and said nothing), in every
// configuration; a position outside the select list is an error that shows the
// statement.
func TestOrderByOrdinal(t *testing.T) {
	db := streamTestDB(t, 500)
	for _, cfg := range []execConfig{cfgProduction, cfgEvalCheck, cfgReference} {
		cfg.apply(db)
		for ordinal, named := range map[string]string{
			`SELECT id, val FROM fact ORDER BY 1`:                           `SELECT id, val FROM fact ORDER BY id`,
			`SELECT val, id FROM fact ORDER BY 2 DESC`:                      `SELECT val, id FROM fact ORDER BY id DESC`,
			`SELECT * FROM fact ORDER BY 3 DESC, 1`:                         `SELECT * FROM fact ORDER BY val DESC, id`,
			`SELECT k, SUM(val) FROM fact GROUP BY k ORDER BY 2, 1 LIMIT 3`: `SELECT k, SUM(val) AS s FROM fact GROUP BY k ORDER BY s, k LIMIT 3`,
		} {
			got, want := execKey(db.QuerySQL(ordinal)), execKey(db.QuerySQL(named))
			if i := strings.IndexByte(got, '\n'); got[i:] != want[strings.IndexByte(want, '\n'):] {
				t.Errorf("%s: %s differs from %s", cfg.name, ordinal, named)
			}
		}
		for _, q := range []string{`SELECT id, val FROM fact ORDER BY 3`, `SELECT id, val FROM fact ORDER BY 0`, `SELECT k, COUNT(*) FROM fact GROUP BY k ORDER BY 1, 5`} {
			if _, err := db.QuerySQL(q); err == nil || !strings.Contains(err.Error(), q) {
				t.Errorf("%s: %s answered %v, want an out-of-range error naming the statement", cfg.name, q, err)
			}
		}
	}
}

// countdownCtx cancels itself after a fixed number of Err polls — a
// deterministic way to land a cancellation inside a specific operator
// phase.
type countdownCtx struct {
	context.Context
	polls int
}

func (c *countdownCtx) Err() error {
	c.polls--
	if c.polls <= 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelMidJoin cancels during join execution: once while the build
// side drains (countdown context trips inside Open) and once mid-probe
// (real cancel between batch pulls). Both must surface context.Canceled
// through the cursor.
func TestCancelMidJoin(t *testing.T) {
	db := streamTestDB(t, 5000)
	join := `SELECT f.id, d.name FROM fact f, dim d WHERE f.k = d.k`

	// Build-phase cancellation: the countdown trips after a few operator
	// polls, well before the probe produces its first batch.
	rows, err := db.QueryPlanContext(&countdownCtx{Context: context.Background(), polls: 3}, mustPrepare(db, join))
	if err != nil {
		// Creation-time detection is also acceptable only if the countdown
		// already hit zero — it must be a cancellation either way.
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		return
	}
	n := 0
	for rows.Next() {
		n++
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("mid-build cancel: want context.Canceled after %d rows, got %v", n, rows.Err())
	}

	// Probe-phase cancellation: deliver the first batch, then cancel.
	ctx, cancel := context.WithCancel(context.Background())
	rows, err = db.QueryPlanContext(ctx, mustPrepare(db, join))
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	got := 1
	for rows.Next() {
		got++
	}
	if !errors.Is(rows.Err(), context.Canceled) {
		t.Fatalf("mid-probe cancel: want context.Canceled, got %v", rows.Err())
	}
	if got >= 5000 {
		t.Fatalf("cancel was ignored: %d rows delivered", got)
	}
}

// TestRowsCloseIdempotentAfterError: Close is safe to call repeatedly,
// before exhaustion, and after a mid-stream error; Err survives Close.
func TestRowsCloseIdempotentAfterError(t *testing.T) {
	db := streamTestDB(t, 3000)

	// Mid-stream close, no error.
	rows, err := db.QueryPlanContext(context.Background(), mustPrepare(db, `SELECT id FROM fact`))
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no row: %v", rows.Err())
	}
	for i := 0; i < 3; i++ {
		if err := rows.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if rows.Next() {
		t.Fatal("Next after Close must be false")
	}

	// Mid-stream error: val/(id-2000) poisons row 2000, past batch one.
	rows, err = db.QueryPlanContext(context.Background(), mustPrepare(db, `SELECT id, val % (id - 2000) AS m FROM fact`))
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if rows.Err() == nil || !strings.Contains(rows.Err().Error(), "modulo by zero") {
		t.Fatalf("want modulo error, got %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close after error: %v", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("second Close after error: %v", err)
	}
	if rows.Err() == nil {
		t.Fatal("Err must survive Close")
	}
}

// TestCollectPropagatesFirstError: Collect on a stream that fails midway
// returns the operator error and no partial result.
func TestCollectPropagatesFirstError(t *testing.T) {
	db := streamTestDB(t, 3000)
	rows, err := db.QueryPlanContext(context.Background(), mustPrepare(db, `SELECT id, val % (id - 2000) AS m FROM fact`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := rows.Collect()
	if err == nil || !strings.Contains(err.Error(), "modulo by zero") {
		t.Fatalf("want modulo error from Collect, got res=%v err=%v", res, err)
	}
	if res != nil {
		t.Fatalf("Collect must not return a partial result, got %d rows", len(res.Rows))
	}
}

// TestStreamedJoinBoundedMemory proves a join+filter query streams: after
// the first row is delivered, the number of rows that have moved between
// operators is bounded by a few batches plus the build side — not by the
// probe table size. A materializing executor would have pushed all of
// fact's rows through the pipeline before the first row came out.
func TestStreamedJoinBoundedMemory(t *testing.T) {
	const n = 50000
	db := streamTestDB(t, n)
	// Parallel scans materialize survivor pointers per morsel before the
	// first row comes out; the bounded-memory property is a claim about the
	// serial pipeline, so pin it.
	db.SetParallelism(1)
	db.Stats = Stats{}
	rows, err := db.QueryPlanContext(context.Background(), mustPrepare(db, `SELECT f.id, d.name FROM fact f, dim d WHERE f.k = d.k AND f.id % 2 = 0`))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no row: %v", rows.Err())
	}
	streamed := db.Stats.RowsStreamed.Load()
	// One probe batch flows through scan → filter → join → project (≤ 4
	// emissions of ≤ 1024 rows) plus the dim build side; 8 batches of slack
	// covers scratch. Anything near n means the pipeline materialized.
	if limit := int64(8*batchSize + 100); streamed > limit {
		t.Fatalf("RowsStreamed = %d after first row; want <= %d (probe table has %d rows)", streamed, limit, n)
	}
	if db.Stats.PeakBatch.Load() > int64(batchSize) {
		t.Fatalf("PeakBatch = %d exceeds batch size %d", db.Stats.PeakBatch.Load(), batchSize)
	}
}
