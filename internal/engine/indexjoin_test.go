package engine

// Tests for the index path of the hash join (DESIGN.md ADR-022): a join
// whose build side is a base table probes the table's persistent index and
// runs the build side's own conjuncts over the candidates, instead of
// scanning, filtering and hashing the table — and must answer exactly what
// the reference executor's eager scan → filter → build answers, whichever
// path it takes and wherever it changes its mind.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"mtbase/internal/sqltypes"
)

// indexJoinDB is a three-table chain in the shape of the rewritten MT-H
// joins: every key join has a ttid equality beside it, keys are nullable on
// both sides, and an item ships a few days after its order — so a date
// window on both (Q3's) passes far fewer candidates than rows of either
// table. ord row 4999 is the only one with x = 5 (its prio is 4) and belongs
// to customer 799, which no segment-'A' probe reaches.
func indexJoinDB(t *testing.T) *DB {
	t.Helper()
	db := Open(ModePostgres)
	if _, err := db.ExecScript(`
		CREATE TABLE cust (ck INTEGER, ttid INTEGER NOT NULL, seg VARCHAR NOT NULL, bal INTEGER NOT NULL);
		CREATE TABLE ord (ok INTEGER NOT NULL, ck INTEGER, ttid INTEGER NOT NULL, odate DATE NOT NULL, prio INTEGER NOT NULL, x INTEGER NOT NULL, note VARCHAR);
		CREATE TABLE item (ok INTEGER, ttid INTEGER NOT NULL, ln INTEGER NOT NULL, sdate DATE NOT NULL, rdate DATE NOT NULL, qty INTEGER NOT NULL, flag VARCHAR NOT NULL);
		CREATE TABLE tiny (v INTEGER NOT NULL, name VARCHAR NOT NULL);
		CREATE FUNCTION half (INTEGER) RETURNS INTEGER AS 'SELECT $1 / 2' LANGUAGE SQL IMMUTABLE`); err != nil {
		t.Fatal(err)
	}
	day0 := sqltypes.MustDate("1995-01-01").I
	null := func(v sqltypes.Value, when bool) sqltypes.Value {
		if when {
			return sqltypes.Null
		}
		return v
	}
	var cust, ord, item [][]sqltypes.Value
	for i := 0; i < 800; i++ {
		cust = append(cust, []sqltypes.Value{
			null(sqltypes.NewInt(int64(i)), i%97 == 13), sqltypes.NewInt(int64(i % 4)),
			sqltypes.NewString(string(rune('A' + i%5))), sqltypes.NewInt(int64(i % 50)),
		})
	}
	for i := 0; i < 5000; i++ {
		ck, x, prio := i*7%800, i/7%5, i/3%5
		if i == 4999 {
			ck, x, prio = 799, 5, 4
		}
		ord = append(ord, []sqltypes.Value{
			sqltypes.NewInt(int64(i)), null(sqltypes.NewInt(int64(ck)), i%131 == 7), sqltypes.NewInt(int64(ck % 4)),
			sqltypes.NewDate(day0 + int64(i%360)), sqltypes.NewInt(int64(prio)), sqltypes.NewInt(int64(x)),
			null(sqltypes.NewString(fmt.Sprintf("note %d", i%11)), i%9 == 0),
		})
	}
	for i := 0; i < 12000; i++ {
		ok := i * 5 / 12 // two or three items per order
		o := ord[ok]
		item = append(item, []sqltypes.Value{
			null(sqltypes.NewInt(int64(ok)), i%211 == 3), o[2], sqltypes.NewInt(int64(i % 4)),
			sqltypes.NewDate(o[3].I + 2 + int64(i%20)), sqltypes.NewDate(o[3].I + 10 + int64(i%7)),
			sqltypes.NewInt(int64(i % 50)), sqltypes.NewString(string(rune('N' + i%3))),
		})
	}
	db.Table("cust").BulkLoad(cust)
	db.Table("ord").BulkLoad(ord)
	db.Table("item").BulkLoad(item)
	for v := 0; v < 4; v++ {
		db.Table("tiny").AppendRow([]sqltypes.Value{sqltypes.NewInt(int64(v)), sqltypes.NewString(fmt.Sprintf("t%d", v))})
	}
	return db
}

// joinPath is what the join counters must read after one execution of a
// shape in production, serial and uncapped; -1 leaves a counter unchecked.
type joinPath struct{ probes, fallbacks, built int64 }

var anyPath = joinPath{-1, -1, -1}

var indexJoinShapes = []struct {
	name, sql string
	args      []sqltypes.Value
	wantErr   string
	path      joinPath
}{
	{name: "q3: composite (key, ttid) pairs, a date window correlated with the probe",
		sql: `SELECT o.ok, i.ln, o.odate, i.sdate FROM cust c, ord o, item i WHERE c.seg = 'A' AND c.ck = o.ck AND c.ttid = o.ttid
			AND i.ok = o.ok AND i.ttid = o.ttid AND o.odate < DATE '1995-03-15' AND i.sdate > DATE '1995-03-15'`,
		path: joinPath{2, 0, 0}},
	{name: "q3 grouped, ordered and limited",
		sql: `SELECT i.ok, SUM(i.qty) AS q, o.odate FROM cust c, ord o, item i WHERE c.seg = 'B' AND c.ck = o.ck AND c.ttid = o.ttid
			AND i.ok = o.ok AND i.ttid = o.ttid AND o.odate < DATE '1995-06-01' AND i.sdate > DATE '1995-06-01'
			GROUP BY i.ok, o.odate ORDER BY q DESC, o.odate, i.ok LIMIT 10`,
		path: joinPath{2, 0, 0}},
	{name: "default scope: a ttid constant on every table beside the ttid pairs",
		sql: `SELECT c.ck, o.ok, i.ln FROM cust c, ord o, item i WHERE c.ttid = 2 AND o.ttid = 2 AND i.ttid = 2 AND c.bal < 10
			AND c.ck = o.ck AND c.ttid = o.ttid AND i.ok = o.ok AND i.ttid = o.ttid AND o.prio <> 3`,
		path: joinPath{2, 0, 0}},
	{name: "NULL probe keys and NULL build keys",
		sql:  `SELECT c.ck, o.ok, o.ck FROM cust c, ord o WHERE c.bal < 8 AND c.ck = o.ck AND o.x < 4`,
		path: joinPath{1, 0, 0}},
	{name: "NULL build keys under IS NULL",
		sql:  `SELECT o.ok, i.ln FROM ord o, item i WHERE o.prio = 1 AND o.ok < 900 AND i.ok = o.ok AND i.flag IS NOT NULL AND o.note IS NULL`,
		path: joinPath{1, 0, 0}},
	{name: "N:M: duplicate probe keys over wide buckets",
		sql:  `SELECT c.ck, i.ok FROM cust c, item i WHERE c.ck < 3 AND c.bal = i.qty AND i.flag = 'O'`,
		path: joinPath{1, 0, 0}},
	{name: "N:M past the budget before a candidate is evaluated",
		sql:  `SELECT COUNT(*), SUM(o.ok) FROM item i, ord o WHERE i.qty = 49 AND i.ok < 2000 AND i.ln = o.prio AND o.x < 2`,
		path: joinPath{1, 1, 2002}},
	{name: "a filter no candidate passes",
		sql:  `SELECT COUNT(*), MAX(i.ln) FROM ord o, item i WHERE o.prio = 2 AND i.ok = o.ok AND i.qty < 0`,
		path: joinPath{1, 0, 0}},
	{name: "IN list, LIKE, BETWEEN, OR and NOT over bare columns",
		sql: `SELECT o.ok, i.ln FROM ord o, item i WHERE o.ok BETWEEN 100 AND 1100 AND o.x > 0 AND i.ok = o.ok
			AND i.flag IN ('N', 'O') AND (i.qty BETWEEN 5 AND 30 OR NOT (i.ln <> 2)) AND i.flag NOT LIKE 'P%'`,
		path: joinPath{1, 0, 0}},
	{name: "a column against a column of the build side",
		sql:  `SELECT o.ok, i.ln FROM ord o, item i WHERE o.x = 1 AND o.ok < 2000 AND i.ok = o.ok AND i.rdate > i.sdate`,
		path: joinPath{1, 0, 0}},
	{name: "binds and date arithmetic as operands",
		sql: `SELECT o.ok, i.ln FROM ord o, item i WHERE o.prio = $1 AND o.ok < $2 AND i.ok = o.ok AND i.qty < $3
			AND i.sdate < DATE '1995-02-01' + INTERVAL '3' MONTH`,
		args: []sqltypes.Value{sqltypes.NewInt(3), sqltypes.NewInt(2500), sqltypes.NewInt(20)},
		path: joinPath{1, 0, 0}},
	{name: "a bind that does not compare: unknown, for every candidate",
		sql:  `SELECT COUNT(*), MIN(i.ln) FROM ord o, item i WHERE o.prio = 3 AND o.ok < 500 AND i.ok = o.ok AND i.qty < $1`,
		args: []sqltypes.Value{sqltypes.NewString("twenty")},
		path: joinPath{1, 0, 0}},
	{name: "a build-side conjunct that raises only on a row no probe reaches",
		sql:     `SELECT c.ck, o.ok FROM cust c, ord o WHERE c.seg = 'A' AND c.ck = o.ck AND c.ttid = o.ttid AND 1 / (o.x - 5) > 0`,
		wantErr: "division by zero", path: joinPath{0, 0, -1}},
	{name: "column arithmetic may leave the INTEGER range: eager",
		sql:  `SELECT c.ck, o.ok FROM cust c, ord o WHERE c.seg = 'A' AND c.ck = o.ck AND o.x + 1 > 3`,
		path: joinPath{0, 0, 1997}},
	{name: "a scalar function, a UDF, CASE: eager",
		sql: `SELECT c.ck, o.ok FROM cust c, ord o WHERE c.seg = 'C' AND c.ck = o.ck AND ABS(o.x) > 1 AND half(o.prio) = 2
			AND CASE WHEN o.x = 5 THEN 1 / 0 ELSE 1 END = 1`,
		wantErr: "division by zero", path: joinPath{0, 0, -1}},
	{name: "an operand that reads no row and raises, over a probe that reaches rows",
		sql:     `SELECT c.ck, o.ok FROM cust c, ord o WHERE c.seg = 'A' AND c.ck = o.ck AND o.x > 1 / 0`,
		wantErr: "division by zero", path: joinPath{0, 0, -1}},
	{name: "the same over an empty probe: the eager filter still raises",
		sql:     `SELECT c.ck, o.ok FROM cust c, ord o WHERE c.seg = 'Z' AND c.ck = o.ck AND o.x > 1 / 0`,
		wantErr: "division by zero", path: joinPath{0, 0, -1}},
	{name: "a closed subquery conjunct on the build side: filtered below the join",
		sql:  `SELECT c.ck, o.ok FROM cust c, ord o WHERE c.seg = 'D' AND c.ck = o.ck AND o.x < 3 AND o.prio IN (SELECT v FROM tiny WHERE v > 1)`,
		path: joinPath{0, 0, -1}},
	{name: "a probe large enough to trip the budget mid-stream",
		sql:  `SELECT i.ok, i.ln, o.odate FROM item i, ord o WHERE i.qty >= 0 AND i.ok = o.ok AND i.ttid = o.ttid AND o.prio < 4`,
		path: joinPath{1, 1, 4000}},
	{name: "the same, grouped: rows from before and after the switch fold together",
		sql:  `SELECT o.prio, COUNT(*), SUM(i.qty), MIN(i.ok), MAX(i.ok) FROM item i, ord o WHERE i.qty >= 0 AND i.ok = o.ok AND o.prio < 4 GROUP BY o.prio`,
		path: joinPath{1, 1, 4000}},
	{name: "a sized probe that says eager before the index is built",
		sql:  `SELECT COUNT(*), SUM(i.qty) FROM item i, ord o WHERE i.ok = o.ok AND o.prio = 2 AND o.x <= 2`,
		path: joinPath{0, 0, 573}},
	{name: "a sized probe small enough to stay on the index",
		sql:  `SELECT t.name, COUNT(*) FROM tiny t, item i WHERE t.v = i.ok AND i.qty < 100 GROUP BY t.name`,
		path: joinPath{1, 0, 0}},
	{name: "an unfiltered build side: the zero-conjunct case never builds",
		sql:  `SELECT COUNT(*), SUM(o.x) FROM item i, ord o WHERE i.ok = o.ok AND i.ttid = o.ttid`,
		path: joinPath{1, 0, 0}},
	{name: "LEFT JOIN probes the index and applies WHERE above the join",
		sql: `SELECT o.ok, c.ck, c.seg FROM ord o LEFT JOIN cust c ON o.ck = c.ck AND o.ttid = c.ttid AND c.bal > 20
			WHERE o.ok < 700 AND (c.seg IS NULL OR c.seg <> 'B')`,
		path: joinPath{1, 0, 0}},
	{name: "LEFT JOIN whose ON filters the build side only",
		sql:  `SELECT o.ok, i.ln FROM ord o LEFT JOIN item i ON i.ok = o.ok AND i.qty < 10 WHERE o.prio = 0 AND o.ok < 1500`,
		path: joinPath{1, 0, 0}},
	{name: "a cross product beside an index join",
		sql:  `SELECT t.name, c.ck, o.ok FROM tiny t, cust c, ord o WHERE t.v > 1 AND c.ck < 6 AND c.ck = o.ck AND o.x > 1`,
		path: anyPath},
	{name: "a self join: one table, two indexes",
		sql:  `SELECT a.ok, b.ok FROM ord a, ord b WHERE a.prio = 4 AND a.ok < 600 AND a.ck = b.ck AND a.ttid = b.ttid AND b.odate > a.odate AND b.x < 4`,
		path: joinPath{1, 0, 0}},
	{name: "inside a correlated subquery: a column of the outer row is a bare operand, one index probe per outer row",
		sql:  `SELECT c.ck FROM cust c WHERE c.ck < 12 AND EXISTS (SELECT 1 FROM ord o, item i WHERE o.ck = c.ck AND i.ok = o.ok AND i.qty > c.bal AND o.x < 4)`,
		path: joinPath{12, 0, 0}},
	{name: "LIMIT closes the join mid-stream",
		sql:  `SELECT i.ok, o.prio FROM item i, ord o WHERE i.qty >= 0 AND i.ok = o.ok AND o.x < 4 LIMIT 1500`,
		path: joinPath{1, 1, -1}},
}

// TestIndexJoinDifferential: every shape, in production and in the evaluator
// check, at parallelism 1, 2 and 8, unlimited and under 1 MB and 64 KB, is
// byte-identical to the reference executor — values, kinds, row order and
// error text — and, serial and uncapped, takes the join path it is here for.
func TestIndexJoinDifferential(t *testing.T) {
	db := indexJoinDB(t)
	db.SetSpillDir(t.TempDir())
	run := func(sql string, args []sqltypes.Value) string {
		p, err := db.PreparePlan(sql)
		if err != nil {
			return execKey(nil, err)
		}
		return execKey(db.ExecPlanContext(context.Background(), p, args...))
	}

	cfgReference.apply(db)
	db.SetMemoryLimit(0)
	want := make([]string, len(indexJoinShapes))
	for i, tc := range indexJoinShapes {
		want[i] = run(tc.sql, tc.args)
		if isErr := strings.HasPrefix(want[i], "error: "); isErr != (tc.wantErr != "") || !strings.Contains(want[i], tc.wantErr) {
			t.Fatalf("reference %s: %.300s (want error %q)", tc.name, want[i], tc.wantErr)
		}
		if tc.wantErr == "" && strings.Count(want[i], "\n") < 2 {
			t.Fatalf("reference %s: no rows — the shape checks nothing", tc.name)
		}
	}
	for _, limit := range []int64{0, 1 << 20, 64 << 10} {
		for _, cfg := range checkedConfigs {
			for _, par := range []int{1, 2, 8} {
				cfg.apply(db)
				db.SetParallelism(par)
				db.SetMemoryLimit(limit)
				for i, tc := range indexJoinShapes {
					db.Stats = Stats{}
					if got := run(tc.sql, tc.args); got != want[i] {
						t.Errorf("limit=%d %s par=%d %s:\ngot  %.300s\nwant %.300s", limit, cfg.name, par, tc.name, got, want[i])
					}
					st := db.Stats.Snapshot()
					if limit == 64<<10 && tc.path.fallbacks == 1 && tc.path.built > 2500 && st.SpillRuns == 0 {
						t.Errorf("limit=%d %s par=%d %s: the fallback's build fits nowhere near 64 KB, yet nothing spilled", limit, cfg.name, par, tc.name)
					}
					if limit != 0 || par != 1 {
						continue
					}
					got := joinPath{st.JoinIndexProbes, st.JoinEagerFallbacks, st.JoinBuildRows}
					for _, c := range []struct {
						counter   string
						got, want int64
					}{{"JoinIndexProbes", got.probes, tc.path.probes}, {"JoinEagerFallbacks", got.fallbacks, tc.path.fallbacks}, {"JoinBuildRows", got.built, tc.path.built}} {
						if c.want >= 0 && c.got != c.want {
							t.Errorf("%s %s: %s = %d, want %d", cfg.name, tc.name, c.counter, c.got, c.want)
						}
					}
				}
			}
		}
	}
}

// TestIndexJoinSeesWrites: a write between two executions of one cached plan
// publishes a fresh snapshot, and the next execution probes a fresh index
// over it — the row that was not there is joined, the one deleted is gone.
func TestIndexJoinSeesWrites(t *testing.T) {
	db := indexJoinDB(t)
	const q = `SELECT o.ok, i.ln, i.qty FROM ord o, item i WHERE o.ok >= 4990 AND i.ok = o.ok AND i.qty < 45`
	for _, cfg := range checkedConfigs {
		cfg.apply(db)
		p, err := db.PreparePlan(q)
		if err != nil {
			t.Fatal(err)
		}
		for step, write := range []string{
			``,
			`INSERT INTO item VALUES (4995, 0, 9, DATE '1995-05-05', DATE '1995-05-06', 7, 'N')`,
			`DELETE FROM item WHERE ok = 4995 AND ln = 9`,
			`UPDATE item SET qty = 99 WHERE ok = 4999`,
			`UPDATE item SET qty = qty - 90 WHERE ok = 4999`,
		} {
			if write != "" {
				if _, err := db.ExecSQL(write); err != nil {
					t.Fatal(err)
				}
			}
			cfg.apply(db)
			db.Stats = Stats{}
			got := execKey(db.ExecPlanContext(context.Background(), p))
			if st := db.Stats.Snapshot(); st.JoinIndexProbes != 1 || st.JoinBuildRows != 0 {
				t.Errorf("%s step %d: %d index probes, %d rows built; want 1, 0", cfg.name, step, st.JoinIndexProbes, st.JoinBuildRows)
			}
			cfgReference.apply(db)
			if want := execKey(db.QuerySQL(q)); got != want {
				t.Errorf("%s step %d (%s):\ngot  %s\nwant %s", cfg.name, step, write, got, want)
			}
		}
	}
	cfgProduction.apply(db)
}

// TestIndexJoinTouchesWhatItProbes: what the index path allocates for one
// probe row does not grow with the build table — no per-heap-row memo, no
// eager child pipe, no second lowering of the conjuncts.
func TestIndexJoinTouchesWhatItProbes(t *testing.T) {
	db := indexJoinDB(t)
	db.SetParallelism(1)
	const q = `SELECT o.ok, i.ln FROM ord o, item i WHERE o.ok = $1 AND i.ok = o.ok AND i.qty < 45 AND i.flag <> 'X'`
	p, err := db.PreparePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	one := func() {
		if res, err := db.ExecPlanContext(context.Background(), p, sqltypes.NewInt(4321)); err != nil || len(res.Rows) == 0 {
			t.Fatalf("%v, %v", res, err)
		}
	}
	one() // builds the indexes
	small := testing.AllocsPerRun(20, one)
	rows := make([][]sqltypes.Value, 0, 120000)
	for i := 0; i < 120000; i++ {
		rows = append(rows, []sqltypes.Value{sqltypes.NewInt(int64(100000 + i)), sqltypes.NewInt(0), sqltypes.NewInt(0),
			sqltypes.NewDate(9000), sqltypes.NewDate(9001), sqltypes.NewInt(1), sqltypes.NewString("N")})
	}
	db.Table("item").BulkLoad(rows)
	if p, err = db.PreparePlan(q); err != nil {
		t.Fatal(err)
	}
	one()
	if big := testing.AllocsPerRun(20, one); big > small+2 {
		t.Errorf("one probe row allocates %.0f objects over 12 000 item rows and %.0f over 132 000", small, big)
	}
}
