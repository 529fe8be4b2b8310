package engine

// Tests for the index semi-join (DESIGN.md ADR-033): an EXISTS over one base
// table with an equality on a column of the enclosing row probes the table's
// persistent index for each outer row instead of building, opening and
// draining the subquery's operator tree — and must answer exactly what the
// reference executor's per-row subquery answers, values, kinds, row order
// and error text, whichever shape takes which path.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"mtbase/internal/sqltypes"
)

// existsDB is a customer/order pair in the shape of MT-H Q22's anti-join:
// orders carry the customer key and its ttid, so a rewritten correlated
// EXISTS probes a (ck, ttid) index. Customer keys are nullable on both
// sides; customers whose key ends in 3 have no order (their orders' keys are
// NULL); fk is the key as a DECIMAL on every third customer; big holds
// integers just past 2^53, where a float64 no longer tells neighbours apart;
// z is 0 only on the orders of customers 550–559, so 1 / z raises for the
// outer rows that reach those and for no other.
func existsDB(t *testing.T) *DB {
	t.Helper()
	db := Open(ModePostgres)
	if _, err := db.ExecScript(`
		CREATE TABLE cust (ck INTEGER, ttid INTEGER NOT NULL, bal INTEGER NOT NULL, fk DECIMAL(15,2), name VARCHAR NOT NULL);
		CREATE TABLE ord (ok INTEGER NOT NULL, ck INTEGER, ttid INTEGER NOT NULL, x INTEGER NOT NULL, z INTEGER NOT NULL, big INTEGER);
		CREATE VIEW ordv AS SELECT ck, ttid, x FROM ord;
		CREATE FUNCTION half (INTEGER) RETURNS INTEGER AS 'SELECT $1 / 2' LANGUAGE SQL IMMUTABLE`); err != nil {
		t.Fatal(err)
	}
	const twoTo53 = int64(1) << 53
	var cust, ord [][]sqltypes.Value
	for i := 0; i < 3000; i++ {
		ck := sqltypes.NewInt(int64(i % 700))
		if i%97 == 13 {
			ck = sqltypes.Null
		}
		fk := sqltypes.Null
		if i%3 == 0 {
			fk = sqltypes.NewFloat(float64(i % 700))
		}
		cust = append(cust, []sqltypes.Value{ck, sqltypes.NewInt(int64(i % 700 % 4)), sqltypes.NewInt(int64(i % 50)), fk,
			sqltypes.NewString(fmt.Sprintf("c%d", i))})
	}
	for i := 0; i < 6000; i++ {
		k := int64(i * 7 % 800)
		ck := sqltypes.NewInt(k)
		if k%10 == 3 {
			ck = sqltypes.Null
		}
		z := int64(1)
		if k >= 550 && k < 560 {
			z = 0
		}
		big := sqltypes.Null
		if i%4 != 0 {
			big = sqltypes.NewInt(twoTo53 + k%5)
		}
		ord = append(ord, []sqltypes.Value{sqltypes.NewInt(int64(i)), ck, sqltypes.NewInt(k % 4), sqltypes.NewInt(int64(i % 11)),
			sqltypes.NewInt(z), big})
	}
	db.Table("cust").BulkLoad(cust)
	db.Table("ord").BulkLoad(ord)
	return db
}

var existsShapes = []struct {
	name, sql string
	wantErr   string
	probe     bool // production answers the EXISTS through the index semi-join
}{
	{name: "q22: NOT EXISTS over a (key, ttid) pair, grouped",
		sql: `SELECT c.bal % 7 AS b, COUNT(*), SUM(c.bal) FROM cust c WHERE c.bal > 10
			AND NOT EXISTS (SELECT 1 FROM ord o WHERE o.ck = c.ck AND c.ttid = o.ttid) GROUP BY c.bal % 7 ORDER BY b`,
		probe: true},
	{name: "EXISTS and NOT EXISTS, NULL keys on both sides",
		sql: `SELECT c.ck, c.name FROM cust c WHERE c.bal < 6 AND EXISTS (SELECT * FROM ord o WHERE o.ck = c.ck)
			AND NOT EXISTS (SELECT o.x FROM ord o WHERE o.ck = c.ck AND o.x = 10)`,
		probe: true},
	{name: "EXISTS in the select list, of both polarities, beside NULL keys",
		sql: `SELECT c.name, c.ck, EXISTS (SELECT o.* FROM ord o WHERE o.ck = c.ck AND o.x = 2),
			NOT EXISTS (SELECT 'y' FROM ord o WHERE c.ck = o.ck AND o.x < 3) FROM cust c WHERE c.bal IN (1, 13)`,
		probe: true},
	{name: "2 against 2.0: a DECIMAL outer key meets INTEGER index keys",
		sql:   `SELECT c.name, c.fk FROM cust c WHERE c.bal < 20 AND EXISTS (SELECT 1 FROM ord o WHERE o.ck = c.fk AND o.x > 4)`,
		probe: true},
	{name: "keys above 2^53: an exact match, not a float64 one",
		sql: `SELECT c.name, c.ck FROM cust c WHERE c.ck < 12
			AND EXISTS (SELECT 1 FROM ord o WHERE o.big = c.ck % 3 + 9007199254740992 AND o.ck = c.ck)`,
		probe: true},
	{name: "a conjunct that reads the outer row",
		sql:   `SELECT c.name FROM cust c WHERE c.bal > 30 AND EXISTS (SELECT 1 FROM ord o WHERE o.ck = c.ck AND o.ttid = c.ttid AND o.x >= c.bal - 40)`,
		probe: true},
	{name: "conjuncts on the outer row alone gate the probe",
		sql: `SELECT c.name FROM cust c WHERE c.ck < 40
			AND EXISTS (SELECT 1 FROM ord o WHERE c.bal > 20 AND o.ck = c.ck AND c.name <> 'c5' AND 1 = 1)`,
		probe: true},
	{name: "a constant conjunct that is false",
		sql:   `SELECT c.name FROM cust c WHERE c.ck < 30 AND NOT EXISTS (SELECT 1 FROM ord o WHERE o.ck = c.ck AND 1 = 0)`,
		probe: true},
	{name: "a raising conjunct no probed candidate reaches",
		sql:   `SELECT c.name FROM cust c WHERE c.ck < 100 AND EXISTS (SELECT 1 FROM ord o WHERE o.ck = c.ck AND 1 / o.z = 1)`,
		probe: true},
	{name: "the same conjunct, reached by some outer rows",
		sql:     `SELECT c.name FROM cust c WHERE c.ck BETWEEN 540 AND 560 AND EXISTS (SELECT 1 FROM ord o WHERE o.ck = c.ck AND 1 / o.z = 1)`,
		wantErr: "division by zero", probe: true},
	{name: "a raising candidate behind a passing one",
		sql:     `SELECT c.name FROM cust c WHERE c.ck = 555 AND EXISTS (SELECT 1 FROM ord o WHERE o.ck = c.ck AND (o.x > 5 OR 1 / o.z = 1))`,
		wantErr: "division by zero", probe: true},
	{name: "a raising candidate a window after a passing one: 1 500 candidates a ttid",
		sql:     `SELECT c.name FROM cust c WHERE c.ck = 4 AND EXISTS (SELECT 1 FROM ord o WHERE o.ttid = c.ttid AND (o.ok < 3000 OR 1 / (o.ok - 5500) = 1))`,
		wantErr: "division by zero", probe: true},
	{name: "the same window split, nothing raising",
		sql:   `SELECT c.name, c.ttid FROM cust c WHERE c.ck < 9 AND NOT EXISTS (SELECT 1 FROM ord o WHERE o.ttid = c.ttid AND o.ok > 5990 AND o.x > c.ck)`,
		probe: true},
	{name: "a key expression that raises",
		sql:     `SELECT c.name FROM cust c WHERE c.bal BETWEEN 5 AND 9 AND EXISTS (SELECT 1 FROM ord o WHERE o.ck = 100 / (c.bal - 7))`,
		wantErr: "division by zero", probe: true},
	{name: "a key that raises behind a NULL key",
		sql: `SELECT c.name FROM cust c WHERE c.ck IS NULL
			AND EXISTS (SELECT 1 FROM ord o WHERE o.ck = c.ck AND o.ttid = 10 / (c.bal - 7))`,
		wantErr: "division by zero", probe: true},
	{name: "a gate that raises",
		sql:     `SELECT c.name FROM cust c WHERE c.ck < 50 AND EXISTS (SELECT 1 FROM ord o WHERE 10 / (c.bal - 3) > 0 AND o.ck = c.ck)`,
		wantErr: "division by zero", probe: true},
	{name: "a UDF call in the key and in a conjunct",
		sql:   `SELECT c.name FROM cust c WHERE c.ck < 90 AND EXISTS (SELECT 1 FROM ord o WHERE o.ck = half(c.ck) AND half(o.x) = 2)`,
		probe: true},
	{name: "inside a correlated scalar subquery, reading the row two levels up",
		sql: `SELECT c.name, c.bal FROM cust c WHERE c.ck < 5 AND c.bal <= (SELECT MIN(c2.bal) + 3 FROM cust c2 WHERE c2.ttid = c.ttid
			AND EXISTS (SELECT 1 FROM ord o WHERE o.ck = c2.ck AND o.x = c.bal % 11))`,
		probe: true},
	{name: "a key on the row two levels up",
		sql: `SELECT c.name FROM cust c WHERE c.ck < 8 AND EXISTS (SELECT 1 FROM cust c2 WHERE c2.ck = c.ck
			AND EXISTS (SELECT 1 FROM ord o WHERE o.ck = c.ck AND o.ttid = c2.ttid))`,
		probe: true},
	{name: "in an aggregate argument: the grouped projection's parallel windows",
		sql: `SELECT c.ttid, COUNT(*), SUM(CASE WHEN EXISTS (SELECT 1 FROM ord o WHERE o.ck = c.ck AND o.x = 4) THEN 1 ELSE 0 END)
			FROM cust c GROUP BY c.ttid ORDER BY c.ttid`,
		probe: true},
	// Declined shapes: each runs its subquery per row, as before.
	{name: "LIMIT 0",
		sql: `SELECT c.name FROM cust c WHERE c.ck < 30 AND NOT EXISTS (SELECT 1 FROM ord o WHERE o.ck = c.ck LIMIT 0)`},
	{name: "an aggregate: one row whatever the candidates",
		sql: `SELECT c.name FROM cust c WHERE c.ck > 690 AND EXISTS (SELECT COUNT(*) FROM ord o WHERE o.ck = c.ck AND o.x = 99)`},
	{name: "a select item that raises",
		sql:     `SELECT c.name FROM cust c WHERE c.ck < 30 AND EXISTS (SELECT 1 / (o.x - 3) FROM ord o WHERE o.ck = c.ck)`,
		wantErr: "division by zero"},
	{name: "an ORDER BY that raises",
		sql:     `SELECT c.name FROM cust c WHERE c.ck < 30 AND EXISTS (SELECT o.x FROM ord o WHERE o.ck = c.ck ORDER BY 1 / (o.x - 3))`,
		wantErr: "division by zero"},
	{name: "DISTINCT",
		sql: `SELECT c.name FROM cust c WHERE c.ck < 30 AND EXISTS (SELECT DISTINCT o.x FROM ord o WHERE o.ck = c.ck)`},
	{name: "a view",
		sql: `SELECT c.name FROM cust c WHERE c.ck < 6 AND EXISTS (SELECT 1 FROM ordv o WHERE o.ck = c.ck AND o.x = 1)`},
	{name: "two tables: the join inside probes its index with the outer column as an operand",
		sql: `SELECT c.name FROM cust c WHERE c.ck < 6 AND EXISTS (SELECT 1 FROM ord o, cust c3 WHERE o.ck = c.ck
			AND c3.ck = o.ck AND c3.ttid = o.ttid AND c3.bal >= c.bal)`},
	{name: "a subquery among the conjuncts",
		sql: `SELECT c.name FROM cust c WHERE c.ck < 30 AND EXISTS (SELECT 1 FROM ord o WHERE o.ck = c.ck
			AND o.x IN (SELECT c4.bal FROM cust c4 WHERE c4.ck = 3))`},
	{name: "no key reads the outer row: run once and memoized",
		sql: `SELECT c.name FROM cust c WHERE c.ck < 30 AND EXISTS (SELECT 1 FROM ord o WHERE o.ck = 5 AND o.x > c.bal)`},
	{name: "no equality to probe by",
		sql: `SELECT c.name FROM cust c WHERE c.ck < 6 AND EXISTS (SELECT 1 FROM ord o WHERE o.ck > c.ck + 790)`},
}

// TestExistsProbeDifferential: every shape, in production and in the
// evaluator check, at parallelism 1, 2 and 8, unlimited and under 64 KB, is
// byte-identical to the reference executor; and, serial and uncapped,
// production answers through the index semi-join exactly the shapes marked
// for it, reading the rows the per-row subqueries of the evaluator check
// read. A write that leaves the index a tail to scan — an INSERT — is
// followed by every shape again.
func TestExistsProbeDifferential(t *testing.T) {
	SetMorselSize(1)
	defer SetMorselSize(0)
	db := existsDB(t)
	db.SetSpillDir(t.TempDir())
	defer cfgProduction.apply(db)
	run := func(sql string) string {
		p, err := db.PreparePlan(sql)
		if err != nil {
			return execKey(nil, err)
		}
		return execKey(db.ExecPlanContext(context.Background(), p))
	}
	for step, write := range []string{
		``,
		`INSERT INTO ord VALUES (9000, 13, 1, 2, 1, NULL), (9001, 555, 3, 7, 1, 9007199254740993), (9002, 3, 3, 4, 1, NULL)`,
	} {
		if write != "" {
			if _, err := db.ExecSQL(write); err != nil {
				t.Fatal(err)
			}
		}
		cfgReference.apply(db)
		db.SetParallelism(1)
		db.SetMemoryLimit(0)
		want := make([]string, len(existsShapes))
		for i, tc := range existsShapes {
			db.Stats = Stats{}
			want[i] = run(tc.sql)
			if isErr := strings.HasPrefix(want[i], "error: "); isErr != (tc.wantErr != "") || !strings.Contains(want[i], tc.wantErr) {
				t.Fatalf("step %d reference %s: %.300s (want error %q)", step, tc.name, want[i], tc.wantErr)
			}
			if tc.wantErr == "" && strings.Count(want[i], "\n") < 2 {
				t.Fatalf("step %d reference %s: no rows — the shape checks nothing", step, tc.name)
			}
			if n := db.Stats.ExistsProbes.Load(); n != 0 {
				t.Errorf("step %d reference %s: ExistsProbes = %d, want 0", step, tc.name, n)
			}
		}
		for _, limit := range []int64{0, 64 << 10} {
			for _, cfg := range []execConfig{cfgEvalCheck, cfgProduction} {
				for _, par := range []int{1, 2, 8} {
					cfg.apply(db)
					db.SetParallelism(par)
					db.SetMemoryLimit(limit)
					for i, tc := range existsShapes {
						db.Stats = Stats{}
						if got := run(tc.sql); got != want[i] {
							t.Errorf("step %d limit=%d %s par=%d %s:\ngot  %.300s\nwant %.300s", step, limit, cfg.name, par, tc.name, got, want[i])
						}
						probes := db.Stats.ExistsProbes.Load()
						if cfg == cfgEvalCheck && probes != 0 {
							t.Errorf("step %d %s %s: ExistsProbes = %d, want 0", step, cfg.name, tc.name, probes)
						}
						if cfg == cfgProduction && limit == 0 && par == 1 && (probes > 0) != tc.probe {
							t.Errorf("step %d %s %s: ExistsProbes = %d, want the index semi-join: %v", step, cfg.name, tc.name, probes, tc.probe)
						}
					}
				}
			}
		}
	}
}

// TestExistsProbeReadsWhatTheSubqueryReads: serial and uncapped, the index
// semi-join hands Stats.ScanRows the candidates the per-row subquery's index
// scan hands on — the outer rows' buckets, nothing of the heap besides —
// shape for shape, before and after an INSERT leaves the index a tail.
func TestExistsProbeReadsWhatTheSubqueryReads(t *testing.T) {
	db := existsDB(t)
	defer cfgProduction.apply(db)
	db.SetParallelism(1)
	for step, write := range []string{``, `INSERT INTO ord VALUES (9000, 13, 1, 2, 1, NULL), (9001, 12, 0, 7, 1, NULL)`} {
		if write != "" {
			if _, err := db.ExecSQL(write); err != nil {
				t.Fatal(err)
			}
		}
		for _, tc := range existsShapes {
			if !tc.probe {
				continue
			}
			read := map[string]int64{}
			for _, cfg := range []execConfig{cfgEvalCheck, cfgProduction} {
				cfg.apply(db)
				p, err := db.PreparePlan(tc.sql)
				if err != nil {
					t.Fatal(err)
				}
				db.Stats = Stats{}
				_, _ = db.ExecPlanContext(context.Background(), p)
				read[cfg.name] = db.Stats.ScanRows.Load()
			}
			if read[cfgProduction.name] != read[cfgEvalCheck.name] {
				t.Errorf("step %d %s: ScanRows %d, the per-row subqueries read %d", step, tc.name, read[cfgProduction.name], read[cfgEvalCheck.name])
			}
		}
	}
}
