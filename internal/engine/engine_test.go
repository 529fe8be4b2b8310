package engine

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"mtbase/internal/sqlparse"
	"mtbase/internal/sqltypes"
)

// newEmployeeDB builds the paper's running example (Figure 2) as one shared
// ST-layout database plus the conversion meta tables.
func newEmployeeDB(t testing.TB, mode Mode) *DB {
	t.Helper()
	db := Open(mode)
	script := `
CREATE TABLE Employees (
  ttid INTEGER NOT NULL,
  E_emp_id INTEGER NOT NULL,
  E_name VARCHAR(25) NOT NULL,
  E_role_id INTEGER NOT NULL,
  E_reg_id INTEGER NOT NULL,
  E_salary DECIMAL(15,2) NOT NULL,
  E_age INTEGER NOT NULL
);
CREATE TABLE Roles (
  ttid INTEGER NOT NULL,
  R_role_id INTEGER NOT NULL,
  R_name VARCHAR(25) NOT NULL
);
CREATE TABLE Regions (
  Re_reg_id INTEGER NOT NULL,
  Re_name VARCHAR(25) NOT NULL,
  CONSTRAINT pk_reg PRIMARY KEY (Re_reg_id)
);
CREATE TABLE Tenant (
  T_tenant_key INTEGER NOT NULL,
  T_currency_key INTEGER NOT NULL
);
CREATE TABLE CurrencyTransform (
  CT_currency_key INTEGER NOT NULL,
  CT_to_universal DECIMAL(15,2) NOT NULL,
  CT_from_universal DECIMAL(15,2) NOT NULL
);
INSERT INTO Employees VALUES
  (0, 0, 'Patrick', 1, 3, 50000, 30),
  (0, 1, 'John',    0, 3, 70000, 28),
  (0, 2, 'Alice',   2, 3, 150000, 46),
  (1, 0, 'Allan',   1, 2, 80000, 25),
  (1, 1, 'Nancy',   2, 4, 200000, 72),
  (1, 2, 'Ed',      0, 4, 1000000, 46);
INSERT INTO Roles VALUES
  (0, 0, 'phD stud.'), (0, 1, 'postdoc'), (0, 2, 'professor'),
  (1, 0, 'intern'), (1, 1, 'researcher'), (1, 2, 'executive');
INSERT INTO Regions VALUES
  (0, 'AFRICA'), (1, 'ASIA'), (2, 'AUSTRALIA'),
  (3, 'EUROPE'), (4, 'N-AMERICA'), (5, 'S-AMERICA');
INSERT INTO Tenant VALUES (0, 0), (1, 1);
INSERT INTO CurrencyTransform VALUES (0, 1.0, 1.0), (1, 1.1, 0.909090909);
CREATE FUNCTION currencyToUniversal (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
  AS 'SELECT CT_to_universal * $1 FROM Tenant, CurrencyTransform WHERE T_tenant_key = $2 AND T_currency_key = CT_currency_key'
  LANGUAGE SQL IMMUTABLE;
CREATE FUNCTION currencyFromUniversal (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
  AS 'SELECT CT_from_universal * $1 FROM Tenant, CurrencyTransform WHERE T_tenant_key = $2 AND T_currency_key = CT_currency_key'
  LANGUAGE SQL IMMUTABLE;
`
	if _, err := db.ExecScript(script); err != nil {
		t.Fatalf("setup: %v", err)
	}
	return db
}

// mustPrepare is how these tests run text with binds, a context or a cursor:
// they hold its plan and call ExecPlanContext or QueryPlanContext, as the
// middleware does with a compiled form. The text is the test's own, so a
// parse error is a bug in the test.
func mustPrepare(db *DB, sql string) *Plan {
	p, err := db.PreparePlan(sql)
	if err != nil {
		panic(fmt.Sprintf("preparing %q: %v", sql, err))
	}
	return p
}

func queryRows(t testing.TB, db *DB, sql string) [][]sqltypes.Value {
	t.Helper()
	res, err := db.QuerySQL(sql)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return res.Rows
}

func TestSelectBasics(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	rows := queryRows(t, db, "SELECT E_name FROM Employees WHERE E_age = 46 ORDER BY E_name")
	if len(rows) != 2 || rows[0][0].S != "Alice" || rows[1][0].S != "Ed" {
		t.Errorf("rows = %v", rows)
	}
}

func TestSelectStar(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	res, err := db.QuerySQL("SELECT * FROM Regions WHERE Re_reg_id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 2 || res.Rows[0][1].S != "EUROPE" {
		t.Errorf("star: %v %v", res.Cols, res.Rows)
	}
}

func TestSelectNoFrom(t *testing.T) {
	db := Open(ModePostgres)
	rows := queryRows(t, db, "SELECT 1 + 2 AS x")
	if len(rows) != 1 || rows[0][0].I != 3 {
		t.Errorf("rows = %v", rows)
	}
}

func TestWhereThreeValuedLogic(t *testing.T) {
	db := Open(ModePostgres)
	if _, err := db.ExecScript("CREATE TABLE t (a INTEGER, b INTEGER); INSERT INTO t VALUES (1, NULL), (2, 5)"); err != nil {
		t.Fatal(err)
	}
	// NULL comparisons are unknown and filtered out.
	rows := queryRows(t, db, "SELECT a FROM t WHERE b > 1")
	if len(rows) != 1 || rows[0][0].I != 2 {
		t.Errorf("rows = %v", rows)
	}
	rows = queryRows(t, db, "SELECT a FROM t WHERE b IS NULL")
	if len(rows) != 1 || rows[0][0].I != 1 {
		t.Errorf("rows = %v", rows)
	}
}

func TestImplicitJoinWithHash(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	// Join within same tenant via ttid predicate (the rewritten form).
	rows := queryRows(t, db, `SELECT E_name, R_name FROM Employees, Roles
		WHERE E_role_id = R_role_id AND Employees.ttid = Roles.ttid AND E_name = 'John'`)
	if len(rows) != 1 || rows[0][1].S != "phD stud." {
		t.Errorf("rows = %v", rows)
	}
	// Without the ttid predicate John joins both tenants' role 0.
	rows = queryRows(t, db, `SELECT R_name FROM Employees, Roles
		WHERE E_role_id = R_role_id AND E_name = 'John' ORDER BY R_name`)
	if len(rows) != 2 {
		t.Errorf("rows = %v", rows)
	}
}

func TestExplicitJoins(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	rows := queryRows(t, db, `SELECT E_name, Re_name FROM Employees JOIN Regions ON E_reg_id = Re_reg_id WHERE E_name = 'Nancy'`)
	if len(rows) != 1 || rows[0][1].S != "N-AMERICA" {
		t.Errorf("rows = %v", rows)
	}
}

func TestLeftOuterJoin(t *testing.T) {
	db := Open(ModePostgres)
	script := `
CREATE TABLE c (ck INTEGER, cn VARCHAR(10));
CREATE TABLE o (ok INTEGER, ock INTEGER, cmt VARCHAR(20));
INSERT INTO c VALUES (1, 'one'), (2, 'two'), (3, 'three');
INSERT INTO o VALUES (10, 1, 'normal'), (11, 1, 'special deal'), (12, 2, 'normal');`
	if _, err := db.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	rows := queryRows(t, db, `SELECT cn, ok FROM c LEFT OUTER JOIN o ON ck = ock AND cmt NOT LIKE '%special%' ORDER BY cn, ok`)
	// one->10, three->NULL, two->12
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[1][0].S != "three" || !rows[1][1].IsNull() {
		t.Errorf("unmatched row: %v", rows[1])
	}
	// COUNT(ok) must skip NULLs: the Q13 pattern.
	rows = queryRows(t, db, `SELECT cn, COUNT(ok) AS cnt FROM c LEFT OUTER JOIN o ON ck = ock GROUP BY cn ORDER BY cnt DESC, cn`)
	if rows[0][1].I != 2 || rows[2][1].I != 0 {
		t.Errorf("grouped outer join: %v", rows)
	}
}

func TestGroupByAggregates(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	rows := queryRows(t, db, `SELECT ttid, COUNT(*) AS cnt, SUM(E_salary) AS total, AVG(E_age) AS age, MIN(E_salary) AS lo, MAX(E_salary) AS hi
		FROM Employees GROUP BY ttid ORDER BY ttid`)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][1].I != 3 || rows[0][2].AsFloat() != 270000 {
		t.Errorf("tenant 0 aggregates: %v", rows[0])
	}
	if rows[1][4].AsFloat() != 80000 || rows[1][5].AsFloat() != 1000000 {
		t.Errorf("tenant 1 min/max: %v", rows[1])
	}
}

func TestGlobalAggregateEmptyInput(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	rows := queryRows(t, db, "SELECT COUNT(*), SUM(E_salary) FROM Employees WHERE E_age > 1000")
	if len(rows) != 1 || rows[0][0].I != 0 || !rows[0][1].IsNull() {
		t.Errorf("empty aggregate: %v", rows)
	}
}

func TestHaving(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	rows := queryRows(t, db, `SELECT E_reg_id, COUNT(*) AS cnt FROM Employees GROUP BY E_reg_id HAVING COUNT(*) > 1 ORDER BY E_reg_id`)
	if len(rows) != 2 { // region 3 (x3) and region 4 (x2)
		t.Errorf("rows = %v", rows)
	}
}

func TestCountDistinct(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	rows := queryRows(t, db, "SELECT COUNT(DISTINCT E_reg_id) FROM Employees")
	if rows[0][0].I != 3 {
		t.Errorf("distinct regions = %v", rows[0][0])
	}
}

func TestDistinct(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	rows := queryRows(t, db, "SELECT DISTINCT E_reg_id FROM Employees ORDER BY E_reg_id")
	if len(rows) != 3 {
		t.Errorf("rows = %v", rows)
	}
}

func TestScalarSubqueryCorrelated(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	// Employees earning the max salary of their tenant.
	rows := queryRows(t, db, `SELECT E_name FROM Employees e1
		WHERE E_salary = (SELECT MAX(E_salary) FROM Employees e2 WHERE e2.ttid = e1.ttid) ORDER BY E_name`)
	if len(rows) != 2 || rows[0][0].S != "Alice" || rows[1][0].S != "Ed" {
		t.Errorf("rows = %v", rows)
	}
}

func TestExistsCorrelated(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	rows := queryRows(t, db, `SELECT R_name FROM Roles r
		WHERE EXISTS (SELECT 1 FROM Employees e WHERE e.E_role_id = r.R_role_id AND e.ttid = r.ttid AND e.E_age > 70)`)
	if len(rows) != 1 || rows[0][0].S != "executive" {
		t.Errorf("rows = %v", rows)
	}
	rows = queryRows(t, db, `SELECT COUNT(*) FROM Roles r
		WHERE NOT EXISTS (SELECT 1 FROM Employees e WHERE e.E_role_id = r.R_role_id AND e.ttid = r.ttid)`)
	if rows[0][0].I != 0 {
		t.Errorf("all roles are used: %v", rows)
	}
}

func TestInSubquery(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	rows := queryRows(t, db, `SELECT E_name FROM Employees WHERE E_reg_id IN (SELECT Re_reg_id FROM Regions WHERE Re_name = 'EUROPE') ORDER BY E_name`)
	if len(rows) != 3 {
		t.Errorf("rows = %v", rows)
	}
}

func TestDerivedTable(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	rows := queryRows(t, db, `SELECT AVG(x.sal) FROM (SELECT E_salary AS sal FROM Employees WHERE E_age >= 45) AS x`)
	want := (150000.0 + 200000.0 + 1000000.0) / 3
	_ = want
	got := rows[0][0].AsFloat()
	if got < 449999 || got > 450001 {
		t.Errorf("avg = %v", got)
	}
}

func TestViews(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	if _, err := db.ExecSQL("CREATE VIEW seniors AS SELECT E_name, E_age FROM Employees WHERE E_age >= 46"); err != nil {
		t.Fatal(err)
	}
	rows := queryRows(t, db, "SELECT COUNT(*) FROM seniors")
	if rows[0][0].I != 3 {
		t.Errorf("view rows = %v", rows)
	}
	if _, err := db.ExecSQL("DROP VIEW seniors"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QuerySQL("SELECT * FROM seniors"); err == nil {
		t.Error("dropped view still queryable")
	}
}

func TestUDFAndCacheModes(t *testing.T) {
	// In ModePostgres, repeated calls with identical arguments hit the cache;
	// ModeSystemC re-executes the body every time (Appendix C).
	for _, mode := range []Mode{ModePostgres, ModeSystemC} {
		db := newEmployeeDB(t, mode)
		db.Stats = Stats{}
		rows := queryRows(t, db, "SELECT currencyToUniversal(100, 1) FROM Employees")
		if len(rows) != 6 {
			t.Fatalf("rows = %v", rows)
		}
		got := rows[0][0].AsFloat()
		if got < 109.9 || got > 110.1 {
			t.Errorf("conversion result = %v", got)
		}
		switch mode {
		case ModePostgres:
			if db.Stats.UDFCalls.Load() != 1 || db.Stats.UDFCacheHits.Load() != 5 {
				t.Errorf("postgres mode stats = %+v", db.Stats.Snapshot())
			}
		case ModeSystemC:
			if db.Stats.UDFCalls.Load() != 6 || db.Stats.UDFCacheHits.Load() != 0 {
				t.Errorf("system-c mode stats = %+v", db.Stats.Snapshot())
			}
		}
	}
	// SELECT DISTINCT evaluates its items once per input row, before any key
	// is compared — a grouping by the output columns (ADR-039) must not
	// evaluate them again per group — so the seven keys run the body seven
	// times and the other rows hit the cache, in every configuration,
	// unlimited and spilling.
	db := streamTestDB(t, 6000)
	db.SetSpillDir(t.TempDir())
	db.SetParallelism(1)
	for _, cfg := range []execConfig{cfgReference, cfgProduction, cfgEvalCheck} {
		cfg.apply(db)
		for _, limit := range []int64{0, 8 << 10} {
			db.SetMemoryLimit(limit)
			db.Stats = Stats{}
			res, err := db.QuerySQL(`SELECT DISTINCT dimname(k) AS n FROM fact`)
			if err != nil || len(res.Rows) != 7 {
				t.Fatalf("%s limit=%d: %v", cfg.name, limit, err)
			}
			if st := db.Stats.Snapshot(); st.UDFCalls != 7 || st.UDFCacheHits != 5993 {
				t.Errorf("%s limit=%d: %d body executions and %d cache hits, want 7 and 5993", cfg.name, limit, st.UDFCalls, st.UDFCacheHits)
			}
		}
	}
}

func TestUDFComposition(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	// EUR -> universal -> EUR must be (approximately) identity.
	rows := queryRows(t, db, "SELECT currencyFromUniversal(currencyToUniversal(E_salary, ttid), ttid) AS s, E_salary FROM Employees")
	for _, r := range rows {
		a, b := r[0].AsFloat(), r[1].AsFloat()
		if a < b*0.999 || a > b*1.001 {
			t.Errorf("round trip %v != %v", a, b)
		}
	}
}

func TestUDFCacheIsPerStatement(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	db.Stats = Stats{}
	queryRows(t, db, "SELECT currencyToUniversal(100, 1)")
	queryRows(t, db, "SELECT currencyToUniversal(100, 1)")
	if db.Stats.UDFCalls.Load() != 2 {
		t.Errorf("cache must not span statements: %+v", db.Stats.Snapshot())
	}
}

func TestCaseExpr(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	rows := queryRows(t, db, `SELECT SUM(CASE WHEN E_age >= 46 THEN 1 ELSE 0 END) FROM Employees`)
	if rows[0][0].I != 3 {
		t.Errorf("case sum = %v", rows[0][0])
	}
}

func TestLikePatterns(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "h%", true},
		{"hello", "%llo", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true}, // _ matches 'e' and 'l'
		{"help", "h__lo", false},
		{"hello", "hello_", false},
		{"hello", "%ell%", true},
		{"hello", "hello", true},
		{"hello", "", false},
		{"", "%", true},
		{"special deal", "%special%", true},
		{"forest green", "forest%", true},
		{"PROMO BRUSHED", "PROMO%", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v", c.s, c.p, got)
		}
	}
}

func TestOrderByMultipleKeysAndNulls(t *testing.T) {
	db := Open(ModePostgres)
	if _, err := db.ExecScript("CREATE TABLE t (a INTEGER, b INTEGER); INSERT INTO t VALUES (1, 2), (1, 1), (2, NULL), (2, 3)"); err != nil {
		t.Fatal(err)
	}
	rows := queryRows(t, db, "SELECT a, b FROM t ORDER BY a DESC, b")
	// a=2 first (NULL before 3), then a=1 (1 before 2)
	if !rows[0][1].IsNull() || rows[1][1].I != 3 || rows[2][1].I != 1 {
		t.Errorf("rows = %v", rows)
	}
}

func TestLimit(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	rows := queryRows(t, db, "SELECT E_name FROM Employees ORDER BY E_salary DESC LIMIT 2")
	if len(rows) != 2 || rows[0][0].S != "Ed" {
		t.Errorf("rows = %v", rows)
	}
}

func TestUpdateDelete(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	res, err := db.ExecSQL("UPDATE Employees SET E_salary = E_salary * 2 WHERE E_name = 'John'")
	if err != nil || res.Affected != 1 {
		t.Fatalf("update: %v %v", res, err)
	}
	rows := queryRows(t, db, "SELECT E_salary FROM Employees WHERE E_name = 'John'")
	if rows[0][0].AsFloat() != 140000 {
		t.Errorf("salary = %v", rows[0][0])
	}
	res, err = db.ExecSQL("DELETE FROM Employees WHERE ttid = 1")
	if err != nil || res.Affected != 3 {
		t.Fatalf("delete: %v %v", res, err)
	}
	rows = queryRows(t, db, "SELECT COUNT(*) FROM Employees")
	if rows[0][0].I != 3 {
		t.Errorf("count = %v", rows[0][0])
	}
}

func TestInsertSelect(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	_, err := db.ExecSQL(`INSERT INTO Roles (ttid, R_role_id, R_name) SELECT 2, R_role_id, R_name FROM Roles WHERE ttid = 0`)
	if err != nil {
		t.Fatal(err)
	}
	rows := queryRows(t, db, "SELECT COUNT(*) FROM Roles WHERE ttid = 2")
	if rows[0][0].I != 3 {
		t.Errorf("copied roles = %v", rows[0][0])
	}
}

func TestInsertTypeChecks(t *testing.T) {
	db := Open(ModePostgres)
	if _, err := db.ExecSQL("CREATE TABLE t (a INTEGER NOT NULL, d DATE)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecSQL("INSERT INTO t VALUES (NULL, NULL)"); err == nil {
		t.Error("NOT NULL violation accepted")
	}
	if _, err := db.ExecSQL("INSERT INTO t VALUES (1, '1994-01-01')"); err != nil {
		t.Errorf("date coercion from string: %v", err)
	}
	rows := queryRows(t, db, "SELECT d FROM t")
	if rows[0][0].K != sqltypes.KindDate {
		t.Errorf("stored kind = %v", rows[0][0].K)
	}
}

// TestUpdateNotNull: UPDATE runs the NOT NULL check INSERT does, and a row
// that trips it publishes nothing — not even the rows staged before it.
func TestUpdateNotNull(t *testing.T) {
	db := Open(ModePostgres)
	if _, err := db.ExecScript(`CREATE TABLE t (a INTEGER NOT NULL, b INTEGER);
INSERT INTO t VALUES (1, 1), (2, 2), (3, NULL);`); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"UPDATE t SET a = NULL WHERE b = 2",
		"UPDATE t SET a = CASE WHEN b = 2 THEN NULL ELSE a + 10 END",
		"UPDATE t SET a = b",
	} {
		res, err := db.ExecSQL(sql)
		if err == nil || !strings.Contains(err.Error(), "NULL in NOT NULL column t.a") {
			t.Errorf("%s: %v, %v; want the NOT NULL error", sql, res, err)
		}
		got := fmt.Sprint(queryRows(t, db, "SELECT a, b FROM t"))
		if want := "[[1 1] [2 2] [3 NULL]]"; got != want {
			t.Errorf("%s: rows %s after the error, want %s", sql, got, want)
		}
	}
	if _, err := db.ExecSQL("UPDATE t SET b = NULL WHERE a = 1"); err != nil {
		t.Errorf("NULL into a nullable column: %v", err)
	}
}

func TestConstraintValidation(t *testing.T) {
	db := Open(ModePostgres)
	script := `
CREATE TABLE Roles (R_role_id INTEGER NOT NULL, CONSTRAINT pk_r PRIMARY KEY (R_role_id));
CREATE TABLE Employees (E_id INTEGER NOT NULL, E_role_id INTEGER,
  CONSTRAINT fk_e FOREIGN KEY (E_role_id) REFERENCES Roles (R_role_id));
INSERT INTO Roles VALUES (0), (1);
INSERT INTO Employees VALUES (1, 0), (2, NULL);`
	if _, err := db.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	if err := db.ValidateConstraints(); err != nil {
		t.Errorf("valid data rejected: %v", err)
	}
	if _, err := db.ExecSQL("INSERT INTO Employees VALUES (3, 99)"); err != nil {
		t.Fatal(err)
	}
	if err := db.ValidateConstraints(); err == nil {
		t.Error("dangling FK not detected")
	}
	// With two tables in violation, the first by name is reported, every time.
	if _, err := db.ExecScript(`CREATE TABLE Audit (A_role_id INTEGER,
  CONSTRAINT fk_a FOREIGN KEY (A_role_id) REFERENCES Roles (R_role_id));
INSERT INTO Audit VALUES (98);`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := db.ValidateConstraints(); err == nil || !strings.Contains(err.Error(), "fk_a") {
			t.Fatalf("want Audit's fk_a reported first, got %v", err)
		}
	}
}

func TestDateArithmeticInQueries(t *testing.T) {
	db := Open(ModePostgres)
	script := `
CREATE TABLE ship (d DATE);
INSERT INTO ship VALUES ('1998-09-01'), ('1998-09-03'), ('1998-12-01');`
	if _, err := db.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	rows := queryRows(t, db, "SELECT COUNT(*) FROM ship WHERE d <= DATE '1998-12-01' - INTERVAL '90' DAY")
	if rows[0][0].I != 1 {
		t.Errorf("count = %v", rows[0][0])
	}
	rows = queryRows(t, db, "SELECT EXTRACT(YEAR FROM d) FROM ship LIMIT 1")
	if rows[0][0].I != 1998 {
		t.Errorf("year = %v", rows[0][0])
	}
}

func TestOrFactoringJoin(t *testing.T) {
	// The Q19 pattern: join predicate repeated in every OR branch.
	db := Open(ModePostgres)
	script := `
CREATE TABLE p (pk INTEGER, brand VARCHAR(10));
CREATE TABLE l (lpk INTEGER, qty INTEGER);`
	if _, err := db.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	np, nl := 200, 2000
	pt := db.Table("p")
	for i := 0; i < np; i++ {
		pt.AppendRow([]sqltypes.Value{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("B%d", i%5))})
	}
	lt := db.Table("l")
	for i := 0; i < nl; i++ {
		lt.AppendRow([]sqltypes.Value{sqltypes.NewInt(int64(i % np)), sqltypes.NewInt(int64(i % 50))})
	}
	rows := queryRows(t, db, `SELECT COUNT(*) FROM l, p WHERE
		(pk = lpk AND brand = 'B1' AND qty BETWEEN 1 AND 11) OR
		(pk = lpk AND brand = 'B2' AND qty BETWEEN 10 AND 20)`)
	// brand B1: parts 1,6,...  qty in [1,11]; count via direct reasoning is
	// deterministic; just cross-check against the unfactored equivalent.
	rows2 := queryRows(t, db, `SELECT COUNT(*) FROM l, p WHERE pk = lpk AND
		((brand = 'B1' AND qty BETWEEN 1 AND 11) OR (brand = 'B2' AND qty BETWEEN 10 AND 20))`)
	if rows[0][0].I != rows2[0][0].I || rows[0][0].I == 0 {
		t.Errorf("or factoring mismatch: %v vs %v", rows[0][0], rows2[0][0])
	}
	// The implied conjuncts come out in text order however the branches list
	// them: a map collects them, and a plan's conjunct order must not follow
	// its iteration.
	q, err := sqlparse.ParseQuery(`SELECT 1 FROM l, p WHERE (qty > 1 AND pk = lpk AND brand = 'B1') OR
		(brand = 'B1' AND qty < 9 AND pk = lpk AND qty > 1)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		var got []string
		for _, c := range factorCommonOr(q.Where) {
			got = append(got, c.String())
		}
		if want := []string{"(brand = 'B1')", "(pk = lpk)", "(qty > 1)"}; !slices.Equal(got, want) {
			t.Fatalf("factored conjuncts %q, want %q", got, want)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := Open(ModePostgres)
	if _, err := db.ExecScript("CREATE TABLE a (x INTEGER); CREATE TABLE b (x INTEGER); INSERT INTO a VALUES (1); INSERT INTO b VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QuerySQL("SELECT x FROM a, b"); err == nil {
		t.Error("ambiguous column accepted")
	}
	if _, err := db.QuerySQL("SELECT a.x FROM a, b"); err != nil {
		t.Errorf("qualified column rejected: %v", err)
	}
}

func TestDuplicateAlias(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	if _, err := db.QuerySQL("SELECT 1 FROM Employees, Employees"); err == nil {
		t.Error("duplicate alias accepted")
	}
	if _, err := db.QuerySQL("SELECT COUNT(*) FROM Employees e1, Employees e2 WHERE e1.E_age = e2.E_age"); err != nil {
		t.Errorf("self join rejected: %v", err)
	}
}

func TestSelfJoinAges(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	// Alice and Ed are both 46 (the paper's §1 example of a cross-tenant
	// comparable join).
	rows := queryRows(t, db, `SELECT e1.E_name, e2.E_name FROM Employees e1, Employees e2
		WHERE e1.E_age = e2.E_age AND e1.E_name < e2.E_name`)
	if len(rows) != 1 || rows[0][0].S != "Alice" || rows[0][1].S != "Ed" {
		t.Errorf("rows = %v", rows)
	}
}

func TestGroupByAliasSubstitution(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	rows := queryRows(t, db, `SELECT E_age / 10 AS decade, COUNT(*) AS cnt FROM Employees GROUP BY decade ORDER BY decade`)
	if len(rows) != 4 {
		t.Errorf("rows = %v", rows)
	}
}

func TestUnknownObjects(t *testing.T) {
	db := Open(ModePostgres)
	if _, err := db.QuerySQL("SELECT * FROM nothere"); err == nil {
		t.Error("missing table accepted")
	}
	if _, err := db.QuerySQL("SELECT nosuchfunc(1)"); err == nil {
		t.Error("missing function accepted")
	}
	if _, err := db.ExecSQL("DROP TABLE nothere"); err == nil {
		t.Error("dropping missing table accepted")
	}
}

func TestBuiltinScalars(t *testing.T) {
	db := Open(ModePostgres)
	rows := queryRows(t, db, "SELECT CONCAT('a', 'b'), CHAR_LENGTH('abc'), ABS(-4), ROUND(2.567, 2), COALESCE(NULL, 7)")
	if rows[0][0].S != "ab" || rows[0][1].I != 3 || rows[0][2].I != 4 {
		t.Errorf("builtins: %v", rows[0])
	}
	if rows[0][3].AsFloat() != 2.57 || rows[0][4].I != 7 {
		t.Errorf("round/coalesce: %v", rows[0])
	}
}

// TestCastText: a VARCHAR casts to a number by parsing it, spaces around it
// allowed, and text that spells no number of the target type raises ErrCast
// — in production, the evaluator check and the reference alike, as a
// constant and per row.
func TestCastText(t *testing.T) {
	for _, cfg := range []struct {
		name string
		set  func(*DB)
	}{
		{"production", func(*DB) {}},
		{"evaluator", func(db *DB) { db.SetCompileExprs(false) }},
		{"reference", func(db *DB) { db.SetStreamExec(false) }},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			db := Open(ModePostgres)
			cfg.set(db)
			if _, err := db.ExecScript(`CREATE TABLE t (k INTEGER NOT NULL, s VARCHAR(10) NOT NULL);
INSERT INTO t VALUES (1, '5'), (2, ' -7 '), (3, '2.5'), (4, 'abc'), (5, '1e2');`); err != nil {
				t.Fatal(err)
			}
			rows := queryRows(t, db, "SELECT CAST('5' AS INTEGER), CAST(' 2.5 ' AS DECIMAL), CAST(12 AS VARCHAR), CAST(3.9 AS INTEGER)")
			if got := fmt.Sprint(rows[0]); got != "[5 2.50 12 3]" {
				t.Errorf("constant casts = %s", got)
			}
			rows = queryRows(t, db, "SELECT CAST(s AS INTEGER) FROM t WHERE k < 3 ORDER BY k")
			if got := fmt.Sprint(rows); got != "[[5] [-7]]" {
				t.Errorf("CAST(s AS INTEGER) = %s", got)
			}
			rows = queryRows(t, db, "SELECT CAST(s AS DECIMAL) FROM t WHERE k <> 4 ORDER BY k")
			if got := fmt.Sprint(rows); got != "[[5.00] [-7.00] [2.50] [100.00]]" {
				t.Errorf("CAST(s AS DECIMAL) = %s", got)
			}
			for _, q := range []string{
				"SELECT CAST('abc' AS INTEGER)",
				"SELECT CAST('2.5' AS INTEGER)",
				"SELECT CAST('' AS DECIMAL)",
				"SELECT CAST('inf' AS DECIMAL)",
				"SELECT CAST(s AS INTEGER) FROM t WHERE k <> 1",
				"SELECT k FROM t WHERE CAST(s AS DECIMAL) > 0",
			} {
				if _, err := db.QuerySQL(q); !errors.Is(err, ErrCast) {
					t.Errorf("%s: err = %v, want ErrCast", q, err)
				}
			}
			if _, err := db.QuerySQL("SELECT CAST('99999999999999999999' AS INTEGER)"); !errors.Is(err, sqltypes.ErrIntRange) {
				t.Errorf("out-of-range cast: err = %v, want ErrIntRange", err)
			}
		})
	}
}

func TestSubstringBuiltin(t *testing.T) {
	db := Open(ModePostgres)
	rows := queryRows(t, db, "SELECT SUBSTRING('13-345-6789' FROM 1 FOR 2)")
	if rows[0][0].S != "13" {
		t.Errorf("substring = %v", rows[0][0])
	}
	rows = queryRows(t, db, "SELECT SUBSTRING('abcdef' FROM 3)")
	if rows[0][0].S != "cdef" {
		t.Errorf("substring = %v", rows[0][0])
	}
}

func TestInListSemantics(t *testing.T) {
	db := Open(ModePostgres)
	rows := queryRows(t, db, "SELECT 2 IN (1, 2, 3), 5 IN (1, 2), 5 NOT IN (1, 2)")
	if !rows[0][0].Bool() || rows[0][1].Bool() || !rows[0][2].Bool() {
		t.Errorf("in list: %v", rows[0])
	}
	// NULL in list makes a non-match unknown.
	rows = queryRows(t, db, "SELECT 5 IN (1, NULL)")
	if !rows[0][0].IsNull() {
		t.Errorf("5 IN (1, NULL) = %v, want NULL", rows[0][0])
	}
}

func TestIndexProbeCorrectness(t *testing.T) {
	// The probe path and the scan path must agree.
	db := newEmployeeDB(t, ModePostgres)
	probed := queryRows(t, db, "SELECT E_name FROM Employees WHERE ttid = 1 ORDER BY E_name")
	scanned := queryRows(t, db, "SELECT E_name FROM Employees WHERE ttid + 0 = 1 ORDER BY E_name")
	if len(probed) != len(scanned) || len(probed) != 3 {
		t.Fatalf("probe %v vs scan %v", probed, scanned)
	}
	for i := range probed {
		if probed[i][0].S != scanned[i][0].S {
			t.Errorf("row %d: %v vs %v", i, probed[i], scanned[i])
		}
	}
}

func TestIndexInvalidationOnWrite(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	queryRows(t, db, "SELECT E_name FROM Employees WHERE ttid = 1") // builds index
	if _, err := db.ExecSQL("INSERT INTO Employees VALUES (1, 3, 'Zoe', 0, 0, 1000, 20)"); err != nil {
		t.Fatal(err)
	}
	rows := queryRows(t, db, "SELECT COUNT(*) FROM Employees WHERE ttid = 1")
	if rows[0][0].I != 4 {
		t.Errorf("stale index: %v", rows[0][0])
	}
}
