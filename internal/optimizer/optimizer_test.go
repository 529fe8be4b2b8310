package optimizer

import (
	"math"
	"strings"
	"testing"

	"mtbase/internal/engine"
	"mtbase/internal/mtsql"
	"mtbase/internal/rewrite"
	"mtbase/internal/sqlast"
	"mtbase/internal/sqlparse"
	"mtbase/internal/sqltypes"
)

// testEnv is a miniature MTBase stack over the paper's running example:
// MT schema + engine database with meta tables and conversion UDFs.
type testEnv struct {
	schema *mtsql.Schema
	db     *engine.DB
}

func newEnv(t testing.TB, mode engine.Mode) *testEnv {
	t.Helper()
	schema := mtsql.NewSchema()
	if err := schema.Convs().Register(mtsql.ConvPair{
		Name: "currency", ToFunc: "currencyToUniversal", FromFunc: "currencyFromUniversal",
		Class: mtsql.ClassLinear,
	}); err != nil {
		t.Fatal(err)
	}
	mtDDL := []string{
		`CREATE TABLE Employees SPECIFIC (
			E_emp_id INTEGER NOT NULL SPECIFIC,
			E_name VARCHAR(25) NOT NULL COMPARABLE,
			E_role_id INTEGER NOT NULL SPECIFIC,
			E_reg_id INTEGER NOT NULL COMPARABLE,
			E_salary DECIMAL(15,2) NOT NULL CONVERTIBLE @currencyToUniversal @currencyFromUniversal,
			E_age INTEGER NOT NULL COMPARABLE)`,
		`CREATE TABLE Roles SPECIFIC (
			R_role_id INTEGER NOT NULL SPECIFIC,
			R_name VARCHAR(25) NOT NULL COMPARABLE)`,
		`CREATE TABLE Regions (Re_reg_id INTEGER NOT NULL, Re_name VARCHAR(25) NOT NULL)`,
		`CREATE TABLE Tenant (T_tenant_key INTEGER NOT NULL, T_currency_key INTEGER NOT NULL)`,
		`CREATE TABLE CurrencyTransform (CT_currency_key INTEGER NOT NULL,
			CT_to_universal DECIMAL(15,2) NOT NULL, CT_from_universal DECIMAL(15,2) NOT NULL)`,
	}
	db := engine.Open(mode)
	for _, ddl := range mtDDL {
		stmt, err := sqlparse.ParseStatement(ddl)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		ct := stmt.(*sqlast.CreateTable)
		if _, err := schema.AddTable(ct); err != nil {
			t.Fatal(err)
		}
		phys := rewrite.PhysicalCreateTable(schema, ct)
		if _, err := db.Exec(phys); err != nil {
			t.Fatal(err)
		}
	}
	script := `
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
INSERT INTO Regions VALUES (0,'AFRICA'),(1,'ASIA'),(2,'AUSTRALIA'),(3,'EUROPE'),(4,'N-AMERICA'),(5,'S-AMERICA');
INSERT INTO Tenant VALUES (0, 0), (1, 1);
INSERT INTO CurrencyTransform VALUES (0, 1.0, 1.0), (1, 1.1, 0.9090909090909091);
CREATE FUNCTION currencyToUniversal (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
  AS 'SELECT CT_to_universal * $1 FROM Tenant, CurrencyTransform WHERE T_tenant_key = $2 AND T_currency_key = CT_currency_key'
  LANGUAGE SQL IMMUTABLE;
CREATE FUNCTION currencyFromUniversal (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
  AS 'SELECT CT_from_universal * $1 FROM Tenant, CurrencyTransform WHERE T_tenant_key = $2 AND T_currency_key = CT_currency_key'
  LANGUAGE SQL IMMUTABLE;
`
	if _, err := db.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	// Retain function bodies for the inliner.
	for _, fn := range []string{
		`CREATE FUNCTION currencyToUniversal (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
  AS 'SELECT CT_to_universal * $1 FROM Tenant, CurrencyTransform WHERE T_tenant_key = $2 AND T_currency_key = CT_currency_key'
  LANGUAGE SQL IMMUTABLE`,
		`CREATE FUNCTION currencyFromUniversal (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
  AS 'SELECT CT_from_universal * $1 FROM Tenant, CurrencyTransform WHERE T_tenant_key = $2 AND T_currency_key = CT_currency_key'
  LANGUAGE SQL IMMUTABLE`,
	} {
		stmt, err := sqlparse.ParseStatement(fn)
		if err != nil {
			t.Fatal(err)
		}
		schema.AddFunction(stmt.(*sqlast.CreateFunction))
	}
	return &testEnv{schema: schema, db: db}
}

func (env *testEnv) ctx(c int64, dAll bool, d ...int64) *rewrite.Context {
	return &rewrite.Context{C: c, D: d, DAll: dAll, Schema: env.schema}
}

// run rewrites, optimizes at the level and executes.
func (env *testEnv) run(t testing.TB, ctx *rewrite.Context, level Level, sql string) *engine.Result {
	t.Helper()
	q, err := sqlparse.ParseQuery(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rw, err := rewrite.Query(ctx, q)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	opt, err := Optimize(ctx, rw, level)
	if err != nil {
		t.Fatalf("optimize(%s): %v", level, err)
	}
	// The middleware ships SQL text; round-trip to prove serializability.
	text := opt.String()
	reparsed, err := sqlparse.ParseQuery(text)
	if err != nil {
		t.Fatalf("optimized SQL does not reparse at %s: %v\n%s", level, err, text)
	}
	res, err := env.db.Query(reparsed)
	if err != nil {
		t.Fatalf("execute at %s: %v\n%s", level, err, text)
	}
	return res
}

// optimizeText returns the optimized SQL for pattern assertions.
func (env *testEnv) optimizeText(t testing.TB, ctx *rewrite.Context, level Level, sql string) string {
	t.Helper()
	q, err := sqlparse.ParseQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := rewrite.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Optimize(ctx, rw, level)
	if err != nil {
		t.Fatal(err)
	}
	return opt.String()
}

func valuesEqual(a, b sqltypes.Value) bool {
	if a.IsNull() && b.IsNull() {
		return true
	}
	if a.IsNumeric() && b.IsNumeric() {
		x, y := a.AsFloat(), b.AsFloat()
		if x == y {
			return true
		}
		return math.Abs(x-y) <= 1e-6*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	}
	eq, ok := sqltypes.Equal(a, b)
	return ok && eq
}

func resultsEqual(a, b *engine.Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if !valuesEqual(a.Rows[i][j], b.Rows[i][j]) {
				return false
			}
		}
	}
	return true
}

// queriesForEquivalence exercises every optimization trigger.
var queriesForEquivalence = []string{
	"SELECT E_name, E_salary FROM Employees ORDER BY E_name",
	"SELECT AVG(E_salary) AS avg_sal FROM Employees",
	"SELECT SUM(E_salary) AS sum_sal FROM Employees",
	"SELECT MIN(E_salary) AS lo, MAX(E_salary) AS hi, COUNT(*) AS cnt FROM Employees",
	"SELECT E_reg_id, SUM(E_salary) AS s, COUNT(*) AS c FROM Employees GROUP BY E_reg_id ORDER BY E_reg_id",
	"SELECT E_name FROM Employees WHERE E_salary > 100000 ORDER BY E_name",
	"SELECT E_name, R_name FROM Employees, Roles WHERE E_role_id = R_role_id ORDER BY E_name",
	"SELECT e1.E_name FROM Employees e1, Employees e2 WHERE e1.E_salary > e2.E_salary AND e2.E_name = 'Nancy'",
	"SELECT E_name FROM Employees WHERE E_role_id IN (SELECT R_role_id FROM Roles WHERE R_name = 'postdoc') ORDER BY E_name",
	"SELECT AVG(x.sal) AS a FROM (SELECT E_salary AS sal FROM Employees WHERE E_age >= 45) AS x",
	"SELECT E_reg_id, AVG(E_salary) AS a FROM Employees GROUP BY E_reg_id HAVING AVG(E_salary) > 60000 ORDER BY E_reg_id",
	"SELECT E_name FROM Employees WHERE E_salary BETWEEN 60000 AND 160000 ORDER BY E_name",
	"SELECT SUM(E_salary * 2) AS s2 FROM Employees",
	"SELECT COUNT(E_salary) AS c FROM Employees WHERE E_age > 100",
	// A bare column beside an aggregate and a group key that is no output
	// column: the engine answers both at canonical, so every level must.
	"SELECT E_name, SUM(E_salary) AS s FROM Employees",
	"SELECT E_name, SUM(E_salary) AS s FROM Employees GROUP BY E_reg_id ORDER BY s",
	"SELECT SUM(E_salary) AS s, COUNT(*) AS c FROM Employees GROUP BY E_reg_id ORDER BY s",
	// A GROUP BY name that is an input column and an output alias is the
	// column (three groups), as in the engine — not the alias (two).
	"SELECT E_reg_id % 2 AS E_reg_id, SUM(E_salary) AS s FROM Employees GROUP BY E_reg_id ORDER BY s",
	// A column of the enclosing block beside the aggregate is a constant to
	// the split: the block still distributes (TestO3KeepsOuterColumns).
	correlatedAggregate,
}

const correlatedAggregate = "SELECT o.E_name FROM Employees o WHERE (SELECT SUM(i.E_salary) / o.E_age FROM Employees i WHERE i.E_reg_id = o.E_reg_id) > 3000 ORDER BY o.E_name"

// TestAllLevelsAgreeWithCanonical is the §5-style validation: the
// canonical rewrite defines correctness; every optimization level must
// produce identical results (modulo float tolerance).
func TestAllLevelsAgreeWithCanonical(t *testing.T) {
	for _, mode := range []engine.Mode{engine.ModePostgres, engine.ModeSystemC} {
		env := newEnv(t, mode)
		contexts := []*rewrite.Context{
			env.ctx(0, false, 0),    // D = {C}
			env.ctx(0, false, 1),    // D = {other}
			env.ctx(1, false, 1),    // D = {C}, non-universal client
			env.ctx(0, true, 0, 1),  // D = all
			env.ctx(1, true, 0, 1),  // D = all, EUR client
			env.ctx(0, false, 0, 1), // explicit list, not flagged all
		}
		for _, ctx := range contexts {
			for _, sql := range queriesForEquivalence {
				want := env.run(t, ctx, Canonical, sql)
				for _, level := range []Level{O1, O2, O3, O4, InlOnly} {
					got := env.run(t, ctx, level, sql)
					if !resultsEqual(want, got) {
						t.Errorf("mode=%v C=%d D=%v level=%s results diverge for %q:\ncanonical: %v\n%s: %v",
							mode, ctx.C, ctx.D, level, sql, want.Rows, level, got.Rows)
					}
				}
			}
		}
	}
}

// TestDerivedTableUnderTenantSpecificIn: a derived table inside a tuple-
// extended IN-subquery converts its salaries once. Under D = {0, 1} ≠ {C} a
// second conversion moves tenant 0's 70000 from 63636.36 to 57851.24 in tenant
// 1's format, across the threshold, and John drops out. The oracle is the
// plain statement over a copy of the data physically converted to C's format.
func TestDerivedTableUnderTenantSpecificIn(t *testing.T) {
	env := newEnv(t, engine.ModePostgres)
	if _, err := env.db.ExecScript(`
CREATE TABLE EmployeesC (ttid INTEGER NOT NULL, E_emp_id INTEGER NOT NULL, E_name VARCHAR(25) NOT NULL, E_age INTEGER NOT NULL, E_salary DECIMAL(15,2) NOT NULL);
INSERT INTO EmployeesC SELECT ttid, E_emp_id, E_name, E_age, currencyFromUniversal(currencyToUniversal(E_salary, ttid), 1) FROM Employees;`); err != nil {
		t.Fatal(err)
	}
	want, err := env.db.QuerySQL(`SELECT E_name FROM EmployeesC WHERE (E_emp_id, ttid) IN (
		SELECT e.E_emp_id, e.ttid FROM EmployeesC e, (SELECT E_age AS a, E_salary AS s FROM EmployeesC) d
		WHERE d.a = e.E_age AND d.s > 60000) ORDER BY E_name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != 5 {
		t.Fatalf("oracle has %d rows, want 5 (everyone but Patrick): %v", len(want.Rows), want.Rows)
	}
	ctx := env.ctx(1, false, 0, 1)
	for _, level := range Levels {
		got := env.run(t, ctx, level, `SELECT E_name FROM Employees WHERE E_emp_id IN (
			SELECT e.E_emp_id FROM Employees e, (SELECT E_age AS a, E_salary AS s FROM Employees) d
			WHERE d.a = e.E_age AND d.s > 60000) ORDER BY E_name`)
		if !resultsEqual(want, got) {
			t.Errorf("level=%s: %v, want %v", level, got.Rows, want.Rows)
		}
	}
}

// TestO3KeepsOuterColumns: the split refuses a block whose output names a
// column of its own FROM outside every key and aggregate, not one whose output
// names a column of the block around it.
func TestO3KeepsOuterColumns(t *testing.T) {
	env := newEnv(t, engine.ModePostgres)
	got := env.optimizeText(t, env.ctx(0, true, 0, 1), O3, correlatedAggregate)
	if !strings.Contains(got, "/ o.E_age) FROM (SELECT") || !strings.Contains(got, "AS mt_part") {
		t.Errorf("correlated aggregate not distributed: %s", got)
	}
}

// ---------------------------------------------------------------- o1

func TestO1DropsDFilterWhenAll(t *testing.T) {
	env := newEnv(t, engine.ModePostgres)
	ctx := env.ctx(0, true, 0, 1)
	got := env.optimizeText(t, ctx, O1, "SELECT E_age FROM Employees")
	if strings.Contains(got, "ttid IN") {
		t.Errorf("D-filter not dropped: %s", got)
	}
	// But with an explicit non-all scope it stays.
	ctx2 := env.ctx(0, false, 0, 1)
	got = env.optimizeText(t, ctx2, O1, "SELECT E_age FROM Employees")
	if !strings.Contains(got, "ttid IN (0, 1)") {
		t.Errorf("D-filter wrongly dropped: %s", got)
	}
}

func TestO1DropsTTIDJoinWhenSingleTenant(t *testing.T) {
	env := newEnv(t, engine.ModePostgres)
	ctx := env.ctx(0, false, 2)
	got := env.optimizeText(t, ctx, O1, "SELECT E_name, R_name FROM Employees, Roles WHERE E_role_id = R_role_id")
	if strings.Contains(got, "employees.ttid = roles.ttid") {
		t.Errorf("ttid join predicate not dropped: %s", got)
	}
	if !strings.Contains(got, "ttid IN (2)") {
		t.Errorf("D-filters must remain: %s", got)
	}
}

func TestO1DropsConversionsWhenDIsClient(t *testing.T) {
	env := newEnv(t, engine.ModePostgres)
	ctx := env.ctx(1, false, 1)
	got := env.optimizeText(t, ctx, O1, "SELECT E_salary FROM Employees")
	if strings.Contains(got, "currency") {
		t.Errorf("conversions not dropped: %s", got)
	}
	// D = {other tenant}: conversions must remain.
	ctx2 := env.ctx(0, false, 1)
	got = env.optimizeText(t, ctx2, O1, "SELECT E_salary FROM Employees")
	if !strings.Contains(got, "currencyToUniversal") {
		t.Errorf("conversions wrongly dropped: %s", got)
	}
}

func TestO1SimplifiesTupleIn(t *testing.T) {
	env := newEnv(t, engine.ModePostgres)
	ctx := env.ctx(0, false, 1)
	got := env.optimizeText(t, ctx, O1, "SELECT E_name FROM Employees WHERE E_role_id IN (SELECT R_role_id FROM Roles)")
	if strings.Contains(got, "(E_role_id, employees.ttid)") {
		t.Errorf("tuple IN not simplified for |D|=1: %s", got)
	}
}

// ---------------------------------------------------------------- o2

func TestO2ConvertsConstantInsteadOfAttribute(t *testing.T) {
	env := newEnv(t, engine.ModePostgres)
	ctx := env.ctx(0, false, 0, 1)
	got := env.optimizeText(t, ctx, O2, "SELECT E_name FROM Employees WHERE E_salary > 100000")
	// Listing 15: the attribute is bare; the constant is converted into
	// the owner's format.
	if !strings.Contains(got, "E_salary > currencyFromUniversal(currencyToUniversal(100000, 0), employees.ttid)") {
		t.Errorf("constant push-up missing: %s", got)
	}
}

func TestO2StripsSharedClientConversion(t *testing.T) {
	env := newEnv(t, engine.ModePostgres)
	ctx := env.ctx(0, false, 0, 1)
	got := env.optimizeText(t, ctx, O2,
		"SELECT e1.E_name FROM Employees e1, Employees e2 WHERE e1.E_salary > e2.E_salary")
	// Listing 14: compare in universal format, saving the fromUniversal.
	if !strings.Contains(got, "currencyToUniversal(e1.E_salary, e1.ttid) > currencyToUniversal(e2.E_salary, e2.ttid)") {
		t.Errorf("client presentation push-up missing: %s", got)
	}
}

// ---------------------------------------------------------------- o3

func TestO3DistributesSum(t *testing.T) {
	env := newEnv(t, engine.ModePostgres)
	ctx := env.ctx(0, false, 0, 1)
	got := env.optimizeText(t, ctx, O3, "SELECT SUM(E_salary) AS sum_sal FROM Employees")
	// Listing 16's shape: inner per-tenant SUM converted once per tenant.
	if !strings.Contains(got, "GROUP BY employees.ttid") {
		t.Errorf("no per-tenant partial aggregation: %s", got)
	}
	if !strings.Contains(got, "currencyToUniversal(SUM(E_salary), employees.ttid)") {
		t.Errorf("partial sums not converted per tenant: %s", got)
	}
	if !strings.Contains(got, "currencyFromUniversal(SUM(") {
		t.Errorf("final conversion to client format missing: %s", got)
	}
}

func TestO3ReducesUDFCalls(t *testing.T) {
	env := newEnv(t, engine.ModeSystemC) // no caching: call counts are exact
	ctx := env.ctx(0, false, 0, 1)
	env.db.Stats = engine.Stats{}
	env.run(t, ctx, O2, "SELECT SUM(E_salary) AS s FROM Employees")
	callsO2 := env.db.Stats.UDFCalls.Load()
	env.db.Stats = engine.Stats{}
	env.run(t, ctx, O3, "SELECT SUM(E_salary) AS s FROM Employees")
	callsO3 := env.db.Stats.UDFCalls.Load()
	// 2N = 12 calls canonically vs T+1 = 3 after distribution.
	if callsO2 < 12 {
		t.Errorf("o2 call count unexpectedly low: %d", callsO2)
	}
	if callsO3 > 3 {
		t.Errorf("o3 must need at most T+1 calls, got %d", callsO3)
	}
}

func TestO3SkipsNonDistributablePhone(t *testing.T) {
	env := newEnv(t, engine.ModePostgres)
	// Register an equality-only pair and a table using it.
	if err := env.schema.Convs().Register(mtsql.ConvPair{
		Name: "phone", ToFunc: "phoneToUniversal", FromFunc: "phoneFromUniversal",
		Class: mtsql.ClassEqualityPreserving,
	}); err != nil {
		t.Fatal(err)
	}
	stmt, err := sqlparse.ParseStatement(`CREATE TABLE Contacts SPECIFIC (
		C_phone VARCHAR(17) NOT NULL CONVERTIBLE @phoneToUniversal @phoneFromUniversal)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := env.schema.AddTable(stmt.(*sqlast.CreateTable)); err != nil {
		t.Fatal(err)
	}
	ctx := env.ctx(0, false, 0, 1)
	q, err := sqlparse.ParseQuery("SELECT MIN(C_phone) AS m FROM Contacts")
	if err != nil {
		t.Fatal(err)
	}
	rw, err := rewrite.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Optimize(ctx, rw, O3)
	if err != nil {
		t.Fatal(err)
	}
	// MIN over an equality-only pair must NOT be distributed (Table 2).
	if strings.Contains(opt.String(), "GROUP BY contacts.ttid") {
		t.Errorf("non-distributable aggregate was distributed: %s", opt)
	}
}

// ---------------------------------------------------------------- o4

func TestO4InlinesConversionFunctions(t *testing.T) {
	env := newEnv(t, engine.ModePostgres)
	ctx := env.ctx(0, false, 0, 1)
	got := env.optimizeText(t, ctx, InlOnly, "SELECT E_salary FROM Employees")
	if strings.Contains(got, "currencyToUniversal(") || strings.Contains(got, "currencyFromUniversal(") {
		t.Errorf("UDF calls not inlined: %s", got)
	}
	// Listing 17's shape: meta tables joined, arithmetic in the SELECT.
	if !strings.Contains(got, "Tenant mt_inl") || !strings.Contains(got, "CurrencyTransform mt_inl") {
		t.Errorf("meta tables not joined: %s", got)
	}
	if !strings.Contains(got, "CT_to_universal * E_salary") {
		t.Errorf("body arithmetic missing: %s", got)
	}
}

func TestO4EliminatesUDFCalls(t *testing.T) {
	env := newEnv(t, engine.ModeSystemC)
	ctx := env.ctx(0, false, 0, 1)
	env.db.Stats = engine.Stats{}
	env.run(t, ctx, O4, "SELECT E_salary FROM Employees ORDER BY E_name")
	if env.db.Stats.UDFCalls.Load() != 0 {
		t.Errorf("o4 still issued %d UDF calls", env.db.Stats.UDFCalls.Load())
	}
}

func TestLevelParsing(t *testing.T) {
	for _, l := range Levels {
		got, err := ParseLevel(l.String())
		if err != nil || got != l {
			t.Errorf("ParseLevel(%s) = %v, %v", l, got, err)
		}
	}
	if _, err := ParseLevel("bogus"); err == nil {
		t.Error("bogus level accepted")
	}
}
