package middleware

import (
	"math"
	"strings"
	"testing"

	"mtbase/internal/engine"
	"mtbase/internal/mtsql"
	"mtbase/internal/optimizer"
	"mtbase/internal/sqltypes"
)

// newExample stands up a complete MTBase instance with the paper's
// running example: two tenants (0: USD, 1: EUR), Employees/Roles
// tenant-specific, Regions global, conversion UDFs + meta tables.
func newExample(t testing.TB, mode engine.Mode) *Server {
	t.Helper()
	db := engine.Open(mode)
	srv := NewServer(db, WithDataModeller(99))
	if err := srv.Schema().Convs().Register(mtsql.ConvPair{
		Name: "currency", ToFunc: "currencyToUniversal", FromFunc: "currencyFromUniversal",
		Class: mtsql.ClassLinear,
	}); err != nil {
		t.Fatal(err)
	}

	admin, err := srv.Connect(99)
	if err != nil {
		t.Fatal(err)
	}
	ddl := []string{
		`CREATE TABLE Tenant (T_tenant_key INTEGER NOT NULL, T_currency_key INTEGER NOT NULL)`,
		`CREATE TABLE CurrencyTransform (CT_currency_key INTEGER NOT NULL,
			CT_to_universal DECIMAL(15,2) NOT NULL, CT_from_universal DECIMAL(15,2) NOT NULL)`,
		`CREATE FUNCTION currencyToUniversal (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
			AS 'SELECT CT_to_universal * $1 FROM Tenant, CurrencyTransform WHERE T_tenant_key = $2 AND T_currency_key = CT_currency_key'
			LANGUAGE SQL IMMUTABLE`,
		`CREATE FUNCTION currencyFromUniversal (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
			AS 'SELECT CT_from_universal * $1 FROM Tenant, CurrencyTransform WHERE T_tenant_key = $2 AND T_currency_key = CT_currency_key'
			LANGUAGE SQL IMMUTABLE`,
		`CREATE TABLE Regions (Re_reg_id INTEGER NOT NULL, Re_name VARCHAR(25) NOT NULL)`,
		`CREATE TABLE Roles SPECIFIC (
			R_role_id INTEGER NOT NULL SPECIFIC,
			R_name VARCHAR(25) NOT NULL COMPARABLE,
			CONSTRAINT pk_roles PRIMARY KEY (R_role_id))`,
		`CREATE TABLE Employees SPECIFIC (
			E_emp_id INTEGER NOT NULL SPECIFIC,
			E_name VARCHAR(25) NOT NULL COMPARABLE,
			E_role_id INTEGER NOT NULL SPECIFIC,
			E_reg_id INTEGER NOT NULL COMPARABLE,
			E_salary DECIMAL(15,2) NOT NULL CONVERTIBLE @currencyToUniversal @currencyFromUniversal,
			E_age INTEGER NOT NULL COMPARABLE,
			CONSTRAINT pk_emp PRIMARY KEY (E_emp_id),
			CONSTRAINT fk_emp FOREIGN KEY (E_role_id) REFERENCES Roles (R_role_id))`,
	}
	for _, d := range ddl {
		if _, err := admin.Exec(d); err != nil {
			t.Fatalf("DDL %q: %v", d[:40], err)
		}
	}
	for _, ttid := range []int64{0, 1} {
		if err := srv.CreateTenant(ttid); err != nil {
			t.Fatal(err)
		}
	}
	// Meta data: tenant 0 uses USD (universal), tenant 1 uses EUR.
	seed := `
INSERT INTO Tenant VALUES (0, 0), (1, 1);
INSERT INTO CurrencyTransform VALUES (0, 1.0, 1.0), (1, 1.1, 0.9090909090909091);
INSERT INTO Regions VALUES (0,'AFRICA'),(1,'ASIA'),(2,'AUSTRALIA'),(3,'EUROPE'),(4,'N-AMERICA'),(5,'S-AMERICA')`
	if _, err := db.ExecScript(seed); err != nil {
		t.Fatal(err)
	}
	// Tenants load their own data through their own sessions.
	t0, err := srv.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := srv.Connect(1)
	if err != nil {
		t.Fatal(err)
	}
	load := func(conn *Conn, stmts []string) {
		for _, s := range stmts {
			if _, err := conn.Exec(s); err != nil {
				t.Fatalf("load %q: %v", s[:40], err)
			}
		}
	}
	load(t0, []string{
		"INSERT INTO Roles (R_role_id, R_name) VALUES (0, 'phD stud.'), (1, 'postdoc'), (2, 'professor')",
		"INSERT INTO Employees (E_emp_id, E_name, E_role_id, E_reg_id, E_salary, E_age) VALUES (0, 'Patrick', 1, 3, 50000, 30), (1, 'John', 0, 3, 70000, 28), (2, 'Alice', 2, 3, 150000, 46)",
	})
	load(t1, []string{
		"INSERT INTO Roles (R_role_id, R_name) VALUES (0, 'intern'), (1, 'researcher'), (2, 'executive')",
		"INSERT INTO Employees (E_emp_id, E_name, E_role_id, E_reg_id, E_salary, E_age) VALUES (0, 'Allan', 1, 2, 80000, 25), (1, 'Nancy', 2, 4, 200000, 72), (2, 'Ed', 0, 4, 1000000, 46)",
	})
	return srv
}

func connFor(t testing.TB, srv *Server, ttid int64) *Conn {
	t.Helper()
	c, err := srv.Connect(ttid)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func approx(t *testing.T, got sqltypes.Value, want float64) {
	t.Helper()
	g := got.AsFloat()
	if math.Abs(g-want) > 1e-6*math.Max(1, math.Abs(want)) {
		t.Errorf("value = %v, want %v", g, want)
	}
}

func TestDefaultScopeIsOwnData(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	c0 := connFor(t, srv, 0)
	res, err := c0.Query("SELECT COUNT(*) AS n FROM Employees")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 3 {
		t.Errorf("default scope must be {C}: %v", res.Rows)
	}
}

func TestSimpleScopeCrossTenant(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	c0 := connFor(t, srv, 0)
	// Tenant 1 must first grant tenant 0 access.
	c1 := connFor(t, srv, 1)
	if _, err := c1.Exec("GRANT READ ON Employees TO 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Exec(`SET SCOPE = "IN (0, 1)"`); err != nil {
		t.Fatal(err)
	}
	res, err := c0.Query("SELECT COUNT(*) AS n FROM Employees")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 6 {
		t.Errorf("cross-tenant count = %v", res.Rows)
	}
}

func TestPrivilegePruning(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	c0 := connFor(t, srv, 0)
	// No grant from tenant 1: D = {0, 1} is pruned to D' = {0}.
	if _, err := c0.Exec(`SET SCOPE = "IN (0, 1)"`); err != nil {
		t.Fatal(err)
	}
	res, err := c0.Query("SELECT COUNT(*) AS n FROM Employees")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 3 {
		t.Errorf("unprivileged data leaked: %v", res.Rows)
	}
}

func TestRevokeRemovesAccess(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	c0, c1 := connFor(t, srv, 0), connFor(t, srv, 1)
	if _, err := c1.Exec("GRANT READ ON Employees TO 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Exec(`SET SCOPE = "IN (0, 1)"`); err != nil {
		t.Fatal(err)
	}
	res, _ := c0.Query("SELECT COUNT(*) AS n FROM Employees")
	if res.Rows[0][0].I != 6 {
		t.Fatalf("grant did not take effect: %v", res.Rows)
	}
	if _, err := c1.Exec("REVOKE READ ON Employees FROM 0"); err != nil {
		t.Fatal(err)
	}
	res, _ = c0.Query("SELECT COUNT(*) AS n FROM Employees")
	if res.Rows[0][0].I != 3 {
		t.Errorf("revoke did not take effect: %v", res.Rows)
	}
}

// TestClientPresentation reproduces §2.4.1: the same query returns values
// in the asking client's format.
func TestClientPresentation(t *testing.T) {
	for _, mode := range []engine.Mode{engine.ModePostgres, engine.ModeSystemC} {
		srv := newExample(t, mode)
		c0, c1 := connFor(t, srv, 0), connFor(t, srv, 1)
		if _, err := c1.Exec("GRANT READ ON Employees TO 0"); err != nil {
			t.Fatal(err)
		}
		// Tenant 0 (USD) queries tenant 1's average salary.
		if _, err := c0.Exec(`SET SCOPE = "IN (1)"`); err != nil {
			t.Fatal(err)
		}
		res, err := c0.Query("SELECT AVG(E_salary) AS avg_sal FROM Employees")
		if err != nil {
			t.Fatal(err)
		}
		// EUR average = (80000+200000+1000000)/3; in USD multiply by 1.1.
		approx(t, res.Rows[0][0], 1280000.0/3.0*1.1)

		// Tenant 1 (EUR) asking the same query gets EUR (as is).
		res, err = c1.Query("SELECT AVG(E_salary) AS avg_sal FROM Employees")
		if err != nil {
			t.Fatal(err)
		}
		approx(t, res.Rows[0][0], 1280000.0/3.0)
	}
}

// TestIntroJoinSemantics reproduces §1's motivating example: the
// role join must not pair Patrick with researcher or Ed with professor,
// while the age self-join must pair Alice with Ed.
func TestIntroJoinSemantics(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	c0, c1 := connFor(t, srv, 0), connFor(t, srv, 1)
	for _, stmt := range []string{"GRANT READ ON Employees TO 0", "GRANT READ ON Roles TO 0"} {
		if _, err := c1.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c0.Exec(`SET SCOPE = "IN ()"`); err != nil { // all tenants
		t.Fatal(err)
	}
	res, err := c0.Query(`SELECT E_name, R_name FROM Employees, Roles WHERE E_role_id = R_role_id ORDER BY E_name`)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]string)
	for _, row := range res.Rows {
		got[row[0].S] = row[1].S
	}
	want := map[string]string{
		"Patrick": "postdoc", "John": "phD stud.", "Alice": "professor",
		"Allan": "researcher", "Nancy": "executive", "Ed": "intern",
	}
	for name, role := range want {
		if got[name] != role {
			t.Errorf("%s has role %q, want %q", name, got[name], role)
		}
	}

	res, err = c0.Query(`SELECT e1.E_name, e2.E_name FROM Employees e1, Employees e2
		WHERE e1.E_age = e2.E_age AND e1.E_name < e2.E_name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "Alice" || res.Rows[0][1].S != "Ed" {
		t.Errorf("age self-join: %v", res.Rows)
	}
}

func TestComplexScope(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	c1 := connFor(t, srv, 1)
	c0 := connFor(t, srv, 0)
	if _, err := c1.Exec("GRANT READ ON Employees TO 0"); err != nil {
		t.Fatal(err)
	}
	// Tenants with at least one salary above 180K USD (client format of
	// C=0): tenant 1 qualifies (Nancy 200000 EUR = 220000 USD; Ed 1M EUR),
	// tenant 0 does not... Alice has 150000 USD < 180000. So D = {1}.
	if _, err := c0.Exec(`SET SCOPE = "FROM Employees WHERE E_salary > 180000"`); err != nil {
		t.Fatal(err)
	}
	res, err := c0.Query("SELECT COUNT(*) AS n FROM Employees")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 3 {
		t.Errorf("complex scope resolved wrong: %v", res.Rows)
	}
	res, err = c0.Query("SELECT MIN(E_name) AS m FROM Employees")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].S != "Allan" {
		t.Errorf("expected tenant 1 data, got %v", res.Rows)
	}
}

func TestDMLOnBehalfOfOtherTenant(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	c0, c1 := connFor(t, srv, 0), connFor(t, srv, 1)
	if _, err := c1.Exec("GRANT INSERT ON Employees TO 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Exec(`SET SCOPE = "IN (1)"`); err != nil {
		t.Fatal(err)
	}
	// C=0 inserts 110000 (USD); tenant 1 stores EUR -> 100000.
	if _, err := c0.Exec("INSERT INTO Employees (E_emp_id, E_name, E_role_id, E_reg_id, E_salary, E_age) VALUES (9, 'Zoe', 0, 3, 110000, 31)"); err != nil {
		t.Fatal(err)
	}
	res, err := c1.Query("SELECT E_salary FROM Employees WHERE E_name = 'Zoe'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("row not visible to owner: %v", res.Rows)
	}
	approx(t, res.Rows[0][0], 100000)
}

func TestUpdateConvertsPerOwner(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	c0, c1 := connFor(t, srv, 0), connFor(t, srv, 1)
	if _, err := c1.Exec("GRANT UPDATE ON Employees TO 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Exec(`SET SCOPE = "IN (0, 1)"`); err != nil {
		t.Fatal(err)
	}
	// Set every 46-year-old's salary to 110000 USD.
	res, err := c0.Exec("UPDATE Employees SET E_salary = 110000 WHERE E_age = 46")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 { // Alice (t0) and Ed (t1)
		t.Fatalf("affected = %d", res.Affected)
	}
	r, _ := c0.Query("SELECT E_salary FROM Employees WHERE E_name = 'Alice'")
	approx(t, r.Rows[0][0], 110000) // USD stored as is
	r, _ = c1.Query("SELECT E_salary FROM Employees WHERE E_name = 'Ed'")
	approx(t, r.Rows[0][0], 100000) // stored in EUR
}

func TestDeleteScoped(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	c0 := connFor(t, srv, 0)
	if _, err := c0.Exec("DELETE FROM Employees WHERE E_age > 40"); err != nil {
		t.Fatal(err)
	}
	res, _ := c0.Query("SELECT COUNT(*) AS n FROM Employees")
	if res.Rows[0][0].I != 2 {
		t.Errorf("delete affected wrong rows: %v", res.Rows)
	}
	// Tenant 1's data untouched.
	c1 := connFor(t, srv, 1)
	res, _ = c1.Query("SELECT COUNT(*) AS n FROM Employees")
	if res.Rows[0][0].I != 3 {
		t.Errorf("delete crossed tenants: %v", res.Rows)
	}
}

func TestDDLRequiresModeller(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	c0 := connFor(t, srv, 0)
	if _, err := c0.Exec("CREATE TABLE Hax (h INTEGER)"); err == nil {
		t.Error("non-modeller created a table")
	}
	if _, err := c0.Exec("DROP TABLE Employees"); err == nil {
		t.Error("non-modeller dropped a table")
	}
}

func TestViews(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	c1 := connFor(t, srv, 1)
	if _, err := c1.Exec("CREATE VIEW my_seniors AS SELECT E_name, E_salary FROM Employees WHERE E_age >= 46"); err != nil {
		t.Fatal(err)
	}
	res, err := c1.Query("SELECT COUNT(*) AS n FROM my_seniors")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 2 { // Nancy, Ed
		t.Errorf("view rows: %v", res.Rows)
	}
}

func TestAllOptimizationLevelsAgree(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	c1 := connFor(t, srv, 1)
	c0 := connFor(t, srv, 0)
	if _, err := c1.Exec("GRANT READ ON Employees TO 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("GRANT READ ON Roles TO 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Exec(`SET SCOPE = "IN ()"`); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT SUM(E_salary) AS s FROM Employees",
		"SELECT E_reg_id, AVG(E_salary) AS a, COUNT(*) AS c FROM Employees GROUP BY E_reg_id ORDER BY E_reg_id",
		"SELECT E_name FROM Employees WHERE E_salary > 100000 ORDER BY E_name",
		"SELECT E_name, R_name FROM Employees, Roles WHERE E_role_id = R_role_id ORDER BY E_name",
	}
	for _, sql := range queries {
		c0.SetOptLevel(optimizer.Canonical)
		want, err := c0.Query(sql)
		if err != nil {
			t.Fatalf("canonical %q: %v", sql, err)
		}
		for _, level := range []optimizer.Level{optimizer.O1, optimizer.O2, optimizer.O3, optimizer.O4, optimizer.InlOnly} {
			c0.SetOptLevel(level)
			got, err := c0.Query(sql)
			if err != nil {
				t.Fatalf("%s %q: %v", level, sql, err)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Errorf("%s %q: %d rows vs %d", level, sql, len(got.Rows), len(want.Rows))
				continue
			}
			for i := range want.Rows {
				for j := range want.Rows[i] {
					a, b := want.Rows[i][j], got.Rows[i][j]
					if a.IsNumeric() && b.IsNumeric() {
						if math.Abs(a.AsFloat()-b.AsFloat()) > 1e-6*math.Max(1, math.Abs(a.AsFloat())) {
							t.Errorf("%s %q row %d col %d: %v vs %v", level, sql, i, j, a, b)
						}
					} else if a.String() != b.String() {
						t.Errorf("%s %q row %d col %d: %v vs %v", level, sql, i, j, a, b)
					}
				}
			}
		}
	}
}

func TestTupleInThroughMiddleware(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	c1 := connFor(t, srv, 1)
	c0 := connFor(t, srv, 0)
	for _, g := range []string{"GRANT READ ON Employees TO 0", "GRANT READ ON Roles TO 0"} {
		if _, err := c1.Exec(g); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c0.Exec(`SET SCOPE = "IN (0, 1)"`); err != nil {
		t.Fatal(err)
	}
	c0.SetOptLevel(optimizer.Canonical)
	res, err := c0.Query("SELECT E_name FROM Employees WHERE E_role_id IN (SELECT R_role_id FROM Roles WHERE R_name = 'professor') ORDER BY E_name")
	if err != nil {
		t.Fatal(err)
	}
	// Only Alice: role 'professor' exists only at tenant 0 with id 2.
	if len(res.Rows) != 1 || res.Rows[0][0].S != "Alice" {
		t.Errorf("tenant-aware IN: %v", res.Rows)
	}
}

func TestStarHidesTTIDEndToEnd(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	c0 := connFor(t, srv, 0)
	res, err := c0.Query("SELECT * FROM Employees ORDER BY E_emp_id")
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range res.Cols {
		if strings.EqualFold(col, "ttid") {
			t.Errorf("ttid leaked to client: %v", res.Cols)
		}
	}
	if len(res.Cols) != 6 {
		t.Errorf("cols = %v", res.Cols)
	}
}

func TestConnectUnknownTenant(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	if _, err := srv.Connect(12345); err == nil {
		t.Error("unknown tenant connected")
	}
}

func TestGrantToAllUsesD(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	c1 := connFor(t, srv, 1)
	// GRANT ... TO ALL with D = {0}: grants to tenant 0 only.
	if _, err := c1.Exec(`SET SCOPE = "IN (0)"`); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("GRANT READ ON Employees TO ALL"); err != nil {
		t.Fatal(err)
	}
	c0 := connFor(t, srv, 0)
	if _, err := c0.Exec(`SET SCOPE = "IN (0, 1)"`); err != nil {
		t.Fatal(err)
	}
	res, _ := c0.Query("SELECT COUNT(*) AS n FROM Employees")
	if res.Rows[0][0].I != 6 {
		t.Errorf("grant-to-all failed: %v", res.Rows)
	}
}

// TestOrderByKeyOutsideSelectList: an ORDER BY key that is not an output
// column is an expression over the rows and is compared in client format,
// like the same key in the select list is (DESIGN.md ADR-017). Zed's 65 000
// EUR are 71 500 USD, more than John's 70 000 USD, at every level.
func TestOrderByKeyOutsideSelectList(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	c0, c1 := connFor(t, srv, 0), connFor(t, srv, 1)
	for _, s := range []string{
		"INSERT INTO Employees (E_emp_id, E_name, E_role_id, E_reg_id, E_salary, E_age) VALUES (3, 'Zed', 0, 4, 65000, 30)",
		"GRANT READ ON Employees TO 0",
	} {
		if _, err := c1.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c0.Exec(`SET SCOPE = "IN (0, 1)"`); err != nil {
		t.Fatal(err)
	}
	for _, level := range optimizer.Levels {
		c0.SetOptLevel(level)
		for _, sql := range []string{
			"SELECT E_name FROM Employees WHERE E_name IN ('John', 'Zed') ORDER BY E_salary DESC",
			"SELECT E_name, E_salary FROM Employees WHERE E_name IN ('John', 'Zed') ORDER BY E_salary DESC",
		} {
			res, err := c0.Query(sql)
			if err != nil {
				t.Fatalf("%s at %s: %v", sql, level, err)
			}
			if len(res.Rows) != 2 || res.Rows[0][0].S != "Zed" || res.Rows[1][0].S != "John" {
				t.Errorf("%s at %s: got %v, want Zed before John", sql, level, res.Rows)
			}
		}
	}
}

// TestInsertSelectPrunesSourcesByRead: an INSERT ... SELECT takes INSERT on
// its target and READ — not INSERT — on its sources, and the one D′ that
// results names both the tenants written and the rows read.
func TestInsertSelectPrunesSourcesByRead(t *testing.T) {
	const ins = "INSERT INTO Roles (R_role_id, R_name) SELECT E_age + 100, E_name FROM Employees WHERE E_age > 45"
	for _, tc := range []struct {
		grants   []string
		affected int
	}{
		// Alice (tenant 0), Nancy and Ed (tenant 1) are over 45: each of the
		// two tenants written receives all three.
		{[]string{"GRANT INSERT ON Roles TO 0", "GRANT READ ON Employees TO 0"}, 6},
		// INSERT on the source is not a licence to read it: D′ = {0}.
		{[]string{"GRANT INSERT ON Roles TO 0", "GRANT INSERT ON Employees TO 0"}, 1},
	} {
		srv := newExample(t, engine.ModePostgres)
		c0, c1 := connFor(t, srv, 0), connFor(t, srv, 1)
		for _, g := range tc.grants {
			if _, err := c1.Exec(g); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c0.Exec(`SET SCOPE = "IN (0, 1)"`); err != nil {
			t.Fatal(err)
		}
		res, err := c0.Exec(ins)
		if err != nil {
			t.Fatal(err)
		}
		if res.Affected != tc.affected {
			t.Errorf("%v: affected %d rows, want %d", tc.grants, res.Affected, tc.affected)
		}
	}
}
