package rewrite

import (
	"strings"
	"testing"

	"mtbase/internal/mtsql"
	"mtbase/internal/sqlast"
	"mtbase/internal/sqlparse"
)

// exampleSchema builds the running example's MT metadata (Figure 2).
func exampleSchema(t testing.TB) *mtsql.Schema {
	t.Helper()
	s := mtsql.NewSchema()
	if err := s.Convs().Register(mtsql.ConvPair{
		Name: "currency", ToFunc: "currencyToUniversal", FromFunc: "currencyFromUniversal",
		Class: mtsql.ClassLinear,
	}); err != nil {
		t.Fatal(err)
	}
	ddl := []string{
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
		`CREATE TABLE Regions (
			Re_reg_id INTEGER NOT NULL,
			Re_name VARCHAR(25) NOT NULL)`,
	}
	for _, d := range ddl {
		stmt, err := sqlparse.ParseStatement(d)
		if err != nil {
			t.Fatalf("parse %s: %v", d, err)
		}
		if _, err := s.AddTable(stmt.(*sqlast.CreateTable)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func ctxFor(t testing.TB, c int64, d ...int64) *Context {
	return &Context{C: c, D: d, Schema: exampleSchema(t)}
}

func mustRewrite(t *testing.T, ctx *Context, sql string) string {
	t.Helper()
	q, err := sqlparse.ParseQuery(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	out, err := Query(ctx, q)
	if err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	text := out.String()
	if _, err := sqlparse.ParseQuery(text); err != nil {
		t.Fatalf("rewritten SQL does not reparse: %v\n%s", err, text)
	}
	return text
}

func TestRewriteAddsDFilter(t *testing.T) {
	ctx := ctxFor(t, 0, 3, 7)
	got := mustRewrite(t, ctx, "SELECT E_age FROM Employees")
	if !strings.Contains(got, "employees.ttid IN (3, 7)") {
		t.Errorf("missing D-filter: %s", got)
	}
}

func TestRewriteEmptyDatasetContradiction(t *testing.T) {
	ctx := ctxFor(t, 0) // no privileges at all
	got := mustRewrite(t, ctx, "SELECT E_age FROM Employees")
	if !strings.Contains(got, "(1 = 0)") {
		t.Errorf("empty D should yield a contradiction: %s", got)
	}
}

func TestRewriteConversionInSelect(t *testing.T) {
	// Listing 10, line 3.
	ctx := ctxFor(t, 0, 0, 1)
	got := mustRewrite(t, ctx, "SELECT E_salary FROM Employees")
	want := "currencyFromUniversal(currencyToUniversal(E_salary, employees.ttid), 0) AS E_salary"
	if !strings.Contains(got, want) {
		t.Errorf("conversion wrapping missing:\n got: %s\nwant substring: %s", got, want)
	}
}

func TestRewriteConversionInsideAggregate(t *testing.T) {
	// Listing 10, line 6: conversion inside AVG.
	ctx := ctxFor(t, 0, 0, 1)
	got := mustRewrite(t, ctx, "SELECT AVG(E_salary) AS avg_sal FROM Employees")
	if !strings.Contains(got, "AVG(currencyFromUniversal(currencyToUniversal(E_salary, employees.ttid), 0)) AS avg_sal") {
		t.Errorf("aggregate conversion: %s", got)
	}
}

func TestRewriteStarHidesTTID(t *testing.T) {
	// Listing 10, line 9.
	ctx := ctxFor(t, 0, 0, 1)
	got := mustRewrite(t, ctx, "SELECT * FROM Employees")
	if strings.Contains(strings.ToLower(strings.Split(got, "FROM")[0]), "ttid,") {
		t.Errorf("star expansion leaked ttid: %s", got)
	}
	for _, col := range []string{"E_emp_id", "E_name", "E_role_id", "E_reg_id", "E_age"} {
		if !strings.Contains(got, col) {
			t.Errorf("star expansion missing %s: %s", col, got)
		}
	}
	// E_salary appears wrapped in conversions.
	if !strings.Contains(got, "currencyToUniversal(employees.E_salary") {
		t.Errorf("star expansion must convert E_salary: %s", got)
	}
	// Over a derived table the star lists its output columns by name, on
	// every call: the binding holds them in a map.
	for i := 0; i < 100; i++ {
		got := mustRewrite(t, ctx, "SELECT * FROM (SELECT E_name, E_age, E_reg_id, E_role_id FROM Employees) e")
		if !strings.HasPrefix(got, "SELECT e.e_age, e.e_name, e.e_reg_id, e.e_role_id FROM") {
			t.Fatalf("star over a derived table: %s", got)
		}
	}
}

func TestRewriteConstantComparison(t *testing.T) {
	// Listing 11, line 3: the attribute is converted, the constant is in
	// C's format already.
	ctx := ctxFor(t, 0, 0, 1)
	got := mustRewrite(t, ctx, "SELECT E_name FROM Employees WHERE E_salary > 50000")
	if !strings.Contains(got, "currencyFromUniversal(currencyToUniversal(E_salary, employees.ttid), 0) > 50000") {
		t.Errorf("constant comparison: %s", got)
	}
}

func TestRewriteTenantSpecificJoinGetsTTID(t *testing.T) {
	// Listing 11, line 9.
	ctx := ctxFor(t, 0, 0, 1)
	got := mustRewrite(t, ctx, "SELECT E_name, R_name FROM Employees, Roles WHERE E_role_id = R_role_id")
	if !strings.Contains(got, "employees.ttid = roles.ttid") {
		t.Errorf("missing ttid join predicate: %s", got)
	}
	// And both tables get D-filters.
	if !strings.Contains(got, "employees.ttid IN (0, 1)") || !strings.Contains(got, "roles.ttid IN (0, 1)") {
		t.Errorf("missing D-filters: %s", got)
	}
}

func TestRewriteComparableJoinNoTTID(t *testing.T) {
	// §1: joining on age (comparable) must NOT add ttid predicates.
	ctx := ctxFor(t, 0, 0, 1)
	got := mustRewrite(t, ctx, "SELECT e1.E_name FROM Employees e1, Employees e2 WHERE e1.E_age = e2.E_age")
	if strings.Contains(got, "e1.ttid = e2.ttid") {
		t.Errorf("comparable join must not be tenant-restricted: %s", got)
	}
}

func TestRewriteSelfJoinSameBindingNoTTID(t *testing.T) {
	// Attributes of the same table binding are owned by the same tenant.
	ctx := ctxFor(t, 0, 0, 1)
	got := mustRewrite(t, ctx, "SELECT E_name FROM Employees WHERE E_role_id = E_emp_id")
	if strings.Contains(got, "employees.ttid = employees.ttid") {
		t.Errorf("same-table predicate must not add ttid equality: %s", got)
	}
}

func TestRewriteRejectsMixedComparison(t *testing.T) {
	// §2.4.2: comparing E_role_id (specific) with E_age (comparable).
	ctx := ctxFor(t, 0, 0, 1)
	q, err := sqlparse.ParseQuery("SELECT E_name FROM Employees WHERE E_role_id = E_age")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Query(ctx, q); err == nil {
		t.Error("mixed tenant-specific comparison accepted")
	}
	// A predicate that breaks the rule twice is refused for the first breach:
	// the shard router words its routing reason with this text.
	for sql, want := range map[string]string{
		"SELECT E_name FROM Employees WHERE E_role_id = E_age AND E_role_id IN (SELECT COUNT(*) FROM Roles)": "with other attributes",
		"SELECT E_name FROM Employees WHERE E_role_id IN (SELECT COUNT(*) FROM Roles) AND E_role_id = E_age": "computed subquery column",
	} {
		q, err := sqlparse.ParseQuery(sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Query(ctx, q); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want the first breach (%q)", sql, err, want)
		}
	}
}

func TestRewriteExplicitJoinOn(t *testing.T) {
	ctx := ctxFor(t, 0, 0, 1)
	got := mustRewrite(t, ctx, "SELECT E_name FROM Employees JOIN Roles ON E_role_id = R_role_id")
	if !strings.Contains(got, "employees.ttid = roles.ttid") {
		t.Errorf("ON condition not extended: %s", got)
	}
	// Each table an inner JOIN joins is filtered by D′ in the innermost ON
	// that joins it, where the join reads its rows; a LEFT JOIN filters its
	// null-supplying side in its ON, a cross join's tables in the WHERE.
	for sql, want := range map[string]string{
		"SELECT E_name FROM Employees JOIN Roles ON E_role_id = R_role_id":                                                                          "SELECT E_name FROM Employees JOIN Roles ON ((((E_role_id = R_role_id) AND (employees.ttid = roles.ttid)) AND employees.ttid IN (0, 1)) AND roles.ttid IN (0, 1))",
		"SELECT e.E_name FROM Employees e JOIN Roles r ON e.E_role_id = r.R_role_id LEFT JOIN Employees e2 ON e2.E_age = e.E_age WHERE e.E_age > 3": "SELECT e.E_name FROM Employees e JOIN Roles r ON ((((e.E_role_id = r.R_role_id) AND (e.ttid = r.ttid)) AND e.ttid IN (0, 1)) AND r.ttid IN (0, 1)) LEFT OUTER JOIN Employees e2 ON ((e2.E_age = e.E_age) AND e2.ttid IN (0, 1)) WHERE (e.E_age > 3)",
		"SELECT E_name FROM Employees CROSS JOIN Roles":                                                                                             "SELECT E_name FROM Employees CROSS JOIN Roles WHERE (employees.ttid IN (0, 1) AND roles.ttid IN (0, 1))",
	} {
		if got := mustRewrite(t, ctx, sql); got != want {
			t.Errorf("%s:\ngot  %s\nwant %s", sql, got, want)
		}
	}
}

func TestRewriteGlobalTableUntouched(t *testing.T) {
	ctx := ctxFor(t, 0, 0, 1)
	got := mustRewrite(t, ctx, "SELECT Re_name FROM Regions")
	if strings.Contains(got, "ttid") {
		t.Errorf("global table got tenant machinery: %s", got)
	}
}

func TestRewriteSubqueryGetsOwnFilters(t *testing.T) {
	ctx := ctxFor(t, 0, 0, 1)
	got := mustRewrite(t, ctx, `SELECT AVG(x.sal) FROM (SELECT E_salary AS sal FROM Employees WHERE E_age >= 45) AS x`)
	if !strings.Contains(got, "employees.ttid IN (0, 1)") {
		t.Errorf("derived table missing D-filter: %s", got)
	}
	// Inner select converts salary; outer treats x.sal as comparable.
	if !strings.Contains(got, "currencyToUniversal(E_salary") {
		t.Errorf("derived table missing conversion: %s", got)
	}
	if strings.Contains(got, "toUniversal(x.sal") {
		t.Errorf("derived output must not be re-converted: %s", got)
	}
}

func TestRewriteCorrelatedExists(t *testing.T) {
	ctx := ctxFor(t, 0, 0, 1)
	got := mustRewrite(t, ctx, `SELECT R_name FROM Roles r WHERE EXISTS (
		SELECT 1 FROM Employees e WHERE e.E_role_id = r.R_role_id)`)
	// Correlated tenant-specific comparison gets ttid equality inside the
	// subquery, plus D-filters at both levels.
	if !strings.Contains(got, "e.ttid = r.ttid") {
		t.Errorf("correlated ttid predicate missing: %s", got)
	}
	if !strings.Contains(got, "e.ttid IN (0, 1)") || !strings.Contains(got, "r.ttid IN (0, 1)") {
		t.Errorf("D-filters missing: %s", got)
	}
}

func TestRewriteTupleInForTenantSpecific(t *testing.T) {
	ctx := ctxFor(t, 0, 0, 1)
	got := mustRewrite(t, ctx, `SELECT E_name FROM Employees WHERE E_role_id IN (SELECT R_role_id FROM Roles WHERE R_name = 'postdoc')`)
	if !strings.Contains(got, "(E_role_id, employees.ttid) IN (SELECT R_role_id, roles.ttid FROM Roles") {
		t.Errorf("tuple IN extension missing: %s", got)
	}
}

func TestRewriteTupleInGroupBy(t *testing.T) {
	ctx := ctxFor(t, 0, 0, 1)
	got := mustRewrite(t, ctx, `SELECT E_name FROM Employees WHERE E_role_id IN (
		SELECT R_role_id FROM Roles GROUP BY R_role_id)`)
	// ttid must join the GROUP BY list of the subquery.
	if !strings.Contains(got, "GROUP BY R_role_id, roles.ttid") {
		t.Errorf("group by not extended: %s", got)
	}
}

// TestRewriteDerivedTableUnderTupleIn: tuple-extending a tenant-specific IN
// resolves the subquery's item in a scope built by name only, so a derived
// table inside the subquery — already rewritten with its block — is not
// rewritten a second time: one conversion around E_salary, one D-filter per
// block.
func TestRewriteDerivedTableUnderTupleIn(t *testing.T) {
	ctx := ctxFor(t, 0, 0, 1)
	got := mustRewrite(t, ctx, `SELECT E_name FROM Employees WHERE E_emp_id IN (
		SELECT e.E_emp_id FROM Employees e, (SELECT E_salary AS s FROM Employees) d WHERE d.s > 5)`)
	if !strings.Contains(got, "(SELECT currencyFromUniversal(currencyToUniversal(E_salary, employees.ttid), 0) AS s FROM Employees WHERE employees.ttid IN (0, 1)) AS d") {
		t.Errorf("derived table under the tuple IN is not rewritten exactly once: %s", got)
	}
	if n := strings.Count(got, "currencyToUniversal("); n != 1 {
		t.Errorf("%d conversions of E_salary, want 1: %s", n, got)
	}
	// The outer block and the derived block both bind Employees as employees.
	if n := strings.Count(got, "employees.ttid IN (0, 1)"); n != 2 {
		t.Errorf("%d D-filters on employees, want one per block (2): %s", n, got)
	}
	if !strings.Contains(got, "(E_emp_id, employees.ttid) IN (SELECT e.E_emp_id, e.ttid FROM") {
		t.Errorf("tuple extension missing: %s", got)
	}
}

func TestRewriteRejectsTenantSpecificInComparableSubquery(t *testing.T) {
	ctx := ctxFor(t, 0, 0, 1)
	q, err := sqlparse.ParseQuery("SELECT E_name FROM Employees WHERE E_role_id IN (SELECT Re_reg_id FROM Regions)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Query(ctx, q); err == nil {
		t.Error("tenant-specific IN over global output accepted")
	}
}

func TestRewriteGroupByConversion(t *testing.T) {
	ctx := ctxFor(t, 0, 0, 1)
	got := mustRewrite(t, ctx, "SELECT E_salary, COUNT(*) AS cnt FROM Employees GROUP BY E_salary")
	if !strings.Contains(got, "GROUP BY currencyFromUniversal(currencyToUniversal(E_salary, employees.ttid), 0)") {
		t.Errorf("group by conversion missing: %s", got)
	}
}

func TestRewriteHavingConversion(t *testing.T) {
	ctx := ctxFor(t, 0, 0, 1)
	got := mustRewrite(t, ctx, "SELECT E_reg_id FROM Employees GROUP BY E_reg_id HAVING AVG(E_salary) > 100000")
	if !strings.Contains(got, "HAVING (AVG(currencyFromUniversal(currencyToUniversal(E_salary, employees.ttid), 0)) > 100000)") {
		t.Errorf("having conversion missing: %s", got)
	}
}

// TestRewriteOrderByRule: a key that names an output column stays as written
// (§3.1 — the output is already D-filtered and in client format); any other
// key is an expression over the block's rows and gets the GROUP BY
// treatment: conversion to client format, and D-filters inside its blocks.
func TestRewriteOrderByRule(t *testing.T) {
	ctx := ctxFor(t, 0, 0, 1)
	const conv = "currencyFromUniversal(currencyToUniversal(E_salary, employees.ttid), 0)"
	for _, tc := range []struct{ sql, want string }{
		{"SELECT E_name, E_salary FROM Employees ORDER BY E_salary DESC", "ORDER BY E_salary DESC"},
		{"SELECT E_name, E_salary AS pay FROM Employees ORDER BY pay", "ORDER BY pay"},
		{"SELECT * FROM Employees ORDER BY E_salary", "ORDER BY E_salary"},
		{"SELECT E_name FROM Employees ORDER BY E_salary DESC", "ORDER BY " + conv + " DESC"},
		{"SELECT E_name, E_salary FROM Employees ORDER BY Employees.E_salary",
			"ORDER BY currencyFromUniversal(currencyToUniversal(Employees.E_salary, employees.ttid), 0)"},
		{"SELECT E_reg_id, SUM(E_salary) FROM Employees GROUP BY E_reg_id ORDER BY SUM(E_salary)", "ORDER BY SUM(" + conv + ")"},
		{"SELECT E_name FROM Employees ORDER BY (SELECT MAX(R_name) FROM Roles WHERE R_name = E_name)",
			"ORDER BY (SELECT MAX(R_name) FROM Roles WHERE ((R_name = E_name) AND roles.ttid IN (0, 1)))"},
	} {
		if got := mustRewrite(t, ctx, tc.sql); !strings.HasSuffix(got, tc.want) {
			t.Errorf("%s\n got: %s\nwant suffix: %s", tc.sql, got, tc.want)
		}
	}
}

func TestRewriteIdempotentClone(t *testing.T) {
	// Query() must not mutate its input.
	ctx := ctxFor(t, 0, 0, 1)
	q, err := sqlparse.ParseQuery("SELECT E_salary FROM Employees WHERE E_salary > 100")
	if err != nil {
		t.Fatal(err)
	}
	before := q.String()
	if _, err := Query(ctx, q); err != nil {
		t.Fatal(err)
	}
	if q.String() != before {
		t.Error("rewrite mutated its input")
	}
}

func TestRewriteUnknownTable(t *testing.T) {
	ctx := ctxFor(t, 0, 0, 1)
	q, err := sqlparse.ParseQuery("SELECT 1 FROM nothere")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Query(ctx, q); err == nil {
		t.Error("unknown table accepted")
	}
}

// ---------------------------------------------------------------- DDL/DML

func TestPhysicalCreateTable(t *testing.T) {
	s := exampleSchema(t)
	stmt, err := sqlparse.ParseStatement(`CREATE TABLE Assignments SPECIFIC (
		A_id INTEGER NOT NULL SPECIFIC,
		A_role_id INTEGER NOT NULL SPECIFIC,
		A_reg_id INTEGER NOT NULL COMPARABLE,
		CONSTRAINT pk_a PRIMARY KEY (A_id),
		CONSTRAINT fk_a FOREIGN KEY (A_role_id) REFERENCES Roles (R_role_id),
		CONSTRAINT fk_g FOREIGN KEY (A_reg_id) REFERENCES Regions (Re_reg_id))`)
	if err != nil {
		t.Fatal(err)
	}
	phys := PhysicalCreateTable(s, stmt.(*sqlast.CreateTable))
	if phys.Columns[0].Name != mtsql.TTIDColumn {
		t.Error("ttid column not first")
	}
	for _, con := range phys.Constraints {
		switch con.Name {
		case "pk_a":
			if con.Columns[0] != mtsql.TTIDColumn {
				t.Errorf("PK not extended: %v", con.Columns)
			}
		case "fk_a": // tenant-specific target: both sides extended
			if con.Columns[len(con.Columns)-1] != mtsql.TTIDColumn || con.RefColumns[len(con.RefColumns)-1] != mtsql.TTIDColumn {
				t.Errorf("FK to tenant-specific table not extended: %v -> %v", con.Columns, con.RefColumns)
			}
		case "fk_g": // global target: untouched
			if len(con.Columns) != 1 || len(con.RefColumns) != 1 {
				t.Errorf("FK to global table wrongly extended: %v -> %v", con.Columns, con.RefColumns)
			}
		}
	}
}

func TestTenantFKAsCheck(t *testing.T) {
	fk := sqlast.Constraint{
		Kind: sqlast.ConstraintForeignKey, Name: "fk_emp",
		Columns: []string{"E_role_id"}, RefTable: "Roles", RefColumns: []string{"R_role_id"},
	}
	check, err := TenantFKAsCheck(0, "Employees", fk)
	if err != nil {
		t.Fatal(err)
	}
	text := check.String()
	for _, want := range []string{"COUNT(E_role_id)", "ttid = 0", "NOT IN", "= 0"} {
		if !strings.Contains(text, want) {
			t.Errorf("check constraint missing %q: %s", want, text)
		}
	}
}

func TestInsertRewritePerTenant(t *testing.T) {
	ctx := ctxFor(t, 0, 1) // C=0 inserting on behalf of tenant 1
	stmt, err := sqlparse.ParseStatement(`INSERT INTO Employees (E_emp_id, E_name, E_role_id, E_reg_id, E_salary, E_age) VALUES (9, 'Zoe', 0, 3, 150000, 46)`)
	if err != nil {
		t.Fatal(err)
	}
	stmts, err := Insert(ctx, stmt.(*sqlast.Insert))
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 1 {
		t.Fatalf("statements = %d", len(stmts))
	}
	text := stmts[0].String()
	if !strings.Contains(text, "(ttid, E_emp_id") {
		t.Errorf("ttid column missing: %s", text)
	}
	// Salary converted from C=0's format into tenant 1's.
	if !strings.Contains(text, "currencyFromUniversal(currencyToUniversal(150000, 0), 1)") {
		t.Errorf("value conversion missing: %s", text)
	}
	if !strings.Contains(text, "VALUES (1, 9, 'Zoe'") {
		t.Errorf("ttid value missing: %s", text)
	}
}

func TestInsertSelectRewrite(t *testing.T) {
	// Appendix A.2's example: copy records from C=0 to tenant 1.
	ctx := ctxFor(t, 0, 1)
	stmt, err := sqlparse.ParseStatement(`INSERT INTO Employees (E_name, E_reg_id, E_salary, E_age)
		SELECT E_name, E_reg_id, E_salary, E_age FROM Employees WHERE E_age > 40`)
	if err != nil {
		t.Fatal(err)
	}
	stmts, err := Insert(ctx, stmt.(*sqlast.Insert))
	if err != nil {
		t.Fatal(err)
	}
	text := stmts[0].String()
	// The sub-select is rewritten on behalf of C (with D-filter for tenant 1).
	if !strings.Contains(text, "employees.ttid IN (1)") {
		t.Errorf("subquery D-filter missing: %s", text)
	}
	// Output salary re-converted into the target tenant's format.
	if !strings.Contains(text, "currencyFromUniversal(currencyToUniversal(mt_src.mt_c3, 0), 1)") {
		t.Errorf("insert-select conversion missing: %s", text)
	}
}

func TestUpdateRewrite(t *testing.T) {
	ctx := ctxFor(t, 0, 0, 1)
	stmt, err := sqlparse.ParseStatement("UPDATE Employees SET E_salary = 99000 WHERE E_age > 60")
	if err != nil {
		t.Fatal(err)
	}
	up, err := Update(ctx, stmt.(*sqlast.Update))
	if err != nil {
		t.Fatal(err)
	}
	text := up.String()
	// New value stored in each row owner's format via the row's ttid.
	if !strings.Contains(text, "currencyFromUniversal(currencyToUniversal(99000, 0), employees.ttid)") {
		t.Errorf("update conversion missing: %s", text)
	}
	if !strings.Contains(text, "employees.ttid IN (0, 1)") {
		t.Errorf("update D-filter missing: %s", text)
	}
}

func TestUpdateRejectsTTIDAssignment(t *testing.T) {
	ctx := ctxFor(t, 0, 0)
	stmt, _ := sqlparse.ParseStatement("UPDATE Employees SET ttid = 5")
	if _, err := Update(ctx, stmt.(*sqlast.Update)); err == nil {
		t.Error("ttid assignment accepted")
	}
}

func TestDeleteRewrite(t *testing.T) {
	ctx := ctxFor(t, 0, 1)
	stmt, err := sqlparse.ParseStatement("DELETE FROM Employees WHERE E_age > 70")
	if err != nil {
		t.Fatal(err)
	}
	del, err := Delete(ctx, stmt.(*sqlast.Delete))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(del.String(), "employees.ttid IN (1)") {
		t.Errorf("delete D-filter missing: %s", del)
	}
}

func TestScopeRewrite(t *testing.T) {
	// Listing 12.
	ctx := ctxFor(t, 0, 0, 1)
	ss, err := sqlparse.ParseScopeText("FROM Employees WHERE E_salary > 180000")
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Scope(ctx, ss.Complex)
	if err != nil {
		t.Fatal(err)
	}
	text := sel.String()
	if !strings.Contains(text, "SELECT DISTINCT employees.ttid") {
		t.Errorf("scope projection: %s", text)
	}
	if !strings.Contains(text, "currencyFromUniversal(currencyToUniversal(E_salary, employees.ttid), 0) > 180000") {
		t.Errorf("scope conversion: %s", text)
	}
	if strings.Contains(text, "IN (0, 1)") {
		t.Errorf("scope query must not be D-filtered: %s", text)
	}
}

func TestScopeRequiresTenantSpecificTable(t *testing.T) {
	ctx := ctxFor(t, 0, 0)
	ss, _ := sqlparse.ParseScopeText("FROM Regions WHERE Re_reg_id > 1")
	if _, err := Scope(ctx, ss.Complex); err == nil {
		t.Error("global-only scope accepted")
	}
}

func TestViewRewrite(t *testing.T) {
	ctx := ctxFor(t, 0, 0, 1)
	stmt, err := sqlparse.ParseStatement("CREATE VIEW seniors AS SELECT E_name, E_salary FROM Employees WHERE E_age >= 45")
	if err != nil {
		t.Fatal(err)
	}
	cv, err := View(ctx, stmt.(*sqlast.CreateView))
	if err != nil {
		t.Fatal(err)
	}
	text := cv.String()
	if !strings.Contains(text, "employees.ttid IN (0, 1)") || !strings.Contains(text, "currencyToUniversal") {
		t.Errorf("view body not rewritten: %s", text)
	}
}
