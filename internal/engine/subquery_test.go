package engine

import (
	"testing"
)

func TestTupleInSubquery(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	// Tenant-aware membership: (role, ttid) pairs — role 2 of tenant 0 only.
	rows := queryRows(t, db, `SELECT E_name FROM Employees
		WHERE (E_role_id, ttid) IN (SELECT R_role_id, ttid FROM Roles WHERE R_name = 'professor')
		ORDER BY E_name`)
	if len(rows) != 1 || rows[0][0].S != "Alice" {
		t.Errorf("rows = %v", rows)
	}
	// Without the ttid component both tenants' role-2 employees match.
	rows = queryRows(t, db, `SELECT E_name FROM Employees
		WHERE E_role_id IN (SELECT R_role_id FROM Roles WHERE R_name = 'professor')
		ORDER BY E_name`)
	if len(rows) != 2 {
		t.Errorf("rows = %v", rows)
	}
}

func TestUncorrelatedSubqueryCachedOnce(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	db.Stats = Stats{}
	// The scalar subquery calls the UDF once per Employees row it scans,
	// but the subquery itself must run exactly once for the whole statement.
	rows := queryRows(t, db, `SELECT E_name FROM Employees
		WHERE E_salary > (SELECT AVG(currencyToUniversal(E_salary, ttid)) FROM Employees)`)
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	// 6 employee rows with distinct (salary, ttid) pairs -> 6 UDF body runs
	// if the subquery ran once; far more if it ran per outer row.
	if db.Stats.UDFCalls.Load() > 6 {
		t.Errorf("uncorrelated subquery not cached: %d UDF calls", db.Stats.UDFCalls.Load())
	}
}

func TestCorrelatedSubqueryNotCached(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	// Per-tenant max: the subquery must be re-evaluated per outer row
	// (cached results would return tenant 0's max for tenant 1).
	rows := queryRows(t, db, `SELECT E_name FROM Employees e1
		WHERE E_salary = (SELECT MAX(E_salary) FROM Employees e2 WHERE e2.ttid = e1.ttid)
		ORDER BY E_name`)
	if len(rows) != 2 || rows[0][0].S != "Alice" || rows[1][0].S != "Ed" {
		t.Errorf("rows = %v", rows)
	}
}

func TestCorrelationThroughNestedSubquery(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	// The innermost subquery references e1 two boundary levels up; both
	// boundaries must be flagged as correlated.
	rows := queryRows(t, db, `SELECT E_name FROM Employees e1 WHERE EXISTS (
		SELECT 1 FROM Roles r WHERE r.ttid = e1.ttid AND r.R_role_id IN (
			SELECT e2.E_role_id FROM Employees e2 WHERE e2.ttid = e1.ttid AND e2.E_age > 70))
		ORDER BY E_name`)
	// Tenant 1 has Nancy (72, role 2): roles of tenant 1 include role 2 ->
	// all three tenant-1 employees qualify.
	if len(rows) != 3 {
		t.Errorf("rows = %v", rows)
	}
	for _, r := range rows {
		name := r[0].S
		if name != "Allan" && name != "Ed" && name != "Nancy" {
			t.Errorf("unexpected employee %s", name)
		}
	}
}

func TestParamCorrelationInUDFBody(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	// A UDF whose body contains a subquery referencing $1: results must not
	// be reused across different arguments even though the *Select pointer
	// is shared between calls.
	_, err := db.ExecSQL(`CREATE FUNCTION maxSalaryOf (INTEGER) RETURNS DECIMAL(15,2)
		AS 'SELECT (SELECT MAX(E_salary) FROM Employees WHERE ttid = $1) AS m' LANGUAGE SQL`)
	if err != nil {
		t.Fatal(err)
	}
	rows := queryRows(t, db, "SELECT maxSalaryOf(0), maxSalaryOf(1)")
	if rows[0][0].AsFloat() != 150000 || rows[0][1].AsFloat() != 1000000 {
		t.Errorf("per-tenant maxima: %v", rows[0])
	}
}

func TestExistsCachedWhenUncorrelated(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	rows := queryRows(t, db, `SELECT E_name FROM Employees
		WHERE EXISTS (SELECT 1 FROM Regions WHERE Re_name = 'EUROPE') ORDER BY E_name`)
	if len(rows) != 6 {
		t.Errorf("rows = %v", rows)
	}
	rows = queryRows(t, db, `SELECT COUNT(*) FROM Employees
		WHERE NOT EXISTS (SELECT 1 FROM Regions WHERE Re_name = 'ATLANTIS')`)
	if rows[0][0].I != 6 {
		t.Errorf("rows = %v", rows)
	}
}

func TestRowValueOutsideIn(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	if _, err := db.QuerySQL("SELECT (1, 2) FROM Employees"); err == nil {
		t.Error("row value outside IN accepted")
	}
}
