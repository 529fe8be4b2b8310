package engine

import (
	"fmt"
	"sync"
	"testing"

	"mtbase/internal/sqltypes"
)

// TestPlanCacheHitsRepeatedText: repeated execution of the same SQL text
// reuses the cached plan, whatever the execution configuration — a Plan
// holds nothing configuration-dependent (DESIGN.md ADR-010).
func TestPlanCacheHitsRepeatedText(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	db.Stats = Stats{}
	sql := "SELECT COUNT(*) FROM Employees WHERE E_age > 27"
	for i := 0; i < 4; i++ {
		if _, err := db.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats.PlanCacheHits != 3 || db.Stats.PlanCacheMisses != 1 {
		t.Fatalf("want 3 hits / 1 miss, got %+v", db.Stats)
	}
	for _, cfg := range []execConfig{cfgEvalCheck, cfgReference} {
		cfg.apply(db)
		if _, err := db.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats.PlanCacheHits != 5 || db.Stats.PlanCacheMisses != 1 {
		t.Fatalf("%s and %s runs should hit the production plan: %+v", cfgEvalCheck.name, cfgReference.name, db.Stats)
	}
}

// TestPlanCacheVersionEviction is the acceptance regression for data-write
// invalidation: the cached plan of a conversion-UDF query holds the UDF
// body's materialized meta-table relation, so serving it after the meta
// table changed would return stale conversions. A write to any referenced
// table must evict the plan.
func TestPlanCacheVersionEviction(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	db.Stats = Stats{}
	sql := "SELECT currencyToUniversal(100.0, 1) FROM Regions WHERE Re_reg_id = 0"
	res, err := db.ExecSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsFloat(); got < 109.99 || got > 110.01 {
		t.Fatalf("initial conversion = %v, want ~110", got)
	}
	if _, err := db.ExecSQL(sql); err != nil {
		t.Fatal(err)
	}
	if db.Stats.PlanCacheHits != 1 {
		t.Fatalf("second run should hit: %+v", db.Stats)
	}
	// Change the conversion rate of tenant 1's currency: the UDF body reads
	// CurrencyTransform, which the plan pinned by version.
	if _, err := db.ExecSQL("UPDATE CurrencyTransform SET CT_to_universal = 2.0 WHERE CT_currency_key = 1"); err != nil {
		t.Fatal(err)
	}
	res, err = db.ExecSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsFloat(); got != 200 {
		t.Fatalf("conversion after rate change = %v, want 200 (stale plan served)", got)
	}
	if db.Stats.PlanCacheInvalidations == 0 {
		t.Fatalf("version bump did not evict the plan: %+v", db.Stats)
	}
}

// TestPlanDepsCoverEverySlot: a table is a dependency of the plan wherever
// the statement names it — the walker that numbers a statement's blocks is
// the one that pins them (DESIGN.md ADR-017). One statement per slot names
// Regions nowhere else; a write to Regions must re-lower each of them.
func TestPlanDepsCoverEverySlot(t *testing.T) {
	for _, sql := range []string{
		"SELECT E_name FROM Employees ORDER BY (SELECT MAX(Re_name) FROM Regions WHERE Re_reg_id = E_reg_id), E_name",
		"SELECT COUNT(*) FROM Employees GROUP BY (SELECT MAX(Re_name) FROM Regions WHERE Re_reg_id = E_reg_id)",
		"SELECT E_reg_id FROM Employees GROUP BY E_reg_id HAVING COUNT(*) < (SELECT COUNT(*) FROM Regions)",
		"SELECT a.E_name FROM Employees a JOIN Employees b ON a.E_emp_id = b.E_emp_id AND a.E_reg_id IN (SELECT Re_reg_id FROM Regions)",
		"UPDATE Employees SET E_age = (SELECT COUNT(*) FROM Regions) WHERE E_emp_id < 0",
		"DELETE FROM Employees WHERE E_emp_id < 0 AND E_reg_id NOT IN (SELECT Re_reg_id FROM Regions)",
	} {
		db := newEmployeeDB(t, ModePostgres)
		for i := 0; i < 2; i++ {
			if _, err := db.ExecSQL(sql); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
		db.Stats = Stats{}
		if _, err := db.ExecSQL("INSERT INTO Regions VALUES (6, 'ANTARCTICA')"); err != nil {
			t.Fatal(err)
		}
		if _, err := db.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
		if db.Stats.PlanCacheInvalidations != 1 {
			t.Errorf("%s\na write to Regions did not re-lower the plan: %+v", sql, db.Stats)
		}
	}
}

// TestPlanCacheDDLEviction is the acceptance regression for schema-change
// invalidation: dropping and recreating a referenced table with a different
// shape must re-lower the statement, not replay the old binding layout.
func TestPlanCacheDDLEviction(t *testing.T) {
	db := Open(ModePostgres)
	if _, err := db.ExecScript(`
		CREATE TABLE t (a INTEGER, b INTEGER);
		INSERT INTO t VALUES (1, 2)`); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT * FROM t"
	res, err := db.ExecSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 2 {
		t.Fatalf("cols = %v", res.Cols)
	}
	if _, err := db.ExecSQL(sql); err != nil { // warm the plan
		t.Fatal(err)
	}
	if _, err := db.ExecScript(`
		DROP TABLE t;
		CREATE TABLE t (x INTEGER, y INTEGER, z VARCHAR);
		INSERT INTO t VALUES (7, 8, 'nine')`); err != nil {
		t.Fatal(err)
	}
	res, err = db.ExecSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 3 || res.Cols[2] != "z" || res.Rows[0][2].S != "nine" {
		t.Fatalf("stale plan after DDL: cols %v rows %v", res.Cols, res.Rows)
	}
	// A table dropped and re-created as a *view* must also be re-resolved.
	if _, err := db.ExecScript(`
		DROP TABLE t;
		CREATE TABLE u (x INTEGER); INSERT INTO u VALUES (42);
		CREATE VIEW t AS SELECT x FROM u`); err != nil {
		t.Fatal(err)
	}
	res, err = db.ExecSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 1 || res.Rows[0][0].I != 42 {
		t.Fatalf("stale plan after table->view swap: %v %v", res.Cols, res.Rows)
	}
}

// TestPlanNotCachedForMissingNames: a statement referencing an unresolvable
// table or function must not be cached — a later CREATE has to see a fresh
// lowering, never a plan built against the old namespace.
func TestPlanNotCachedForMissingNames(t *testing.T) {
	db := Open(ModePostgres)
	sql := "SELECT missingFn(1) FROM nowhere"
	if _, err := db.ExecSQL(sql); err == nil {
		t.Fatal("query over missing table succeeded")
	}
	if _, err := db.ExecSQL(`CREATE TABLE nowhere (a INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecSQL(`CREATE FUNCTION missingFn (INTEGER) RETURNS INTEGER
		AS 'SELECT $1 + 1' LANGUAGE SQL IMMUTABLE`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecSQL("INSERT INTO nowhere VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecSQL(sql)
	if err != nil {
		t.Fatalf("after CREATE, cached failure replayed: %v", err)
	}
	if res.Rows[0][0].I != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestStalePlanEntryDroppedWhenRebuildUncacheable: after a referenced
// table is dropped, re-executing the text must remove the dead cache entry
// instead of leaving a zombie that re-invalidates on every lookup.
func TestStalePlanEntryDroppedWhenRebuildUncacheable(t *testing.T) {
	db := Open(ModePostgres)
	if _, err := db.ExecScript("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT a FROM t"
	if _, err := db.ExecSQL(sql); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecSQL("DROP TABLE t"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecSQL(sql); err == nil {
		t.Fatal("query over dropped table succeeded")
	}
	if _, zombie := db.plans[sql]; zombie {
		t.Fatal("stale plan entry left in cache after uncacheable rebuild")
	}
	inv := db.Stats.PlanCacheInvalidations
	if _, err := db.ExecSQL(sql); err == nil {
		t.Fatal("query over dropped table succeeded")
	}
	if db.Stats.PlanCacheInvalidations != inv {
		t.Fatal("dead entry still being invalidated per lookup")
	}
}

// TestValuesInsertNotCached: VALUES-only INSERT texts are the unique-text
// bulk-load shape and self-invalidate on execution; caching them would only
// churn the plan cache.
func TestValuesInsertNotCached(t *testing.T) {
	db := Open(ModePostgres)
	if _, err := db.ExecSQL("CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	sql := "INSERT INTO t VALUES (7)"
	for i := 0; i < 2; i++ {
		if _, err := db.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	if _, cached := db.plans[sql]; cached {
		t.Fatal("VALUES-only INSERT plan was cached")
	}
}

// TestInSubqueryArityPlanTime pins the fix for the arity-check hole: the
// left-side/subquery column count used to be validated only on the set-build
// path of evalInSubquery, so a memo hit — or a left side that was entirely
// NULL — skipped it. The check now runs at plan time, identically in both
// engine modes and on every execution.
func TestInSubqueryArityPlanTime(t *testing.T) {
	for _, mode := range []Mode{ModePostgres, ModeSystemC} {
		for _, compiled := range []bool{true, false} {
			db := newEmployeeDB(t, mode)
			db.SetCompileExprs(compiled)
			want := "engine: IN subquery returns 1 columns, left side has 2"
			_, err := db.QuerySQL(`SELECT E_name FROM Employees
				WHERE (E_role_id, ttid) IN (SELECT R_role_id FROM Roles)`)
			if err == nil || err.Error() != want {
				t.Fatalf("mode %s compiled=%v: err = %v, want %q", mode, compiled, err, want)
			}
			// Zero-row outer relation: the set-build path never ran before,
			// so this mismatch used to pass silently.
			_, err = db.QuerySQL(`SELECT E_name FROM Employees
				WHERE E_age > 1000 AND (E_role_id, ttid) IN (SELECT R_role_id FROM Roles)`)
			if err == nil || err.Error() != want {
				t.Fatalf("mode %s compiled=%v zero-row: err = %v, want %q", mode, compiled, err, want)
			}
		}
	}
}

// TestConcurrentExecutionsShareCachedPlan runs many goroutines through one
// DB and one cached plan whose statement exercises the per-exec memos
// (uncorrelated IN-subquery, scalar subquery, conversion UDF). The
// plan must be reentrant: every execution owns its memos, keyed by
// plan-stable subquery IDs, and the -race CI job enforces the discipline.
func TestConcurrentExecutionsShareCachedPlan(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	sql := `SELECT E_name FROM Employees
		WHERE E_role_id IN (SELECT R_role_id FROM Roles WHERE R_name = 'professor')
		AND E_salary > (SELECT MIN(currencyToUniversal(E_salary, ttid)) FROM Employees)
		ORDER BY E_name`
	want, err := db.ExecSQL(sql) // warm the plan
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res, err := db.ExecSQL(sql)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != len(want.Rows) {
					errs <- fmt.Errorf("row count %d, want %d", len(res.Rows), len(want.Rows))
					return
				}
				for r := range res.Rows {
					if res.Rows[r][0].S != want.Rows[r][0].S {
						errs <- fmt.Errorf("row %d = %v, want %v", r, res.Rows[r], want.Rows[r])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPlanCacheDisabled: SetPlanCache(false) restores per-statement
// lowering.
func TestPlanCacheDisabled(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	db.SetPlanCache(false)
	db.Stats = Stats{}
	sql := "SELECT COUNT(*) FROM Roles"
	for i := 0; i < 3; i++ {
		if _, err := db.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats.PlanCacheHits != 0 || db.Stats.PlanCacheMisses != 3 {
		t.Fatalf("want 0 hits / 3 misses with cache off, got %+v", db.Stats)
	}
}

// TestPlanCacheEviction fills the cache beyond its capacity and checks it
// stays bounded while continuing to serve correct results.
func TestPlanCacheEviction(t *testing.T) {
	db := Open(ModePostgres)
	if _, err := db.ExecScript("CREATE TABLE t (a INTEGER); INSERT INTO t VALUES (5)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*planCacheCap; i++ {
		res, err := db.ExecSQL(fmt.Sprintf("SELECT a + %d FROM t", i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].I != int64(5+i) {
			t.Fatalf("i=%d: %v", i, res.Rows[0][0])
		}
	}
	if len(db.plans) > planCacheCap {
		t.Fatalf("cache grew to %d entries (cap %d)", len(db.plans), planCacheCap)
	}
}

// TestUDFPlanRelationsSharedAcrossExecutions: with a cached plan, the
// conversion-UDF body's per-tenant relation is materialized once and reused
// by later executions of the same statement — the repeated-execution payoff
// the paper's recurring cross-tenant statements motivate.
func TestUDFPlanRelationsSharedAcrossExecutions(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	sql := "SELECT SUM(currencyToUniversal(E_salary, ttid)) FROM Employees"
	first, err := db.ExecSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	p := db.plans[sql]
	if p == nil {
		t.Fatal("plan not cached")
	}
	var entries int
	for _, up := range p.udfPlans {
		entries += len(up.entries)
	}
	if entries == 0 {
		t.Fatal("no UDF plan entries materialized on the cached plan")
	}
	again, err := db.ExecSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if first.Rows[0][0] != again.Rows[0][0] {
		t.Fatalf("results differ across executions: %v vs %v", first.Rows[0][0], again.Rows[0][0])
	}
	if db.plans[sql] != p {
		t.Fatal("second execution rebuilt the plan")
	}
	// Writes to an unrelated table must NOT evict the plan.
	if _, err := db.ExecSQL("INSERT INTO Regions VALUES (6, 'ANTARCTICA')"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecSQL(sql); err != nil {
		t.Fatal(err)
	}
	if db.plans[sql] != p {
		t.Fatal("write to unrelated table evicted the plan")
	}
	// Appending an employee (referenced table) must evict it.
	db.Table("Employees").AppendRow([]sqltypes.Value{
		sqltypes.NewInt(0), sqltypes.NewInt(9), sqltypes.NewString("Zoe"),
		sqltypes.NewInt(1), sqltypes.NewInt(3), sqltypes.NewFloat(100), sqltypes.NewInt(33),
	})
	if _, err := db.ExecSQL(sql); err != nil {
		t.Fatal(err)
	}
	if db.plans[sql] == p {
		t.Fatal("write to referenced table did not evict the plan")
	}
}
