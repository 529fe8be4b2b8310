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
	if db.Stats.PlanCacheHits.Load() != 3 || db.Stats.PlanCacheMisses.Load() != 1 {
		t.Fatalf("want 3 hits / 1 miss, got %+v", db.Stats.Snapshot())
	}
	for _, cfg := range []execConfig{cfgEvalCheck, cfgReference} {
		cfg.apply(db)
		if _, err := db.ExecSQL(sql); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats.PlanCacheHits.Load() != 5 || db.Stats.PlanCacheMisses.Load() != 1 {
		t.Fatalf("%s and %s runs should hit the production plan: %+v", cfgEvalCheck.name, cfgReference.name, db.Stats.Snapshot())
	}
}

// TestPlanFreshAcrossWrites is the acceptance regression for the rule that
// replaced data-write invalidation (DESIGN.md ADR-024): the cached plan of a
// conversion-UDF query holds the UDF body's materialized meta-table relation,
// and after the meta table changed the same *Plan must answer with the new
// rate — the relation follows the snapshot, the plan stays.
func TestPlanFreshAcrossWrites(t *testing.T) {
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
	if db.Stats.PlanCacheHits.Load() != 1 {
		t.Fatalf("second run should hit: %+v", db.Stats.Snapshot())
	}
	p := db.plans[sql]
	// Change the conversion rate of tenant 1's currency: the UDF body reads
	// CurrencyTransform, whose snapshot the plan's relation memo is pinned to.
	if _, err := db.ExecSQL("UPDATE CurrencyTransform SET CT_to_universal = 2.0 WHERE CT_currency_key = 1"); err != nil {
		t.Fatal(err)
	}
	res, err = db.ExecSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsFloat(); got != 200 {
		t.Fatalf("conversion after rate change = %v, want 200 (stale relation served)", got)
	}
	if p == nil || db.plans[sql] != p || db.Stats.PlanCacheInvalidations.Load() != 0 || db.Stats.PlanCacheHits.Load() != 2 {
		t.Fatalf("a data write re-lowered the plan: %p → %p, %+v", p, db.plans[sql], db.Stats.Snapshot())
	}
}

// TestWritesVisibleInEverySlot: wherever a statement names a table, a write
// to it is visible to the next execution and re-lowers nothing. One statement
// per slot names Regions nowhere else; each is answered by the cached plan
// exactly as by the reference executor, before and after the write.
func TestWritesVisibleInEverySlot(t *testing.T) {
	for _, sql := range []string{
		"SELECT E_name FROM Employees ORDER BY (SELECT COUNT(*) FROM Regions WHERE Re_reg_id = E_reg_id + 2) DESC, E_name",
		"SELECT COUNT(*) FROM Employees GROUP BY (SELECT COUNT(*) FROM Regions WHERE Re_reg_id = E_reg_id + 2) ORDER BY 1",
		"SELECT E_reg_id FROM Employees GROUP BY E_reg_id HAVING COUNT(*) < (SELECT COUNT(*) - 5 FROM Regions) ORDER BY 1",
		"SELECT a.E_name FROM Employees a JOIN Employees b ON a.E_emp_id = b.E_emp_id AND a.E_reg_id + 2 IN (SELECT Re_reg_id FROM Regions WHERE Re_reg_id > 5) ORDER BY 1",
		"UPDATE Employees SET E_age = (SELECT COUNT(*) FROM Regions) WHERE E_emp_id = 0",
		"DELETE FROM Employees WHERE E_reg_id + 2 IN (SELECT Re_reg_id FROM Regions WHERE Re_reg_id > 5)",
	} {
		db, ref := newEmployeeDB(t, ModePostgres), newEmployeeDB(t, ModePostgres)
		cfgReference.apply(ref)
		ref.SetPlanCache(false)
		// What a statement did: its result, and for a write the table it left.
		run := func(d *DB, text string) string {
			res, err := d.ExecSQL(text)
			after, _ := d.ExecSQL("SELECT * FROM Employees ORDER BY ttid, E_emp_id")
			return execKey(res, err) + execKey(after, nil)
		}
		before := run(db, sql)
		if want := run(ref, sql); before != want {
			t.Fatalf("%s\nbefore the write: %s, reference %s", sql, before, want)
		}
		p := db.plans[sql]
		db.Stats = Stats{}
		for _, d := range []*DB{db, ref} {
			if _, err := d.ExecSQL("INSERT INTO Regions VALUES (6, 'ZEALANDIA')"); err != nil {
				t.Fatal(err)
			}
		}
		after, want := run(db, sql), run(ref, sql)
		if after != want {
			t.Errorf("%s\nafter the write: %s, reference %s", sql, after, want)
		}
		if after == before {
			t.Errorf("%s\nthe write to Regions changed nothing: the statement does not test its slot", sql)
		}
		if p == nil || db.plans[sql] != p || db.Stats.PlanCacheInvalidations.Load() != 0 {
			t.Errorf("%s\na write to Regions re-lowered the plan: %+v", sql, db.Stats.Snapshot())
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

// TestValuesInsertNotCached: a VALUES-only INSERT of literals is the
// unique-text bulk-load shape, and caching those would only churn the plan
// cache; with placeholders it is one repeating text, parsed and lowered once
// however many rows it writes.
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
	db.Stats = Stats{}
	sql = "INSERT INTO t VALUES (?)"
	for i := 0; i < 3; i++ {
		if _, err := db.ExecArgs(sql, sqltypes.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.Stats.Snapshot(); db.plans[sql] == nil || st.PlanCacheMisses != 1 || st.PlanCacheHits != 2 || st.PlanCacheInvalidations != 0 {
		t.Fatalf("parameterized VALUES INSERT: cached=%v, %+v; want one miss, two hits", db.plans[sql] != nil, st)
	}
	if got := queryRows(t, db, "SELECT COUNT(*), SUM(a) FROM t")[0]; got[0].AsInt() != 5 || got[1].AsInt() != 17 {
		t.Fatalf("table holds %v, want 5 rows summing to 17", got)
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
	if db.Stats.PlanCacheHits.Load() != 0 || db.Stats.PlanCacheMisses.Load() != 3 {
		t.Fatalf("want 0 hits / 3 misses with cache off, got %+v", db.Stats.Snapshot())
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
	// The least recently used half goes at once: one text past a full cache
	// leaves the newest cap/2 − 1 and itself.
	db.InvalidatePlans()
	for i := 0; i <= planCacheCap; i++ {
		if _, err := db.PreparePlan(fmt.Sprintf("SELECT a + %d FROM t", i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(db.plans) != planCacheCap/2 {
		t.Fatalf("%d entries after one eviction, want %d", len(db.plans), planCacheCap/2)
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
		entries += len(up.memo.entries)
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
	// A write evicts nothing, to a table the statement reads or not — and the
	// next execution sees it.
	if _, err := db.ExecSQL("INSERT INTO Regions VALUES (6, 'ANTARCTICA')"); err != nil {
		t.Fatal(err)
	}
	db.Table("Employees").AppendRow([]sqltypes.Value{
		sqltypes.NewInt(0), sqltypes.NewInt(9), sqltypes.NewString("Zoe"),
		sqltypes.NewInt(1), sqltypes.NewInt(3), sqltypes.NewFloat(100), sqltypes.NewInt(33),
	})
	third, err := db.ExecSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if db.plans[sql] != p {
		t.Fatal("a write evicted the plan")
	}
	if got, want := third.Rows[0][0].AsFloat(), first.Rows[0][0].AsFloat()+100; got != want {
		t.Fatalf("sum after appending an employee = %v, want %v", got, want)
	}
}
