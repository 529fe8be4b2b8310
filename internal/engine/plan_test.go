package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"mtbase/internal/sqlparse"
	"mtbase/internal/sqltypes"
)

// planCounts wraps db's plan counters for the counter-contract tests.
type planCounts struct {
	t  *testing.T
	db *DB
}

// want runs f and checks the hits, misses and invalidations it counted.
func (c planCounts) want(what string, f func(), hits, misses, invalidations int64) {
	c.t.Helper()
	before := c.db.Stats.Snapshot()
	f()
	after := c.db.Stats.Snapshot()
	h, m, i := after.PlanCacheHits-before.PlanCacheHits, after.PlanCacheMisses-before.PlanCacheMisses,
		after.PlanCacheInvalidations-before.PlanCacheInvalidations
	if h != hits || m != misses || i != invalidations {
		c.t.Errorf("%s: %d hits / %d misses / %d invalidations, want %d / %d / %d", what, h, m, i, hits, misses, invalidations)
	}
}

// run executes a held plan.
func (c planCounts) run(p *Plan) *Result {
	c.t.Helper()
	res, err := c.db.ExecPlanContext(context.Background(), p)
	if err != nil {
		c.t.Fatal(err)
	}
	return res
}

// TestPlanCacheHitsRepeatedText: the held plan of a text is reused by every
// execution of it, whatever the execution configuration — a Plan holds
// nothing configuration-dependent (DESIGN.md ADR-010). Its first run counts
// nothing and every later run one hit (ADR-027).
func TestPlanCacheHitsRepeatedText(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	c := planCounts{t, db}
	p := mustPrepare(db, "SELECT COUNT(*) FROM Employees WHERE E_age > 27")
	c.want("the first run", func() { c.run(p) }, 0, 0, 0)
	c.want("three more runs", func() { c.run(p); c.run(p); c.run(p) }, 3, 0, 0)
	for _, cfg := range []execConfig{cfgEvalCheck, cfgReference, cfgProduction} {
		cfg.apply(db)
		var res *Result
		c.want(cfg.name+" run", func() { res = c.run(p) }, 1, 0, 0)
		if got := res.Rows[0][0].AsInt(); got != 5 {
			t.Errorf("%s run counted %d employees over 27, want 5", cfg.name, got)
		}
	}
}

// TestPlanCacheDisabled: the DB keeps no text-keyed plans, so the text entries
// lower afresh on every call — every call one miss, none a hit (ADR-027).
func TestPlanCacheDisabled(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	c := planCounts{t, db}
	const sql = "SELECT COUNT(*) FROM Roles"
	c.want("ExecSQL three times", func() {
		for i := 0; i < 3; i++ {
			if _, err := db.ExecSQL(sql); err != nil {
				t.Fatal(err)
			}
		}
	}, 0, 3, 0)
	c.want("PreparePlan twice", func() {
		if mustPrepare(db, sql) == mustPrepare(db, sql) {
			t.Error("two prepares of one text returned one plan")
		}
	}, 0, 2, 0)
}

// TestPlanCounters pins the rest of what the plan counters count now that a
// plan is a value its caller holds (DESIGN.md ADR-027): a prepare is one miss
// and its first run counts nothing; a plan held across DDL answers against the
// new schema and counts one invalidation and one miss per execution; the
// entries that lower for one execution of their own count nothing.
// TestPlanCacheHitsRepeatedText and TestPlanCacheDisabled have the hits and the
// text entries.
func TestPlanCounters(t *testing.T) {
	ctx := context.Background()
	db := newEmployeeDB(t, ModePostgres)
	c := planCounts{t, db}
	want, run := c.want, c.run

	const sql = "SELECT COUNT(*) FROM Employees WHERE E_age > 27"
	var p *Plan
	want("a prepare", func() { p = mustPrepare(db, sql) }, 0, 1, 0)
	want("the first run", func() { run(p) }, 0, 0, 0)

	// A plan held across DDL answers against the new schema, re-lowered for
	// each execution: it stays the caller's, and the DB keeps nothing to swap.
	if _, err := db.ExecSQL("CREATE TABLE Scratch (x INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecSQL("INSERT INTO Employees VALUES (0, 9, 'Zoe', 1, 3, 100, 33)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		var res *Result
		want("a run across DDL", func() { res = run(p) }, 0, 1, 1)
		if got := res.Rows[0][0].AsInt(); got != 6 {
			t.Errorf("held plan across DDL counted %d employees over 27, want 6", got)
		}
	}

	// Exec, ExecScript and QueryWith lower for one execution and count nothing.
	sel, err := sqlparse.ParseQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	want("Exec", func() {
		if _, err := db.Exec(sel); err != nil {
			t.Fatal(err)
		}
	}, 0, 0, 0)
	want("ExecScript", func() {
		if _, err := db.ExecScript("INSERT INTO Scratch VALUES (1); SELECT x FROM Scratch"); err != nil {
			t.Fatal(err)
		}
	}, 0, 0, 0)
	for _, rels := range [][]Relation{nil, {{Name: "Scratch", Rows: [][]sqltypes.Value{{sqltypes.NewInt(2)}}}}} {
		want("QueryWith", func() {
			rows, err := db.QueryWith(ctx, sel, nil, rels...)
			if err == nil {
				_, err = rows.Collect()
			}
			if err != nil {
				t.Fatal(err)
			}
		}, 0, 0, 0)
	}
}

// TestPlanFreshAcrossWrites is the acceptance regression for the rule that
// replaced data-write invalidation (DESIGN.md ADR-024): the held plan of a
// conversion-UDF query holds the UDF body's materialized meta-table relation,
// and after the meta table changed the same *Plan must answer with the new
// rate — the relation follows the snapshot, the plan stays.
func TestPlanFreshAcrossWrites(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	p := mustPrepare(db, "SELECT currencyToUniversal(100.0, 1) FROM Regions WHERE Re_reg_id = 0")
	db.Stats = Stats{}
	run := func() float64 {
		t.Helper()
		res, err := db.ExecPlanContext(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].AsFloat()
	}
	if got := run(); got < 109.99 || got > 110.01 {
		t.Fatalf("initial conversion = %v, want ~110", got)
	}
	run()
	// Change the conversion rate of tenant 1's currency: the UDF body reads
	// CurrencyTransform, whose snapshot the plan's relation memo is pinned to.
	if _, err := db.ExecSQL("UPDATE CurrencyTransform SET CT_to_universal = 2.0 WHERE CT_currency_key = 1"); err != nil {
		t.Fatal(err)
	}
	if got := run(); got != 200 {
		t.Fatalf("conversion after rate change = %v, want 200 (stale relation served)", got)
	}
	if st := db.Stats.Snapshot(); st.PlanCacheInvalidations != 0 || st.PlanCacheHits != 2 {
		t.Fatalf("a data write re-lowered the plan: %+v", st)
	}
}

// TestWritesVisibleInEverySlot: wherever a statement names a table, a write
// to it is visible to the next execution and re-lowers nothing. One statement
// per slot names Regions nowhere else; each is answered by its held plan
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
		held := mustPrepare(db, sql)
		// What a statement did: its result, and for a write the table it left.
		run := func(d *DB, p *Plan) string {
			res, err := d.ExecPlanContext(context.Background(), p)
			after, _ := d.QuerySQL("SELECT * FROM Employees ORDER BY ttid, E_emp_id")
			return execKey(res, err) + execKey(after, nil)
		}
		before := run(db, held)
		if want := run(ref, mustPrepare(ref, sql)); before != want {
			t.Fatalf("%s\nbefore the write: %s, reference %s", sql, before, want)
		}
		db.Stats = Stats{}
		for _, d := range []*DB{db, ref} {
			if _, err := d.ExecSQL("INSERT INTO Regions VALUES (6, 'ZEALANDIA')"); err != nil {
				t.Fatal(err)
			}
		}
		after, want := run(db, held), run(ref, mustPrepare(ref, sql))
		if after != want {
			t.Errorf("%s\nafter the write: %s, reference %s", sql, after, want)
		}
		if after == before {
			t.Errorf("%s\nthe write to Regions changed nothing: the statement does not test its slot", sql)
		}
		if st := db.Stats.Snapshot(); st.PlanCacheInvalidations != 0 || st.PlanCacheHits != 1 {
			t.Errorf("%s\na write to Regions re-lowered the plan: %+v", sql, st)
		}
	}
}

// TestPlanCacheDDLEviction is the acceptance regression for schema-change
// invalidation: dropping and recreating a referenced table with a different
// shape must re-lower a held plan, not replay the old binding layout.
func TestPlanCacheDDLEviction(t *testing.T) {
	db := Open(ModePostgres)
	if _, err := db.ExecScript(`
		CREATE TABLE t (a INTEGER, b INTEGER);
		INSERT INTO t VALUES (1, 2)`); err != nil {
		t.Fatal(err)
	}
	p := mustPrepare(db, "SELECT * FROM t")
	run := func() *Result {
		t.Helper()
		res, err := db.ExecPlanContext(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := run(); len(res.Cols) != 2 {
		t.Fatalf("cols = %v", res.Cols)
	}
	run() // the plan has run before
	if _, err := db.ExecScript(`
		DROP TABLE t;
		CREATE TABLE t (x INTEGER, y INTEGER, z VARCHAR);
		INSERT INTO t VALUES (7, 8, 'nine')`); err != nil {
		t.Fatal(err)
	}
	if res := run(); len(res.Cols) != 3 || res.Cols[2] != "z" || res.Rows[0][2].S != "nine" {
		t.Fatalf("stale plan after DDL: cols %v rows %v", res.Cols, res.Rows)
	}
	// A table dropped and re-created as a *view* must also be re-resolved.
	if _, err := db.ExecScript(`
		DROP TABLE t;
		CREATE TABLE u (x INTEGER); INSERT INTO u VALUES (42);
		CREATE VIEW t AS SELECT x FROM u`); err != nil {
		t.Fatal(err)
	}
	if res := run(); len(res.Cols) != 1 || res.Rows[0][0].I != 42 {
		t.Fatalf("stale plan after table->view swap: %v %v", res.Cols, res.Rows)
	}
}

// TestPlanNotCachedForMissingNames: a plan over an unresolvable table or
// function fails when it runs, and once a CREATE has resolved the names the
// same held plan answers — the CREATE swapped the catalog, so it is re-lowered,
// never replayed against the old namespace.
func TestPlanNotCachedForMissingNames(t *testing.T) {
	db := Open(ModePostgres)
	p := mustPrepare(db, "SELECT missingFn(1) FROM nowhere")
	if _, err := db.ExecPlanContext(context.Background(), p); err == nil {
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
	res, err := db.ExecPlanContext(context.Background(), p)
	if err != nil {
		t.Fatalf("after CREATE, the failed lowering replayed: %v", err)
	}
	if res.Rows[0][0].I != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// TestValuesInsertNotCached: the DB keeps no plan, so a VALUES INSERT of
// literals — the unique-text bulk-load shape — is prepared per call and leaves
// nothing behind; a held parameterized INSERT is lowered once however many
// rows it writes.
func TestValuesInsertNotCached(t *testing.T) {
	db := Open(ModePostgres)
	if _, err := db.ExecSQL("CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	db.Stats = Stats{}
	for i := 0; i < 2; i++ {
		if _, err := db.ExecSQL("INSERT INTO t VALUES (7)"); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.Stats.Snapshot(); st.PlanCacheMisses != 2 || st.PlanCacheHits != 0 {
		t.Fatalf("literal VALUES INSERT twice: %+v; want two misses, no hit", st)
	}
	db.Stats = Stats{}
	p := mustPrepare(db, "INSERT INTO t VALUES (?)")
	for i := 0; i < 3; i++ {
		if _, err := db.ExecPlanContext(context.Background(), p, sqltypes.NewInt(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := db.Stats.Snapshot(); st.PlanCacheMisses != 1 || st.PlanCacheHits != 2 || st.PlanCacheInvalidations != 0 {
		t.Fatalf("held parameterized VALUES INSERT: %+v; want one miss, two hits", st)
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
// DB and one held plan whose statement exercises the per-exec memos
// (uncorrelated IN-subquery, scalar subquery, conversion UDF). The
// plan must be reentrant: every execution owns its memos, keyed by
// plan-stable subquery IDs, and the -race CI job enforces the discipline.
func TestConcurrentExecutionsShareCachedPlan(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	sql := `SELECT E_name FROM Employees
		WHERE E_role_id IN (SELECT R_role_id FROM Roles WHERE R_name = 'professor')
		AND E_salary > (SELECT MIN(currencyToUniversal(E_salary, ttid)) FROM Employees)
		ORDER BY E_name`
	p := mustPrepare(db, sql)
	want, err := db.ExecPlanContext(context.Background(), p)
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
				res, err := db.ExecPlanContext(context.Background(), p)
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

// TestUDFPlanRelationsSharedAcrossExecutions: with a held plan, the
// conversion-UDF body's per-tenant relation is materialized once and reused
// by later executions of the same statement — the repeated-execution payoff
// the paper's recurring cross-tenant statements motivate.
func TestUDFPlanRelationsSharedAcrossExecutions(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	p := mustPrepare(db, "SELECT SUM(currencyToUniversal(E_salary, ttid)) FROM Employees")
	run := func() sqltypes.Value {
		t.Helper()
		res, err := db.ExecPlanContext(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0]
	}
	entries := func() (n int) {
		for _, up := range p.udfPlans {
			n += len(up.memo.entries)
		}
		return n
	}
	first := run()
	materialized := entries()
	if materialized == 0 {
		t.Fatal("no UDF plan entries materialized on the held plan")
	}
	if again := run(); again != first {
		t.Fatalf("results differ across executions: %v vs %v", first, again)
	}
	if entries() != materialized {
		t.Fatalf("second execution materialized the relations again: %d entries, then %d", materialized, entries())
	}
	// A write re-lowers nothing, to a table the statement reads or not — and
	// the next execution sees it.
	if _, err := db.ExecSQL("INSERT INTO Regions VALUES (6, 'ANTARCTICA')"); err != nil {
		t.Fatal(err)
	}
	db.Table("Employees").AppendRow([]sqltypes.Value{
		sqltypes.NewInt(0), sqltypes.NewInt(9), sqltypes.NewString("Zoe"),
		sqltypes.NewInt(1), sqltypes.NewInt(3), sqltypes.NewFloat(100), sqltypes.NewInt(33),
	})
	if got, want := run().AsFloat(), first.AsFloat()+100; got != want {
		t.Fatalf("sum after appending an employee = %v, want %v", got, want)
	}
	if n := db.Stats.PlanCacheInvalidations.Load(); n != 0 {
		t.Fatalf("a write re-lowered the plan: %d invalidations", n)
	}
}
