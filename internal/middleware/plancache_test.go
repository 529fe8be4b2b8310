package middleware

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"mtbase/internal/engine"
)

// TestStatementCacheInvalidatedByDDL is the stale-plan-after-DDL regression:
// a SELECT text executes (caching its rewrite and its engine plan), the data
// modeller drops and recreates a referenced table with a different shape,
// and the same text must re-execute against the new schema — both the
// middleware rewrite cache (schema generation) and the engine plan cache
// (dependency identity) have to notice.
func TestStatementCacheInvalidatedByDDL(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	admin := connFor(t, srv, 99)
	c0 := connFor(t, srv, 0)

	sql := "SELECT Re_name FROM Regions WHERE Re_reg_id = 3"
	res, err := c0.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].S != "EUROPE" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if _, err := c0.Exec(sql); err != nil { // warm every cache layer
		t.Fatal(err)
	}

	if _, err := admin.Exec("DROP TABLE Regions"); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Exec(`CREATE TABLE Regions (
		Re_reg_id INTEGER NOT NULL,
		Re_name VARCHAR(25) NOT NULL,
		Re_population INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.DB().ExecSQL(
		"INSERT INTO Regions VALUES (3, 'NEW-EUROPE', 7)"); err != nil {
		t.Fatal(err)
	}

	res, err = c0.Exec(sql)
	if err != nil {
		t.Fatalf("re-execution after DDL: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "NEW-EUROPE" {
		t.Fatalf("stale plan served after DDL: %v", res.Rows)
	}

	// SELECT * arity must follow the new schema too.
	star, err := c0.Exec("SELECT * FROM Regions")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, col := range star.Cols {
		if strings.EqualFold(col, "Re_population") {
			found = true
		}
	}
	if !found {
		t.Fatalf("star expansion missed new column: %v", star.Cols)
	}
}

// TestRewriteCacheKeyedByScopeAndLevel: the same text under a different
// SCOPE or optimization level must not reuse the previous rewrite.
func TestRewriteCacheKeyedByScopeAndLevel(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	c0, c1 := connFor(t, srv, 0), connFor(t, srv, 1)
	if _, err := c1.Exec("GRANT READ ON Employees TO 0"); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT COUNT(*) AS n FROM Employees"
	res, err := c0.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 3 {
		t.Fatalf("default scope: %v", res.Rows)
	}
	if _, err := c0.Exec(`SET SCOPE = "IN (0, 1)"`); err != nil {
		t.Fatal(err)
	}
	res, err = c0.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 6 {
		t.Fatalf("widened scope served a cached narrow rewrite: %v", res.Rows)
	}
	if _, err := c0.Exec(`SET SCOPE = "IN (0)"`); err != nil {
		t.Fatal(err)
	}
	res, err = c0.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 3 {
		t.Fatalf("narrowed scope served a cached wide rewrite: %v", res.Rows)
	}
}

// TestRewriteCacheHitsRepeatedStatements: repeated texts on one session
// land in the rewrite cache.
func TestRewriteCacheHitsRepeatedStatements(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	c0 := connFor(t, srv, 0)
	sql := "SELECT E_name FROM Employees WHERE E_age > 27 ORDER BY E_name"
	var want *engine.Result
	for i := 0; i < 5; i++ {
		res, err := c0.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res
		} else if len(res.Rows) != len(want.Rows) {
			t.Fatalf("iteration %d: %d rows, want %d", i, len(res.Rows), len(want.Rows))
		}
	}
	hits, misses := srv.RewriteCacheStats()
	if hits != 4 || misses != 1 {
		t.Fatalf("rewrite cache: %d hits / %d misses, want 4/1", hits, misses)
	}
	srv.InvalidateStatementCaches()
	if _, err := c0.Exec(sql); err != nil {
		t.Fatal(err)
	}
	if _, m2 := srv.RewriteCacheStats(); m2 != 2 {
		t.Fatalf("invalidation did not clear the rewrite cache: misses = %d", m2)
	}
}

// TestConcurrentSessionsSharedCaches drives several sessions through the
// cached statement path concurrently; the -race CI job enforces the
// caches' locking discipline.
func TestConcurrentSessionsSharedCaches(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	sql := "SELECT SUM(E_salary) AS s FROM Employees"
	var wg sync.WaitGroup
	errs := make(chan error, 6)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(ttid int64) {
			defer wg.Done()
			c, err := srv.Connect(ttid)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 10; i++ {
				if _, err := c.Exec(sql); err != nil {
					errs <- err
					return
				}
			}
		}(int64(g % 2))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStatementCacheKeepsWhatIsUsed: the cache drops the least-recently-used
// half when it overflows (the engine plan cache's rule), so one tenant issuing
// 600 distinct literal texts does not cost another tenant the text it keeps
// re-running between them — a cache that restarts empty at capacity, as the
// two this one replaced did, would.
func TestStatementCacheKeepsWhatIsUsed(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	steady, noisy := connFor(t, srv, 0), connFor(t, srv, 1)
	const hot = "SELECT E_name FROM Employees WHERE E_age > 27 ORDER BY E_name"
	if _, err := steady.Exec(hot); err != nil {
		t.Fatal(err)
	}
	parsed, _ := steady.Statement(hot)
	hits0, misses0 := srv.RewriteCacheStats()
	reruns := 0
	for i := 0; i < 600; i++ {
		if _, err := noisy.Exec(fmt.Sprintf("SELECT COUNT(*) AS n FROM Employees WHERE E_age > %d", i)); err != nil {
			t.Fatal(err)
		}
		if i%25 == 0 {
			reruns++
			if _, err := steady.Exec(hot); err != nil {
				t.Fatal(err)
			}
		}
	}
	hits, misses := srv.RewriteCacheStats()
	if hits-hits0 != int64(reruns) || misses-misses0 != 600 {
		t.Errorf("%d hits / %d misses, want %d / 600: the re-run text was evicted by another tenant's literals", hits-hits0, misses-misses0, reruns)
	}
	if again, _ := steady.Statement(hot); again != parsed {
		t.Error("the re-run text was parsed again")
	}
	if n := len(srv.cache.entries); n > stmtCacheCap {
		t.Errorf("cache holds %d texts, capacity %d", n, stmtCacheCap)
	}
	// The least recently used half goes at once: one text past a full cache
	// leaves the newest cap/2 − 1 and itself.
	var sc stmtCache
	for i := 0; i <= stmtCacheCap; i++ {
		st, err := Parse(fmt.Sprintf("SELECT %d", i))
		if err != nil {
			t.Fatal(err)
		}
		sc.entry(st)
	}
	if len(sc.entries) != stmtCacheCap/2 {
		t.Errorf("%d texts after one eviction, want %d", len(sc.entries), stmtCacheCap/2)
	}
}

// TestPreparedDMLCompilesPerContext: a prepared write keeps its compiled
// forms like a query does — one per (scope, schema generation) it ran under,
// each applied to its own D′ — and DDL between two executions recompiles it.
func TestPreparedDMLCompilesPerContext(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	admin, c0, c1 := connFor(t, srv, 99), connFor(t, srv, 0), connFor(t, srv, 1)
	if _, err := c1.Exec("GRANT UPDATE ON Employees TO 0"); err != nil {
		t.Fatal(err)
	}
	ages := func(c *Conn) int64 {
		t.Helper()
		res, err := c.Query("SELECT SUM(E_age) AS s FROM Employees")
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].AsInt()
	}
	own0, own1 := ages(c0), ages(c1)
	delta := func(want0, want1 int64) {
		t.Helper()
		if got0, got1 := ages(c0)-own0, ages(c1)-own1; got0 != want0 || got1 != want1 {
			t.Fatalf("ages moved by %d (tenant 0) and %d (tenant 1), want %d and %d", got0, got1, want0, want1)
		}
	}
	counters := func(f func()) (hits, misses int64) {
		h0, m0 := srv.RewriteCacheStats()
		f()
		h, m := srv.RewriteCacheStats()
		return h - h0, m - m0
	}

	up, err := c0.Prepare("UPDATE Employees SET E_age = E_age + ?")
	if err != nil {
		t.Fatal(err)
	}
	run := func(st *Stmt, wantAffected int, args ...any) {
		t.Helper()
		res, err := st.Exec(args...)
		if err != nil {
			t.Fatal(err)
		}
		if res.Affected != wantAffected {
			t.Fatalf("%s affected %d rows, want %d", st.SQL(), res.Affected, wantAffected)
		}
	}
	hits, misses := counters(func() {
		run(up, 3, 1) // default scope {0}
		if _, err := c0.Exec(`SET SCOPE = "IN (0, 1)"`); err != nil {
			t.Fatal(err)
		}
		run(up, 6, 10) // both tenants
		if _, err := c0.Exec(`SET SCOPE = "IN (0)"`); err != nil {
			t.Fatal(err)
		}
		run(up, 3, 100) // the first form again
	})
	if hits != 1 || misses != 2 {
		t.Errorf("prepared UPDATE under two scopes: %d hits / %d misses, want 1 / 2", hits, misses)
	}
	delta(3*111, 3*10)

	ins, err := c0.Prepare("INSERT INTO Roles VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	hits, misses = counters(func() {
		run(ins, 1, 70, "clerk")
		run(ins, 1, 71, "auditor")
		if _, err := admin.Exec("CREATE TABLE Scratch (x INTEGER)"); err != nil {
			t.Fatal(err)
		}
		run(ins, 1, 72, "janitor")
	})
	if hits != 1 || misses != 2 {
		t.Errorf("prepared INSERT across DDL: %d hits / %d misses, want 1 / 2", hits, misses)
	}
	res, err := c0.Query("SELECT COUNT(*) AS n FROM Roles WHERE R_role_id >= 70")
	if err != nil || res.Rows[0][0].AsInt() != 3 {
		t.Fatalf("prepared INSERTs landed %v rows (%v), want 3", res, err)
	}

	// The same texts unprepared compile through the same function, unstored.
	hits, misses = counters(func() {
		if _, err := c0.Exec("UPDATE Employees SET E_age = E_age + 0 WHERE E_age < 0"); err != nil {
			t.Fatal(err)
		}
	})
	if hits != 0 || misses != 0 {
		t.Errorf("unprepared DML touched the cache: %d hits / %d misses", hits, misses)
	}
}
