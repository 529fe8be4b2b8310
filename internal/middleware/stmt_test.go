package middleware

// Tests for the middleware prepared-statement API: bind parameters flow
// through the canonical rewrite untouched, the rewrite cache and engine
// plan cache are shared across bindings of one parameterized text, Query
// rejects non-SELECT statements, and prepared execution matches the
// literal-inlined equivalent in both compile modes.

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"mtbase/internal/engine"
)

func grantCross(t *testing.T, srv *Server) (alpha, beta *Conn) {
	t.Helper()
	var err error
	alpha, err = srv.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	beta, err = srv.Connect(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := beta.Exec(`GRANT READ ON DATABASE TO 0`); err != nil {
		t.Fatal(err)
	}
	if _, err := alpha.Exec(`SET SCOPE = "IN ()"`); err != nil {
		t.Fatal(err)
	}
	return alpha, beta
}

func TestQueryRejectsNonSelect(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	c, err := srv.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Query(`INSERT INTO Roles (R_role_id, R_name) VALUES (9, 'x')`)
	if err == nil || !strings.Contains(err.Error(), "not a query") {
		t.Fatalf("Query must reject DML, got %v", err)
	}
	_, err = c.Query(`SET SCOPE = "IN ()"`)
	if err == nil || !strings.Contains(err.Error(), "not a query") {
		t.Fatalf("Query must reject session statements, got %v", err)
	}
	// Exec still handles DML.
	if _, err := c.Exec(`INSERT INTO Roles (R_role_id, R_name) VALUES (9, 'x')`); err != nil {
		t.Fatal(err)
	}
}

func TestPreparedMatchesInlined(t *testing.T) {
	for _, mode := range []engine.Mode{engine.ModePostgres, engine.ModeSystemC} {
		for _, compiled := range []bool{true, false} {
			srv := newExample(t, mode)
			srv.DB().SetCompileExprs(compiled)
			alpha, _ := grantCross(t, srv)

			st, err := alpha.Prepare(`SELECT E_name, E_salary FROM Employees WHERE E_age >= ? ORDER BY E_name`)
			if err != nil {
				t.Fatal(err)
			}
			if st.NumParams() != 1 {
				t.Fatalf("NumParams = %d", st.NumParams())
			}
			for _, age := range []int{25, 30, 46, 100} {
				got, err := st.QueryResult(age)
				if err != nil {
					t.Fatalf("mode=%v compiled=%v age=%d: %v", mode, compiled, age, err)
				}
				want, err := alpha.Query(
					strings.Replace(`SELECT E_name, E_salary FROM Employees WHERE E_age >= ? ORDER BY E_name`,
						"?", strconv.Itoa(age), 1))
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Rows) != len(want.Rows) {
					t.Fatalf("mode=%v compiled=%v age=%d: %d rows vs %d", mode, compiled, age, len(got.Rows), len(want.Rows))
				}
				for i := range got.Rows {
					for j := range got.Rows[i] {
						if got.Rows[i][j].String() != want.Rows[i][j].String() {
							t.Fatalf("row %d col %d: %v vs %v", i, j, got.Rows[i][j], want.Rows[i][j])
						}
					}
				}
			}
		}
	}
}

// TestPreparedSharesCaches: 100 distinct bindings of one parameterized text
// produce one rewrite-cache miss and >= 99 engine plan-cache hits — the
// headline behaviour this API exists for.
func TestPreparedSharesCaches(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	alpha, _ := grantCross(t, srv)
	st, err := alpha.Prepare(`SELECT COUNT(*) AS n FROM Employees WHERE E_salary > ?`)
	if err != nil {
		t.Fatal(err)
	}
	db := srv.DB()
	db.Stats = engine.Stats{}
	srv.cache.hits, srv.cache.misses = 0, 0
	for i := 0; i < 100; i++ {
		res, err := st.QueryResult(1000 * i)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("iteration %d: %d rows", i, len(res.Rows))
		}
	}
	if db.Stats.PlanCacheHits.Load() < 99 {
		t.Fatalf("engine plan-cache hits = %d of 100, want >= 99 (misses %d)",
			db.Stats.PlanCacheHits.Load(), db.Stats.PlanCacheMisses.Load())
	}
	hits, misses := srv.RewriteCacheStats()
	if misses != 1 || hits != 99 {
		t.Fatalf("rewrite cache hits/misses = %d/%d, want 99/1", hits, misses)
	}
}

// TestPreparedDML: binds flow through the per-tenant DML rewrite.
func TestPreparedDML(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	c, err := srv.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Prepare(`UPDATE Employees SET E_salary = E_salary + ? WHERE E_name = ?`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Exec(1000, "John")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Fatalf("affected %d", res.Affected)
	}
	got, err := c.Query(`SELECT E_salary FROM Employees WHERE E_name = 'John'`)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows[0][0].AsFloat() != 71000 {
		t.Fatalf("salary after prepared update = %v", got.Rows[0][0])
	}
	// DDL cannot be prepared.
	if _, err := c.Prepare(`CREATE TABLE nope (x INTEGER)`); err == nil {
		t.Fatal("Prepare must reject DDL")
	}
}

// TestPreparedRowsStreaming: the cursor API works through the middleware,
// with context cancellation honoured.
func TestPreparedRowsStreaming(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	alpha, _ := grantCross(t, srv)
	st, err := alpha.Prepare(`SELECT E_name FROM Employees WHERE E_age < ?`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.Query(50)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for rows.Next() {
		var name string
		if err := rows.Scan(&name); err != nil {
			t.Fatal(err)
		}
		names[name] = true
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	// Everyone but Nancy (72).
	if len(names) != 5 || names["Nancy"] {
		t.Fatalf("names = %v", names)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.QueryContext(ctx, 50); err == nil {
		t.Fatal("cancelled context must abort prepared query")
	}
}

// TestBindValueConversion covers the middleware's Go-value bind bridge.
func TestBindValueConversion(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	c, err := srv.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(`SELECT E_name FROM Employees WHERE E_salary > ? AND E_age < ?`, 60000.0, int64(40))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsString() != "John" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if _, err := c.Query(`SELECT E_name FROM Employees WHERE E_age < ?`, struct{}{}); err == nil {
		t.Fatal("unsupported bind type must error")
	}
	res, err = c.Query(`SELECT COUNT(*) AS n FROM Employees WHERE E_age > ?`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 0 {
		t.Fatalf("NULL bind comparison should match nothing, got %v", res.Rows[0][0])
	}
}
