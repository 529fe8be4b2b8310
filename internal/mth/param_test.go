package mth

// Acceptance tests for the prepared-statement API on the MT-H workload:
// parameterized Q1/Q6/Q22 executed with distinct bindings must (a) be
// byte-identical to their literal-inlined forms in both compile modes, (b)
// hit the engine plan cache on effectively every execution, and (c) return
// the same rows through the streaming cursor as through the materialized
// result.

import (
	"strings"
	"testing"

	"mtbase/internal/engine"
)

func paramInstance(t *testing.T) *Instance {
	t.Helper()
	inst, err := BuildMT(Config{SF: 0.002, Tenants: 3, Dist: Uniform, Seed: 42, Mode: engine.ModePostgres})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.GrantReadTo(1); err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestParamQueriesMatchInlined(t *testing.T) {
	inst := paramInstance(t)
	conn, err := inst.Connect(1, "IN ()")
	if err != nil {
		t.Fatal(err)
	}
	db := inst.Srv.DB()
	for _, pq := range ParamQueries() {
		st, err := conn.Prepare(pq.SQL)
		if err != nil {
			t.Fatalf("Q%d prepare: %v", pq.ID, err)
		}
		for _, compiled := range []bool{true, false} {
			db.SetCompileExprs(compiled)
			for i := 0; i < 3; i++ {
				got, err := st.QueryResult(pq.Args(i)...)
				if err != nil {
					t.Fatalf("Q%d binding %d compiled=%v: %v", pq.ID, i, compiled, err)
				}
				want, err := conn.Query(pq.Inlined(i))
				if err != nil {
					t.Fatalf("Q%d inlined %d compiled=%v: %v", pq.ID, i, compiled, err)
				}
				gk := strings.Join(canonicalRows(got), "\n")
				wk := strings.Join(canonicalRows(want), "\n")
				if gk != wk {
					t.Fatalf("Q%d binding %d compiled=%v: parameterized differs from inlined\n%s\nvs\n%s",
						pq.ID, i, compiled, gk, wk)
				}
			}
		}
		db.SetCompileExprs(true)
	}
}

// TestParamQ1PlanCacheHitRate is the acceptance criterion: a parameterized
// Q1 executed 100× with distinct bindings shows >= 99/100 engine plan-cache
// hits, where the literal-inlined forms would miss every time.
func TestParamQ1PlanCacheHitRate(t *testing.T) {
	inst := paramInstance(t)
	conn, err := inst.Connect(1, "IN ()")
	if err != nil {
		t.Fatal(err)
	}
	pq, err := ParamQueryByID(1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := conn.Prepare(pq.SQL)
	if err != nil {
		t.Fatal(err)
	}
	db := inst.Srv.DB()
	db.Stats = engine.Stats{}
	for i := 0; i < 100; i++ {
		if _, err := st.QueryResult(pq.Args(i)...); err != nil {
			t.Fatalf("binding %d: %v", i, err)
		}
	}
	if db.Stats.PlanCacheHits.Load() < 99 {
		t.Fatalf("parameterized Q1 plan-cache hits = %d of 100, want >= 99 (misses %d)",
			db.Stats.PlanCacheHits.Load(), db.Stats.PlanCacheMisses.Load())
	}

	// The same 100 executions inlined as literals: every distinct text is a
	// cold plan, the regression this API fixes.
	db.Stats = engine.Stats{}
	for i := 0; i < 5; i++ {
		if _, err := conn.Query(pq.Inlined(i)); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats.PlanCacheHits.Load() != 0 {
		t.Fatalf("distinct inlined texts should never hit, got %d hits", db.Stats.PlanCacheHits.Load())
	}
}

// TestParamQueryRowsCursor: the streaming cursor over a parameterized MT-H
// query returns exactly the rows of the materialized result.
func TestParamQueryRowsCursor(t *testing.T) {
	inst := paramInstance(t)
	conn, err := inst.Connect(1, "IN ()")
	if err != nil {
		t.Fatal(err)
	}
	pq, err := ParamQueryByID(6)
	if err != nil {
		t.Fatal(err)
	}
	st, err := conn.Prepare(pq.SQL)
	if err != nil {
		t.Fatal(err)
	}
	want, err := st.QueryResult(pq.Args(0)...)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.Query(pq.Args(0)...)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]string
	for rows.Next() {
		row := rows.Row()
		out := make([]string, len(row))
		for j, v := range row {
			out[j] = v.String()
		}
		got = append(got, out)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Rows) {
		t.Fatalf("cursor rows %d vs result rows %d", len(got), len(want.Rows))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want.Rows[i][j].String() {
				t.Fatalf("row %d col %d: %s vs %s", i, j, got[i][j], want.Rows[i][j])
			}
		}
	}
}
