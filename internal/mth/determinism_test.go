package mth

import (
	"testing"

	"mtbase/internal/optimizer"
)

// TestRewriteDeterministic: the same MTSQL must rewrite to the same SQL
// text on every call — o3's partial aggregation once emitted its inner
// select list in map order, so the text (and with it the engine plan-cache
// key) changed from call to call. RewriteSQL bypasses the middleware's
// rewrite cache, so every iteration is a fresh rewrite; re-preparing a fresh
// rewrite must hit the plan the first one cached.
func TestRewriteDeterministic(t *testing.T) {
	inst := paramInstance(t)
	conn, err := inst.Connect(1, "IN ()")
	if err != nil {
		t.Fatal(err)
	}
	db := inst.Srv.DB()
	for _, level := range []optimizer.Level{optimizer.O3, optimizer.O4} {
		conn.SetOptLevel(level)
		for _, id := range []int{1, 5} {
			q, err := QueryByID(0.002, id)
			if err != nil {
				t.Fatal(err)
			}
			var first string
			for i := 0; i < 100; i++ {
				sel, err := conn.RewriteSQL(q.SQL)
				if err != nil {
					t.Fatalf("level=%v Q%d: %v", level, id, err)
				}
				if txt := sel.String(); i == 0 {
					first = txt
					if _, err := db.PreparePlan(txt); err != nil {
						t.Fatalf("level=%v Q%d prepare: %v", level, id, err)
					}
				} else if txt != first {
					t.Fatalf("level=%v Q%d: rewrite %d differs from rewrite 0:\n%s\nvs\n%s", level, id, i, txt, first)
				}
			}
			before := db.Stats.Snapshot().PlanCacheHits
			sel, err := conn.RewriteSQL(q.SQL)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.PreparePlan(sel.String()); err != nil {
				t.Fatal(err)
			}
			if hits := db.Stats.Snapshot().PlanCacheHits - before; hits != 1 {
				t.Errorf("level=%v Q%d: re-preparing the rewritten text made %d plan-cache hits, want 1", level, id, hits)
			}
		}
	}
}
