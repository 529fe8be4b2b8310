package mth

import (
	"testing"

	"mtbase/internal/engine"
	"mtbase/internal/optimizer"
)

// TestRewriteDeterministic: the same MTSQL must rewrite to the same SQL
// text on every call — o3's partial aggregation once emitted its inner
// select list in map order, so the text (and with it the engine plan-cache
// key) changed from call to call. Every MT-H query at every level, under the
// all-tenant scope and the default one, is rewritten afresh (RewriteSQL
// bypasses the middleware's statement cache) ten times and the texts
// compared. Re-preparing the text must hit the plan the first prepare cached.
func TestRewriteDeterministic(t *testing.T) {
	inst := paramInstance(t)
	db := inst.Srv.DB()
	for _, scope := range []string{"IN ()", ""} {
		conn, err := inst.Connect(1, scope)
		if err != nil {
			t.Fatal(err)
		}
		for _, level := range optimizer.Levels {
			conn.SetOptLevel(level)
			for _, q := range Queries(inst.Cfg.SF) {
				_, err := q.Run(func(sql string) (*engine.Result, error) {
					if sql != q.SQL {
						return conn.Exec(sql) // Q15's view
					}
					var first string
					for i := 0; i < 10; i++ {
						sel, err := conn.RewriteSQL(sql)
						if err != nil {
							t.Fatalf("scope=%q level=%v Q%d: %v", scope, level, q.ID, err)
						}
						if txt := sel.String(); i == 0 {
							first = txt
							if _, err := db.PreparePlan(txt); err != nil {
								t.Fatalf("scope=%q level=%v Q%d prepare: %v", scope, level, q.ID, err)
							}
						} else if txt != first {
							t.Fatalf("scope=%q level=%v Q%d: rewrite %d differs from rewrite 0:\n%s\nvs\n%s", scope, level, q.ID, i, txt, first)
						}
					}
					before := db.Stats.Snapshot().PlanCacheHits
					if _, err := db.PreparePlan(first); err != nil {
						t.Fatal(err)
					}
					if hits := db.Stats.Snapshot().PlanCacheHits - before; hits != 1 {
						t.Errorf("scope=%q level=%v Q%d: re-preparing the rewritten text made %d plan-cache hits, want 1", scope, level, q.ID, hits)
					}
					return nil, nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}
