package engine_test

import (
	"context"
	"slices"
	"testing"

	"mtbase/internal/engine"
	"mtbase/internal/mth"
	"mtbase/internal/optimizer"
)

// TestAggregateSiteCensus pins, per MT-H query and block, how many
// accumulator sites each grouped projection folds and for how many aggregate
// calls (DESIGN.md ADR-047): SUM, AVG and COUNT of one argument are one site,
// so o3's split of every AVG into SUM and COUNT partials costs a fold per
// argument, not per call — o4's Q1 folds 6 sites for its 11 calls (9 when
// only equal calls shared a site), and Q22's scalar subquery 1 for 2. A query
// missing here has no grouped projection at that level.
func TestAggregateSiteCensus(t *testing.T) {
	one, two := []string{"1 / 1"}, []string{"2 / 2"}
	want := map[optimizer.Level]map[int][]string{
		optimizer.Canonical: {
			1: {"6 / 8"}, // 8 / 8 with equal calls alone sharing
			3: one, 4: one, 5: one, 6: one, 7: one, 8: two, 9: one, 10: one,
			11: {"1 / 2"}, 12: two, 13: {"1 / 1", "1 / 1"}, 14: two, 15: one, 16: one,
			17: one, 18: {"1 / 1", "1 / 1"}, 19: one, 20: one, 21: one, 22: {"2 / 2", "1 / 1"},
		},
		optimizer.O4: {
			1: {"11 / 11", "6 / 11"}, // the inner block 9 / 11
			3: {"1 / 1", "1 / 1"}, 4: one, 5: {"1 / 1", "1 / 1"}, 6: {"1 / 1", "1 / 1"}, 7: one, 8: two, 9: one,
			10: {"1 / 1", "1 / 1"}, 11: {"1 / 2"}, 12: two, 13: {"1 / 1", "1 / 1"}, 14: two, 15: one, 16: one,
			17: {"1 / 1", "1 / 1"}, 18: {"1 / 1", "1 / 1"}, 19: {"1 / 1", "1 / 1"}, 20: one, 21: one,
			22: {"2 / 2", "2 / 2", "1 / 2"}, // the scalar subquery 2 / 2
		},
	}
	cfg := mth.Config{SF: 0.002, Tenants: 10, Dist: mth.Uniform, Seed: 1, Mode: engine.ModePostgres}
	inst, err := mth.LoadMT(mth.Generate(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.GrantReadTo(1); err != nil {
		t.Fatal(err)
	}
	db := inst.Srv.DB()
	conn, err := inst.Connect(1, "IN ()")
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []optimizer.Level{optimizer.Canonical, optimizer.O4} {
		conn.SetOptLevel(level)
		for _, q := range mth.Queries(cfg.SF) {
			var plan *engine.Plan
			_, err := q.Run(func(sql string) (*engine.Result, error) {
				if sql != q.SQL {
					return conn.Exec(sql)
				}
				rewritten, err := conn.RewriteSQL(sql)
				if err == nil {
					plan, err = db.PrepareStatement(rewritten)
				}
				if err != nil {
					return nil, err
				}
				return db.ExecPlanContext(context.Background(), plan)
			})
			if err != nil {
				t.Fatalf("%s Q%d: %v", level, q.ID, err)
			}
			if got := engine.AggregateSites(plan); !slices.Equal(got, want[level][q.ID]) {
				t.Errorf("%s Q%d folds\n     %q\nwant %q", level, q.ID, got, want[level][q.ID])
			}
		}
	}
}
