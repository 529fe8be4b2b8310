package mth

import (
	"context"
	"slices"
	"testing"

	"mtbase/internal/engine"
	"mtbase/internal/optimizer"
)

// TestSharedExprCensus pins, by name, what each MT-H query shares at the two
// ends of the ladder (DESIGN.md ADR-023), so that a lost sharing fails a test
// and not a benchmark. Canonical Q1 is the case the mechanism was sized on:
// the rewrite wrote one conversion chain four times — three occurrences the
// lowering reaches plus one inside the product that is itself written twice —
// and it runs once per row. Q14 is the CASE shape, where the first site
// reaches the product for the promo rows only and the second for all. Q19's
// three OR arms repeat the conjuncts the optimizer also factors out. Equal
// aggregate sites fold where o3 split AVG and SUM over one argument (o4 Q1)
// and where HAVING repeats the select list (Q11). Everything else shares
// nothing — Q8's CASE is over a derived table's bare column, a leaf — and a
// query that is missing here shares nothing at either level.
func TestSharedExprCensus(t *testing.T) {
	const conv = "currencyFromUniversal(currencyToUniversal(l_extendedprice, lineitem.ttid), 1)"
	q19 := []string{
		"filter: 3x (p_partkey = l_partkey)",
		"filter: 3x l_shipmode IN ('AIR', 'REG AIR')",
		"filter: 3x (l_shipinstruct = 'DELIVER IN PERSON')",
	}
	want := map[optimizer.Level]map[int][]string{
		optimizer.Canonical: {
			1:  {"group: 3x " + conv, "group: 2x (" + conv + " * (1 - l_discount))"},
			11: {"group: 1 equal aggregate sites folded"},
			14: {"group: 2x (" + conv + " * (1 - l_discount))"},
			19: q19,
		},
		optimizer.O4: {
			1:  {"group: 2x (l_extendedprice * (1 - l_discount))", "group: 2 equal aggregate sites folded"},
			11: {"group: 1 equal aggregate sites folded"},
			14: {"group: 2x ((mt_inl4.CT_from_universal * (mt_inl2.CT_to_universal * l_extendedprice)) * (1 - l_discount))"},
			19: q19,
		},
	}

	cfg := Config{SF: 0.002, Tenants: 10, Dist: Uniform, Seed: 1, Mode: engine.ModePostgres}
	inst, err := LoadMT(Generate(cfg))
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
		for _, q := range Queries(cfg.SF) {
			// The engine's plan of the statement this level hands it, read once
			// it ran and before the query's teardown drops what it names.
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
			if got := plan.SharedExprs(); !slices.Equal(got, want[level][q.ID]) {
				t.Errorf("%s Q%d shares\n     %q\nwant %q", level, q.ID, got, want[level][q.ID])
			}
		}
	}
}
