package engine_test

import (
	"testing"

	"mtbase/internal/engine"
	"mtbase/internal/mth"
	"mtbase/internal/optimizer"
)

// TestJoinRowWidth pins what a join chain's rows hold (DESIGN.md ADR-044):
// for MT-H queries as o4 rewrites them, the chain's rows are allocated at
// exactly the width they fill — the columns read above the join that writes
// them — which is a fraction of the width of the chain's sources, the width
// a chain that kept every column would allocate. Under a memory limit there
// is no dimension (ADR-034): the chain stays per member, and a member's row
// keeps the keys of the members after it.
func TestJoinRowWidth(t *testing.T) {
	a := newFuzzArms(t)
	defer a.reset()
	for _, tc := range []struct{ id, width, capped, sources int }{
		{3, 9, 9, 36},
		{10, 20, 30, 62},
		{18, 13, 16, 48},
		{22, 10, 20, 31}, // the chain of the derived table custsale
	} {
		q := mth.Queries(0.001)[tc.id-1]
		a.conn.SetOptLevel(optimizer.O4)
		sel, err := a.conn.RewriteSQL(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		p, err := a.db.PreparePlan(sel.String())
		if err != nil {
			t.Fatal(err)
		}
		for _, limit := range []int64{0, 64 << 10} {
			a.db.SetMemoryLimit(limit)
			want := tc.width
			if limit > 0 {
				want = tc.capped
			}
			capacity, width, sources, ok, err := engine.ChainRowWidth(a.db, p)
			if err != nil || !ok {
				t.Fatalf("Q%d: no join chain (%v)", tc.id, err)
			}
			if capacity != width || width != want || sources != tc.sources {
				t.Errorf("Q%d limit %d: rows of capacity %d and width %d over sources %d wide, want %d of %d", tc.id, limit, capacity, width, sources, want, tc.sources)
			}
		}
	}
}
