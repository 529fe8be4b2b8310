package mth

// Allocation budgets for the join pipeline (DESIGN.md ADR-011): the o4
// texts of the three MT-H queries whose cost was re-copying join rows must
// stay within a fixed number of heap bytes per execution. The budgets sit
// 10 % above what the one-materialization chain allocates with its tail of
// conversion tables pre-joined (ADR-034). That pre-join also shortened the
// chains the per-level copy paid for: with the chain's reserved tail off
// (each join's rows allocated at its own width) Q18 allocates 1.93 MB and
// Q22 1.11 MB, inside their budgets, and Q10 3.44 MB, 1.4x its budget — Q10
// is the row that fails if the copy creeps back. Q3 and Q8 hold the index
// path of the join (ADR-022) the same way: a transient build of a filtered
// base table cannot creep back.

import (
	"runtime"
	"testing"

	"mtbase/internal/engine"
	"mtbase/internal/optimizer"
)

// allocBudget is one MT-H query — at o4, or at level canonical — and what
// one execution of it may allocate: bytes, and heap objects where objects is
// set.
type allocBudget struct {
	id        int
	budget    uint64
	objects   uint64
	canonical bool
}

func TestJoinAllocBudget(t *testing.T) {
	checkAllocBudgets(t, []allocBudget{
		// Measured under -race, where sync.Pool drops a random quarter of what
		// it is handed, so a run re-allocates up to three of the statement's
		// pooled scratch blocks: the highest of 40 such runs + 10 %.
		{id: 18, budget: 2_325_000}, // here 1.84–2.11 MB, per-level copy 1.93 MB
		{id: 22, budget: 1_375_000}, // here 1.04–1.25 MB (1.41 per member), per-level copy 1.11 MB
		{id: 10, budget: 2_525_000}, // here 2.03–2.29 MB (1.72 per member: 250 nation-by-tenant rows pre-joined), per-level copy 3.44 MB: the copy's gate
		// No BENCHMARK.json workload runs a LEFT JOIN; this row is the gate on
		// the outer kind of the one hash join (ADR-014): the twin operator it
		// replaced allocated 3.62 MB here, pinned at that + 10 %.
		{id: 13, budget: 3_985_000}, // here 3.3 MB: orders is probed through its persistent index
		// The joins that probe an index through their build side's filters
		// (ADR-022), budgets the measured level + 10 %. Q3 here 1.11 MB in
		// 834 objects; scanning, filtering and hashing orders and lineitem
		// per statement 2.33 MB in 14 364. Q8 here 56 KB in 817; 659 KB in 2 909.
		{id: 3, budget: 1_222_000, objects: 920},
		{id: 8, budget: 61_500, objects: 900},
	})
}

// TestGroupAllocBudget holds the streaming hash aggregate (DESIGN.md
// ADR-021) by a count: the grouped projection keeps one accumulator per
// group and aggregate site, not each group's rows, so Q1 (4 groups over
// every lineitem row, 8 sites) and Q18 (one small group per order, under
// HAVING) stop paying a key string, a row slice and a context per group and
// a column per group and site. Budgets are the measured level + 10 %.
func TestGroupAllocBudget(t *testing.T) {
	checkAllocBudgets(t, []allocBudget{
		// here 1.16 MB in 1 256 objects; row-keeping groups 1.50 MB in 13 602
		{id: 1, budget: 1_280_000, objects: 1_400},
		// here 2.20 MB in 3 962 objects; row-keeping groups 2.22 MB in 27 938
		{id: 18, budget: 2_425_000, objects: 4_400},
		// Canonical Q1 is the conversion-call path (ADR-037, ADR-038): here
		// 1.91 MB in 310 objects, the result caches one table each, sized at
		// their plan's last execution; 3.72 MB in 469 with a Go map per cache
		// grown from empty, 6.33 MB in 21 035 with a string key per body
		// execution. Under -race, where sync.Pool drops the statement's
		// scratch stack at random, a run re-allocates it (+0.44 MB a run):
		// the budget is all three runs doing so, 2.37 MB in 323, + 10 %.
		{id: 1, canonical: true, budget: 2_602_000, objects: 356},
	})
}

func checkAllocBudgets(t *testing.T, budgets []allocBudget) {
	cfg := Config{SF: 0.002, Tenants: 10, Dist: Uniform, Seed: 1, Mode: engine.ModePostgres}
	inst, err := LoadMT(Generate(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.GrantReadTo(1); err != nil {
		t.Fatal(err)
	}
	conn, err := inst.Connect(1, "IN ()")
	if err != nil {
		t.Fatal(err)
	}
	// Serial and uncapped (MTBASE_TEST_MEMLIMIT must not reach in): spill
	// buffers and per-worker programs are not what these tests budget.
	db := inst.Srv.DB()
	db.SetParallelism(1)
	db.SetMemoryLimit(0)

	for _, tc := range budgets {
		q, err := QueryByID(cfg.SF, tc.id)
		if err != nil {
			t.Fatal(err)
		}
		level := optimizer.O4
		if tc.canonical {
			level = optimizer.Canonical
		}
		conn.SetOptLevel(level)
		if _, err := RunOnMT(conn, q); err != nil { // warm the statement caches
			t.Fatalf("Q%d: %v", tc.id, err)
		}
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := RunOnMT(conn, q); err != nil {
				t.Fatalf("Q%d: %v", tc.id, err)
			}
		}
		runtime.ReadMemStats(&after)
		got, objects := (after.TotalAlloc-before.TotalAlloc)/runs, (after.Mallocs-before.Mallocs)/runs
		t.Logf("Q%d %s: %d bytes in %d objects per execution (budget %d, %d)", tc.id, level, got, objects, tc.budget, tc.objects)
		if got > tc.budget {
			t.Errorf("Q%d %s allocates %d bytes per execution, budget %d", tc.id, level, got, tc.budget)
		}
		if tc.objects > 0 && objects > tc.objects {
			t.Errorf("Q%d %s allocates %d objects per execution, budget %d", tc.id, level, objects, tc.objects)
		}
	}
}
