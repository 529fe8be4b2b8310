package mth

// Allocation budgets for the join pipeline (DESIGN.md ADR-011): the o4
// texts of the three MT-H queries whose cost was re-copying join rows must
// stay within a fixed number of heap bytes per execution. The budgets sit
// 10 % above what the one-materialization chain allocates with its tail of
// conversion tables pre-joined (ADR-034). That pre-join also shortened the
// chains the per-level copy paid for: with the chain's reserved tail off
// (each join's rows allocated at its own width) Q18 allocates 1.76 MB and
// Q22 0.58 MB, inside the budgets they had then, and Q10 2.77 MB, 1.35x its
// budget then — Q10 is the row that fails if the copy creeps back. Q3 and Q8 hold the index
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
		// Budgets are the highest of 40 runs under -race + 10 %, the scratch
		// stacks counted apart (checkAllocBudgets). Counted in, a run whose
		// stack the pool dropped read up to 0.66 MB on Q3, and one run in 20
		// to 40 failed its row. A chain's rows hold only the columns read
		// above each join (ADR-044): before, Q18 1.84–2.11 MB, Q22 1.04–1.25
		// MB, Q10 2.03–2.29 MB. A base table binds its column names once
		// (ADR-045): before, Q18 847–854 objects, Q22 2 568–2 576, Q10
		// 1 909–1 915, Q13 330–336, Q3 464–468, Q8 763–764. A comparison with
		// a row-free operand filters in place (ADR-046): before, serial and
		// without -race, Q18 1.72 MB, Q22 0.51 MB, Q10 1.43 MB, Q13 3.09 MB,
		// Q3 0.43 MB, Q8 46 KB. Re-measured after ADR-047 (shared aggregate
		// sites, operands read in place): no row's highest reading + 10 % is
		// more than 10 % under its budget, so these kept theirs. A binOp
		// lowers an operand closure a side, and a cell a row-free one: 5 to
		// 23 objects more an execution.
		{id: 18, budget: 1_833_000, objects: 905},   // here 1.67 MB in 827 objects
		{id: 22, budget: 543_000, objects: 2_740},   // here 0.48 MB in 2 513
		{id: 10, budget: 1_578_000, objects: 2_014}, // here 1.43 MB in 1 839 (250 nation-by-tenant rows pre-joined)
		// No BENCHMARK.json workload runs a LEFT JOIN; this row is the gate on
		// the outer kind of the one hash join (ADR-014): the twin operator it
		// replaced allocated 3.62 MB here. Here 3.11 MB in 323–324 objects:
		// orders is probed through its persistent index.
		{id: 13, budget: 3_560_000, objects: 363},
		// The joins that probe an index through their build side's filters
		// (ADR-022). Q3 here 0.37 MB in 463 objects (1.11 MB in 834 with
		// whole chain rows and Go-map keys); scanning, filtering and hashing
		// orders and lineitem per statement 2.33 MB in 14 364. Q8 here 47.2 KB
		// in 742 (56 KB in 817 before ADR-044); 659 KB in 2 909.
		{id: 3, budget: 406_000, objects: 510},
		{id: 8, budget: 54_100, objects: 799},
	})
}

// TestGroupAllocBudget holds the streaming hash aggregate (DESIGN.md
// ADR-021) by a count: the grouped projection keeps one accumulator per
// group and aggregate site, not each group's rows, so Q1 (4 groups over
// every lineitem row, 6 sites since ADR-047) and Q18 (one small group per
// order, under HAVING) stop paying a key string, a row slice and a context
// per group and a column per group and site; since ADR-044 a group's key is
// bytes in one pointer-free table, not a Go string in a map. Budgets are the
// highest of 40 runs under -race + 10 %, the scratch stacks counted apart.
func TestGroupAllocBudget(t *testing.T) {
	checkAllocBudgets(t, []allocBudget{
		// here 0.52 MB in 443 objects, six sites of eleven calls (ADR-047:
		// 0.69 MB in 432 with nine sites, budget 758 000); 0.70 MB serial
		// without -race before ADR-046; Go-map keys 1.16 MB in 1 256;
		// row-keeping groups 1.50 MB in 13 602
		{id: 1, budget: 571_000, objects: 481},
		// here 1.67 MB in 827 objects; Go-map keys 2.20 MB in 3 962;
		// row-keeping groups 2.22 MB in 27 938
		{id: 18, budget: 1_833_000, objects: 905},
		// Canonical Q1 is the conversion-call path (ADR-037, ADR-045): here
		// 0.58 MB in 277 objects serial, the result caches the emptied tables
		// the plan's last execution handed back; 1.89 MB in 280 with each
		// statement's tables made afresh at the size the last one grew to,
		// 3.72 MB in 469 with a Go map per cache grown from empty, 6.33 MB in
		// 21 035 with a string key per body execution. Under -race, 0.56 MB
		// in 285–287 (0.58 MB serial without -race before ADR-046); with the
		// scratch stack counted in, a run whose stack the pool dropped
		// re-allocated it (+0.44 MB a run). Six sites of eight calls
		// (ADR-047): 0.47 MB in 293 under -race, budget 617 000 before.
		{id: 1, canonical: true, budget: 517_000, objects: 319},
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
		sb, so := engine.ScratchGrowth()
		for i := 0; i < runs; i++ {
			if _, err := RunOnMT(conn, q); err != nil {
				t.Fatalf("Q%d: %v", tc.id, err)
			}
		}
		runtime.ReadMemStats(&after)
		// A scratch stack the pool dropped is grown afresh by the statement
		// after: counted apart, as no run of the plan decides it.
		sa, oa := engine.ScratchGrowth()
		scratch, scratchObjs := uint64(sa-sb), uint64(oa-so)
		got := (after.TotalAlloc - before.TotalAlloc - scratch) / runs
		objects := (after.Mallocs - before.Mallocs - scratchObjs) / runs
		t.Logf("Q%d %s: %d bytes in %d objects per execution (budget %d, %d), and %d bytes in %d objects of scratch stack grown", tc.id, level, got, objects, tc.budget, tc.objects, scratch, scratchObjs)
		if got > tc.budget {
			t.Errorf("Q%d %s allocates %d bytes per execution, budget %d", tc.id, level, got, tc.budget)
		}
		if tc.objects > 0 && objects > tc.objects {
			t.Errorf("Q%d %s allocates %d objects per execution, budget %d", tc.id, level, objects, tc.objects)
		}
	}
}
