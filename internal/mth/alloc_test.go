package mth

// Allocation budgets for the join pipeline (DESIGN.md ADR-011): the o4
// texts of the three MT-H queries whose cost was re-copying join rows must
// stay within a fixed number of heap bytes per execution. The budgets sit
// 1.6x above what the one-materialization chain allocates and 1.8x-30x
// below what the per-level copy allocated, so the copy cannot creep back
// unnoticed.

import (
	"runtime"
	"testing"

	"mtbase/internal/engine"
	"mtbase/internal/optimizer"
)

func TestJoinAllocBudget(t *testing.T) {
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
	conn.SetOptLevel(optimizer.O4)
	// Serial and uncapped (MTBASE_TEST_MEMLIMIT must not reach in): spill
	// buffers and per-worker programs are not what this test budgets.
	db := inst.Srv.DB()
	db.SetParallelism(1)
	db.SetMemoryLimit(0)

	for _, tc := range []struct {
		id     int
		budget uint64 // bytes per execution
	}{
		{18, 3_500_000}, // here 2.2 MB, per-level copy 106 MB
		{22, 3_000_000}, // here 1.9 MB, per-level copy 5.3 MB
		{10, 3_750_000}, // here 2.3 MB, per-level copy 7.1 MB
		// No BENCHMARK.json workload runs a LEFT JOIN; this row is the gate on
		// the outer kind of the one hash join (ADR-014): the twin operator it
		// replaced allocated 3.62 MB here, pinned at that + 10 %.
		{13, 3_985_000}, // here 3.3 MB: orders is probed through its persistent index
	} {
		q, err := QueryByID(cfg.SF, tc.id)
		if err != nil {
			t.Fatal(err)
		}
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
		got := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("Q%d o4: %d bytes per execution (budget %d)", tc.id, got, tc.budget)
		if got > tc.budget {
			t.Errorf("Q%d o4 allocates %d bytes per execution, budget %d", tc.id, got, tc.budget)
		}
	}
}
