package mth

// Differential acceptance suite for bounded-memory execution: every MT-H
// query, at every optimization level, in both compile modes and at
// parallelism 1 and 8, must produce byte-identical results under a 1MB and
// a 64KB statement memory limit as the reference executor (materializing,
// interpreted, serial — it never spills) produces unlimited; the capped runs
// overflow sort buffers, group tables, DISTINCT sets and join builds to
// disk. The suite
// also asserts the tight limits actually spilled (so it cannot silently
// pass on the in-memory path), that the accounted peak stays within one
// batch of slack above the limit, and that no temp file outlives a
// statement.

import (
	"os"
	"testing"

	"mtbase/internal/engine"
	"mtbase/internal/optimizer"
)

// spillSlack is the allowed overshoot above the configured limit: charges
// land at batch granularity, so a breaker may buffer one more ~1024-row
// batch of wide MT-H tuples (plus parallel-scan row references, which are
// charged but never spill) before the overflow path engages.
const spillSlack = 2 << 20

func TestSpillDifferentialQ1toQ22(t *testing.T) {
	cfg := Config{SF: 0.002, Tenants: 3, Dist: Uniform, Seed: 7, Mode: engine.ModePostgres}
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
	db := inst.Srv.DB()
	dir := t.TempDir()
	db.SetSpillDir(dir)
	engine.SetMorselSize(1)
	defer engine.SetMorselSize(0)
	defer db.SetMemoryLimit(0)
	defer db.SetParallelism(0)
	defer db.SetCompileExprs(true)

	levels := []optimizer.Level{optimizer.Canonical, optimizer.O3, optimizer.O4}
	compileModes := []bool{true, false}
	limits := []int64{1 << 20, 64 << 10}
	if testing.Short() {
		levels = []optimizer.Level{optimizer.O4}
		compileModes = []bool{true}
	}

	for _, level := range levels {
		conn.SetOptLevel(level)

		// The reference executor, unlimited: the oracle.
		db.SetStreamExec(false)
		db.SetMemoryLimit(0)
		base := make(map[int]string)
		for _, q := range Queries(cfg.SF) {
			res, err := RunOnMT(conn, q)
			if err != nil {
				t.Fatalf("level=%v Q%d reference: %v", level, q.ID, err)
			}
			base[q.ID] = exactKey(res)
		}
		db.SetStreamExec(true)

		for _, compiled := range compileModes {
			db.SetCompileExprs(compiled)

			for _, limit := range limits {
				for _, par := range []int{1, 8} {
					db.SetMemoryLimit(limit)
					db.SetParallelism(par)
					db.Stats = engine.Stats{}
					for _, q := range Queries(cfg.SF) {
						res, err := RunOnMT(conn, q)
						if err != nil {
							t.Fatalf("level=%v compiled=%v limit=%d par=%d Q%d: %v",
								level, compiled, limit, par, q.ID, err)
						}
						if exactKey(res) != base[q.ID] {
							t.Errorf("level=%v compiled=%v limit=%d par=%d Q%d: capped run differs from the reference",
								level, compiled, limit, par, q.ID)
						}
					}
					st := db.Stats.Snapshot()
					if st.SpillRuns == 0 {
						t.Errorf("level=%v compiled=%v limit=%d par=%d: suite never spilled — the capped arm tested the in-memory path",
							level, compiled, limit, par)
					}
					if st.PeakMemBytes > limit+spillSlack {
						t.Errorf("level=%v compiled=%v limit=%d par=%d: PeakMemBytes %d exceeds limit plus one batch of slack",
							level, compiled, limit, par, st.PeakMemBytes)
					}
				}
			}
		}
	}

	db.SetMemoryLimit(0)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("%d spill files leaked", len(ents))
	}
}
