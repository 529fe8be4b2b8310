package mth

import (
	"testing"

	"mtbase/internal/engine"
	"mtbase/internal/optimizer"
)

// TestJoinPathCensus pins, for every MT-H query at o4 and under both scopes
// — IN () (every tenant) and the default (the client's own data) — which
// path its hash joins take (DESIGN.md ADR-022), read off the engine's join
// counters over one warm execution: how many joins probed a base table's
// persistent index, how many of those built eagerly after all, and how many
// rows were inserted into transient join tables — and how many outer rows an
// EXISTS answered through the index semi-join (ADR-033). A change to the
// rule — what may be filtered over candidates, the budget, the pre-check,
// the semi-join's shape — fails here by query and by name, not as a slower
// benchmark. The counts include the joins inside conversion-UDF bodies a
// statement plans, and belong to this data set (SF 0.002, ten tenants,
// serial): the budget is a share of each build table's heap. Q101, the one
// staged extra with a NOT EXISTS, rides along.
//
// Every EXISTS of MT-H takes the semi-join — Q4's, Q21's two, Q22's and
// Q101's, at every level — and none falls back to a per-row subquery. Q21
// reads 0 here only because no row of this data set reaches its EXISTS
// conjuncts (the statement answers no row; at SF 0.01 it probes ≈ 1 160
// rows a statement).
func TestJoinPathCensus(t *testing.T) {
	type census struct{ probes, fallbacks, built, exists int64 }
	want := map[string]map[int]census{
		// Q3: orders and lineitem are reached through (key, ttid) indexes and
		// their date predicates run over the candidates — nothing is hashed
		// (39 k rows a statement at SF 0.01 before). Q12 and Q17: the probe
		// side is an unfiltered table whose size says at Open that the filter
		// would meet more candidates than a quarter of the build table, so
		// they build eagerly as they always did, and probe no index. Q5, Q11,
		// Q16, Q20, Q21: a join starts on the index, spends its budget and
		// builds after all.
		"IN ()": {
			1: {0, 0, 0, 0}, 2: {4, 0, 0, 0}, 3: {2, 0, 0, 0}, 4: {0, 0, 0, 119}, 5: {4, 1, 461, 0}, 6: {0, 0, 0, 0},
			7: {7, 0, 4087, 0}, 8: {10, 0, 0, 0}, 9: {8, 0, 0, 0}, 10: {8, 0, 122, 0}, 11: {2, 1, 1, 0}, 12: {0, 0, 62, 0},
			13: {1, 0, 0, 0}, 14: {4, 0, 0, 0}, 15: {11, 0, 20, 0}, 16: {1, 1, 57, 0}, 17: {0, 0, 0, 0}, 18: {4, 0, 10, 0},
			19: {1, 0, 0, 0}, 20: {1, 1, 1, 0}, 21: {2, 2, 9058, 0}, 22: {12, 0, 0, 42}, 101: {12, 0, 0, 125},
		},
		// The default scope puts ttid = C on every tenant table: no probe side
		// is an unfiltered table any more, so Q12 probes lineitem through its
		// (l_orderkey, ttid) index, and Q17 finds out from its first probe
		// batch that part is cheaper filtered and built (to no row, here).
		"": {
			1: {0, 0, 0, 0}, 2: {4, 0, 0, 0}, 3: {2, 0, 0, 0}, 4: {0, 0, 0, 7}, 5: {5, 1, 1, 0}, 6: {0, 0, 0, 0},
			7: {4, 1, 433, 0}, 8: {7, 0, 0, 0}, 9: {5, 0, 0, 0}, 10: {3, 0, 0, 0}, 11: {2, 1, 1, 0}, 12: {1, 0, 0, 0},
			13: {1, 0, 0, 0}, 14: {1, 0, 0, 0}, 15: {0, 0, 19, 0}, 16: {1, 1, 57, 0}, 17: {1, 1, 0, 0}, 18: {1, 0, 0, 0},
			19: {1, 0, 0, 0}, 20: {1, 0, 0, 0}, 21: {2, 1, 718, 0}, 22: {0, 0, 0, 7}, 101: {0, 0, 0, 14},
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
	// Serial and uncapped (MTBASE_TEST_MEMLIMIT must not reach in): a worker's
	// UDF memo decides how many bodies are planned, a cap where a build spills.
	db := inst.Srv.DB()
	db.SetParallelism(1)
	db.SetMemoryLimit(0)
	for _, scope := range []string{"IN ()", ""} {
		conn, err := inst.Connect(1, scope)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetOptLevel(optimizer.O4)
		for _, q := range append(Queries(cfg.SF), StagedExtras()[0]) {
			w, ok := want[scope][q.ID]
			if !ok {
				t.Fatalf("scope %q Q%d has no census entry", scope, q.ID)
			}
			if _, err := RunOnMT(conn, q); err != nil { // warm the statement caches and the UDF plans
				t.Fatalf("scope %q Q%d: %v", scope, q.ID, err)
			}
			b := db.Stats.Snapshot()
			if _, err := RunOnMT(conn, q); err != nil {
				t.Fatalf("scope %q Q%d: %v", scope, q.ID, err)
			}
			a := db.Stats.Snapshot()
			got := census{a.JoinIndexProbes - b.JoinIndexProbes, a.JoinEagerFallbacks - b.JoinEagerFallbacks, a.JoinBuildRows - b.JoinBuildRows,
				a.ExistsProbes - b.ExistsProbes}
			if got != w {
				t.Errorf("scope %q Q%d: {index probes, eager fallbacks, rows hashed, EXISTS probes} = %+v, want %+v", scope, q.ID, got, w)
			}
		}
	}
}
