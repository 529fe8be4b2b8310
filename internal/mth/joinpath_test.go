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
// rows were inserted into transient join tables — how many outer rows an
// EXISTS answered through the index semi-join (ADR-033), and how many join
// chains met their tail of small tables as one dimension (ADR-034). A
// change to the
// rule — what may be filtered over candidates, the budget, the pre-check,
// the semi-join's shape — fails here by query and by name, not as a slower
// benchmark. The counts include the joins inside conversion-UDF bodies a
// statement plans, and belong to this data set (SF 0.002, ten tenants,
// serial): the budget is a share of each build table's heap. Q101, the one
// staged extra with a NOT EXISTS, rides along.
//
// A dimension's stream join hashes the pre-joined rows (Q22: ten a chain,
// one per tenant; Q9 and Q10: 250, 25 nations by ten tenants; Q5: the three
// suppliers of ASIA), and its members are joined among themselves, so the
// chain probes fewer indexes: the dimension's first member is its driving
// source, probed by nothing, and a member linked only to a stream column no
// earlier member holds (Q9's and Q10's Tenant after nation) is crossed into
// the pre-join. Q11's supplier join no longer
// starts on the index and falls back: supplier ⋈ nation is pre-joined, nation
// built eagerly from its one GERMANY row. Q14's part (400 rows here) would
// be a member, but part crossed with ten tenants is past a batch: the chain
// stays per member without pre-joining anything (at SF 0.01 part is past a
// batch itself and Q14 pre-joins its four conversion tables).
//
// Every EXISTS of MT-H takes the semi-join — Q4's, Q21's two, Q22's and
// Q101's, at every level — and none falls back to a per-row subquery. Q21
// reads 0 here only because no row of this data set reaches its EXISTS
// conjuncts (the statement answers no row; at SF 0.01 it probes ≈ 1 160
// rows a statement).
func TestJoinPathCensus(t *testing.T) {
	type census struct{ probes, fallbacks, built, exists, dims int64 }
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
			1: {0, 0, 0, 0, 0}, 2: {4, 0, 0, 0, 0}, 3: {2, 0, 0, 0, 0}, 4: {0, 0, 0, 119, 0}, 5: {3, 1, 464, 0, 1}, 6: {0, 0, 0, 0, 0},
			7: {7, 0, 4087, 0, 0}, 8: {10, 0, 0, 0, 0}, 9: {6, 0, 250, 0, 1}, 10: {6, 0, 372, 0, 1}, 11: {0, 0, 1, 0, 1}, 12: {0, 0, 62, 0, 0},
			13: {1, 0, 0, 0, 0}, 14: {4, 0, 0, 0, 0}, 15: {11, 0, 20, 0, 0}, 16: {1, 1, 57, 0, 0}, 17: {0, 0, 0, 0, 0}, 18: {3, 0, 20, 0, 1},
			19: {1, 0, 0, 0, 0}, 20: {1, 1, 1, 0, 0}, 21: {2, 2, 9058, 0, 0}, 22: {10, 0, 20, 42, 2}, 101: {10, 0, 20, 125, 2},
		},
		// The default scope puts ttid = C on every tenant table: no probe side
		// is an unfiltered table any more, so Q12 probes lineitem through its
		// (l_orderkey, ttid) index, and Q17 finds out from its first probe
		// batch that part is cheaper filtered and built (to no row, here).
		"": {
			1: {0, 0, 0, 0, 0}, 2: {4, 0, 0, 0, 0}, 3: {2, 0, 0, 0, 0}, 4: {0, 0, 0, 7, 0}, 5: {5, 1, 1, 0, 0}, 6: {0, 0, 0, 0, 0},
			7: {4, 1, 433, 0, 0}, 8: {7, 0, 0, 0, 0}, 9: {5, 0, 0, 0, 0}, 10: {3, 0, 0, 0, 0}, 11: {0, 0, 1, 0, 1}, 12: {1, 0, 0, 0, 0},
			13: {1, 0, 0, 0, 0}, 14: {1, 0, 0, 0, 0}, 15: {0, 0, 19, 0, 0}, 16: {1, 1, 57, 0, 0}, 17: {1, 1, 0, 0, 0}, 18: {1, 0, 0, 0, 0},
			19: {1, 0, 0, 0, 0}, 20: {1, 0, 0, 0, 0}, 21: {2, 1, 718, 0, 0}, 22: {0, 0, 0, 7, 0}, 101: {0, 0, 0, 14, 0},
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
				a.ExistsProbes - b.ExistsProbes, a.DimensionBuilds - b.DimensionBuilds}
			if got != w {
				t.Errorf("scope %q Q%d: {index probes, eager fallbacks, rows hashed, EXISTS probes, dimensions} = %+v, want %+v", scope, q.ID, got, w)
			}
		}
	}
}
