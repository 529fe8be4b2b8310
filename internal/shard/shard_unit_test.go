// In-package unit tests for the routing internals the end-to-end
// differential (internal/mth) exercises only indirectly: placement
// determinism, tenant grouping, the pinned-query classifier, and the
// partial-aggregation decomposition.
package shard

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"mtbase/internal/engine"
	"mtbase/internal/mtsql"
	"mtbase/internal/sqlast"
	"mtbase/internal/sqlparse"
)

func TestHashPlacementDeterministicAndBounded(t *testing.T) {
	h := HashPlacement{N: 4}
	hit := make(map[int]int)
	for ttid := int64(1); ttid <= 256; ttid++ {
		r := h.ShardOf(ttid)
		if r < 0 || r >= h.N {
			t.Fatalf("ShardOf(%d) = %d, out of [0,%d)", ttid, r, h.N)
		}
		if again := h.ShardOf(ttid); again != r {
			t.Fatalf("ShardOf(%d) not deterministic: %d then %d", ttid, r, again)
		}
		hit[r]++
	}
	if len(hit) != h.N {
		t.Errorf("256 consecutive tenants hit only %d of %d shards: %v", len(hit), h.N, hit)
	}
	if one := (HashPlacement{N: 1}); one.ShardOf(42) != 0 {
		t.Error("single-shard placement must pin everything to rank 0")
	}
	if zero := (HashPlacement{N: 0}); zero.ShardOf(42) != 0 {
		t.Error("degenerate N=0 placement must pin to rank 0")
	}
}

func TestMapPlacementPinAndFallback(t *testing.T) {
	fb := HashPlacement{N: 3}
	m := MapPlacement{Assign: map[int64]int{7: 2, 8: 2}, Fallback: fb}
	if m.ShardOf(7) != 2 || m.ShardOf(8) != 2 {
		t.Error("pinned tenants must land on their assigned rank")
	}
	for ttid := int64(1); ttid <= 6; ttid++ {
		if got, want := m.ShardOf(ttid), fb.ShardOf(ttid); got != want {
			t.Errorf("unpinned tenant %d: got rank %d, fallback says %d", ttid, got, want)
		}
	}
}

// TestPartWorkersShareTheCPUs: a scatter's parts run side by side, so under
// a fixed GOMAXPROCS each shard engine of New(n, …) resolves max(1,
// GOMAXPROCS/n) workers and the replica, which runs after the parts or
// instead of them, GOMAXPROCS; an explicit count divides the same way
// (DESIGN.md ADR-030).
func TestPartWorkersShareTheCPUs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{1, 2, 4, 8} {
			s, err := New(n, engine.ModePostgres)
			if err != nil {
				t.Fatal(err)
			}
			for rank, mw := range s.Shards() {
				if got, want := mw.DB().Parallelism(), max(1, procs/n); got != want {
					t.Errorf("GOMAXPROCS %d, %d shards: shard %d runs %d workers, want %d", procs, n, rank, got, want)
				}
			}
			if got := s.Replica().DB().Parallelism(); got != procs {
				t.Errorf("GOMAXPROCS %d, %d shards: replica runs %d workers, want %d", procs, n, got, procs)
			}
			for _, explicit := range []int{1, 2, 3, 8} {
				if got, want := s.PartWorkers(explicit), max(1, explicit/n); got != want {
					t.Errorf("%d shards: PartWorkers(%d) = %d, want %d", n, explicit, got, want)
				}
			}
		}
	}
}

func TestGroupPartitionsByRank(t *testing.T) {
	place := MapPlacement{
		Assign:   map[int64]int{1: 2, 2: 0, 3: 2, 4: 0, 5: 1},
		Fallback: HashPlacement{N: 3},
	}
	s, err := New(3, engine.ModePostgres, WithPlacement(place))
	if err != nil {
		t.Fatal(err)
	}
	sets := s.group([]int64{1, 2, 3, 4, 5})
	if len(sets) != 3 {
		t.Fatalf("group returned %d sets, want 3", len(sets))
	}
	want := []shardSet{
		{rank: 0, ds: []int64{2, 4}},
		{rank: 1, ds: []int64{5}},
		{rank: 2, ds: []int64{1, 3}},
	}
	for i, ss := range sets {
		if ss.rank != want[i].rank {
			t.Fatalf("set %d rank = %d, want %d (sets must come back in ascending rank order)", i, ss.rank, want[i].rank)
		}
		if len(ss.ds) != len(want[i].ds) {
			t.Fatalf("set %d has %d tenants, want %d", i, len(ss.ds), len(want[i].ds))
		}
		for j, ttid := range ss.ds {
			if ttid != want[i].ds[j] {
				t.Errorf("set %d tenant %d = %d, want %d", i, j, ttid, want[i].ds[j])
			}
		}
	}
	if empty := s.group(nil); len(empty) != 0 {
		t.Errorf("group(nil) = %v, want empty", empty)
	}
}

// routeSchema builds the classifier's input: one SPECIFIC tenant table,
// one global table, and a view.
func routeSchema(t *testing.T) *mtsql.Schema {
	t.Helper()
	s := mtsql.NewSchema()
	add := func(ddl string) {
		stmt, err := sqlparse.ParseStatement(ddl)
		if err != nil {
			t.Fatalf("parse %q: %v", ddl, err)
		}
		if _, err := s.AddTable(stmt.(*sqlast.CreateTable)); err != nil {
			t.Fatalf("AddTable: %v", err)
		}
	}
	add(`CREATE TABLE emp SPECIFIC (
		e_id INTEGER NOT NULL SPECIFIC,
		e_name VARCHAR(25) NOT NULL COMPARABLE,
		e_role INTEGER NOT NULL SPECIFIC,
		e_age INTEGER NOT NULL COMPARABLE)`)
	add(`CREATE TABLE roles SPECIFIC (
		r_id INTEGER NOT NULL SPECIFIC,
		r_name VARCHAR(25) NOT NULL COMPARABLE)`)
	add(`CREATE TABLE regions (re_id INTEGER NOT NULL, re_name VARCHAR(25) NOT NULL)`)
	s.AddView("emp_view", []string{"e_id", "e_name"})
	return s
}

func parseSel(t *testing.T, sql string) *sqlast.Select {
	t.Helper()
	stmt, err := sqlparse.ParseStatement(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	sel, ok := stmt.(*sqlast.Select)
	if !ok {
		t.Fatalf("%q parsed to %T, want *sqlast.Select", sql, stmt)
	}
	return sel
}

// classificationCases is TestAnalyzeClassification's table; the link check
// (links_test.go) reads its statements too.
var classificationCases = []struct {
	name      string
	sql       string
	pinned    bool
	plainScan bool
	aggPush   bool
}{
	{
		name:      "single tenant table scan merges",
		sql:       "SELECT e_id, e_name FROM emp WHERE e_age > 30 ORDER BY e_id",
		pinned:    true,
		plainScan: true,
	},
	{
		// The rewrite injects emp.ttid = roles.ttid for this SPECIFIC
		// comparison, so the two bindings form one component.
		name:      "specific join chains into one component",
		sql:       "SELECT e_name, r_name FROM emp, roles WHERE e_role = r_id ORDER BY e_name",
		pinned:    true,
		plainScan: true,
	},
	{
		// Joining only on COMPARABLE attributes injects no ttid
		// equality: two components, rows may mix tenants.
		name:   "comparable-only join is unpinned",
		sql:    "SELECT e_name, r_name FROM emp, roles WHERE e_name = r_name",
		pinned: false,
	},
	{
		name:   "global-only query groups as unpinned",
		sql:    "SELECT re_name FROM regions ORDER BY re_id",
		pinned: true, // zero tenant components ≤ 1; router still scatters trivially
	},
	{
		name:    "pinned aggregation pushes partials",
		sql:     "SELECT e_role, COUNT(*) AS n, AVG(e_age) AS a FROM emp GROUP BY e_role ORDER BY e_role",
		pinned:  true,
		aggPush: true,
	},
	{
		// Pinned but DISTINCT: concat would duplicate across shards,
		// and there is no aggregation to fold — repartition fallback.
		name:   "top-level distinct needs fallback",
		sql:    "SELECT DISTINCT e_name FROM emp",
		pinned: true,
	},
	{
		name:   "nested limit erases tenant identity",
		sql:    "SELECT s.e_id FROM (SELECT e_id FROM emp ORDER BY e_age LIMIT 5) AS s",
		pinned: false,
	},
	{
		name:   "views force the fallback",
		sql:    "SELECT e_name FROM emp_view",
		pinned: false,
	},
	{
		name:   "unknown table is conservatively unpinned",
		sql:    "SELECT x FROM nowhere",
		pinned: false,
	},
}

func TestAnalyzeClassification(t *testing.T) {
	schema := routeSchema(t)
	for _, tc := range classificationCases {
		t.Run(tc.name, func(t *testing.T) {
			an := analyze(parseSel(t, tc.sql), schema)
			if an.pinned() != tc.pinned {
				t.Fatalf("pinned = %v, want %v", an.pinned(), tc.pinned)
			}
			if an.plainScan != tc.plainScan {
				t.Errorf("plainScan = %v, want %v", an.plainScan, tc.plainScan)
			}
			if an.aggPush != tc.aggPush {
				t.Errorf("aggPush = %v, want %v", an.aggPush, tc.aggPush)
			}
			if tc.aggPush && an.plan == nil {
				t.Error("aggPush without a partial plan")
			}
		})
	}
}

func TestAnalyzeMergeKeys(t *testing.T) {
	schema := routeSchema(t)
	an := analyze(parseSel(t,
		"SELECT e_id, e_name AS nm FROM emp ORDER BY nm DESC, e_id"), schema)
	if !an.plainScan {
		t.Fatal("aliased ORDER BY over output columns must stay mergeable")
	}
	want := []engine.MergeKey{{Col: 1, Desc: true}, {Col: 0, Desc: false}}
	if len(an.mergeKeys) != len(want) {
		t.Fatalf("got %d merge keys, want %d", len(an.mergeKeys), len(want))
	}
	for i, k := range an.mergeKeys {
		if k != want[i] {
			t.Errorf("key %d = %+v, want %+v", i, k, want[i])
		}
	}

	// ORDER BY over an expression absent from the select list cannot map
	// to an output column — not mergeable, so not a plain scan.
	an = analyze(parseSel(t, "SELECT e_id FROM emp ORDER BY e_age"), schema)
	if an.plainScan {
		t.Error("un-mappable ORDER BY must reject the merge path")
	}
}

func TestBuildPartialPlanDecomposition(t *testing.T) {
	schema := routeSchema(t)
	sel := parseSel(t, `SELECT e_role, COUNT(*) AS n, SUM(e_age) AS s, AVG(e_age) AS a
		FROM emp GROUP BY e_role ORDER BY e_role`)
	plan, ok := buildPartialPlan(sel, schema)
	if !ok {
		t.Fatal("grouped COUNT/SUM/AVG must be decomposable")
	}
	// mt_g1 (group key), mt_a for COUNT, SUM (which reserves mt_a3, o3's
	// numbering), then AVG's sum+count pair.
	want := []string{"mt_g1", "mt_a1", "mt_a2", "mt_a4", "mt_a5"}
	if len(plan.partialCols) != len(want) {
		t.Fatalf("partial columns %v, want %v", plan.partialCols, want)
	}
	for i, c := range plan.partialCols {
		if c != want[i] {
			t.Fatalf("partial columns %v, want %v", plan.partialCols, want)
		}
	}
	partialSQL := plan.partial.Text()
	if strings.Contains(partialSQL, "ORDER BY") || strings.Contains(partialSQL, "HAVING") {
		t.Errorf("partial must strip ORDER BY/HAVING: %s", partialSQL)
	}
	combineSQL := plan.combine.String()
	if !strings.Contains(combineSQL, "(CAST_DECIMAL(SUM(mt_part.mt_a4)) / SUM(mt_part.mt_a5)) AS a FROM mt_partials mt_part") {
		t.Errorf("AVG fold must divide in floating point, over the partial rows bound as mt_part: %s", combineSQL)
	}

	// Ungrouped COUNT over zero partial rows would SUM to NULL; the fold
	// must coalesce it back to 0.
	plan, ok = buildPartialPlan(parseSel(t, "SELECT COUNT(*) AS n FROM emp"), schema)
	if !ok {
		t.Fatal("ungrouped COUNT must be decomposable")
	}
	if !strings.Contains(plan.combine.String(), "COALESCE") {
		t.Errorf("ungrouped COUNT fold needs COALESCE(..., 0): %s", plan.combine.String())
	}

	// An item the client did not alias is named by an expression, which the
	// combine cannot use as an alias: it carries an internal one and the
	// plan says the header has to be restored.
	for sql, want := range map[string]string{
		"SELECT AVG(e_age) FROM emp":                                     "AS mtc_0 FROM",
		"SELECT COUNT(*) FROM emp":                                       "AS mtc_0 FROM",
		"SELECT e_role, SUM(e_age) / SUM(e_id) FROM emp GROUP BY e_role": "AS e_role, (SUM(mt_part.mt_a1) / SUM(mt_part.mt_a3)) AS mtc_1 FROM",
	} {
		plan, ok = buildPartialPlan(parseSel(t, sql), schema)
		if !ok || !plan.renamed {
			t.Fatalf("%s: decomposable=%v renamed=%v, want an un-aliased aggregate to decompose under an internal alias", sql, ok, plan != nil && plan.renamed)
		}
		if got := plan.combine.String(); !strings.Contains(got, want) {
			t.Errorf("%s: combine = %s, want it to contain %q", sql, got, want)
		}
	}
	if plan, _ = buildPartialPlan(sel, schema); plan.renamed {
		t.Error("a statement whose items all have identifier names needs no header restored")
	}

	// COUNT(DISTINCT x) cannot be folded from per-shard partials.
	if _, ok := buildPartialPlan(parseSel(t,
		"SELECT COUNT(DISTINCT e_name) FROM emp"), schema); ok {
		t.Error("COUNT(DISTINCT) must reject the pushdown")
	}
}

// TestOpenPartsClosesOpenedOnFailure: the one place shard cursors are
// opened has one error path — a target that fails to open closes every
// cursor opened before it, and no later target is tried.
func TestOpenPartsClosesOpenedOnFailure(t *testing.T) {
	db := engine.Open(engine.ModePostgres)
	down := errors.New("shard 2 is down")
	var opened []*engine.Rows
	open := func(ss shardSet) (*engine.Rows, error) {
		if ss.rank == 2 {
			return nil, down
		}
		p, err := db.PreparePlan("SELECT 1 AS one")
		if err != nil {
			return nil, err
		}
		rows, err := db.QueryPlanContext(context.Background(), p)
		opened = append(opened, rows)
		return rows, err
	}
	sets := []shardSet{{rank: 0}, {rank: 1}, {rank: 2}, {rank: 3}}
	if parts, err := openParts(sets, open); !errors.Is(err, down) || parts != nil {
		t.Fatalf("openParts = %v, %v; want nil and the shard's error", parts, err)
	}
	if len(opened) != 2 {
		t.Fatalf("%d cursors opened, want 2 (ranks 0 and 1; rank 3 never tried)", len(opened))
	}
	for i, rows := range opened {
		if rows.Next() {
			t.Errorf("cursor of rank %d is still open after the failed scatter", i)
		}
	}

	parts, err := openParts(sets[:2], open)
	if err != nil || len(parts) != 2 || !parts[0].Next() || !parts[1].Next() {
		t.Fatalf("openParts without a failure = %d cursors, %v; want 2 readable ones", len(parts), err)
	}
}
