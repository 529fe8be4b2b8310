package mth

import (
	"testing"

	"mtbase/internal/engine"
	"mtbase/internal/optimizer"
)

// TestScopedScanCensus holds the isolation half of the D′ filter (DESIGN.md
// ADR-026): the `ttid IN (D′)` the rewrite stamps on every tenant table is a
// scan range, so a statement scoped to its own tenant hands on none of
// another tenant's rows of a table it reads that way. Read off two engine
// counters over one warm execution, serial and uncapped: ScanRows, the rows
// base-table sources hand on before any filter, and ScanRanges, the sources
// that took the range. The counts belong to this data set (SF 0.002, ten
// tenants, C = 3: a tenant owns 1 181 of lineitem's 11 905 rows, 300 of
// orders' 3 000, 30 of customer's 300).
func TestScopedScanCensus(t *testing.T) {
	const client = 3
	cfg := Config{SF: 0.002, Tenants: 10, Dist: Uniform, Seed: 1, Mode: engine.ModePostgres}
	inst, err := LoadMT(Generate(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.GrantReadTo(client); err != nil {
		t.Fatal(err)
	}
	db := inst.Srv.DB()
	db.SetParallelism(1)
	db.SetMemoryLimit(0)
	census := func(scope string, level optimizer.Level, q Query) (rows, ranges int64) {
		t.Helper()
		conn, err := inst.Connect(client, scope)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetOptLevel(level)
		if _, err := RunOnMT(conn, q); err != nil { // warm the statement caches and the UDF plans
			t.Fatalf("scope %q Q%d: %v", scope, q.ID, err)
		}
		b := db.Stats.Snapshot()
		if _, err := RunOnMT(conn, q); err != nil {
			t.Fatalf("scope %q Q%d: %v", scope, q.ID, err)
		}
		a := db.Stats.Snapshot()
		return a.ScanRows - b.ScanRows, a.ScanRanges - b.ScanRanges
	}

	// Q6 under D = {C} reads exactly C's lineitem rows: a tenth of the table.
	lineitem := db.Table("lineitem")
	ttid := lineitem.ColIndex("ttid")
	var own int64
	for _, row := range lineitem.Heap() {
		if row[ttid].AsInt() == client {
			own++
		}
	}
	q6, err := QueryByID(cfg.SF, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rows, ranges := census("", optimizer.O4, q6); rows != own || ranges != 1 {
		t.Errorf("Q6 under D = {%d}: %d rows read through %d ranges, want %d of %d through 1", client, rows, ranges, own, lineitem.RowCount())
	}

	// Q1–Q22 at o4 under D = {C}: the sources that take the range, by name
	// (the check holds their number), and the rows every source reads. No
	// range where a source is probed through an equality first (Q3's
	// customer, by segment) or is the build side of a join on its index (the
	// rest of Q3, Q9's tenant tables), whose candidates are C's already — nor
	// inside a LEFT JOIN (Q13), whose WHERE runs above the join. Q16's is not
	// D′ but the query's own p_size list over part, a global table: eight of
	// fifty sizes. Q11's partsupp meets supplier ⋈ nation as one dimension
	// (ADR-034): the pre-join reads the two small heaps once, where the
	// supplier join probed its index for every partsupp batch until its budget
	// ran out and then read the heap to build.
	type read struct {
		ranged []string
		rows   int64
	}
	want := map[int]read{
		1: {[]string{"lineitem"}, 1181}, 2: {nil, 12}, 3: {nil, 150}, 4: {[]string{"orders"}, 338},
		5: {[]string{"customer"}, 534}, 6: {[]string{"lineitem"}, 1181}, 7: {[]string{"lineitem", "customer"}, 2707},
		8: {nil, 0}, 9: {nil, 914}, 10: {[]string{"customer"}, 428}, 11: {nil, 1621}, 12: {[]string{"orders"}, 1481},
		13: {nil, 3300}, 14: {[]string{"lineitem"}, 1197}, 15: {[]string{"lineitem", "lineitem"}, 2382},
		16: {[]string{"part"}, 2706}, 17: {[]string{"lineitem"}, 2205},
		18: {[]string{"customer", "orders", "lineitem"}, 1518}, 19: {nil, 3074}, 20: {nil, 2160},
		21: {[]string{"lineitem"}, 2310}, 22: {[]string{"customer"}, 30},
	}
	for _, q := range Queries(cfg.SF) {
		w, ok := want[q.ID]
		if !ok {
			t.Fatalf("Q%d has no census entry", q.ID)
		}
		if rows, ranges := census("", optimizer.O4, q); ranges != int64(len(w.ranged)) || rows != w.rows {
			t.Errorf("Q%d under D = {%d}: %d ranges, %d rows read; want %d (%v), %d", q.ID, client, ranges, rows, len(w.ranged), w.ranged, w.rows)
		}
		// Under IN () the canonical rewrite's D′ names every tenant: the
		// union of its buckets is the heap, and the scan runs as it always
		// did. Only Q16's own list is a range there too.
		wantRanges := int64(0)
		if q.ID == 16 {
			wantRanges = 1
		}
		if _, ranges := census("IN ()", optimizer.Canonical, q); ranges != wantRanges {
			t.Errorf("Q%d at canonical under IN (): %d sources took the range, want %d", q.ID, ranges, wantRanges)
		}
	}
}
