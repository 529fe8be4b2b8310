package engine

// Statement-local relations (DB.QueryWith): named row sets one execution
// reads as tables — shadowing a catalog table or adding a name — that no
// other statement, the catalog, the plan cache or the shadowed table's own
// heap and indexes ever see.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"mtbase/internal/sqlast"
	"mtbase/internal/sqlparse"
	"mtbase/internal/sqltypes"
)

func relSelect(t testing.TB, sql string) *sqlast.Select {
	t.Helper()
	sel, err := sqlparse.ParseQuery(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return sel
}

// relFixture returns a `fact` shadow of n rows (values the real fact table
// never holds) and a relation under a name the catalog does not know.
func relFixture(n int) (fact, extra Relation) {
	fact = Relation{Name: "FACT"} // case-insensitive, schema stays the catalog's
	extra = Relation{Name: "extra", Cols: []Column{
		{Name: "id", Type: sqltypes.KindInt}, {Name: "w", Type: sqltypes.KindFloat},
	}}
	for i := 0; i < n; i++ {
		fact.Rows = append(fact.Rows, []sqltypes.Value{
			sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 7)),
			sqltypes.NewInt(int64(1000 + i%90)), sqltypes.NewInt(int64(i % 4)),
		})
		if i%3 == 0 {
			extra.Rows = append(extra.Rows, []sqltypes.Value{sqltypes.NewInt(int64(i)), sqltypes.NewFloat(float64(i) / 8)})
		}
	}
	return fact, extra
}

// relShapes read the shadowed table directly, through a view and a UDF
// body's neighbour, joined with the added relation, grouped, filtered with
// HAVING, sorted and limited — the operators a shard fold or fallback uses.
var relShapes = []string{
	`SELECT COUNT(*) AS n, SUM(val) AS s, MIN(val) AS lo, MAX(val) AS hi FROM fact`,
	`SELECT grp, COUNT(*) AS n, SUM(val) * 1.0 / COUNT(val) AS a FROM fact GROUP BY grp HAVING SUM(val) > 10 ORDER BY a DESC, grp LIMIT 3`,
	`SELECT b.id, b.val FROM bigval b WHERE b.id < 40 ORDER BY b.val DESC, b.id`,
	`SELECT f.id, e.w, dimname(f.k) AS dn FROM fact f, extra e WHERE f.id = e.id AND e.w > 2 ORDER BY f.id LIMIT 50`,
	`SELECT d.name, SUM(e.w) AS w FROM fact f JOIN dim d ON f.k = d.k JOIN extra e ON e.id = f.id GROUP BY d.name ORDER BY d.name`,
	`SELECT id FROM fact WHERE id IN (SELECT id FROM extra WHERE w < 5) ORDER BY id`,
	`SELECT id, val FROM fact WHERE grp = $1 AND id < $2 ORDER BY id`,
}

func relArgs(t testing.TB, sql string) []sqltypes.Value {
	if sqlast.MaxParam(relSelect(t, sql)) == 2 {
		return []sqltypes.Value{sqltypes.NewInt(1), sqltypes.NewInt(64)}
	}
	return nil
}

// TestQueryWithMatchesLoadedTables: a statement over relations returns what
// the same statement returns over a database really holding those rows, in
// all three execution configurations, unlimited and under a 64 KB cap.
func TestQueryWithMatchesLoadedTables(t *testing.T) {
	fact, extra := relFixture(2600)
	oracle := streamTestDB(t, 0)
	oracle.Table("fact").BulkLoad(fact.Rows)
	oracle.CreateTableDirect(extra.Name, extra.Cols, nil).BulkLoad(extra.Rows)
	cfgReference.apply(oracle)

	db := streamTestDB(t, 3000)
	db.SetSpillDir(t.TempDir())
	for _, limit := range []int64{0, 64 << 10} {
		db.SetMemoryLimit(limit)
		for _, cfg := range []execConfig{cfgProduction, cfgEvalCheck, cfgReference} {
			cfg.apply(db)
			for _, sql := range relShapes {
				args := relArgs(t, sql)
				want := execKey(oracle.ExecPlanContext(context.Background(), mustPrepare(oracle, sql), args...))
				rows, err := db.QueryWith(context.Background(), relSelect(t, sql), args, fact, extra)
				if err != nil {
					t.Fatalf("%s limit=%d %s: %v", cfg.name, limit, sql, err)
				}
				if got := execKey(rows.Collect()); got != want {
					t.Errorf("%s limit=%d %s\n got: %.300s\nwant: %.300s", cfg.name, limit, sql, got, want)
				}
			}
		}
	}
	if db.Stats.Snapshot().SpillRuns == 0 {
		t.Error("the 64 KB cap never spilled: the relations bypassed the memory accountant")
	}
}

// TestQueryWithLeavesDatabaseUntouched: catalog, heap, indexes, snapshots and
// the plan counters are what they were, while the cursor is open and after.
func TestQueryWithLeavesDatabaseUntouched(t *testing.T) {
	db := streamTestDB(t, 3000)
	tab := db.Table("fact")
	if _, err := db.QuerySQL(`SELECT COUNT(*) FROM fact f, dim d WHERE f.k = d.k`); err != nil {
		t.Fatal(err)
	}
	idx, err := tab.index([]string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	names, heap, data := "[dim fact other]", tab.Heap(), tab.data.Load()
	for i := 0; i < 100; i++ {
		if got := fmt.Sprint(db.TableNames()); got != names {
			t.Fatalf("TableNames %s, want them sorted: %s", got, names)
		}
	}

	fact, extra := relFixture(2600)
	stats := db.Stats.Snapshot()
	rows, err := db.QueryWith(context.Background(), relSelect(t, `SELECT f.id, e.w FROM fact f, extra e WHERE f.id = e.id`), nil, fact, extra)
	if err != nil {
		t.Fatal(err)
	}
	if now := db.Stats.Snapshot(); now.PlanCacheMisses != stats.PlanCacheMisses ||
		now.PlanCacheHits != stats.PlanCacheHits || now.PlanCacheInvalidations != stats.PlanCacheInvalidations {
		t.Errorf("QueryWith counted its one-execution plan: %+v → %+v", stats, now)
	}
	check := func(when string) {
		t.Helper()
		if got := fmt.Sprint(db.TableNames()); got != names {
			t.Errorf("%s: TableNames %s, want %s", when, got, names)
		}
		if db.Table("extra") != nil {
			t.Errorf("%s: relation name resolves in the catalog", when)
		}
		if now := tab.Heap(); len(now) != len(heap) || &now[0] != &heap[0] {
			t.Errorf("%s: shadowed table's heap was replaced", when)
		}
		if now, _ := tab.index([]string{"k"}); now != idx {
			t.Errorf("%s: shadowed table's index was rebuilt", when)
		}
		if tab.data.Load() != data {
			t.Errorf("%s: shadowed table published a new snapshot", when)
		}
		res, err := db.QuerySQL(`SELECT COUNT(*) FROM fact`)
		if err != nil || res.Rows[0][0].AsInt() != 3000 {
			t.Errorf("%s: another statement counts %v rows of fact (err %v), want 3000", when, res, err)
		}
		if _, err := db.QuerySQL(`SELECT * FROM extra`); err == nil {
			t.Errorf("%s: another statement can read the relation", when)
		}
	}
	check("cursor open")
	res, err := rows.Collect()
	if err != nil || len(res.Rows) != len(extra.Rows) {
		t.Fatalf("join over relations: %d rows (err %v), want %d", len(res.Rows), err, len(extra.Rows))
	}
	check("cursor closed")
	if _, err := db.QuerySQL(`SELECT COUNT(*) FROM fact f, dim d WHERE f.k = d.k`); err != nil {
		t.Fatal(err)
	}
	if after := db.Stats.Snapshot(); after.PlanCacheInvalidations != stats.PlanCacheInvalidations {
		t.Errorf("the cached plan over the shadowed table was invalidated (%d→%d)",
			stats.PlanCacheInvalidations, after.PlanCacheInvalidations)
	}
	if _, err := db.QueryWith(context.Background(), relSelect(t, `SELECT 1 AS one`), nil, Relation{Name: "bigval"}); err == nil {
		t.Error("a relation may not shadow a view")
	}
}

// TestQueryWithCursorKeepsRelations: the cursor owns its relations — writes,
// DDL and other statements' relations under the same names between pulls
// change nothing it returns.
func TestQueryWithCursorKeepsRelations(t *testing.T) {
	db := streamTestDB(t, 3000)
	fact, extra := relFixture(2600)
	rows, err := db.QueryWith(context.Background(), relSelect(t, `SELECT id, val FROM fact`), nil, fact)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal(rows.Err())
	}
	n := 1
	db.Table("fact").BulkLoad([][]sqltypes.Value{{sqltypes.NewInt(-1), sqltypes.NewInt(0), sqltypes.NewInt(5), sqltypes.NewInt(0)}})
	if _, err := db.ExecSQL(`CREATE TABLE extra (id INTEGER, w DECIMAL)`); err != nil {
		t.Fatal(err)
	}
	other, _ := relFixture(10)
	if res, err := db.QueryWith(context.Background(), relSelect(t, `SELECT COUNT(*) FROM fact, extra`), nil, other, extra); err != nil {
		t.Fatal(err)
	} else if r, _ := res.Collect(); r.Rows[0][0].AsInt() != int64(10*len(extra.Rows)) {
		t.Errorf("second statement saw %v, want %d", r.Rows[0], 10*len(extra.Rows))
	}
	for rows.Next() {
		if v := rows.Row()[1].AsInt(); v < 1000 {
			t.Fatalf("row %d: val %d comes from the catalog table, not the relation", n, v)
		}
		n++
	}
	if rows.Err() != nil || n != len(fact.Rows) {
		t.Errorf("cursor returned %d rows (err %v), want %d", n, rows.Err(), len(fact.Rows))
	}
}

// TestQueryWithConcurrent: statements with different relations under the
// same names and plain statements run side by side (meaningful under -race).
func TestQueryWithConcurrent(t *testing.T) {
	db := streamTestDB(t, 3000)
	sel := relSelect(t, `SELECT COUNT(*), MIN(val) FROM fact WHERE k IN (SELECT k FROM dim)`)
	var wg sync.WaitGroup
	for g := 1; g <= 4; g++ {
		wg.Add(1)
		go func(size int) {
			defer wg.Done()
			fact, _ := relFixture(size)
			for i := 0; i < 25; i++ {
				rows, err := db.QueryWith(context.Background(), sel, nil, fact)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := rows.Collect()
				if err != nil || res.Rows[0][0].AsInt() != int64(size) || res.Rows[0][1].AsInt() != 1000 {
					t.Errorf("relation of %d rows: got %v (err %v)", size, res, err)
				}
				plain, err := db.QuerySQL(`SELECT COUNT(*), MIN(val) FROM fact WHERE k IN (SELECT k FROM dim)`)
				if err != nil || plain.Rows[0][0].AsInt() != 3000 || plain.Rows[0][1].AsInt() != 0 {
					t.Errorf("plain statement beside relations: got %v (err %v)", plain, err)
				}
			}
		}(g * 400)
	}
	wg.Wait()
}
