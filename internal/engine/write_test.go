package engine

// Tests for writes through the candidate decision and page copy-on-write
// (DESIGN.md ADR-032): UPDATE and DELETE take their rows from indexSource, an
// index built for one snapshot serves the snapshots its writes publish, and a
// write copies the pages it changes, not the heap.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mtbase/internal/sqltypes"
)

// writeData holds n rows of tab (id, k, v, s): k cycles through 0–16 with a
// NULL on every 29th row, v = id % 5.
func writeData(t *testing.T, tab string, n int) *DB {
	t.Helper()
	db := Open(ModePostgres)
	if _, err := db.ExecSQL(`CREATE TABLE ` + tab + ` (id INTEGER NOT NULL, k INTEGER, v INTEGER NOT NULL, s VARCHAR NOT NULL)`); err != nil {
		t.Fatal(err)
	}
	rows := make([][]sqltypes.Value, n)
	for i := range rows {
		k := sqltypes.NewInt(int64(i % 17))
		if i%29 == 0 {
			k = sqltypes.Null
		}
		rows[i] = []sqltypes.Value{sqltypes.NewInt(int64(i)), k, sqltypes.NewInt(int64(i % 5)), sqltypes.NewString(fmt.Sprintf("s%d", i%11))}
	}
	db.Table(tab).BulkLoad(rows)
	return db
}

// writeKey is one statement's outcome, compared as text: a read's rows in
// order, a write's count of affected rows, or the error.
func writeKey(db *DB, sql string) string {
	p, err := db.PreparePlan(sql)
	if err != nil {
		return "error: " + err.Error()
	}
	res, err := db.ExecPlanContext(context.Background(), p)
	if err == nil && res.Cols == nil {
		return fmt.Sprintf("affected %d", res.Affected)
	}
	return execKey(res, err)
}

// writeReads are the reads run after every write: a full scan, equality probes
// (2 and 2.0 reach one key), ranges with a NULL item and a duplicate, an id
// probe and a filter no index serves.
var writeReads = []string{
	`SELECT * FROM ev`,
	`SELECT id, v FROM ev WHERE k = 2`,
	`SELECT id, s FROM ev WHERE k = 2.0 AND v < 4`,
	`SELECT id, k FROM ev WHERE k IN (2, 2.0, NULL, 9)`,
	`SELECT id, k, v FROM ev WHERE id = 1023`,
	`SELECT COUNT(*), SUM(v) FROM ev WHERE k IS NULL`,
}

// TestIndexWriteDifferential: seeded sequences of INSERT, UPDATE (of v and of
// the indexed k itself), DELETE and reads on ev, at 1023, 1024 and 1025 rows,
// against an oracle whose reads go through a view (no index serves them) and
// whose writes carry `OR FALSE` on their WHERE, a conjunct indexSource serves
// nothing of. Each size first grows the tail of the carried index on k to the
// rebuild bound and one row past it. Before every write a cursor is opened on
// a morsel-parallel scan and on a probe; each is pulled a little after every
// later write and must return its own snapshot, byte for byte — and under the
// race detector, a write through a page a cursor's workers read is a report.
func TestIndexWriteDifferential(t *testing.T) {
	forceParallel(t)
	steps := 120
	if testing.Short() {
		steps = 40
	}
	for _, n := range []int{1023, 1024, 1025} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			db := writeData(t, "ev", n)
			db.SetParallelism(4)
			oracle := writeData(t, "ev_heap", n)
			if _, err := oracle.ExecSQL(`CREATE VIEW ev AS SELECT * FROM ev_heap`); err != nil {
				t.Fatal(err)
			}
			type cursor struct {
				rows *Rows
				want []string
				got  []string
				sql  string
			}
			var open []*cursor
			pull := func(c *cursor, max int) {
				for ; max > 0 && c.rows.Next(); max-- {
					c.got = append(c.got, rowKey(c.rows.Row()))
				}
			}
			nextID := n
			write := func(step int, w string) {
				t.Helper()
				for _, sql := range []string{`SELECT * FROM ev WHERE v >= 0`, `SELECT id, v FROM ev WHERE k = 3`} {
					rs, err := db.QueryPlanContext(context.Background(), mustPrepare(db, sql))
					if err != nil {
						t.Fatal(err)
					}
					res, err := oracle.QuerySQL(sql)
					if err != nil {
						t.Fatal(err)
					}
					c := &cursor{rows: rs, sql: sql}
					for _, row := range res.Rows {
						c.want = append(c.want, rowKey(row))
					}
					open = append(open, c)
				}
				got := writeKey(db, strings.ReplaceAll(w, "{T}", "ev"))
				want := writeKey(oracle, strings.ReplaceAll(oracleWhere(w), "{T}", "ev_heap"))
				if got != want {
					t.Fatalf("step %d %s: %s, oracle %s", step, w, got, want)
				}
				for _, c := range open {
					pull(c, 97)
				}
				for _, r := range writeReads {
					if got, want := writeKey(db, r), writeKey(oracle, r); got != want {
						t.Fatalf("step %d after %s: %s:\ngot  %.400s\nwant %.400s", step, w, r, got, want)
					}
				}
			}
			insert := func(m int) string {
				var vals []string
				for i := 0; i < m; i++ {
					k := fmt.Sprint((nextID * 7) % 19)
					if nextID%13 == 0 {
						k = "NULL"
					}
					vals = append(vals, fmt.Sprintf("(%d, %s, %d, 'n%d')", nextID, k, nextID%5, nextID%3))
					nextID++
				}
				return `INSERT INTO {T} VALUES ` + strings.Join(vals, ", ")
			}

			// The index on k, built by a probe, is carried by the inserts: its
			// tail reaches the bound (256 rows past ≈ 1 024) and is scanned,
			// then one row more and the next probe rebuilds it.
			write(0, `UPDATE {T} SET v = v + 1 WHERE k = 2`)
			d := db.Table("ev").data.Load()
			built := d.indexes["k"]
			if built == nil || built.n != n {
				t.Fatalf("a probe on k left no index over the %d rows", n)
			}
			write(1, insert(tailBound(n)-1))
			write(2, insert(1))
			if d := db.Table("ev").data.Load(); d.indexes["k"] != built || d.n-built.n != tailBound(n) {
				t.Fatalf("the index on k was not carried to the bound: tail %d", d.n-built.n)
			}
			write(3, insert(1))
			if d := db.Table("ev").data.Load(); d.indexes["k"] == built || d.indexes["k"].n != d.n {
				t.Fatal("a tail past the bound was not rebuilt")
			}

			r := rand.New(rand.NewSource(int64(n)))
			for step := 4; step < steps; step++ {
				id := r.Intn(nextID)
				var w string
				switch r.Intn(10) {
				case 0:
					w = insert(1)
				case 1:
					w = insert(1 + r.Intn(40))
				case 2:
					w = fmt.Sprintf(`UPDATE {T} SET v = v * 2 + 1 WHERE k = %d`, r.Intn(19))
				case 3:
					w = fmt.Sprintf(`UPDATE {T} SET v = %d, s = 'u' WHERE id = %d`, r.Intn(9), id)
				case 4:
					w = fmt.Sprintf(`UPDATE {T} SET k = k + 1 WHERE k IN (%d, 2.0, NULL) AND v < 3`, r.Intn(19))
				case 5:
					w = fmt.Sprintf(`UPDATE {T} SET k = NULL WHERE id = %d`, id)
				case 6:
					w = fmt.Sprintf(`UPDATE {T} SET k = %d WHERE k IS NULL AND v = %d`, r.Intn(19), r.Intn(5))
				case 7:
					w = fmt.Sprintf(`DELETE FROM {T} WHERE k = %d AND v = %d`, r.Intn(19), r.Intn(5))
				case 8:
					w = fmt.Sprintf(`DELETE FROM {T} WHERE id IN (%d, %d, %d)`, id, r.Intn(nextID), r.Intn(nextID))
				default:
					w = fmt.Sprintf(`UPDATE {T} SET v = v + 1 WHERE v = %d`, r.Intn(5))
				}
				write(step, w)
			}
			for _, c := range open {
				pull(c, 1<<30)
				if err := c.rows.Close(); err != nil {
					t.Fatal(err)
				}
				if got, want := strings.Join(c.got, "\n"), strings.Join(c.want, "\n"); got != want {
					t.Fatalf("a cursor on %s opened before a write read %d rows, its snapshot has %d:\n%.300s\nwant\n%.300s",
						c.sql, len(c.got), len(c.want), got, want)
				}
			}
		})
	}
}

// rowKey is a row as text, each value with its kind.
func rowKey(row []sqltypes.Value) string {
	var sb strings.Builder
	for j, v := range row {
		if j > 0 {
			sb.WriteByte('|')
		}
		fmt.Fprintf(&sb, "%v:%s", v.K, v.String())
	}
	return sb.String()
}

// oracleWhere appends OR FALSE to a write's WHERE: the same rows, read by a
// scan of every row.
func oracleWhere(w string) string {
	if i := strings.Index(w, " WHERE "); i >= 0 {
		return w[:i] + " WHERE (" + w[i+len(" WHERE "):] + ") OR FALSE"
	}
	return w
}

// TestWriteErrorParity: a WHERE conjunct that would raise on a row outside
// the candidates raises nowhere — in an UPDATE and a DELETE as in a SELECT —
// and raises when a candidate reaches it, publishing nothing.
func TestWriteErrorParity(t *testing.T) {
	db := writeData(t, "ev", 3000)
	before := db.Table("ev").data.Load()
	for _, tc := range []struct{ sql, want string }{
		// v is 0 on id 0, 5, 10, …; k = 1 on ids 1, 18, 35, … of which 35 has v 0.
		{`UPDATE ev SET s = 'x' WHERE id = 7 AND 10 / v > 0`, "affected 1"},
		{`DELETE FROM ev WHERE id IN (7, 8) AND 10 / v > 100`, "affected 0"},
		{`SELECT COUNT(*) FROM ev WHERE k = 1 AND id < 30 AND 10 / v > 0`, "COUNT(*)\nINTEGER:2\n"},
		{`UPDATE ev SET s = 'x' WHERE k = 1 AND 10 / v > 0`, "error: "},
		{`DELETE FROM ev WHERE id IN (5, 7) AND 10 / v > 0`, "error: "},
		{`UPDATE ev SET s = 'x' WHERE (10 / v > 0 AND id = 7) OR FALSE`, "error: "},
	} {
		if got := writeKey(db, tc.sql); !strings.HasPrefix(got, tc.want) {
			t.Errorf("%s: %.200s, want %s", tc.sql, got, tc.want)
		}
	}
	if d := db.Table("ev").data.Load(); d == before || d.row(7)[3].S != "x" || d.n != 3000 {
		t.Error("the one UPDATE that succeeded did not publish, or the failures did")
	}
}

// TestWriteFiltersAsRead: a write's WHERE runs through the read path's
// filter (ADR-043), so an UPDATE and a DELETE touch exactly the rows a SELECT
// with the same WHERE returns — in production, the evaluator check and the
// reference, at parallelism 4 and under an 8 KB limit. `a + 0 = 5 AND 10 / x
// > 0` raises only where a is NULL, which its first conjunct rejects; the
// others write a conjunct that can raise before one that cannot and that
// rejects every row it raises on (v is 0 there), through a heap scan, an
// equality probe and an IN range.
func TestWriteFiltersAsRead(t *testing.T) {
	for _, w := range []struct{ table, where string }{
		{"t", `a + 0 = 5 AND 10 / x > 0`},
		{"ev", `k + 0 = 3 AND 10 / (id % 29) > 0`},
		{"ev", `10 / v > 2 AND v > 0`},
		{"ev", `k = 3 AND 10 / v > 2 AND v <> 0`},
		{"ev", `id IN (5, 6, 7, 10, 11) AND 10 / v > 2 AND v > 0`},
	} {
		for _, cfg := range []execConfig{cfgProduction, cfgEvalCheck, cfgReference} {
			for _, par := range []int{1, 4} {
				for _, limit := range []int64{0, 8 << 10} {
					for _, write := range []string{`UPDATE ` + w.table + ` SET id = -1 WHERE `, `DELETE FROM ` + w.table + ` WHERE `} {
						db := writeData(t, "ev", 3000)
						if _, err := db.ExecScript(`CREATE TABLE t (id INTEGER NOT NULL, a INTEGER, x INTEGER NOT NULL);
							INSERT INTO t VALUES (1, 5, 2), (2, NULL, 0)`); err != nil {
							t.Fatal(err)
						}
						cfg.apply(db)
						db.SetParallelism(par)
						db.SetMemoryLimit(limit)
						read := writeKey(db, `SELECT COUNT(*) FROM `+w.table+` WHERE `+w.where)
						n, ok := strings.CutPrefix(read, "COUNT(*)\nINTEGER:")
						if !ok || n == "0\n" {
							t.Errorf("%s %s: the read answered %q, want rows", cfg.name, w.where, read)
							continue
						}
						if got, want := writeKey(db, write+w.where), "affected "+strings.TrimSpace(n); got != want {
							t.Errorf("%s par=%d limit=%d %s%s: %s, the read %s", cfg.name, par, limit, write, w.where, got, want)
						}
					}
				}
			}
		}
	}
}

// TestWriteVisitsCandidates: DML adds the rows it reads to ScanRows — the
// candidates of an equality probe (on any column), of a range, counted in
// ScanRanges, or every row.
func TestWriteVisitsCandidates(t *testing.T) {
	db := writeData(t, "ev", 4000)
	count := func(where string) int64 {
		return queryRows(t, db, `SELECT COUNT(*) FROM ev WHERE `+where)[0][0].AsInt()
	}
	for _, tc := range []struct {
		sql    string
		rows   int64
		ranges int64
	}{
		{`UPDATE ev SET v = 9 WHERE id = 17`, 1, 0},
		{`UPDATE ev SET v = 9 WHERE id = 17 AND k = 0`, 1, 0},
		{`DELETE FROM ev WHERE id IN (3, 4, 5, 999999)`, 3, 1},
		{`UPDATE ev SET s = 'x' WHERE v = 1`, count(`v = 1`), 0},
		{`UPDATE ev SET s = 'y' WHERE k IN (1, 2) AND v < 2`, count(`k IN (1, 2)`), 1},
		{`UPDATE ev SET s = 'z' WHERE v > 3`, 3997, 0},
	} {
		db.Stats = Stats{}
		if got := writeKey(db, tc.sql); strings.HasPrefix(got, "error") {
			t.Fatalf("%s: %s", tc.sql, got)
		}
		if rows, ranges := db.Stats.ScanRows.Load(), db.Stats.ScanRanges.Load(); rows != tc.rows || ranges != tc.ranges {
			t.Errorf("%s: read %d rows through %d ranges, want %d through %d", tc.sql, rows, ranges, tc.rows, tc.ranges)
		}
	}
}

// TestPointUpdateAllocs: a point UPDATE through a carried index copies the
// page spine and one page, so its bytes at 100 000 rows exceed those at
// 10 000 by no more than the longer spine — never the N-entry heap.
func TestPointUpdateAllocs(t *testing.T) {
	bytesAt := func(n int) uint64 {
		db := writeData(t, "ev", n)
		p := mustPrepare(db, `UPDATE ev SET v = $1 WHERE id = $2`)
		run := func(i int) {
			if _, err := db.ExecPlanContext(context.Background(), p, sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i*37%n))); err != nil {
				t.Fatal(err)
			}
		}
		run(0) // builds the index on id, which the updates carry on
		const reps = 200
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 1; i <= reps; i++ {
			run(i)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / reps
	}
	small, large := bytesAt(10_000), bytesAt(100_000)
	d := writeData(t, "ev", 100_000).Table("ev").data.Load()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	spine := slices.Clone(d.pages)
	runtime.ReadMemStats(&after)
	spineBytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("a point UPDATE allocates %d B at 10 000 rows, %d B at 100 000; the spine at 100 000 is %d B", small, large, spineBytes)
	if large > small+spineBytes {
		t.Errorf("a point UPDATE allocates %d B at 100 000 rows, %d B at 10 000: more than the page spine (%d entries, %d B) apart",
			large, small, len(spine), spineBytes)
	}
}
