package engine

// Tests for the index scan's range form (DESIGN.md ADR-026): a `col IN (list)`
// conjunct over a base table reads the union of the list's buckets of the
// table's persistent index, in heap order, while that union is at most a
// quarter of the heap — and must answer exactly what the reference executor's
// filter over the whole heap answers, row order and errors included.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mtbase/internal/sqltypes"
)

// rangeDB holds ev, 4 000 rows over ten tenants (ttid 0–9, NULL on every 53rd
// row), so one tenant is ≈ 390 rows and a quarter of the heap is 1 000: two
// tenants take the range, three do not. v is 5 exactly on tenant 9's rows.
func rangeDB(t *testing.T) *DB { return rangeData(t, "ev") }

// rangeOracle holds the same rows with ev a view over them: no source named
// ev is a base table, so no index serves a conjunct over it, and the
// reference executor filters the whole heap, in heap order.
func rangeOracle(t *testing.T) *DB {
	db := rangeData(t, "ev_heap")
	if _, err := db.ExecSQL(`CREATE VIEW ev AS SELECT * FROM ev_heap`); err != nil {
		t.Fatal(err)
	}
	return db
}

func rangeData(t *testing.T, table string) *DB {
	t.Helper()
	db := Open(ModePostgres)
	if _, err := db.ExecScript(`
		CREATE TABLE ` + table + ` (id INTEGER NOT NULL, ttid INTEGER, k INTEGER NOT NULL, v INTEGER NOT NULL, s VARCHAR NOT NULL);
		CREATE TABLE kinds (k INTEGER NOT NULL, name VARCHAR NOT NULL)`); err != nil {
		t.Fatal(err)
	}
	var ev [][]sqltypes.Value
	for i := 0; i < 4000; i++ {
		ttid, v := sqltypes.NewInt(int64(i%10)), int64(i%5)
		if i%10 == 9 {
			v = 5
		}
		if i%53 == 0 {
			ttid = sqltypes.Null
		}
		ev = append(ev, []sqltypes.Value{sqltypes.NewInt(int64(i)), ttid, sqltypes.NewInt(int64(i % 7)),
			sqltypes.NewInt(v), sqltypes.NewString(fmt.Sprintf("s%d", i%13))})
	}
	db.Table(table).BulkLoad(ev)
	for k := 0; k < 7; k++ {
		db.Table("kinds").AppendRow([]sqltypes.Value{sqltypes.NewInt(int64(k)), sqltypes.NewString(fmt.Sprintf("k%d", k))})
	}
	return db
}

// How ev is read, serial and uncapped: through the range (one, handing on at
// most a quarter of the heap), through an equality probe, by a scan of the
// heap, or any way.
const (
	viaRange = "range"
	viaProbe = "probe"
	viaScan  = "scan"
)

var rangeShapes = []struct {
	name, sql string
	args      []sqltypes.Value
	wantErr   string
	via       string
}{
	{name: "one value", sql: `SELECT * FROM ev WHERE ttid IN (3)`, via: viaRange},
	{name: "several values, listed out of heap order", sql: `SELECT id, ttid, v FROM ev WHERE ttid IN (7, 1)`, via: viaRange},
	{name: "a duplicate item", sql: `SELECT id, s FROM ev WHERE ttid IN (2, 2)`, via: viaRange},
	{name: "an INTEGER column probed with 2.0 beside 2", sql: `SELECT id FROM ev WHERE ttid IN (2.0, 6, 2)`, via: viaRange},
	{name: "a NULL item", sql: `SELECT id, ttid FROM ev WHERE ttid IN (4, NULL)`, via: viaRange},
	{name: "only NULL: no row, not even the NULL keys", sql: `SELECT id FROM ev WHERE ttid IN (NULL)`, via: viaRange},
	{name: "absent values", sql: `SELECT id FROM ev WHERE ttid IN (42, -1)`, via: viaRange},
	{name: "binds, beside a filter on the candidates", sql: `SELECT id, k FROM ev WHERE ttid IN ($1, $2) AND k < $3`,
		args: []sqltypes.Value{sqltypes.NewInt(8), sqltypes.NewInt(0), sqltypes.NewInt(4)}, via: viaRange},
	{name: "bind arithmetic as an item", sql: `SELECT id FROM ev WHERE ttid IN ($1 + 1) AND v > 1`,
		args: []sqltypes.Value{sqltypes.NewInt(4)}, via: viaRange},
	{name: "more than a quarter: the scan", sql: `SELECT id, ttid FROM ev WHERE ttid IN (1, 2, 3)`, via: viaScan},
	{name: "every tenant, as the canonical scope writes it", sql: `SELECT id, ttid FROM ev WHERE ttid IN (0, 1, 2, 3, 4, 5, 6, 7, 8, 9) AND k = v`, via: viaScan},
	{name: "an equality probe first, the list over its candidates", sql: `SELECT id FROM ev WHERE k = 3 AND ttid IN (2, 5)`, via: viaProbe},
	{name: "grouped over the range", sql: `SELECT k, COUNT(*), SUM(v), MIN(s) FROM ev WHERE ttid IN (3, 8) GROUP BY k ORDER BY k`, via: viaRange},
	{name: "LIMIT over the range", sql: `SELECT id, s FROM ev WHERE ttid IN (6, 7) LIMIT 500`, via: viaRange},
	{name: "the first source of a join", sql: `SELECT e.id, n.name FROM ev e, kinds n WHERE e.ttid IN (5) AND e.k = n.k AND n.name <> 'k3'`},
	{name: "an outer column as the item", sql: `SELECT n.k, n.name FROM kinds n WHERE EXISTS (SELECT 1 FROM ev e WHERE e.ttid IN (n.k) AND e.v = 4)`},
	{name: "a conjunct that raises only on rows outside the list", sql: `SELECT id, v FROM ev WHERE ttid IN (2, 4) AND 100 / (v - 5) < 0`, via: viaRange},
	{name: "the same over a list that reaches those rows", sql: `SELECT id, v FROM ev WHERE ttid IN (2, 9) AND 100 / (v - 5) < 0`,
		wantErr: "division by zero"},
	{name: "the same over the scan", sql: `SELECT id, v FROM ev WHERE ttid IN (1, 2, 3, 4, 9) AND 100 / (v - 5) < 0`,
		wantErr: "division by zero"},
	{name: "an item that raises: the list stays a filter", sql: `SELECT id FROM ev WHERE ttid IN (2, 1 / 0)`,
		wantErr: "division by zero"},
	{name: "a bind item that raises, after one that matches some rows", sql: `SELECT id FROM ev WHERE ttid IN ($1, $2 / 0)`,
		args: []sqltypes.Value{sqltypes.NewInt(2), sqltypes.NewInt(1)}, wantErr: "division by zero"},
	{name: "a NULL item before one that raises: the error, not NULL", sql: `SELECT id FROM ev WHERE v IN ($1, NULL, $1 / 0)`,
		args: []sqltypes.Value{sqltypes.NewInt(4)}, wantErr: "division by zero"},
	{name: "bind arithmetic as operands, evaluated once a batch", sql: `SELECT id, v FROM ev WHERE ttid IN (6) AND v BETWEEN $1 - 1 AND $1 + 1 AND k * 2 < -$2 + 20`,
		args: []sqltypes.Value{sqltypes.NewInt(3), sqltypes.NewInt(6)}, via: viaRange},
	{name: "a bind operand that raises, behind a short-circuit no row passes", sql: `SELECT id FROM ev WHERE ttid IN (6) AND (k < 7 OR v > $1 / 0)`,
		args: []sqltypes.Value{sqltypes.NewInt(3)}, via: viaRange},
	{name: "the same where rows reach it", sql: `SELECT id FROM ev WHERE ttid IN (6) AND (k < 5 OR v > $1 / 0)`,
		args: []sqltypes.Value{sqltypes.NewInt(3)}, wantErr: "division by zero"},
	{name: "a bind list over an expression: the hashed kernel, no range", sql: `SELECT id FROM ev WHERE v * 2 IN ($1, $2, NULL) AND k <> 1`,
		args: []sqltypes.Value{sqltypes.NewInt(4), sqltypes.NewInt(10)}, via: viaScan},
	{name: "NOT IN stays a filter", sql: `SELECT id FROM ev WHERE ttid NOT IN (1, 2, 3, 4, 5, 6, 7, 8)`, via: viaScan},
}

// TestIndexRangeDifferential: every shape, in both executors (production, the
// evaluator check and the reference), at parallelism 1 and 8, unlimited and
// under 64 KB, is byte-identical to the reference executor filtering every
// row of ev — values, kinds, row order and error text — and, serial and
// uncapped, reads ev the way it is here for.
func TestIndexRangeDifferential(t *testing.T) {
	db := rangeDB(t)
	db.SetSpillDir(t.TempDir())
	heap := int64(db.Table("ev").RowCount())
	run := func(db *DB, sql string, args []sqltypes.Value) string {
		p, err := db.PreparePlan(sql)
		if err != nil {
			return execKey(nil, err)
		}
		return execKey(db.ExecPlanContext(context.Background(), p, args...))
	}

	oracle := rangeOracle(t)
	cfgReference.apply(oracle)
	want := make([]string, len(rangeShapes))
	for i, tc := range rangeShapes {
		want[i] = run(oracle, tc.sql, tc.args)
		if isErr := strings.HasPrefix(want[i], "error: "); isErr != (tc.wantErr != "") || !strings.Contains(want[i], tc.wantErr) {
			t.Fatalf("reference %s: %.300s (want error %q)", tc.name, want[i], tc.wantErr)
		}
	}
	for _, limit := range []int64{0, 64 << 10} {
		for _, cfg := range []execConfig{cfgProduction, cfgEvalCheck, cfgReference} {
			for _, par := range []int{1, 8} {
				cfg.apply(db)
				db.SetParallelism(par)
				db.SetMemoryLimit(limit)
				for i, tc := range rangeShapes {
					db.Stats = Stats{}
					if got := run(db, tc.sql, tc.args); got != want[i] {
						t.Errorf("limit=%d %s par=%d %s:\ngot  %.300s\nwant %.300s", limit, cfg.name, par, tc.name, got, want[i])
					}
					if limit != 0 || par != 1 || cfg == cfgReference {
						continue // the reference executor counts no rows read
					}
					read, ranges := db.Stats.ScanRows.Load(), db.Stats.ScanRanges.Load()
					switch {
					case tc.via == viaRange && (ranges != 1 || read > heap/indexJoinShare):
						t.Errorf("%s %s: %d rows read through %d ranges, want one range (at most %d rows)", cfg.name, tc.name, read, ranges, heap/indexJoinShare)
					case tc.via == viaProbe && (ranges != 0 || read >= heap):
						t.Errorf("%s %s: %d rows read through %d ranges, want an equality probe", cfg.name, tc.name, read, ranges)
					case tc.via == viaScan && (ranges != 0 || read != heap):
						t.Errorf("%s %s: %d rows read through %d ranges, want the scan (%d rows)", cfg.name, tc.name, read, ranges, heap)
					}
				}
			}
		}
	}
	cfgProduction.apply(db)
}

// TestIndexRangeSeesWrites: a write between two executions of one cached plan
// publishes a fresh snapshot, and the next execution reads the range of a
// fresh index over it — the row that was not there is read, the one deleted
// is gone.
func TestIndexRangeSeesWrites(t *testing.T) {
	db := rangeDB(t)
	const q = `SELECT id, k, v FROM ev WHERE ttid IN (3, 4) AND k = v`
	p, err := db.PreparePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	for step, write := range []string{
		``,
		`INSERT INTO ev VALUES (4000, 3, 2, 2, 'new')`,
		`DELETE FROM ev WHERE id = 4000`,
		`UPDATE ev SET ttid = 4 WHERE id = 5`,
		`UPDATE ev SET ttid = NULL WHERE ttid = 3 AND k = 1`,
	} {
		if write != "" {
			if _, err := db.ExecSQL(write); err != nil {
				t.Fatal(err)
			}
		}
		cfgProduction.apply(db)
		db.Stats = Stats{}
		got := execKey(db.ExecPlanContext(context.Background(), p))
		if read := db.Stats.ScanRows.Load(); read == 0 || read > int64(db.Table("ev").RowCount()/indexJoinShare) {
			t.Errorf("step %d: %d rows read, want the range", step, read)
		}
		cfgReference.apply(db)
		if want := execKey(db.QuerySQL(q)); got != want {
			t.Errorf("step %d (%s):\ngot  %s\nwant %s", step, write, got, want)
		}
	}
	cfgProduction.apply(db)
}

// TestScratchReuseConcurrent: a statement hands its scratch stack to the
// statements after it (vecStacks) when it ends — never while a cursor still
// holds it. Eight sessions read through cursors, row by row, beside a grouped
// statement that spills and one that panics under Recover, while a cursor
// opened before them is read to its end among them; every answer is
// byte-identical to the reference executor's, which takes no scratch.
func TestScratchReuseConcurrent(t *testing.T) {
	injectBoom(t, 3999)
	db := rangeDB(t)
	dir := t.TempDir()
	db.SetSpillDir(dir)
	const (
		spills = `SELECT id % 997 AS g, COUNT(*), SUM(v), MIN(s) FROM ev GROUP BY id % 997 ORDER BY g`
		panics = `SELECT id FROM ev WHERE MT_BOOM(id) >= 0`
	)
	reads := []string{
		`SELECT id, v, s FROM ev WHERE ttid IN ($1) AND v + k > 3`,
		`SELECT id, v * k - $1, s FROM ev WHERE v + k > $1 % 4 AND s <> 's1'`,
		`SELECT k, COUNT(*), SUM(v * 2 - k) FROM ev WHERE ttid IN ($1, 9) GROUP BY k ORDER BY k`,
		`SELECT e.id, n.name FROM ev e, kinds n WHERE e.ttid IN ($1) AND e.k = n.k AND n.name LIKE 'k%'`,
	}
	key := func(q string, c int) string { return fmt.Sprintf("%s [%d]", q, c) }
	cfgReference.apply(db)
	want := map[string]string{spills: execKey(db.QuerySQL(spills))}
	for _, q := range reads {
		for c := 0; c < 10; c++ {
			want[key(q, c)] = execKey(db.ExecArgs(q, sqltypes.NewInt(int64(c))))
		}
	}
	cfgProduction.apply(db)
	db.SetParallelism(2)
	db.SetMemoryLimit(64 << 10)

	// read drains a cursor a row at a time, yielding between rows, so its
	// batches are pulled while other statements run theirs.
	read := func(q string, c int, rows *Rows, res *Result) string {
		for rows.Next() {
			res.Rows = append(res.Rows, rows.Row())
			runtime.Gosched()
		}
		if err := rows.Close(); err != nil || rows.Err() != nil {
			return fmt.Sprint("error: ", err, rows.Err())
		}
		return execKey(res, nil)
	}
	held, err := db.QueryRows(reads[1], sqltypes.NewInt(3))
	if err != nil {
		t.Fatal(err)
	}
	heldRes := &Result{Cols: held.Columns()}
	for len(heldRes.Rows) < 50 && held.Next() {
		heldRes.Rows = append(heldRes.Rows, held.Row())
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if got := read(reads[1], 3, held, heldRes); got != want[key(reads[1], 3)] {
			t.Errorf("the cursor opened before the sessions:\ngot  %.300s\nwant %.300s", got, want[key(reads[1], 3)])
		}
	}()
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				switch i % 10 {
				case 3:
					if got := execKey(db.QuerySQL(spills)); got != want[spills] {
						t.Errorf("session %d: %s:\ngot  %.200s\nwant %.200s", s, spills, got, want[spills])
					}
				case 7:
					if _, err := db.QuerySQL(panics); !errors.Is(err, ErrInternal) {
						t.Errorf("session %d: want the panic as the statement's error, got %v", s, err)
					}
				default:
					q, c := reads[(s+i)%len(reads)], (s*7+i)%10
					rows, err := db.QueryRows(q, sqltypes.NewInt(int64(c)))
					if err != nil {
						t.Errorf("session %d: %s: %v", s, key(q, c), err)
						continue
					}
					if got := read(q, c, rows, &Result{Cols: rows.Columns()}); got != want[key(q, c)] {
						t.Errorf("session %d: %s:\ngot  %.200s\nwant %.200s", s, key(q, c), got, want[key(q, c)])
					}
				}
			}
		}(s)
	}
	wg.Wait()
	if st := db.Stats.Snapshot(); st.SpillRuns == 0 || st.Panics != 8*2 {
		t.Errorf("%d spill runs, %d panics; want some, and 16", st.SpillRuns, st.Panics)
	}
	assertDirEmpty(t, dir)
}
