package engine

// Tests for morsel-driven parallel execution: differential equivalence of
// the parallel operators against the serial oracle (parallelism 1), error
// parity on poison rows, snapshot isolation of open cursors across writer
// commits, and a reader/writer/DDL stress test meant to run under -race.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mtbase/internal/sqltypes"
)

// forceParallel shrinks the morsel size so the parallel paths engage on
// test-sized tables, restoring the default when the test ends.
func forceParallel(t *testing.T) {
	t.Helper()
	SetMorselSize(1) // rounds up to one batch
	t.Cleanup(func() { SetMorselSize(0) })
}

// TestParallelMatchesSerial runs every streaming shape at parallelism 1 and
// 8, with compiled kernels and with the lifted interpreter, and requires
// output byte-identical to the reference executor (serial by construction).
func TestParallelMatchesSerial(t *testing.T) {
	forceParallel(t)
	db := streamTestDB(t, 3000)
	addFact2(t, db)
	for _, q := range streamShapes {
		cfgReference.apply(db)
		want := execKey(db.QuerySQL(q))
		for _, cfg := range checkedConfigs {
			cfg.apply(db)
			for _, par := range []int{1, 8} {
				db.SetParallelism(par)
				if got := execKey(db.QuerySQL(q)); got != want {
					t.Errorf("%s par=%d %q:\ngot:\n%s\nreference:\n%s", cfg.name, par, q, got, want)
				}
			}
		}
	}
}

// TestParallelErrorParity plants a poison row mid-heap and requires the
// parallel scan to surface the same error, and the same prefix of
// survivors before it, as the serial path.
func TestParallelErrorParity(t *testing.T) {
	forceParallel(t)
	for _, compiled := range []bool{true, false} {
		db := Open(ModePostgres)
		if _, err := db.ExecSQL(`CREATE TABLE p (id INTEGER NOT NULL, d INTEGER NOT NULL)`); err != nil {
			t.Fatal(err)
		}
		const n = 6000
		rows := make([][]sqltypes.Value, n)
		for i := 0; i < n; i++ {
			d := int64(1)
			if i == 4000 {
				d = 0 // poison: 100 % d errors here
			}
			rows[i] = []sqltypes.Value{sqltypes.NewInt(int64(i)), sqltypes.NewInt(d)}
		}
		db.Table("p").BulkLoad(rows)
		db.SetCompileExprs(compiled)
		const q = `SELECT id FROM p WHERE 100 % d = 0 AND id % 3 = 0`

		collect := func(par int) (got []int64, errStr string) {
			db.SetParallelism(par)
			rs, err := db.QueryPlanContext(context.Background(), mustPrepare(db, q))
			if err != nil {
				return nil, err.Error()
			}
			defer rs.Close()
			for rs.Next() {
				var id int64
				if err := rs.Scan(&id); err != nil {
					t.Fatal(err)
				}
				got = append(got, id)
			}
			if rs.Err() != nil {
				errStr = rs.Err().Error()
			}
			return got, errStr
		}
		ids1, err1 := collect(1)
		ids8, err8 := collect(8)
		if err1 == "" || !strings.Contains(err1, "modulo") {
			t.Fatalf("compiled=%v: serial run did not hit poison row: %q", compiled, err1)
		}
		if err8 != err1 {
			t.Errorf("compiled=%v: error mismatch: par=8 %q, par=1 %q", compiled, err8, err1)
		}
		if fmt.Sprint(ids8) != fmt.Sprint(ids1) {
			t.Errorf("compiled=%v: survivor prefix mismatch: par=8 %d rows, par=1 %d rows",
				compiled, len(ids8), len(ids1))
		}
	}
}

// TestCursorSnapshotAcrossWrites opens a cursor, then commits many writes
// — updates, inserts, and a view swap — while draining it. The cursor
// must see exactly the state pinned at open (no torn reads, no rows from
// later commits), a cursor opened afterwards must see the new state, and
// Close must not deadlock against the writers.
func TestCursorSnapshotAcrossWrites(t *testing.T) {
	forceParallel(t)
	db := Open(ModePostgres)
	if _, err := db.ExecSQL(`CREATE TABLE acct (id INTEGER NOT NULL, bal INTEGER NOT NULL)`); err != nil {
		t.Fatal(err)
	}
	const n = 5000
	rows := make([][]sqltypes.Value, n)
	for i := 0; i < n; i++ {
		rows[i] = []sqltypes.Value{sqltypes.NewInt(int64(i)), sqltypes.NewInt(1)}
	}
	db.Table("acct").BulkLoad(rows)

	rs, err := db.QueryPlanContext(context.Background(), mustPrepare(db, `SELECT id, bal FROM acct`))
	if err != nil {
		t.Fatal(err)
	}
	var sum, count int64
	step := 0
	for rs.Next() {
		var id, bal int64
		if err := rs.Scan(&id, &bal); err != nil {
			t.Fatal(err)
		}
		sum += bal
		count++
		// Every few hundred rows, commit a write that would change the
		// answer if the cursor were reading live state.
		if count%500 == 0 {
			step++
			if _, err := db.ExecSQL(fmt.Sprintf(`UPDATE acct SET bal = %d`, 100+step)); err != nil {
				t.Fatal(err)
			}
			if _, err := db.ExecSQL(fmt.Sprintf(`INSERT INTO acct VALUES (%d, %d)`, n+step, 1000)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rs.Err() != nil {
		t.Fatal(rs.Err())
	}
	if count != n || sum != n {
		t.Fatalf("cursor saw count=%d sum=%d; want %d/%d (pinned snapshot)", count, sum, n, n)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh query sees every commit: all n rows at the last bal plus the
	// inserted rows.
	res, err := db.QuerySQL(`SELECT COUNT(*), SUM(bal) FROM acct`)
	if err != nil {
		t.Fatal(err)
	}
	// Each step updates every row that exists — including earlier inserts —
	// then adds one row at 1000, so only the final insert keeps bal 1000.
	wantCount := int64(n + step)
	wantSum := (wantCount-1)*int64(100+step) + 1000
	if got := res.Rows[0][0].AsInt(); got != wantCount {
		t.Errorf("post-write COUNT(*) = %d, want %d", got, wantCount)
	}
	if got := res.Rows[0][1].AsInt(); got != wantSum {
		t.Errorf("post-write SUM(bal) = %d, want %d", got, wantSum)
	}
}

// TestParallelStress hammers one DB from concurrent readers (parallel
// scans and open cursors), writers (inserts and updates), and a DDL
// goroutine swapping a view — the shape the -race CI job is meant to
// check. Readers only assert invariants that hold under snapshot reads:
// every scan sees a balance total consistent with some committed state.
func TestParallelStress(t *testing.T) {
	forceParallel(t)
	db := Open(ModePostgres)
	if _, err := db.ExecScript(`
		CREATE TABLE ledger (id INTEGER NOT NULL, amt INTEGER NOT NULL);
		CREATE VIEW pos AS SELECT id, amt FROM ledger WHERE amt >= 0`); err != nil {
		t.Fatal(err)
	}
	const n = 4000
	seed := make([][]sqltypes.Value, n)
	for i := 0; i < n; i++ {
		seed[i] = []sqltypes.Value{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 10))}
	}
	db.Table("ledger").BulkLoad(seed)
	db.SetParallelism(4)

	iters := 30
	if testing.Short() {
		iters = 8
	}
	var wg sync.WaitGroup
	fail := make(chan error, 64)
	report := func(format string, args ...any) {
		select {
		case fail <- fmt.Errorf(format, args...):
		default:
		}
	}

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := db.QuerySQL(`SELECT COUNT(*), SUM(amt) FROM ledger`)
				if err != nil {
					report("reader %d: %v", r, err)
					return
				}
				if c := res.Rows[0][0].AsInt(); c < n {
					report("reader %d: COUNT(*) = %d < seed %d", r, c, n)
					return
				}
				// Cursor held open across other goroutines' commits.
				rs, err := db.QueryPlanContext(context.Background(), mustPrepare(db, `SELECT amt FROM ledger WHERE amt % 2 = 0`))
				if err != nil {
					report("reader %d cursor: %v", r, err)
					return
				}
				for rs.Next() {
					if rs.Row()[0].AsInt()%2 != 0 {
						report("reader %d: torn read, odd amt from even-filter", r)
						break
					}
				}
				if rs.Err() != nil {
					report("reader %d cursor err: %v", r, rs.Err())
				}
				rs.Close()
			}
		}(r)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := db.ExecSQL(fmt.Sprintf(`INSERT INTO ledger VALUES (%d, %d)`, n+w*iters+i, i%10)); err != nil {
					report("writer %d insert: %v", w, err)
					return
				}
				if _, err := db.ExecSQL(fmt.Sprintf(`UPDATE ledger SET amt = amt + 2 WHERE id %% 97 = %d`, i%97)); err != nil {
					report("writer %d update: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := db.ExecSQL(`DROP VIEW pos`); err != nil {
				report("ddl drop: %v", err)
				return
			}
			if _, err := db.ExecSQL(`CREATE VIEW pos AS SELECT id, amt FROM ledger WHERE amt >= 0`); err != nil {
				report("ddl create: %v", err)
				return
			}
			if _, err := db.QuerySQL(`SELECT COUNT(*) FROM pos`); err != nil {
				// The view may be mid-swap from this goroutine's own DDL
				// only; no other goroutine drops it, so a miss is a bug.
				report("ddl query: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Error(err)
	}
}

// TestSetParallelismAndMorselSize pins down the knob semantics: n <= 0
// restores defaults, morsel sizes round up to a batch multiple.
func TestSetParallelismAndMorselSize(t *testing.T) {
	db := Open(ModePostgres)
	db.SetParallelism(3)
	db.mu.Lock()
	if got := db.parallelism(); got != 3 {
		t.Errorf("parallelism() = %d, want 3", got)
	}
	db.mu.Unlock()
	db.SetParallelism(0)
	db.mu.Lock()
	if got := db.parallelism(); got < 1 {
		t.Errorf("default parallelism() = %d, want >= 1", got)
	}
	db.mu.Unlock()

	SetMorselSize(1)
	if got := morselLen(); got != batchSize {
		t.Errorf("morselLen() after SetMorselSize(1) = %d, want %d", got, batchSize)
	}
	SetMorselSize(batchSize + 1)
	if got := morselLen(); got != 2*batchSize {
		t.Errorf("morselLen() after SetMorselSize(batch+1) = %d, want %d", got, 2*batchSize)
	}
	SetMorselSize(0)
	if got := morselLen(); got != 4*batchSize {
		t.Errorf("default morselLen() = %d, want %d", got, 4*batchSize)
	}
}
