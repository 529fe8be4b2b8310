package engine

// A plan is a function of the schema; the one thing in it that depends on the
// data — the relation memo of a planned UDF body — belongs to the table
// snapshots it was read from (DESIGN.md ADR-024). These tests hold the two
// halves together: no write re-lowers a plan, and no execution converts at a
// rate its snapshot does not hold.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"mtbase/internal/sqltypes"
)

// payDB is the employee fixture plus pay(id, ttid, amt), n rows split over
// the two tenants — enough morsels for every worker to fill a memo of its own.
func payDB(t *testing.T, mode Mode, n int) *DB {
	t.Helper()
	db := newEmployeeDB(t, mode)
	if _, err := db.ExecScript(`
		CREATE TABLE pay (id INTEGER NOT NULL, ttid INTEGER NOT NULL, amt DECIMAL(15,2) NOT NULL);
		CREATE VIEW Rates AS SELECT CT_currency_key AS r_key, CT_to_universal AS r_rate FROM CurrencyTransform;
		CREATE FUNCTION viaView (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
		  AS 'SELECT r_rate * $1 FROM Tenant, Rates WHERE T_tenant_key = $2 AND T_currency_key = r_key'
		  LANGUAGE SQL IMMUTABLE`); err != nil {
		t.Fatal(err)
	}
	rows := make([][]sqltypes.Value, n)
	for i := range rows {
		rows[i] = []sqltypes.Value{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 2)), sqltypes.NewFloat(float64(i%97 + 1))}
	}
	db.Table("pay").BulkLoad(rows)
	return db
}

const (
	memoPlanned = `SELECT id, currencyToUniversal(amt, ttid) FROM pay WHERE currencyToUniversal(amt, ttid) > 3`
	memoViaView = `SELECT id, viaView(amt, ttid) FROM pay WHERE viaView(amt, ttid) > 3`
	memoNewRate = `UPDATE CurrencyTransform SET CT_to_universal = 2.5 WHERE CT_currency_key = 1`
)

// straddle opens a cursor over the held plan p, commits the rate change, runs
// p again and only then drains the cursor, and runs p once more — the cursor's
// memo is the plan's by then, and the next statement must not meet it. It
// returns what the open cursor answered and what the statements started after
// the write did. lazy requires that opening the cursor ran no body, so that
// the ones it runs, it runs after the write.
func straddle(t *testing.T, db *DB, p *Plan, lazy bool) (cursor, after, again string) {
	t.Helper()
	ctx := context.Background()
	calls := db.Stats.Snapshot().UDFCalls
	rows, err := db.QueryPlanContext(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if ran := db.Stats.Snapshot().UDFCalls - calls; lazy && ran != 0 {
		t.Fatalf("opening the cursor ran %d bodies", ran)
	}
	if _, err := db.ExecSQL(memoNewRate); err != nil {
		t.Fatal(err)
	}
	after = execKey(db.ExecPlanContext(ctx, p))
	cursor = execKey(rows.Collect())
	return cursor, after, execKey(db.ExecPlanContext(ctx, p))
}

func TestUDFMemoFollowsSnapshot(t *testing.T) {
	forceParallel(t)
	const n = 4000
	for _, mode := range []Mode{ModePostgres, ModeSystemC} {
		for _, sql := range []string{memoPlanned, memoViaView} {
			ref := payDB(t, mode, n)
			cfgReference.apply(ref)
			wantCursor, wantAfter, _ := straddle(t, ref, mustPrepare(ref, sql), false)
			if wantCursor == wantAfter {
				t.Fatal("the rate change does not show in the statement")
			}
			for _, cfg := range checkedConfigs {
				for _, par := range []int{1, 4} {
					name := fmt.Sprintf("%s/%s/par=%d", mode, cfg.name, par)
					db := payDB(t, mode, n)
					cfg.apply(db)
					db.SetParallelism(par)
					p := mustPrepare(db, sql)
					if _, err := db.ExecPlanContext(context.Background(), p); err != nil { // the memo is filled at the old rate
						t.Fatal(err)
					}
					db.Stats = Stats{}
					cursor, after, again := straddle(t, db, p, true)
					if cursor != wantCursor {
						t.Errorf("%s\n%s: the cursor opened before the write does not answer from its snapshot", sql, name)
					}
					if after != wantAfter || again != wantAfter {
						t.Errorf("%s\n%s: a statement started after the write does not see the new rate", sql, name)
					}
					// Three hits on p; the one miss is the UPDATE's own prepare.
					if st := db.Stats.Snapshot(); st.PlanCacheInvalidations != 0 || st.PlanCacheHits != 3 || st.PlanCacheMisses != 1 {
						t.Errorf("%s\n%s: the statements did not share one held plan: %+v", sql, name, st)
					}
					if cfg != cfgProduction {
						continue
					}
					// A body over base tables is planned; one that reads a view
					// is not, there being no snapshot of a view to pin a memo to.
					for fn, up := range p.udfPlans {
						if want := fn.Name != "viaView"; up.ok != want {
							t.Errorf("%s: body of %s planned = %v, want %v", name, fn.Name, up.ok, want)
						}
					}
				}
			}
		}
	}
}

// TestUDFMemoConcurrentWriters: writers flip the rate of tenant 1's currency
// while readers run one held plan. Each reader converts every row at
// one rate — the one its snapshot holds — and nothing re-lowers the plan.
func TestUDFMemoConcurrentWriters(t *testing.T) {
	forceParallel(t)
	const n = 3000
	db := payDB(t, ModePostgres, n)
	db.SetParallelism(4)
	sql := `SELECT MIN(currencyToUniversal(10.0, ttid)), MAX(currencyToUniversal(10.0, ttid)), COUNT(*) FROM pay WHERE ttid = 1`
	p, up := mustPrepare(db, sql), mustPrepare(db, `UPDATE CurrencyTransform SET CT_to_universal = ? WHERE CT_currency_key = 1`)
	db.Stats = Stats{}

	iters := 60
	if testing.Short() {
		iters = 15
	}
	rates := []float64{1.5, 2.5, 4}
	ten := 10.0
	answers := map[float64]bool{1.1 * ten: true} // the fixture's rate
	for _, r := range rates {
		answers[r*ten] = true
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rate := sqltypes.NewFloat(rates[(i+w)%len(rates)])
				if _, err := db.ExecPlanContext(context.Background(), up, rate); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := db.ExecPlanContext(context.Background(), p)
				if err != nil {
					errs <- err
					return
				}
				lo, hi, cnt := res.Rows[0][0].AsFloat(), res.Rows[0][1].AsFloat(), res.Rows[0][2].AsInt()
				if lo != hi || cnt != n/2 || !answers[lo] {
					errs <- fmt.Errorf("one statement converted at rates %v..%v over %d rows", lo/10, hi/10, cnt)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Whichever writer was last, the next statement converts at its rate.
	rate := queryRows(t, db, `SELECT CT_to_universal FROM CurrencyTransform WHERE CT_currency_key = 1`)[0][0].AsFloat()
	if res, err := db.ExecPlanContext(context.Background(), p); err != nil || res.Rows[0][0].AsFloat() != rate*ten {
		t.Errorf("after the writers: 10 converts to %v (%v), the table says %v", res, err, rate*ten)
	}
	if st := db.Stats.Snapshot(); st.PlanCacheInvalidations != 0 {
		t.Errorf("writes re-lowered the readers' plan: %+v", st)
	}
}

// TestUDFBodyReadingThroughUDFIsNotPlanned: a memo is pinned to the tables of
// the body's FROM, so a body whose WHERE reads another table through a UDF of
// its own is left to the general path — a write to that table shows at once.
func TestUDFBodyReadingThroughUDFIsNotPlanned(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	if _, err := db.ExecScript(`
		CREATE FUNCTION currencyOf (INTEGER) RETURNS INTEGER
		  AS 'SELECT T_currency_key FROM Tenant WHERE T_tenant_key = $1' LANGUAGE SQL IMMUTABLE;
		CREATE FUNCTION viaKey (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
		  AS 'SELECT CT_to_universal * $1 FROM CurrencyTransform WHERE CT_currency_key = COALESCE(currencyOf($2), ABS(0))'
		  LANGUAGE SQL IMMUTABLE`); err != nil {
		t.Fatal(err)
	}
	p := mustPrepare(db, "SELECT viaKey(100.0, 1) FROM Regions WHERE Re_reg_id = 0")
	for i, want := range []float64{110, 100} {
		res, err := db.ExecPlanContext(context.Background(), p)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Rows[0][0].AsFloat(); got < want-0.01 || got > want+0.01 {
			t.Fatalf("run %d: viaKey(100, 1) = %v, want ~%v", i, got, want)
		}
		if _, err := db.ExecSQL("UPDATE Tenant SET T_currency_key = 0 WHERE T_tenant_key = 1"); err != nil {
			t.Fatal(err)
		}
	}
	for fn, up := range p.udfPlans {
		if want := fn.Name == "currencyOf"; up.ok != want {
			t.Errorf("body of %s planned = %v, want %v", fn.Name, up.ok, want)
		}
	}
	if db.Stats.PlanCacheInvalidations.Load() != 0 {
		t.Errorf("writes re-lowered the plan: %+v", db.Stats.Snapshot())
	}
}
