package middleware

import (
	"testing"

	"mtbase/internal/engine"
	"mtbase/internal/optimizer"
	"mtbase/internal/sqltypes"
)

// TestPointUpdateReadsItsRows: a prepared `UPDATE … WHERE E_id = ?` at o4,
// rewritten with its D-filter, reads exactly the rows it updates from a
// 10 000-row tenant-specific table (DESIGN.md ADR-032) — through the index
// on E_id, not a scan of both tenants' rows.
func TestPointUpdateReadsItsRows(t *testing.T) {
	srv := newExample(t, engine.ModePostgres)
	admin := connFor(t, srv, 99)
	if _, err := admin.Exec(`CREATE TABLE Events SPECIFIC (
		E_id INTEGER NOT NULL SPECIFIC,
		E_amount DECIMAL(15,2) NOT NULL COMPARABLE,
		CONSTRAINT pk_ev PRIMARY KEY (E_id))`); err != nil {
		t.Fatal(err)
	}
	tab := srv.DB().Table("Events")
	ttid, id, amount := tab.ColIndex("ttid"), tab.ColIndex("E_id"), tab.ColIndex("E_amount")
	rows := make([][]sqltypes.Value, 10_000)
	for i := range rows {
		rows[i] = make([]sqltypes.Value, len(tab.Cols))
		rows[i][ttid] = sqltypes.NewInt(int64(i % 2))
		rows[i][id] = sqltypes.NewInt(int64(i))
		rows[i][amount] = sqltypes.NewFloat(1)
	}
	tab.BulkLoad(rows)

	c := connFor(t, srv, 0)
	if err := c.SetOptLevel(optimizer.O4); err != nil {
		t.Fatal(err)
	}
	st, err := c.Prepare(`UPDATE Events SET E_amount = ? WHERE E_id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		id         int64
		read, upd  int64
		tenantsRow string
	}{
		{id: 4242, read: 1, upd: 1, tenantsRow: "tenant 0's"},
		{id: 4243, read: 1, upd: 0, tenantsRow: "tenant 1's"},
		{id: 20_000, read: 0, upd: 0, tenantsRow: "no"},
	} {
		before := srv.DB().Stats.Snapshot()
		res, err := st.Exec(2.5, tc.id)
		if err != nil {
			t.Fatal(err)
		}
		read := srv.DB().Stats.Snapshot().ScanRows - before.ScanRows
		if res.Affected != int(tc.upd) || read != tc.read {
			t.Errorf("E_id = %d (%s row): %d rows read, %d updated; want %d read, %d updated",
				tc.id, tc.tenantsRow, read, res.Affected, tc.read, tc.upd)
		}
	}
	if got := tab.Heap()[4242][amount]; got.AsFloat() != 2.5 {
		t.Errorf("E_id 4242 holds %v after the update, want 2.5", got)
	}
}
