package mth

import (
	"fmt"
	"strings"
	"testing"

	"mtbase/internal/engine"
	"mtbase/internal/optimizer"
)

func tinyConfig() Config {
	return Config{SF: 0.001, Tenants: 5, Dist: Uniform, Seed: 7, Mode: engine.ModePostgres}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(tinyConfig())
	b := Generate(tinyConfig())
	if len(a.Lineitem) != len(b.Lineitem) || len(a.Customer) != len(b.Customer) {
		t.Fatal("sizes differ between runs")
	}
	for i := range a.Customer {
		for j := range a.Customer[i] {
			if a.Customer[i][j].String() != b.Customer[i][j].String() {
				t.Fatalf("customer row %d col %d differs", i, j)
			}
		}
	}
}

func TestTenantSharesUniform(t *testing.T) {
	d := Generate(tinyConfig())
	counts := make(map[int64]int)
	for _, tt := range d.CustTenant {
		counts[tt]++
	}
	if len(counts) != 5 {
		t.Fatalf("tenants present: %d", len(counts))
	}
	min, max := 1<<30, 0
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 1 {
		t.Errorf("uniform shares unbalanced: min=%d max=%d", min, max)
	}
}

func TestTenantSharesZipf(t *testing.T) {
	cfg := tinyConfig()
	cfg.Dist = Zipf
	cfg.Tenants = 8
	d := Generate(cfg)
	counts := make(map[int64]int)
	for _, tt := range d.CustTenant {
		counts[tt]++
	}
	// Tenant 1 gets the biggest share (§5).
	for tt, c := range counts {
		if tt != 1 && c > counts[1] {
			t.Errorf("tenant %d share %d exceeds tenant 1 share %d", tt, c, counts[1])
		}
	}
	if counts[1] <= counts[8]*2 {
		t.Errorf("zipf skew too weak: t1=%d t8=%d", counts[1], counts[8])
	}
}

func TestFKLocality(t *testing.T) {
	d := Generate(tinyConfig())
	custTenant := make(map[int64]int64)
	for i, row := range d.Customer {
		custTenant[row[0].I] = d.CustTenant[i]
	}
	for i, row := range d.Orders {
		ck := row[1].I
		if custTenant[ck] != d.OrderTenant[i] {
			t.Fatalf("order %d links to customer of another tenant", row[0].I)
		}
	}
	orderTenant := make(map[int64]int64)
	for i, row := range d.Orders {
		orderTenant[row[0].I] = d.OrderTenant[i]
	}
	for i, row := range d.Lineitem {
		if orderTenant[row[0].I] != d.LineTenant[i] {
			t.Fatalf("lineitem %d crosses tenants", i)
		}
	}
}

func TestTenant1IsUniversal(t *testing.T) {
	d := Generate(tinyConfig())
	if d.ToUniversalRate[1] != 1.0 || d.PhonePrefix[1] != "" {
		t.Errorf("tenant 1 must have universal formats: rate=%v prefix=%q",
			d.ToUniversalRate[1], d.PhonePrefix[1])
	}
	for tt := int64(2); tt <= 5; tt++ {
		if d.ToUniversalRate[tt] <= 0 {
			t.Errorf("tenant %d has invalid rate %v", tt, d.ToUniversalRate[tt])
		}
	}
}

func TestConversionRoundTrip(t *testing.T) {
	d := Generate(tinyConfig())
	for tt := int64(1); tt <= 5; tt++ {
		v := 12345.67
		tenant := d.ConvertCurrency(v, tt)
		back := tenant * d.ToUniversalRate[tt]
		if back < v*0.999999 || back > v*1.000001 {
			t.Errorf("tenant %d: round trip %v -> %v", tt, v, back)
		}
		p := d.ConvertPhone("13-555-111-2222", tt)
		if p != d.PhonePrefix[tt]+"13-555-111-2222" {
			t.Errorf("tenant %d phone: %q", tt, p)
		}
	}
}

func TestBuildMTAndConstraints(t *testing.T) {
	inst, err := BuildMT(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The physical FK constraints (extended with ttid) must hold on the
	// loaded data.
	if err := inst.Srv.DB().ValidateConstraints(); err != nil {
		t.Errorf("constraint violation in generated data: %v", err)
	}
	// Row counts.
	db := inst.Srv.DB()
	if n := db.Table("lineitem").RowCount(); n < 1500 {
		t.Errorf("lineitem rows = %d", n)
	}
	if n := db.Table("region").RowCount(); n != 5 {
		t.Errorf("region rows = %d", n)
	}
}

// TestUpdateNotNullThroughConn: a tenant's UPDATE that would store NULL in a
// NOT NULL column errors through middleware.Conn and changes no row.
func TestUpdateNotNullThroughConn(t *testing.T) {
	inst, err := BuildMT(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := inst.Connect(2, "")
	if err != nil {
		t.Fatal(err)
	}
	names := func() string {
		res, err := conn.Query("SELECT c_custkey, c_name FROM customer ORDER BY c_custkey")
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Rows)
	}
	before := names()
	res, err := conn.Query("SELECT MIN(c_custkey) FROM customer")
	if err != nil {
		t.Fatal(err)
	}
	key := res.Rows[0][0].I
	for _, sql := range []string{
		fmt.Sprintf("UPDATE customer SET c_name = NULL WHERE c_custkey = %d", key),
		"UPDATE customer SET c_name = NULL",
	} {
		res, err := conn.Exec(sql)
		if err == nil || !strings.Contains(err.Error(), "NULL in NOT NULL column customer.c_name") {
			t.Errorf("%s: %v, %v; want the NOT NULL error", sql, res, err)
		}
		if after := names(); after != before {
			t.Errorf("%s: tenant 2's customers changed after the error", sql)
		}
	}
}

func TestQueriesParse(t *testing.T) {
	inst, err := BuildMT(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.GrantReadTo(1); err != nil {
		t.Fatal(err)
	}
	conn, err := inst.Connect(1, "IN ()")
	if err != nil {
		t.Fatal(err)
	}
	conn.SetOptLevel(optimizer.O4)
	for _, q := range Queries(inst.Cfg.SF) {
		if _, err := RunOnMT(conn, q); err != nil {
			t.Errorf("Q%d failed: %v", q.ID, err)
		}
	}
}

// TestValidation is the §5 validation: C=1, D=all vs plain TPC-H, plus
// every optimization level vs the canonical gold standard.
func TestValidation(t *testing.T) {
	cfg := tinyConfig()
	d := Generate(cfg)
	inst, err := LoadMT(d)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := LoadPlain(d, cfg.Mode)
	if err != nil {
		t.Fatal(err)
	}
	levels := []optimizer.Level{optimizer.O1, optimizer.O2, optimizer.O3, optimizer.O4, optimizer.InlOnly}
	reports, err := Validate(inst, plain, levels)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if !r.OK {
			t.Errorf("Q%02d at %-9s: %s", r.QueryID, r.Level, r.Detail)
		}
	}
	if len(reports) != 22*6 {
		t.Errorf("reports = %d, want %d", len(reports), 22*6)
	}
}

func TestValidationZipfSystemC(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := tinyConfig()
	cfg.Dist = Zipf
	cfg.Mode = engine.ModeSystemC
	d := Generate(cfg)
	inst, err := LoadMT(d)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := LoadPlain(d, cfg.Mode)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := Validate(inst, plain, []optimizer.Level{optimizer.O4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if !r.OK {
			t.Errorf("Q%02d at %-9s: %s", r.QueryID, r.Level, r.Detail)
		}
	}
}

func TestQueryByID(t *testing.T) {
	q, err := QueryByID(1, 15)
	if err != nil || q.ID != 15 || len(q.Setup) != 1 {
		t.Errorf("QueryByID: %+v, %v", q, err)
	}
	if _, err := QueryByID(1, 99); err == nil {
		t.Error("bogus id accepted")
	}
}
