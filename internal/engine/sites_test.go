package engine

// Tests for DESIGN.md ADR-047: SUM, AVG and COUNT of one argument fold into
// one accumulator that answers each call's own function, and binOp reads its
// operands where they lie. Both are held to the reference executor, in
// production and under the evaluator check, serial and parallel, unlimited
// and under memory limits that freeze the group table and spill.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"mtbase/internal/sqltypes"
)

// siteSettings are the parallelism × memory limit settings both tests run.
var siteSettings = []struct {
	par   int
	limit int64
}{{1, 0}, {1, 64 << 10}, {1, 8 << 10}, {4, 0}, {4, 64 << 10}, {4, 8 << 10}}

// TestAggregateSitesShareArgument: every call of a shared site answers what
// its own accumulator answers in the reference — COUNT(x) counts a VARCHAR
// or an INTEGER sum past range that SUM and AVG raise on, each raises the
// error of its own function's name, an argument that raises is every call's
// error, and which of two errors a SUM raises is the one its rows met first.
// MIN and MAX beside them keep sites of their own.
func TestAggregateSitesShareArgument(t *testing.T) {
	db := groupTestDB(t, 12000)
	db.SetSpillDir(t.TempDir())
	calls := func(arg string) string {
		return fmt.Sprintf("SUM(%[1]s), COUNT(%[1]s), AVG(%[1]s), SUM(DISTINCT %[1]s), COUNT(DISTINCT %[1]s), AVG(DISTINCT %[1]s), MIN(%[1]s), MAX(%[1]s), COUNT(*)", arg)
	}
	// Row 4242 sits in group k = 4; in every group some rows (id % 100 = 3)
	// are VARCHAR under vs, and in group 4 the first such row, 303, comes
	// before 4242 while under sv the VARCHAR row 4372 comes after it.
	const (
		nulls = "CASE WHEN id % 7 = 0 THEN NULL ELSE v END"
		mixed = "CASE WHEN id % 3 = 0 THEN f WHEN id % 3 = 1 THEN v END"
		big   = "(v + 9223372036854770000)"
		raise = "100 / (id - 4242)"
		vs    = "CASE WHEN id % 100 = 3 THEN s ELSE 100 / (id - 4242) END"
		sv    = "CASE WHEN id = 4372 THEN s ELSE 100 / (id - 4242) END"
	)
	var shapes []string
	for _, arg := range []string{"v", "f", "m", "k", nulls, mixed} {
		shapes = append(shapes,
			"SELECT k, "+calls(arg)+" FROM g GROUP BY k",
			"SELECT "+calls(arg)+" FROM g")
	}
	shapes = append(shapes,
		// A VARCHAR: COUNT and MIN/MAX answer, SUM and AVG raise by name.
		"SELECT k, COUNT(s), COUNT(DISTINCT s), MIN(s), MAX(s) FROM g GROUP BY k",
		"SELECT k, COUNT(s), SUM(s) FROM g GROUP BY k",
		"SELECT k, COUNT(DISTINCT s), AVG(DISTINCT s), SUM(s) FROM g GROUP BY k",
		"SELECT k, CASE WHEN COUNT(s) > 0 THEN COUNT(s) ELSE SUM(s) END FROM g GROUP BY k",
		"SELECT k, COUNT(s) FROM g GROUP BY k HAVING COUNT(s) > 0 OR AVG(s) > 0",
		// An INTEGER sum past range: COUNT answers, SUM and AVG raise.
		"SELECT k, COUNT("+big+"), MAX("+big+") FROM g GROUP BY k",
		"SELECT k, COUNT("+big+"), SUM("+big+") FROM g GROUP BY k",
		"SELECT COUNT(DISTINCT "+big+"), AVG("+big+") FROM g",
		"SELECT k, CASE WHEN COUNT(*) < 0 THEN SUM("+big+") ELSE COUNT("+big+") END FROM g GROUP BY k",
		// An argument that raises raises for every call of its site.
		"SELECT k, COUNT("+raise+") FROM g GROUP BY k",
		"SELECT k, SUM("+raise+"), COUNT("+raise+"), AVG("+raise+") FROM g GROUP BY k HAVING k <> 4",
		"SELECT k, CASE WHEN k = 4 THEN MIN("+raise+") ELSE COUNT("+raise+") END FROM g GROUP BY k",
		// Both kinds of error in one group, in either order.
		"SELECT k, COUNT("+vs+") FROM g WHERE k = 4 GROUP BY k",
		"SELECT k, SUM("+vs+") FROM g WHERE k = 4 GROUP BY k",
		"SELECT k, COUNT("+vs+"), AVG("+vs+") FROM g WHERE k = 4 GROUP BY k",
		"SELECT k, AVG("+vs+"), COUNT("+vs+") FROM g WHERE k = 4 GROUP BY k",
		"SELECT k, SUM("+sv+") FROM g WHERE k = 4 GROUP BY k",
		"SELECT k, COUNT("+vs+") FROM g WHERE k <> 4 GROUP BY k",
		// One group per row, most of them frozen out under a limit.
		"SELECT id % 3000 AS r, "+calls(nulls)+" FROM g GROUP BY id % 3000 HAVING COUNT(v) > 3",
	)

	cfgReference.apply(db)
	want := make([]string, len(shapes))
	errs := 0
	for i, q := range shapes {
		want[i] = execKey(db.QuerySQL(q))
		if strings.HasPrefix(want[i], "error: ") {
			errs++
		}
	}
	if errs != 11 || !slices.ContainsFunc(want, func(w string) bool { return strings.Contains(w, "AVG over VARCHAR") }) {
		t.Fatalf("the reference raised %d times; want 11, AVG over VARCHAR among them", errs)
	}
	for _, s := range siteSettings {
		for _, cfg := range checkedConfigs {
			cfg.apply(db)
			db.SetParallelism(s.par)
			db.SetMemoryLimit(s.limit)
			db.Stats = Stats{}
			for i, q := range shapes {
				if got := execKey(db.QuerySQL(q)); got != want[i] {
					t.Errorf("%s par=%d limit=%d %q:\ngot  %.300s\nwant %.300s", cfg.name, s.par, s.limit, q, got, want[i])
				}
			}
			// Under a limit the frozen table's keys come back through
			// mergeSpilled, which folds through the same sites.
			if spilled := db.Stats.Snapshot().SpillRuns > 0; spilled != (s.limit > 0) {
				t.Errorf("%s par=%d limit=%d: spilled = %v", cfg.name, s.par, s.limit, spilled)
			}
		}
	}

	// The nine calls of a shape fold into four sites: the SUM family with
	// and without DISTINCT, MIN, MAX and COUNT(*).
	cfgProduction.apply(db)
	db.SetMemoryLimit(0)
	p := mustPrepare(db, shapes[0])
	if _, err := db.ExecPlanContext(t.Context(), p); err != nil {
		t.Fatal(err)
	}
	if got := AggregateSites(p); !slices.Equal(got, []string{"5 / 9"}) {
		t.Errorf("%s folds %q, want 5 sites for 9 calls", shapes[0], got)
	}
}

// TestArithmeticOperands: every pairing of a column, a row-free operand and a
// program, either way round, under +, -, * and /, answers the reference's
// rows or error — INTEGER, DECIMAL and both mixed, NULL, an INTEGER result
// out of range, DATE ± INTERVAL, division by zero, and an operand that
// raises, for every row or for some, on either side.
func TestArithmeticOperands(t *testing.T) {
	operands := [][]string{
		{"i", "d", "dt"}, // columns
		{"3", "2.5", "NULL", "9223372036854775807", "0", "1 / 0", "INTERVAL '3' DAY", "?"}, // row-free
		{"(d * 2)", "CASE WHEN id % 3 = 0 THEN NULL WHEN id % 3 = 1 THEN i ELSE d END",
			"(id + 9223372036854775000)", "(dt + INTERVAL '1' MONTH)", "100 / (id - 7)", "(i - i)"}, // programs
	}
	bind := sqltypes.NewInt(4611686018427387904)
	var cases []kernelCase
	for _, op := range []string{"+", "-", "*", "/"} {
		for _, ls := range operands {
			for _, rs := range operands {
				for _, l := range ls {
					for _, r := range rs {
						c := kernelCase{stmt: fmt.Sprintf("SELECT id, %s %s %s FROM k WHERE id < 300 ORDER BY id", l, op, r)}
						if strings.Contains(c.stmt, "?") {
							c.args = []sqltypes.Value{bind}
							if l == "?" && r == "?" {
								c.args = append(c.args, bind)
							}
						}
						cases = append(cases, c)
					}
				}
			}
		}
	}
	// Over every batch of the table, in a filter and in a fold.
	cases = append(cases,
		kernelCase{stmt: "SELECT id, d * (1 - i) + 2.5, i * 1024 - id, dt - ? FROM k ORDER BY id", args: []sqltypes.Value{sqltypes.NewInterval(2, 1)}},
		kernelCase{stmt: "SELECT id FROM k WHERE i * 2 + d > ? ORDER BY id", args: []sqltypes.Value{sqltypes.NewFloat(1.5)}},
		kernelCase{stmt: "SELECT i % 5, SUM(d * (1 - i)), COUNT(*) FROM k GROUP BY i % 5 ORDER BY 1"},
	)

	ref := kernelDB(t, cfgReference)
	want := make([]string, len(cases))
	errs := 0
	for i, c := range cases {
		want[i] = kernelOutcome(ref, c.stmt, c.args)
		if strings.HasPrefix(want[i], "prepare error") {
			t.Fatalf("%s: %s", c.stmt, want[i])
		}
		if strings.HasPrefix(want[i], "error: ") {
			errs++
		}
	}
	if errs < len(cases)/3 || errs > 2*len(cases)/3 {
		t.Errorf("%d of %d cases raise", errs, len(cases))
	}
	for _, cfg := range checkedConfigs {
		db := kernelDB(t, cfg)
		db.SetSpillDir(t.TempDir())
		for _, s := range siteSettings {
			db.SetParallelism(s.par)
			db.SetMemoryLimit(s.limit)
			for i, c := range cases {
				if got := kernelOutcome(db, c.stmt, c.args); got != want[i] {
					t.Errorf("%s par=%d limit=%d %s %v:\ngot:       %.300s\nreference: %.300s", cfg.name, s.par, s.limit, c.stmt, c.args, got, want[i])
				}
			}
		}
	}
}
