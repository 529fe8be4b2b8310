package engine

// TestSelectionKernels holds the selection kernels (DESIGN.md ADR-046) to the
// reference executor: a conjunct comparing one column with row-free operands
// filters in place, and every shape of it must answer the reference's rows or
// error byte for byte, in production and under the evaluator check.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"mtbase/internal/sqltypes"
)

// kernelDB holds one nullable column of each kind over more than two batches,
// every column NULL on its own rows, and a grouped table to join and group.
func kernelDB(t *testing.T, cfg execConfig) *DB {
	t.Helper()
	db := Open(ModePostgres)
	cfg.apply(db)
	if _, err := db.ExecScript(`
		CREATE TABLE k (id INTEGER NOT NULL, i INTEGER, d DECIMAL(10,2), dt DATE, s VARCHAR(10), b BOOLEAN);
		CREATE TABLE g (id INTEGER NOT NULL, grp INTEGER NOT NULL, v DECIMAL(10,2))`); err != nil {
		t.Fatal(err)
	}
	base, err := sqltypes.ParseDate("1995-01-01")
	if err != nil {
		t.Fatal(err)
	}
	orNull := func(null bool, v sqltypes.Value) sqltypes.Value {
		if null {
			return sqltypes.Null
		}
		return v
	}
	words := []string{"a", "c", "ca", "b", "", "cab", "C"}
	for id := int64(0); id < 2300; id++ {
		i := sqltypes.NewInt(id%17 - 8)
		if id == 12 {
			i = sqltypes.NewInt(1<<53 + 1) // equal to 2^53 as a float, not as an integer
		}
		db.Table("k").AppendRow([]sqltypes.Value{
			sqltypes.NewInt(id),
			orNull(id%7 == 3, i),
			orNull(id%11 == 4, sqltypes.NewFloat(float64(id%23)*0.5-5)),
			orNull(id%13 == 5, sqltypes.NewDate(base.I+id%40)),
			orNull(id%9 == 2, sqltypes.NewString(words[id%int64(len(words))])),
			orNull(id%5 == 1, sqltypes.NewBool(id%3 == 0)),
		})
		if id%4 == 0 {
			db.Table("g").AppendRow([]sqltypes.Value{
				sqltypes.NewInt(id), sqltypes.NewInt(id % 6), orNull(id%12 == 8, sqltypes.NewFloat(float64(id%9)*0.5)),
			})
		}
	}
	return db
}

// kernelOutcome runs stmt with args and renders its rows, or its error, and
// after a write the table it wrote.
func kernelOutcome(db *DB, stmt string, args []sqltypes.Value) string {
	p, err := db.PreparePlan(stmt)
	if err != nil {
		return "prepare error: " + err.Error()
	}
	res, err := db.ExecPlanContext(context.Background(), p, args...)
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	render := func(res *Result) {
		for _, row := range res.Rows {
			for j, v := range row {
				if j > 0 {
					sb.WriteByte('|')
				}
				fmt.Fprintf(&sb, "%v:%s", v.K, v.String())
			}
			sb.WriteByte('\n')
		}
	}
	render(res)
	if !strings.HasPrefix(stmt, "SELECT") {
		fmt.Fprintf(&sb, "affected %d\n", res.Affected)
		after, err := db.QuerySQL("SELECT * FROM k ORDER BY id")
		if err != nil {
			return "error reading back: " + err.Error()
		}
		render(after)
	}
	return sb.String()
}

type kernelCase struct {
	stmt string
	args []sqltypes.Value
}

// kernelCases are the shapes the kernels serve and their edges.
func kernelCases() []kernelCase {
	date := func(s string) sqltypes.Value {
		v, err := sqltypes.ParseDate(s)
		if err != nil {
			panic(err)
		}
		return v
	}
	var cs []kernelCase
	add := func(stmt string, args ...sqltypes.Value) { cs = append(cs, kernelCase{stmt, args}) }
	sel := func(where string, args ...sqltypes.Value) {
		add("SELECT id FROM k WHERE "+where+" ORDER BY id", args...)
	}

	// Every operator by every column kind, the column on either side of a
	// literal; a bind of the column's kind, and a NULL one.
	kinds := []struct {
		col, lit string
		bind     sqltypes.Value
	}{
		{"i", "3", sqltypes.NewInt(-2)},
		{"d", "1.5", sqltypes.NewFloat(-0.5)},
		{"dt", "DATE '1995-01-20'", date("1995-01-09")},
		{"s", "'c'", sqltypes.NewString("ca")},
		{"b", "TRUE", sqltypes.NewBool(false)},
	}
	for _, op := range []string{"=", "<>", "!=", "<", "<=", ">", ">="} {
		for _, k := range kinds {
			sel(fmt.Sprintf("%s %s %s", k.col, op, k.lit))
			sel(fmt.Sprintf("%s %s %s", k.lit, op, k.col))
			sel(fmt.Sprintf("%s %s ?", k.col, op), k.bind)
			sel(fmt.Sprintf("? %s %s", op, k.col), k.bind)
			sel(fmt.Sprintf("%s %s ?", k.col, op), sqltypes.Null)
		}
		// Mixed INTEGER/DECIMAL, both ways round, and integers past 2^53.
		sel(fmt.Sprintf("i %s 2.5", op))
		sel(fmt.Sprintf("-1 %s d", op))
		sel(fmt.Sprintf("d %s ?", op), sqltypes.NewInt(2))
		sel(fmt.Sprintf("i %s ?", op), sqltypes.NewFloat(-3.5))
		sel(fmt.Sprintf("i %s 9007199254740992", op))
		sel(fmt.Sprintf("i %s 9007199254740992.0", op))
		// Kinds that do not compare: unknown for every row.
		sel(fmt.Sprintf("s %s 3", op))
		sel(fmt.Sprintf("dt %s ?", op), sqltypes.NewInt(9500))
		// Folded and bound interval arithmetic.
		sel(fmt.Sprintf("dt %s DATE '1995-01-01' + INTERVAL '10' DAY", op))
		sel(fmt.Sprintf("DATE '1995-03-01' - INTERVAL '1' MONTH %s dt", op))
		sel(fmt.Sprintf("dt %s ? + INTERVAL '1' MONTH", op), date("1994-12-25"))
		sel(fmt.Sprintf("d %s -(? * 2) + 1", op), sqltypes.NewFloat(0.75))
	}
	for _, not := range []string{"", "NOT "} {
		sel("i " + not + "BETWEEN -3 AND 4")
		sel("d "+not+"BETWEEN ? AND ?", sqltypes.NewFloat(-2), sqltypes.NewInt(3))
		sel("dt " + not + "BETWEEN DATE '1995-01-05' AND DATE '1995-01-05' + INTERVAL '1' MONTH")
		sel("s " + not + "BETWEEN 'b' AND 'cz'")
		sel("b "+not+"BETWEEN FALSE AND ?", sqltypes.NewBool(false))
		sel("i " + not + "BETWEEN 4 AND -3")
		sel("i " + not + "BETWEEN NULL AND 2")
		sel("i "+not+"BETWEEN ? AND 2", sqltypes.Null)
		sel("i "+not+"BETWEEN -1.5 AND ?", sqltypes.NewInt(2))
		// A raising bound: the low one is evaluated first.
		sel("i " + not + "BETWEEN 1 / 0 AND 3 % 0")
		sel("i " + not + "BETWEEN 1 AND 3 % 0")
		sel("d "+not+"BETWEEN ? / 0 AND 1", sqltypes.NewFloat(1))
	}
	// A raising operand fails the statement with its error, unless no row
	// reaches it: conjuncts that cannot raise run first (ADR-043).
	sel("i > 1 / 0")
	sel("1 / 0 < d")
	sel("d <= ? / 0", sqltypes.NewInt(3))
	sel("dt < ? + INTERVAL '1' DAY", sqltypes.NewString("x"))
	sel("id < 0 AND i > 1 / 0")
	sel("id < 40 AND i > 1 / 0 AND s = 'c'")
	sel("s = 'c' AND d >= 0 AND i <> 5 AND dt < DATE '1995-01-30' AND b = TRUE")
	// The kernels in a join's residual and its build side's own conjuncts, in
	// HAVING, and in a write's WHERE.
	add("SELECT k.id, g.grp FROM k LEFT JOIN g ON k.id = g.id AND k.i > 2 AND g.v <= 3.5 ORDER BY k.id, g.grp")
	add("SELECT k.id, g.v FROM k JOIN g ON k.id = g.id AND g.v >= ? WHERE k.d < 2 ORDER BY k.id", sqltypes.NewFloat(1))
	add("SELECT k.id, g.v FROM k LEFT JOIN g ON k.id = g.id AND g.v > 1 / 0 ORDER BY k.id")
	add("SELECT grp, COUNT(*), SUM(v) FROM g GROUP BY grp HAVING grp > 2 ORDER BY grp")
	add("SELECT grp, COUNT(*) FROM g GROUP BY grp HAVING grp NOT BETWEEN ? AND 3 ORDER BY grp", sqltypes.NewInt(1))
	add("SELECT grp, COUNT(*) FROM g GROUP BY grp HAVING grp <= 10 / 0 ORDER BY grp")
	add("UPDATE k SET s = 'z' WHERE d >= 2.5 AND dt < ?", date("1995-01-20"))
	add("UPDATE k SET i = 0 WHERE i > ? / 0", sqltypes.NewInt(1))
	add("DELETE FROM k WHERE dt NOT BETWEEN DATE '1995-01-03' AND DATE '1995-02-01' OR s < 'b'")
	add("DELETE FROM k WHERE 2 >= i")
	add("DELETE FROM k WHERE b = 1 / 0")
	return cs
}

func TestSelectionKernels(t *testing.T) {
	dbs := map[string]*DB{}
	for _, cfg := range []execConfig{cfgReference, cfgProduction, cfgEvalCheck} {
		dbs[cfg.name] = kernelDB(t, cfg)
	}
	writes, errs, empty := 0, 0, 0
	for _, c := range kernelCases() {
		write := !strings.HasPrefix(c.stmt, "SELECT")
		if write { // each configuration writes a fresh copy
			for _, cfg := range []execConfig{cfgReference, cfgProduction, cfgEvalCheck} {
				dbs[cfg.name] = kernelDB(t, cfg)
			}
			writes++
		}
		want := kernelOutcome(dbs[cfgReference.name], c.stmt, c.args)
		switch {
		case strings.HasPrefix(want, "prepare error"):
			t.Fatalf("%s: %s", c.stmt, want)
		case strings.HasPrefix(want, "error: "):
			errs++
		case want == "" || write && strings.Contains(want, "affected 0\n"):
			empty++
		}
		for _, cfg := range checkedConfigs {
			if got := kernelOutcome(dbs[cfg.name], c.stmt, c.args); got != want {
				t.Errorf("%s %s %v:\ngot:       %.400s\nreference: %.400s", cfg.name, c.stmt, c.args, got, want)
			}
		}
	}
	// The cases mean what they say: writes ran, operands raised, and no more
	// than the cases built to keep nothing kept nothing.
	if writes != 5 || errs < 15 || empty > 70 {
		t.Errorf("%d writes, %d errors, %d empty outcomes", writes, errs, empty)
	}
}
