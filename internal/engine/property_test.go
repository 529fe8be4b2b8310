package engine

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"testing/quick"

	"mtbase/internal/sqltypes"
)

// TestLikeMatchesRegexpOracle checks the LIKE matcher against a regexp
// translation on random inputs, including multi-byte runes in the subject:
// _ must consume one character, not one byte.
func TestLikeMatchesRegexpOracle(t *testing.T) {
	alphabet := []rune{'a', 'b', 'é', '☃', '%', '_'}
	r := rand.New(rand.NewSource(11))
	randomWord := func(n int, withWild bool) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			max := 4
			if withWild {
				max = len(alphabet)
			}
			sb.WriteRune(alphabet[r.Intn(max)])
		}
		return sb.String()
	}
	toRegexp := func(pattern string) *regexp.Regexp {
		var sb strings.Builder
		sb.WriteString("^")
		for _, c := range pattern {
			switch c {
			case '%':
				sb.WriteString("(?s).*")
			case '_':
				sb.WriteString("(?s).")
			default:
				sb.WriteString(regexp.QuoteMeta(string(c)))
			}
		}
		sb.WriteString("$")
		return regexp.MustCompile(sb.String())
	}
	for i := 0; i < 5000; i++ {
		s := randomWord(r.Intn(8), false)
		p := randomWord(r.Intn(6), true)
		want := toRegexp(p).MatchString(s)
		if got := likeMatch(s, p); got != want {
			t.Fatalf("likeMatch(%q, %q) = %v, regexp says %v", s, p, got, want)
		}
	}
}

// TestLikeMatchUTF8 pins the rune semantics of _ on multi-byte strings
// (regression: _ used to consume a single byte).
func TestLikeMatchUTF8(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"héllo", "h_llo", true},
		{"héllo", "h__llo", false},
		{"é", "_", true},
		{"☃☃", "__", true},
		{"☃☃", "_", false},
		{"prix: 10€", "prix%€", true},
		{"naïve", "na_ve", true},
		{"naïve", "%_ve", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

// TestHashJoinMatchesNestedLoopOracle compares the hash-join plan against
// a brute-force cross product + filter on random tables.
func TestHashJoinMatchesNestedLoopOracle(t *testing.T) {
	f := func(leftKeys, rightKeys []uint8) bool {
		if len(leftKeys) > 40 {
			leftKeys = leftKeys[:40]
		}
		if len(rightKeys) > 40 {
			rightKeys = rightKeys[:40]
		}
		db := Open(ModePostgres)
		if _, err := db.ExecScript("CREATE TABLE l (lk INTEGER, lv INTEGER); CREATE TABLE r (rk INTEGER, rv INTEGER)"); err != nil {
			t.Fatal(err)
		}
		lt, rt := db.Table("l"), db.Table("r")
		for i, k := range leftKeys {
			lt.AppendRow([]sqltypes.Value{sqltypes.NewInt(int64(k % 8)), sqltypes.NewInt(int64(i))})
		}
		for i, k := range rightKeys {
			rt.AppendRow([]sqltypes.Value{sqltypes.NewInt(int64(k % 8)), sqltypes.NewInt(int64(i))})
		}
		// Hash-join path (equi conjunct).
		a, err := db.QuerySQL("SELECT lv, rv FROM l, r WHERE lk = rk ORDER BY lv, rv")
		if err != nil {
			t.Fatal(err)
		}
		// Forced nested-loop path (arithmetic defeats equi detection).
		b, err := db.QuerySQL("SELECT lv, rv FROM l, r WHERE lk + 0 = rk + 0 ORDER BY lv, rv")
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Rows) != len(b.Rows) {
			return false
		}
		for i := range a.Rows {
			if a.Rows[i][0].I != b.Rows[i][0].I || a.Rows[i][1].I != b.Rows[i][1].I {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestGroupByMatchesManualAggregation cross-checks grouped SUM/COUNT
// against a hand-rolled aggregation over random data.
func TestGroupByMatchesManualAggregation(t *testing.T) {
	f := func(vals []int16) bool {
		db := Open(ModePostgres)
		if _, err := db.ExecSQL("CREATE TABLE t (g INTEGER, v INTEGER)"); err != nil {
			t.Fatal(err)
		}
		tab := db.Table("t")
		sums := map[int64]int64{}
		counts := map[int64]int64{}
		for _, v := range vals {
			g := int64(v % 5)
			if g < 0 {
				g = -g
			}
			tab.AppendRow([]sqltypes.Value{sqltypes.NewInt(g), sqltypes.NewInt(int64(v))})
			sums[g] += int64(v)
			counts[g]++
		}
		res, err := db.QuerySQL("SELECT g, SUM(v), COUNT(*) FROM t GROUP BY g")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(sums) {
			return false
		}
		for _, row := range res.Rows {
			g := row[0].I
			if row[1].I != sums[g] || row[2].I != counts[g] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestLeftOuterJoinInvariants: every left row appears at least once, and
// rows without a match carry NULLs.
func TestLeftOuterJoinInvariants(t *testing.T) {
	f := func(leftKeys, rightKeys []uint8) bool {
		if len(leftKeys) > 30 {
			leftKeys = leftKeys[:30]
		}
		if len(rightKeys) > 30 {
			rightKeys = rightKeys[:30]
		}
		db := Open(ModePostgres)
		if _, err := db.ExecScript("CREATE TABLE l (lk INTEGER, id INTEGER); CREATE TABLE r (rk INTEGER)"); err != nil {
			t.Fatal(err)
		}
		lt, rt := db.Table("l"), db.Table("r")
		rightSet := map[int64]int{}
		for i, k := range leftKeys {
			lt.AppendRow([]sqltypes.Value{sqltypes.NewInt(int64(k % 6)), sqltypes.NewInt(int64(i))})
		}
		for _, k := range rightKeys {
			rt.AppendRow([]sqltypes.Value{sqltypes.NewInt(int64(k % 6))})
			rightSet[int64(k%6)]++
		}
		res, err := db.QuerySQL("SELECT id, lk, rk FROM l LEFT OUTER JOIN r ON lk = rk")
		if err != nil {
			t.Fatal(err)
		}
		perLeft := map[int64]int{}
		for _, row := range res.Rows {
			perLeft[row[0].I]++
			if row[2].IsNull() {
				if rightSet[row[1].I] != 0 {
					return false // NULL despite existing match
				}
			} else if row[1].I != row[2].I {
				return false // ON condition violated
			}
		}
		for i, k := range leftKeys {
			want := rightSet[int64(k%6)]
			if want == 0 {
				want = 1 // null-extended
			}
			if perLeft[int64(i)] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestOrderByPermutationStable: ORDER BY must produce a sorted permutation
// of the input.
func TestOrderByPermutationStable(t *testing.T) {
	f := func(vals []int32) bool {
		if len(vals) > 100 {
			vals = vals[:100]
		}
		db := Open(ModePostgres)
		if _, err := db.ExecSQL("CREATE TABLE t (v INTEGER)"); err != nil {
			t.Fatal(err)
		}
		tab := db.Table("t")
		for _, v := range vals {
			tab.AppendRow([]sqltypes.Value{sqltypes.NewInt(int64(v))})
		}
		res, err := db.QuerySQL("SELECT v FROM t ORDER BY v")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(vals) {
			return false
		}
		for i := 1; i < len(res.Rows); i++ {
			if res.Rows[i-1][0].I > res.Rows[i][0].I {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNestedViews(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	if _, err := db.ExecScript(`
		CREATE VIEW v1 AS SELECT E_name, E_age FROM Employees WHERE E_age > 27;
		CREATE VIEW v2 AS SELECT E_name FROM v1 WHERE E_age < 50`); err != nil {
		t.Fatal(err)
	}
	rows := queryRows(t, db, "SELECT COUNT(*) FROM v2")
	// ages 30, 28, 46, 46 qualify (25 and 72 excluded)
	if rows[0][0].I != 4 {
		t.Errorf("nested view count = %v", rows[0][0])
	}
}

func TestAggregateErrors(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	if _, err := db.QuerySQL("SELECT E_name FROM Employees WHERE SUM(E_age) > 10"); err == nil {
		t.Error("aggregate in WHERE accepted")
	}
	if _, err := db.QuerySQL("SELECT SUM(MAX(E_age)) FROM Employees"); err == nil {
		t.Error("nested aggregate accepted")
	}
	if _, err := db.QuerySQL("SELECT E_age, COUNT(*) FROM Employees GROUP BY SUM(E_age)"); err == nil {
		t.Error("aggregate in GROUP BY accepted")
	}
}

func TestCrossJoinCount(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	rows := queryRows(t, db, "SELECT COUNT(*) FROM Roles CROSS JOIN Regions")
	if rows[0][0].I != 6*6 {
		t.Errorf("cross join count = %v", rows[0][0])
	}
}

func TestScalarSubqueryCardinalityError(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	if _, err := db.QuerySQL("SELECT (SELECT E_name FROM Employees) FROM Regions"); err == nil {
		t.Error("multi-row scalar subquery accepted")
	}
	if _, err := db.QuerySQL("SELECT (SELECT E_name, E_age FROM Employees LIMIT 1) FROM Regions"); err == nil {
		t.Error("multi-column scalar subquery accepted")
	}
}

func TestModeString(t *testing.T) {
	if ModePostgres.String() != "postgres" || ModeSystemC.String() != "system-c" {
		t.Error("mode strings")
	}
}

func TestConcurrentReads(t *testing.T) {
	db := newEmployeeDB(t, ModePostgres)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			_, err := db.QuerySQL(fmt.Sprintf("SELECT COUNT(*) FROM Employees WHERE E_age > %d", 20+i))
			done <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// ---------------------------------------------------------------- differential

// diffDB builds a small two-table schema with NULLs, a rates meta table and
// a conversion-style UDF, mirroring the shapes the MTSQL rewrite emits.
// Column z is never NULL and zero in a few rows, so 1 / z raises for those
// rows only. The big table spans multiple execution batches (> 2×1024 rows) so the batched
// pipeline's window and selection-vector handling is exercised across batch
// boundaries, not just inside one window.
func diffDB(t testing.TB, mode Mode) *DB {
	t.Helper()
	db := Open(mode)
	script := `
		CREATE TABLE t (a INTEGER, b INTEGER, s VARCHAR, f DECIMAL, d DATE, z INTEGER);
		CREATE TABLE u (k INTEGER, v INTEGER, w VARCHAR);
		CREATE TABLE big (g INTEGER, h INTEGER, fl DECIMAL);
		CREATE TABLE rates (tid INTEGER, r DECIMAL);
		CREATE FUNCTION conv (DECIMAL, INTEGER) RETURNS DECIMAL
			AS 'SELECT r * $1 FROM rates WHERE tid = $2' LANGUAGE SQL IMMUTABLE`
	if _, err := db.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	words := []string{"alpha", "beta", "gamma", "héllo", "a%b", "x_y", ""}
	tt := db.Table("t")
	for i := 0; i < 120; i++ {
		row := []sqltypes.Value{
			sqltypes.NewInt(int64(r.Intn(20))),
			sqltypes.NewInt(int64(r.Intn(6))),
			sqltypes.NewString(words[r.Intn(len(words))]),
			sqltypes.NewFloat(float64(r.Intn(1000)) / 10),
			sqltypes.NewDate(int64(10000 + r.Intn(400))),
		}
		for j := range row {
			if r.Intn(10) == 0 {
				row[j] = sqltypes.Null
			}
		}
		z := int64(1 + i%4)
		if i%29 == 17 {
			z = 0
		}
		tt.AppendRow(append(row, sqltypes.NewInt(z)))
	}
	ut := db.Table("u")
	for i := 0; i < 40; i++ {
		ut.AppendRow([]sqltypes.Value{
			sqltypes.NewInt(int64(r.Intn(20))),
			sqltypes.NewInt(int64(r.Intn(50))),
			sqltypes.NewString(words[r.Intn(len(words))]),
		})
	}
	bt := db.Table("big")
	for i := 0; i < 2600; i++ {
		row := []sqltypes.Value{
			sqltypes.NewInt(int64(r.Intn(20))),
			sqltypes.NewInt(int64(i)),
			sqltypes.NewFloat(float64(r.Intn(500)) / 4),
		}
		if r.Intn(12) == 0 {
			row[r.Intn(3)] = sqltypes.Null
		}
		bt.AppendRow(row)
	}
	rt := db.Table("rates")
	for tid := 0; tid < 6; tid++ {
		rt.AppendRow([]sqltypes.Value{
			sqltypes.NewInt(int64(tid)), sqltypes.NewFloat(1 + float64(tid)/4),
		})
	}
	return db
}

// genBigExpr builds a random scalar expression over the big table's columns.
func genBigExpr(r *rand.Rand, depth int) string {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return "g"
		case 1:
			return "h"
		case 2:
			return "fl"
		default:
			return fmt.Sprintf("%d", r.Intn(25))
		}
	}
	sub := func() string { return genBigExpr(r, depth-1) }
	switch r.Intn(8) {
	case 0:
		return fmt.Sprintf("(%s + %s)", sub(), sub())
	case 1:
		return fmt.Sprintf("(%s * %s)", sub(), sub())
	case 2:
		ops := []string{"=", "<>", "<", "<=", ">", ">="}
		return fmt.Sprintf("(%s %s %s)", sub(), ops[r.Intn(len(ops))], sub())
	case 3:
		return fmt.Sprintf("(%s AND %s)", sub(), sub())
	case 4:
		return fmt.Sprintf("(%s OR %s)", sub(), sub())
	case 5:
		return fmt.Sprintf("(%s BETWEEN %d AND %d)", sub(), r.Intn(800), 800+r.Intn(1800))
	case 6:
		return fmt.Sprintf("(g IN (%d, %d, %d))", r.Intn(20), r.Intn(20), r.Intn(20))
	case 7:
		return fmt.Sprintf("CASE WHEN %s THEN %s ELSE %s END", sub(), sub(), sub())
	}
	return "g"
}

// genDiffExpr builds a random scalar expression over table t's columns,
// covering every construct with a kernel. The call arms put an argument that
// raises for some rows (1 / z) behind one the interpreter may return at —
// a NULL or non-NULL head — so the error must surface for exactly the rows
// the interpreter evaluates it for, and call what both evaluators must
// reject with one text: a wrong argument count, an unknown function.
func genDiffExpr(r *rand.Rand, depth int) string {
	if depth <= 0 {
		switch r.Intn(7) {
		case 0:
			return "a"
		case 1:
			return "b"
		case 2:
			return "f"
		case 3:
			return fmt.Sprintf("%d", r.Intn(25))
		case 4:
			return "s"
		case 5:
			return "z"
		default:
			return "d"
		}
	}
	sub := func() string { return genDiffExpr(r, depth-1) }
	pick := func(forms ...string) string { return forms[r.Intn(len(forms))] }
	switch r.Intn(26) {
	case 0:
		return fmt.Sprintf("(%s + %s)", sub(), sub())
	case 1:
		return fmt.Sprintf("(%s * %s)", sub(), sub())
	case 2:
		return fmt.Sprintf("(%s - %s)", sub(), sub())
	case 3:
		ops := []string{"=", "<>", "<", "<=", ">", ">="}
		return fmt.Sprintf("(%s %s %s)", sub(), ops[r.Intn(len(ops))], sub())
	case 4:
		return fmt.Sprintf("(%s AND %s)", sub(), sub())
	case 5:
		return fmt.Sprintf("(%s OR %s)", sub(), sub())
	case 6:
		return fmt.Sprintf("(NOT %s)", sub())
	case 7:
		return fmt.Sprintf("(%s BETWEEN %d AND %d)", sub(), r.Intn(10), 10+r.Intn(10))
	case 8:
		return fmt.Sprintf("(a IN (%d, %d, %d))", r.Intn(20), r.Intn(20), r.Intn(20))
	case 9:
		pats := []string{"'a%'", "'%a'", "'h_llo'", "'%é%'", "'x%y'"}
		return fmt.Sprintf("(s LIKE %s)", pats[r.Intn(len(pats))])
	case 10:
		return fmt.Sprintf("(%s IS NULL)", sub())
	case 11:
		return fmt.Sprintf("CASE WHEN %s THEN %s ELSE %s END", sub(), sub(), sub())
	case 12:
		return fmt.Sprintf(pick("COALESCE(%s, %s)", "COALESCE(%s, 1 / z, %s)"), sub(), sub())
	case 13:
		return fmt.Sprintf(pick("ABS(%s)", "CHAR_LENGTH(%s)", "CAST(%s AS INTEGER)", "CAST(%s AS DECIMAL)", "CAST(%s AS VARCHAR)"), sub())
	case 14:
		return pick("conv(f, b)", "conv(f / z, b)", "conv(f, 6 / z)")
	case 15:
		return fmt.Sprintf(pick("SUBSTRING(s FROM 2 FOR 3)", "SUBSTRING(s FROM %s)", "SUBSTRING(s FROM %s FOR 1 / z)", "SUBSTRING(%s FROM 2 / z FOR 2)"), sub())
	case 16:
		return fmt.Sprintf("(%s / %s)", sub(), sub())
	case 17:
		return fmt.Sprintf(pick("CONCAT(s, %s)", "CONCAT(%s, 1 / z)", "CONCAT(%s, s, 1 / z)"), sub())
	case 18:
		return fmt.Sprintf(pick("ROUND(%s)", "ROUND(f, %s)", "ROUND(%s, 1 / z)"), sub())
	case 19:
		return fmt.Sprintf(pick("EXTRACT(YEAR FROM d)", "EXTRACT(MONTH FROM %s)", "EXTRACT(DAY FROM %s)"), sub())
	case 20:
		return fmt.Sprintf(pick("ABS(%s, 1)", "ROUND(%s, 1, 2)", "conv(%s)", "conv(f, b, %s)", "nosuch(%s)", "nosuch(1 / z, %s)"), sub())
	}
	// The remaining weight keeps expressions that evaluate for every row in
	// the majority, so value parity is checked as often as error parity.
	return pick("a", "b", "f", "s", "d")
}

// runBothPaths executes sql with the compiled path forced off and on,
// returning both outcomes.
func runBothPaths(db *DB, sql string) (interp, compiled *Result, interpErr, compiledErr error) {
	db.SetCompileExprs(false)
	interp, interpErr = db.QuerySQL(sql)
	db.SetCompileExprs(true)
	compiled, compiledErr = db.QuerySQL(sql)
	return
}

func sameResult(a, b *Result) bool {
	if len(a.Rows) != len(b.Rows) || len(a.Cols) != len(b.Cols) {
		return false
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				return false
			}
		}
	}
	return true
}

// TestCompiledMatchesInterpreter is the differential property test for the
// compiled subsystem, now batch-at-a-time: every generated query must
// produce the identical result (or the identical error) through the batched
// pipeline and the row-at-a-time tree-walking interpreter, in both engine
// modes. The big-table shapes cross multiple execution batches, driving
// selection-vector refinement, batched grouping, join key columns and the
// key-column sort over batch boundaries.
func TestCompiledMatchesInterpreter(t *testing.T) {
	for _, mode := range []Mode{ModePostgres, ModeSystemC} {
		db := diffDB(t, mode)
		check := func(sql string) {
			t.Helper()
			ir, cr, ierr, cerr := runBothPaths(db, sql)
			if (ierr == nil) != (cerr == nil) {
				t.Fatalf("mode %s query %q: interpreter err %v, compiled err %v", mode, sql, ierr, cerr)
			}
			if ierr != nil {
				if ierr.Error() != cerr.Error() {
					t.Fatalf("mode %s query %q: error mismatch:\n  interp:   %v\n  compiled: %v", mode, sql, ierr, cerr)
				}
				return
			}
			if !sameResult(ir, cr) {
				t.Fatalf("mode %s query %q: result mismatch:\n  interp:   %v rows\n  compiled: %v rows", mode, sql, ir.Rows, cr.Rows)
			}
		}
		r := rand.New(rand.NewSource(int64(99 + mode)))
		for i := 0; i < 600; i++ {
			var sql string
			switch i % 10 {
			case 0: // filtered projection with ORDER BY
				sql = fmt.Sprintf("SELECT %s, %s FROM t WHERE %s ORDER BY %s, a, b, s",
					genDiffExpr(r, 2), genDiffExpr(r, 2), genDiffExpr(r, 2), genDiffExpr(r, 1))
			case 1: // grouped aggregation incl. batched aggregate args
				sql = fmt.Sprintf("SELECT b, SUM(%s), COUNT(*), MIN(%s) FROM t WHERE %s GROUP BY b HAVING COUNT(*) > %d ORDER BY b",
					genDiffExpr(r, 2), genDiffExpr(r, 1), genDiffExpr(r, 2), r.Intn(3))
			case 2: // hash join with batched keys + residual
				sql = fmt.Sprintf("SELECT a, v FROM t, u WHERE a = k AND %s ORDER BY a, v, w",
					genDiffExpr(r, 2))
			case 3: // conversion UDF through the body plan
				sql = fmt.Sprintf("SELECT conv(%s, b) FROM t WHERE %s ORDER BY a, b, s, f",
					genDiffExpr(r, 1), genDiffExpr(r, 2))
			case 4: // DISTINCT + expression projection
				sql = fmt.Sprintf("SELECT DISTINCT %s FROM t ORDER BY 1 LIMIT 20",
					genDiffExpr(r, 2))
			case 5: // multi-batch filter + projection + expression sort keys
				sql = fmt.Sprintf("SELECT g, h, %s FROM big WHERE %s ORDER BY %s, h LIMIT 600",
					genBigExpr(r, 2), genBigExpr(r, 2), genBigExpr(r, 1))
			case 6: // multi-batch grouping with NULL group keys
				sql = fmt.Sprintf("SELECT g, COUNT(*), SUM(%s), MAX(h) FROM big WHERE %s GROUP BY g ORDER BY g",
					genBigExpr(r, 2), genBigExpr(r, 2))
			case 7: // multi-batch probe side of a hash join
				sql = fmt.Sprintf("SELECT a, h FROM t, big WHERE a = g AND %s ORDER BY a, h LIMIT 500",
					genBigExpr(r, 2))
			case 8: // IN-subquery through the native batch kernel: scalar and
				// tuple left sides, uncorrelated (memoized set) and NOT'd,
				// over a multi-batch outer relation
				if i%20 < 10 {
					sql = fmt.Sprintf("SELECT g, h FROM big WHERE g IN (SELECT k FROM u WHERE v < %d) AND %s ORDER BY h LIMIT 400",
						r.Intn(40), genBigExpr(r, 1))
				} else {
					sql = fmt.Sprintf("SELECT a, b FROM t WHERE (a, b) NOT IN (SELECT k, v FROM u WHERE v < %d) ORDER BY a, b, s, f",
						r.Intn(20))
				}
			case 9: // EXISTS / NOT EXISTS: correlated per-row and uncorrelated
				if i%20 < 10 {
					sql = fmt.Sprintf("SELECT a, b FROM t WHERE EXISTS (SELECT 1 FROM u WHERE k = a AND v > %d) ORDER BY a, b, s, f",
						r.Intn(30))
				} else {
					sql = fmt.Sprintf("SELECT g FROM big WHERE NOT EXISTS (SELECT 1 FROM u WHERE v = %d) AND %s ORDER BY h LIMIT 300",
						r.Intn(60), genBigExpr(r, 1))
				}
			}
			check(sql)
		}
		// Literal-only subtrees fold to one constant at lowering time; a
		// subtree whose one evaluation fails must stay unfolded, so its error
		// still belongs to the rows that evaluate it — all of them, only
		// those an AND/CASE lets through, or none.
		for _, sql := range []string{
			"SELECT a, d FROM t WHERE d <= DATE '1998-01-01' - INTERVAL '90' DAY ORDER BY a, b, s, f",
			"SELECT a FROM t WHERE d >= DATE '1997-06-01' AND d < DATE '1997-06-01' + INTERVAL '3' MONTH ORDER BY a, b, s, f",
			"SELECT a * (2 + 3) - 4 * 5, (1 < 2) = (3 >= 3), - (1 - 2) FROM t ORDER BY a, b, s, f",
			"SELECT g FROM big WHERE h < 10 * 10 + 2500 AND fl > 100 / 8 ORDER BY h",
			"SELECT a, 1 / 0 FROM t ORDER BY a",
			"SELECT a FROM t WHERE a > (3 + 4) / (2 - 2) ORDER BY a",
			"SELECT a FROM t WHERE a > 1000 AND 1 / 0 = 1 ORDER BY a",
			"SELECT h FROM big WHERE h < 2000 OR 7 % 0 = 1 ORDER BY h",
			"SELECT CASE WHEN a IS NULL THEN 1 / 0 ELSE a END FROM t WHERE a IS NOT NULL ORDER BY a, b, s, f",
			"SELECT COUNT(*) FROM u WHERE 1 / 0 = 1 AND k < 0",
			// INTEGER +, -, * and SUM raise past the range instead of
			// wrapping: in a folded constant, on the rows that reach it, in
			// the accumulator — and not one step short of the range.
			"SELECT a FROM t WHERE a > 9223372036854775807 + 1 ORDER BY a",
			"SELECT a + 9223372036854775800 FROM t ORDER BY a, b, s, f",
			"SELECT a + 9223372036854775800 FROM t WHERE a < 8 ORDER BY a, b, s, f",
			"SELECT 0 - 9223372036854775807 - a FROM t WHERE a > 1 ORDER BY a",
			"SELECT a * 4611686018427387904, a * -4611686018427387904 FROM t WHERE a < 2 ORDER BY a, b, s, f",
			"SELECT a * -4611686018427387904 FROM t WHERE a = 2",
			"SELECT a * 4611686018427387904 FROM t WHERE a = 2",
			"SELECT g, SUM(h + 9223372036854770000) FROM big GROUP BY g ORDER BY g",
			"SELECT SUM(h * 1000000000000000) FROM big WHERE h < 9000",
		} {
			check(sql)
		}
		db.SetCompileExprs(true)
	}
}

// TestRecursiveUDFCompiledParity pins the fix for argument clobbering in
// recursive UDFs: a call site's reused argv slice must not serve as the
// enclosing call's parameter frame while a nested call overwrites it.
func TestRecursiveUDFCompiledParity(t *testing.T) {
	for _, mode := range []Mode{ModePostgres, ModeSystemC} {
		db := Open(mode)
		if _, err := db.ExecScript(`
			CREATE TABLE one (x INTEGER);
			CREATE FUNCTION f (INTEGER, INTEGER) RETURNS INTEGER
				AS 'SELECT CASE WHEN $1 <= 0 THEN $2 ELSE f($2 - 1, $1) END FROM one'
				LANGUAGE SQL IMMUTABLE`); err != nil {
			t.Fatal(err)
		}
		db.Table("one").AppendRow([]sqltypes.Value{sqltypes.NewInt(1)})
		ir, cr, ierr, cerr := runBothPaths(db, "SELECT f(2, 5) FROM one")
		if ierr != nil || cerr != nil {
			t.Fatalf("mode %s: errors %v / %v", mode, ierr, cerr)
		}
		if !sameResult(ir, cr) {
			t.Fatalf("mode %s: interpreter %v, compiled %v", mode, ir.Rows, cr.Rows)
		}
		if got := cr.Rows[0][0].I; got != 3 {
			t.Fatalf("mode %s: f(2,5) = %d, want 3", mode, got)
		}
	}
}

// TestLargeIntKeys: INTEGERs beyond 2^53 are distinct keys in every hash
// structure — DISTINCT aggregates, GROUP BY, the transient join table and a
// base table's persistent index — where they used to share the key of the one
// float64 their neighbours round to. Every configuration answers alike, and
// the answers are spelled out: the reference hashes with the same key.
func TestLargeIntKeys(t *testing.T) {
	db := Open(ModePostgres)
	if _, err := db.ExecScript(`
		CREATE TABLE big (k BIGINT NOT NULL, v INTEGER NOT NULL);
		CREATE TABLE dim (k BIGINT NOT NULL, name VARCHAR(8) NOT NULL);
		INSERT INTO big VALUES (4611686018427387904, 1), (4611686018427387905, 2), (4611686018427387906, 1), (4611686018427387905, 2);
		INSERT INTO dim VALUES (4611686018427387905, 'five'), (4611686018427387906, 'six'), (4611686018427387907, 'seven')`); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ sql, want string }{
		{`SELECT COUNT(DISTINCT v + 4611686018427387904), SUM(DISTINCT v - 4611686018427387904) FROM big`, "2|-9223372036854775805"},
		{`SELECT k, COUNT(*) FROM big GROUP BY k ORDER BY k`, "4611686018427387904|1 4611686018427387905|2 4611686018427387906|1"},
		{`SELECT b.v, d.name FROM big b, dim d WHERE b.k = d.k ORDER BY 1, 2`, "1|six 2|five 2|five"},                            // probes dim's index
		{`SELECT b.v, d.name FROM big b, dim d WHERE b.k = d.k + 0 ORDER BY 1, 2`, "1|six 2|five 2|five"},                        // builds a table
		{`SELECT d.name, COUNT(b.v) FROM dim d LEFT JOIN big b ON b.k = d.k GROUP BY d.name ORDER BY 1`, "five|2 seven|0 six|1"}, // outer
		{`SELECT name FROM dim WHERE k IN (SELECT k + 1 FROM big) ORDER BY 1`, "five seven six"},                                 // IN set
		{`SELECT name FROM dim WHERE k IN (4611686018427387904, 4611686018427387906) ORDER BY 1`, "six"},                         // literal IN set
		{`SELECT COUNT(*) FROM (SELECT DISTINCT k FROM big) x`, "3"},
	} {
		for _, cfg := range []execConfig{cfgReference, cfgProduction, cfgEvalCheck} {
			cfg.apply(db)
			res, err := db.QuerySQL(tc.sql)
			if err != nil {
				t.Fatalf("%s\n%s: %v", tc.sql, cfg.name, err)
			}
			var rows []string
			for _, r := range res.Rows {
				cells := make([]string, len(r))
				for i, v := range r {
					cells[i] = v.String()
				}
				rows = append(rows, strings.Join(cells, "|"))
			}
			if got := strings.Join(rows, " "); got != tc.want {
				t.Errorf("%s\n%s: %s, want %s", tc.sql, cfg.name, got, tc.want)
			}
		}
	}
	cfgProduction.apply(db)
	idx, err := db.Table("dim").index([]string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{0, 1, 1, 1, 0} {
		k := sqltypes.NewInt(4611686018427387904 + int64(i))
		if got := len(idx.bucket(sqltypes.AppendKey(nil, k))); got != want {
			t.Errorf("dim's index holds %d rows under %s, want %d", got, k, want)
		}
	}
}

// TestCompiledInListLargeInts pins the fix for hash-key collisions in the
// compiled literal IN set: integers beyond 2^53 shared float-encoded keys,
// so membership is confirmed with exact equality.
func TestCompiledInListLargeInts(t *testing.T) {
	db := Open(ModePostgres)
	if _, err := db.ExecSQL("CREATE TABLE big (a BIGINT)"); err != nil {
		t.Fatal(err)
	}
	db.Table("big").AppendRow([]sqltypes.Value{sqltypes.NewInt(9007199254740993)}) // 2^53 + 1
	sql := "SELECT a FROM big WHERE a IN (9007199254740992)"                       // 2^53
	ir, cr, ierr, cerr := runBothPaths(db, sql)
	if ierr != nil || cerr != nil {
		t.Fatalf("errors %v / %v", ierr, cerr)
	}
	if !sameResult(ir, cr) {
		t.Fatalf("interpreter %d rows, compiled %d rows", len(ir.Rows), len(cr.Rows))
	}
	if len(cr.Rows) != 0 {
		t.Fatalf("2^53+1 IN (2^53) matched: %v", cr.Rows)
	}
}
