package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mtbase/internal/sqltypes"
)

// ---------------------------------------------------------------- filtering

// TestSelectionVectorFilterEdgeCases pins the selection-vector filter on the
// shapes that stress its bookkeeping: an empty input, a filter that keeps
// everything (full selection vectors), a filter that keeps nothing, and
// NULL-heavy columns where three-valued logic drops rows without errors.
// Every case must agree with the row-at-a-time interpreter.
func TestSelectionVectorFilterEdgeCases(t *testing.T) {
	mk := func(rows int, nullEvery int) *DB {
		db := Open(ModePostgres)
		if _, err := db.ExecSQL("CREATE TABLE t (a INTEGER, b INTEGER)"); err != nil {
			t.Fatal(err)
		}
		tab := db.Table("t")
		for i := 0; i < rows; i++ {
			a := sqltypes.NewInt(int64(i))
			if nullEvery > 0 && i%nullEvery == 0 {
				a = sqltypes.Null
			}
			tab.AppendRow([]sqltypes.Value{a, sqltypes.NewInt(int64(i % 7))})
		}
		return db
	}
	cases := []struct {
		name      string
		rows      int
		nullEvery int
		sql       string
	}{
		{"empty input", 0, 0, "SELECT a FROM t WHERE a > 5"},
		{"all selected", 2500, 0, "SELECT a FROM t WHERE a >= 0"},
		{"none selected", 2500, 0, "SELECT a FROM t WHERE a < 0"},
		{"null heavy", 2500, 2, "SELECT a, b FROM t WHERE a > 100 AND b < 5"},
		{"null heavy OR", 2500, 3, "SELECT a FROM t WHERE a < 10 OR a > 2400"},
		{"boundary 1024", 1024, 0, "SELECT a FROM t WHERE a <> 512"},
		{"boundary 1025", 1025, 0, "SELECT a FROM t WHERE a <> 0"},
	}
	for _, c := range cases {
		db := mk(c.rows, c.nullEvery)
		ir, cr, ierr, cerr := runBothPaths(db, c.sql)
		if ierr != nil || cerr != nil {
			t.Fatalf("%s: errors %v / %v", c.name, ierr, cerr)
		}
		if !sameResult(ir, cr) {
			t.Fatalf("%s: interpreter %d rows, batched %d rows", c.name, len(ir.Rows), len(cr.Rows))
		}
	}
}

// TestBatchedErrorIsFirstRowError pins the poisoning discipline: batched
// evaluation must surface the error of the first failing row in row order —
// including rows whose failure the interpreter would only reach on a later
// conjunct — with the identical message.
func TestBatchedErrorIsFirstRowError(t *testing.T) {
	db := Open(ModePostgres)
	if _, err := db.ExecSQL("CREATE TABLE t (a INTEGER, s VARCHAR)"); err != nil {
		t.Fatal(err)
	}
	tab := db.Table("t")
	for i := 0; i < 1500; i++ {
		tab.AppendRow([]sqltypes.Value{sqltypes.NewInt(int64(i)), sqltypes.NewString("x")})
	}
	// s + 1 errors for every row; the filter a >= 700 short-circuits it for
	// earlier rows, so row 700 is the first failing row on both paths.
	sql := "SELECT a FROM t WHERE a >= 700 AND s + 1 > 0"
	_, _, ierr, cerr := runBothPaths(db, sql)
	if ierr == nil || cerr == nil {
		t.Fatalf("expected errors, got %v / %v", ierr, cerr)
	}
	if ierr.Error() != cerr.Error() {
		t.Fatalf("error mismatch:\n  interp:  %v\n  batched: %v", ierr, cerr)
	}
}

// ---------------------------------------------------------------- ordering

// TestOrderByStableDuplicateKeys proves ORDER BY over precomputed key
// columns preserves input order among duplicate keys, across batch
// boundaries, in both execution modes.
func TestOrderByStableDuplicateKeys(t *testing.T) {
	db := Open(ModePostgres)
	if _, err := db.ExecSQL("CREATE TABLE t (k INTEGER, seq INTEGER)"); err != nil {
		t.Fatal(err)
	}
	tab := db.Table("t")
	r := rand.New(rand.NewSource(3))
	const n = 3000 // three batches
	for i := 0; i < n; i++ {
		k := sqltypes.NewInt(int64(r.Intn(5))) // heavy duplication
		if r.Intn(20) == 0 {
			k = sqltypes.Null
		}
		tab.AppendRow([]sqltypes.Value{k, sqltypes.NewInt(int64(i))})
	}
	for _, compiled := range []bool{false, true} {
		db.SetCompileExprs(compiled)
		res, err := db.QuerySQL("SELECT k, seq FROM t ORDER BY k")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != n {
			t.Fatalf("compiled=%v: %d rows", compiled, len(res.Rows))
		}
		for i := 1; i < len(res.Rows); i++ {
			a, b := res.Rows[i-1], res.Rows[i]
			if c := compareNullsFirst(a[0], b[0]); c > 0 {
				t.Fatalf("compiled=%v: keys out of order at %d", compiled, i)
			} else if c == 0 && a[1].I >= b[1].I {
				t.Fatalf("compiled=%v: stability violated at %d: seq %d before %d", compiled, i, a[1].I, b[1].I)
			}
		}
	}
	db.SetCompileExprs(true)
}

// TestStableSortIdxMatchesSliceStable checks the reflection-free merge sort
// against sort.SliceStable on random multi-key columns.
func TestStableSortIdxMatchesSliceStable(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		n := r.Intn(300)
		k1 := make([]sqltypes.Value, n)
		k2 := make([]sqltypes.Value, n)
		for i := 0; i < n; i++ {
			k1[i] = sqltypes.NewInt(int64(r.Intn(4)))
			k2[i] = sqltypes.NewInt(int64(r.Intn(3)))
			if r.Intn(10) == 0 {
				k1[i] = sqltypes.Null
			}
		}
		less := func(a, b int32) bool {
			if c := compareNullsFirst(k1[a], k1[b]); c != 0 {
				return c < 0
			}
			return compareNullsFirst(k2[a], k2[b]) > 0 // second key DESC
		}
		got := make([]int32, n)
		want := make([]int, n)
		for i := range got {
			got[i] = int32(i)
			want[i] = i
		}
		stableSortIdx(got, less)
		sort.SliceStable(want, func(a, b int) bool { return less(int32(want[a]), int32(want[b])) })
		for i := range got {
			if int(got[i]) != want[i] {
				t.Fatalf("trial %d: permutation mismatch at %d", trial, i)
			}
		}
	}
}

// ---------------------------------------------------------------- grouping

// TestBatchedGroupByNullKeys: NULL is a valid group key and must form its
// own group in the batched grouping path, matching the interpreter.
func TestBatchedGroupByNullKeys(t *testing.T) {
	db := Open(ModePostgres)
	if _, err := db.ExecSQL("CREATE TABLE t (g INTEGER, v INTEGER)"); err != nil {
		t.Fatal(err)
	}
	tab := db.Table("t")
	for i := 0; i < 2100; i++ {
		g := sqltypes.NewInt(int64(i % 3))
		if i%5 == 0 {
			g = sqltypes.Null
		}
		tab.AppendRow([]sqltypes.Value{g, sqltypes.NewInt(1)})
	}
	ir, cr, ierr, cerr := runBothPaths(db, "SELECT g, COUNT(*), SUM(v) FROM t GROUP BY g ORDER BY g")
	if ierr != nil || cerr != nil {
		t.Fatalf("errors %v / %v", ierr, cerr)
	}
	if !sameResult(ir, cr) {
		t.Fatalf("interpreter %v, batched %v", ir.Rows, cr.Rows)
	}
	if len(cr.Rows) != 4 { // NULL group + 0,1,2
		t.Fatalf("groups = %v", cr.Rows)
	}
}

// ---------------------------------------------------------------- DML

// TestBatchedDMLParity drives UPDATE and DELETE across batch boundaries and
// compares the resulting table contents against the interpreter.
func TestBatchedDMLParity(t *testing.T) {
	mk := func(compiled bool) *DB {
		db := Open(ModePostgres)
		db.SetCompileExprs(compiled)
		if _, err := db.ExecSQL("CREATE TABLE t (a INTEGER, b INTEGER)"); err != nil {
			t.Fatal(err)
		}
		tab := db.Table("t")
		for i := 0; i < 2600; i++ {
			a := sqltypes.NewInt(int64(i))
			if i%11 == 0 {
				a = sqltypes.Null
			}
			tab.AppendRow([]sqltypes.Value{a, sqltypes.NewInt(int64(i % 13))})
		}
		return db
	}
	dump := func(db *DB) string {
		res, err := db.QuerySQL("SELECT a, b FROM t")
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Rows)
	}
	for _, stmt := range []string{
		"UPDATE t SET b = b * 2 + 1 WHERE a % 3 = 0",
		"UPDATE t SET a = b, b = a WHERE b BETWEEN 2 AND 7",
		"DELETE FROM t WHERE a > 1300 OR a IS NULL",
	} {
		dbI, dbC := mk(false), mk(true)
		ri, erri := dbI.ExecSQL(stmt)
		rc, errc := dbC.ExecSQL(stmt)
		if erri != nil || errc != nil {
			t.Fatalf("%s: errors %v / %v", stmt, erri, errc)
		}
		if ri.Affected != rc.Affected {
			t.Fatalf("%s: affected %d (interp) vs %d (batched)", stmt, ri.Affected, rc.Affected)
		}
		if dump(dbI) != dump(dbC) {
			t.Fatalf("%s: table contents diverge", stmt)
		}
	}
}

// TestDMLSelfReferencePathParity pins the cases where DML expressions can
// observe the statement's own table — a DELETE predicate with a subquery
// over the same table, an UPDATE whose SET calls a UDF reading the table —
// and the order in which a failing UPDATE fails. DML is copy-on-write and
// has one arm, so the three configurations must agree on the result, the
// error text and the published heap: every row sees the pre-statement
// snapshot, and the first failing row in row order decides the error (row
// 1's assignment fails coercion before row 2's predicate divides by zero).
func TestDMLSelfReferencePathParity(t *testing.T) {
	mk := func(cfg execConfig) *DB {
		db := Open(ModePostgres)
		cfg.apply(db)
		if _, err := db.ExecScript(`
			CREATE TABLE t (x INTEGER);
			CREATE TABLE u (a INTEGER, d DATE);
			CREATE FUNCTION s () RETURNS INTEGER AS 'SELECT SUM(x) FROM t' LANGUAGE SQL`); err != nil {
			t.Fatal(err)
		}
		tab := db.Table("t")
		for i := 1; i <= 1500; i++ {
			tab.AppendRow([]sqltypes.Value{sqltypes.NewInt(int64(i % 40))})
		}
		for _, a := range []int64{1, 0, 2} {
			db.Table("u").AppendRow([]sqltypes.Value{sqltypes.NewInt(a), sqltypes.Null})
		}
		return db
	}
	outcome := func(db *DB, stmt string) string {
		res, err := db.ExecSQL(stmt)
		out := "error: "
		if err != nil {
			out += err.Error()
		} else {
			out = fmt.Sprint("affected: ", res.Affected)
		}
		for _, q := range []string{"SELECT x FROM t", "SELECT a, d FROM u"} {
			res, err := db.QuerySQL(q)
			if err != nil {
				t.Fatal(err)
			}
			out += fmt.Sprint("\n", res.Rows)
		}
		return out
	}
	for _, tc := range []struct{ stmt, wantErr string }{
		{"DELETE FROM t WHERE x * 50 > (SELECT SUM(x) / 30 FROM t)", ""},
		{"UPDATE t SET x = s() WHERE x = 3", ""},
		{"UPDATE t SET x = x + s() WHERE s() > x", ""},
		{"UPDATE u SET d = 'soon' WHERE 10 / a > 0", "soon"},
		{"UPDATE u SET a = 7 WHERE 10 / a > 5", "division by zero"},
	} {
		want := outcome(mk(cfgReference), tc.stmt)
		if head, _, _ := strings.Cut(want, "\n"); strings.HasPrefix(head, "error: ") != (tc.wantErr != "") || !strings.Contains(head, tc.wantErr) {
			t.Errorf("%s: reference: %s, want error containing %q", tc.stmt, head, tc.wantErr)
		}
		for _, cfg := range checkedConfigs {
			if got := outcome(mk(cfg), tc.stmt); got != want {
				t.Errorf("%s %s:\ngot:       %.300s\nreference: %.300s", cfg.name, tc.stmt, got, want)
			}
		}
	}
}

// TestDeleteErrorLeavesTableIntact: a DELETE whose predicate errors must
// not corrupt the table (regression: in-place compaction used to overwrite
// the heap prefix before the error surfaced).
func TestDeleteErrorLeavesTableIntact(t *testing.T) {
	for _, compiled := range []bool{false, true} {
		db := Open(ModePostgres)
		db.SetCompileExprs(compiled)
		if _, err := db.ExecSQL("CREATE TABLE t (x INTEGER)"); err != nil {
			t.Fatal(err)
		}
		tab := db.Table("t")
		for _, x := range []int64{4, 2, 9} {
			tab.AppendRow([]sqltypes.Value{sqltypes.NewInt(x)})
		}
		if _, err := db.ExecSQL("DELETE FROM t WHERE x = 4 OR x / (x - 9) > 0"); err == nil {
			t.Fatalf("compiled=%v: expected division by zero", compiled)
		}
		res, err := db.QuerySQL("SELECT x FROM t")
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(res.Rows) != "[[4] [2] [9]]" {
			t.Fatalf("compiled=%v: table corrupted: %v", compiled, res.Rows)
		}
	}
}

// ---------------------------------------------------------------- chunks

// TestRowChunkIsolation: tuples handed out by a chunk must be fully
// isolated — filling one's reserved tail, or appending past it, must never
// bleed into the next.
func TestRowChunkIsolation(t *testing.T) {
	ck := newRowChunk(2, 3)
	a := ck.concat([]sqltypes.Value{sqltypes.NewInt(1)}, []sqltypes.Value{sqltypes.NewInt(2)}, 3)
	b := ck.concat([]sqltypes.Value{sqltypes.NewInt(3)}, []sqltypes.Value{sqltypes.NewInt(4)}, 3)
	if len(a) != 2 || cap(a) != 3 {
		t.Fatalf("len/cap = %d/%d, want 2/3", len(a), cap(a))
	}
	a = append(a, sqltypes.NewInt(98)) // the reserved tail
	_ = append(a, sqltypes.NewInt(99)) // past it: must reallocate, not clobber b
	if b[0].I != 3 || b[1].I != 4 {
		t.Fatalf("chunk rows alias: %v", b)
	}
}

// TestVecStackReuse: marks and releases must restore positions so one
// statement's scratch is bounded by expression depth, not node count.
func TestVecStackReuse(t *testing.T) {
	var st vecStack
	m := st.mark()
	v1 := st.takeVals(100)
	s1 := st.takeSel(50)
	_ = append(s1, 1)
	if len(st.vals) != 100 || len(st.sel) != 50 {
		t.Fatalf("stack lengths %d/%d", len(st.vals), len(st.sel))
	}
	inner := st.mark()
	_ = st.takeVals(10)
	st.release(inner)
	if len(st.vals) != 100 {
		t.Fatalf("inner release: %d", len(st.vals))
	}
	v1[0] = sqltypes.NewInt(7) // still writable
	st.release(m)
	if len(st.vals) != 0 || len(st.sel) != 0 {
		t.Fatalf("outer release: %d/%d", len(st.vals), len(st.sel))
	}
}
