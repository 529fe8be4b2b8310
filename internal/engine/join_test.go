package engine

// Tests for the two rules of DESIGN.md ADR-011: a closed subquery conjunct
// filters its source below the joins (and nothing else does), and a join
// chain materializes each output row once without ever sharing or rewriting
// a row's storage — and for the outer kind of the one hash join (ADR-014).

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"mtbase/internal/sqlast"
	"mtbase/internal/sqltypes"
)

// sourceOf builds the FROM/WHERE pipeline of a SELECT the way an execution
// would and returns it with its exec.
func sourceOf(t *testing.T, db *DB, sql string) (*exec, *pipe) {
	t.Helper()
	p, err := db.PreparePlan(sql)
	if err != nil {
		t.Fatal(err)
	}
	db.mu.Lock()
	ex := db.newExec(p)
	db.mu.Unlock()
	src, err := ex.buildSourcePipe(p.stmt.(*sqlast.Select), rootScope())
	if err != nil {
		t.Fatal(err)
	}
	return ex, src
}

// closeHook calls before just ahead of its operator's Close: a look at the
// state an operator keeps until it closes, under a drain that closes it.
type closeHook struct {
	Operator
	before func()
}

func (h closeHook) Close() {
	h.before()
	h.Operator.Close()
}

// opShape renders the join/filter skeleton of an operator tree.
func opShape(op Operator) string {
	switch o := op.(type) {
	case *scanOperator:
		if o.src.ids != nil {
			return "index"
		}
		return "scan"
	case *parallelScanFilter:
		return "filter(scan)"
	case *filterOperator:
		return "filter(" + opShape(o.child) + ")"
	case *joinOperator:
		return "join(" + opShape(o.left) + "," + opShape(o.right) + ")"
	}
	return fmt.Sprintf("%T", op)
}

// TestSubqueryConjunctPlacement: an uncorrelated IN / NOT IN / scalar
// compare over one source sits below the join; every subquery the static
// check cannot prove closed stays a residual filter above it.
func TestSubqueryConjunctPlacement(t *testing.T) {
	db := streamTestDB(t, 200)
	const below, above = "join(filter(scan),scan)", "filter(join(scan,scan))"
	for _, tc := range []struct{ name, where, want string }{
		{"in", `f.val IN (SELECT val FROM fact WHERE grp = 1)`, below},
		{"not-in", `f.id NOT IN (SELECT id FROM other)`, below},
		{"tuple-in", `(f.k, f.grp) IN (SELECT k, grp FROM fact GROUP BY k, grp HAVING COUNT(*) > 5)`, below},
		{"scalar-compare", `f.val > (SELECT AVG(val) FROM fact)`, below},
		{"nested-closed", `f.id IN (SELECT id FROM other o WHERE EXISTS (SELECT 1 FROM dim WHERE dim.k = o.id))`, below},
		{"joined-from", `f.id IN (SELECT o.id FROM other o JOIN dim x ON x.k = o.id)`, below},
		{"other-source", `d.k IN (SELECT k FROM fact WHERE val > 90)`, "join(scan,filter(scan))"},
		{"after-plain", `f.val IN (SELECT val FROM fact WHERE grp = 1) AND f.grp > 2`, "join(filter(filter(scan)),scan)"},
		{"after-index-probe", `f.val IN (SELECT val FROM fact WHERE grp = 1) AND f.grp = 2`, "join(filter(index),scan)"},
		// Q17 shape: the subquery reads the outer row.
		{"correlated-scalar", `f.val < (SELECT AVG(f2.val) FROM fact f2 WHERE f2.k = d.k)`, above},
		// Q22 shape.
		{"correlated-exists", `NOT EXISTS (SELECT 1 FROM other o WHERE o.id = f.id)`, above},
		{"correlated-nested", `f.id IN (SELECT id FROM other o WHERE EXISTS (SELECT 1 FROM dim WHERE dim.k = f.k))`, above},
		// The inner alias f is other, which has no val: f.val is the outer row's.
		{"alias-shadowed", `f.id IN (SELECT f.id FROM other f WHERE f.val > 3)`, above},
		{"view", `f.id IN (SELECT id FROM bigval)`, above},
		{"derived-table", `f.id IN (SELECT x.id FROM (SELECT id FROM other) AS x)`, above},
		{"unknown-table", `f.id IN (SELECT id FROM nosuch)`, above},
		{"unknown-column", `f.id IN (SELECT nosuch FROM other)`, above},
		{"output-alias", `f.id IN (SELECT id AS oid FROM other ORDER BY oid)`, above},
		{"two-sources", `f.val + d.k IN (SELECT val FROM fact)`, above},
		{"no-outer-ref", `EXISTS (SELECT 1 FROM other)`, above},
		{"or-of-subqueries", `f.id IN (SELECT id FROM other) OR f.val < (SELECT AVG(f2.val) FROM fact f2 WHERE f2.k = d.k)`, above},
	} {
		_, src := sourceOf(t, db, `SELECT f.id FROM fact f, dim d WHERE f.k = d.k AND `+tc.where)
		if got := opShape(src.op); got != tc.want {
			t.Errorf("%s: shape %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestSubqueryConjunctSameErrors: production and the reference place
// conjuncts by the same function, so a failing closed subquery surfaces —
// with the same text — in both, also when the other join input is empty and
// a residual filter would never have run.
func TestSubqueryConjunctSameErrors(t *testing.T) {
	db := streamTestDB(t, 200)
	defer cfgProduction.apply(db)
	for _, tc := range []struct{ sql, wantErr string }{
		{`SELECT f.id FROM fact f, dim d WHERE f.k = d.k AND d.k > 100 AND f.val > (SELECT val FROM fact)`, "scalar subquery returned"},
		{`SELECT f.id FROM fact f, dim d WHERE f.k = d.k AND f.id < 0 AND d.k IN (SELECT k, name FROM dim)`, "IN subquery returns 2 columns"},
		{`SELECT f.id FROM fact f, dim d, other o WHERE f.k = d.k AND o.id = f.id AND o.id < 0 AND d.k NOT IN (SELECT 1 / (k - 3) FROM dim)`, "division by zero"},
		// Open subqueries keep the residual's behaviour: no joined row, no error.
		{`SELECT f.id FROM fact f, dim d WHERE f.k = d.k AND d.k > 100 AND f.val > (SELECT f2.val FROM fact f2 WHERE f2.k <> d.k)`, ""},
	} {
		cfgReference.apply(db)
		want := execKey(db.QuerySQL(tc.sql))
		if tc.wantErr == "" {
			if strings.HasPrefix(want, "error: ") {
				t.Errorf("%q: reference failed: %s", tc.sql, want)
			}
		} else if !strings.HasPrefix(want, "error: ") || !strings.Contains(want, tc.wantErr) {
			t.Errorf("%q: reference returned %q, want error containing %q", tc.sql, want, tc.wantErr)
		}
		for _, cfg := range checkedConfigs {
			cfg.apply(db)
			if got := execKey(db.QuerySQL(tc.sql)); got != want {
				t.Errorf("%s %q:\ngot:       %s\nreference: %s", cfg.name, tc.sql, got, want)
			}
		}
	}
}

// chainTestDB has a 1:N:M shape with gaps: a.k -> b.k (0..3 rows per key,
// none for k%5 == 4), b.x -> c.x (2 rows per x, none for odd x), plus a
// one-row-per-id table for the mid-chain cross product.
func chainTestDB(t *testing.T, n int) *DB {
	t.Helper()
	db := Open(ModePostgres)
	if _, err := db.ExecScript(`
		CREATE TABLE a (id INTEGER NOT NULL, k INTEGER NOT NULL, pad VARCHAR NOT NULL);
		CREATE TABLE b (k INTEGER NOT NULL, x INTEGER NOT NULL, bv INTEGER NOT NULL);
		CREATE TABLE c (x INTEGER NOT NULL, cv VARCHAR NOT NULL);
		CREATE TABLE one (id INTEGER NOT NULL, v INTEGER NOT NULL)`); err != nil {
		t.Fatal(err)
	}
	ta, tb, tc, to := db.Table("a"), db.Table("b"), db.Table("c"), db.Table("one")
	for i := 0; i < n; i++ {
		ta.AppendRow([]sqltypes.Value{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 97)), sqltypes.NewString(fmt.Sprintf("pad-%04d", i))})
	}
	for k := 0; k < 97; k++ {
		for r := 0; r < (k%5+1)%5; r++ { // 1,2,3,4,0 rows
			tb.AppendRow([]sqltypes.Value{sqltypes.NewInt(int64(k)), sqltypes.NewInt(int64(k + r)), sqltypes.NewInt(int64(100*k + r))})
		}
	}
	for x := 0; x < 100; x += 2 {
		for r := 0; r < 2; r++ {
			tc.AppendRow([]sqltypes.Value{sqltypes.NewInt(int64(x)), sqltypes.NewString(fmt.Sprintf("c%d.%d", x, r))})
		}
	}
	for id := 0; id < 3; id++ {
		to.AppendRow([]sqltypes.Value{sqltypes.NewInt(int64(id)), sqltypes.NewInt(int64(2 * id))})
	}
	return db
}

// spillChain filters its build sides, so they are hashed per statement
// (no persistent index) and a memory cap spills the joins.
const spillChain = `SELECT * FROM a, b, c, one WHERE a.k = b.k AND b.bv >= 0 AND b.x = c.x AND c.cv <> '' AND one.id = 2`

var chainShapes = []string{
	// 1:N fan-out at both later joins, probe rows without a match at each.
	`SELECT * FROM a, b, c WHERE a.k = b.k AND b.x = c.x`,
	spillChain,
	// The Q18/Q22 shape: a filtered single-row source cross-joined in
	// mid-chain, the next table keyed on it (mt_inl3.T_tenant_key = 1).
	`SELECT * FROM a, b, one, c WHERE a.k = b.k AND one.id = 1 AND one.v = c.x`,
	// Cross product that fans out (three rows), then a keyed join.
	`SELECT * FROM a, one, b WHERE a.id < 40 AND a.k = b.k`,
	// A chain whose first operand is an explicit JOIN: never extended.
	`SELECT * FROM a JOIN b ON a.k = b.k, c, one WHERE b.x = c.x AND one.id = c.x`,
	// Chain output consumed by a breaker and a residual filter.
	`SELECT a.k, COUNT(*) AS n, MIN(cv) AS m FROM a, b, c WHERE a.k = b.k AND b.x = c.x AND a.id + bv > c.x GROUP BY a.k ORDER BY a.k`,
	// No row survives the second join.
	`SELECT * FROM a, b, c WHERE a.k = b.k AND b.bv = c.x AND b.bv > 100`,
}

// TestJoinChainMatchesReference: every chain shape is byte-identical to the
// reference executor, unlimited and under a memory cap.
func TestJoinChainMatchesReference(t *testing.T) {
	db := chainTestDB(t, 3000)
	db.SetSpillDir(t.TempDir())
	defer cfgProduction.apply(db)
	for _, q := range chainShapes {
		db.SetMemoryLimit(0)
		cfgReference.apply(db)
		want := execKey(db.QuerySQL(q))
		if strings.HasPrefix(want, "error: ") {
			t.Fatalf("%q: %s", q, want)
		}
		for _, limit := range []int64{0, 8 << 10} {
			db.SetMemoryLimit(limit)
			for _, cfg := range checkedConfigs {
				cfg.apply(db)
				if got := execKey(db.QuerySQL(q)); got != want {
					t.Errorf("%s limit=%d %q: differs from reference (%d vs %d bytes)", cfg.name, limit, q, len(got), len(want))
				}
			}
		}
	}
}

// TestJoinOnSplitMatchesReference: both executors and both join kinds split
// an ON clause through splitOn; the shapes copies of that split could
// disagree on stay byte-identical to the reference for INNER and LEFT OUTER.
func TestJoinOnSplitMatchesReference(t *testing.T) {
	db := chainTestDB(t, 600)
	defer cfgProduction.apply(db)
	for _, on := range []string{
		`b.k = a.k`,                           // equi sides swapped
		`id = x`,                              // unqualified, each owned by one side
		`a.k = b.k AND bv > 100`,              // unqualified one-side residual
		`a.k = b.k AND a.id < b.bv`,           // equi pair plus a two-side residual
		`b.x = a.k + 1 AND pad <> 'pad-0003'`, // expression key, swapped
	} {
		for _, kind := range []string{"JOIN", "LEFT OUTER JOIN"} {
			q := `SELECT * FROM a ` + kind + ` b ON ` + on
			cfgReference.apply(db)
			want := execKey(db.QuerySQL(q))
			if strings.HasPrefix(want, "error: ") {
				t.Fatalf("%q: reference: %s", q, want)
			}
			for _, cfg := range checkedConfigs {
				cfg.apply(db)
				if got := execKey(db.QuerySQL(q)); got != want {
					t.Errorf("%s %q: differs from reference (%d vs %d bytes)", cfg.name, q, len(got), len(want))
				}
			}
		}
	}
}

// checkRowsOwned fails unless every row fills its capacity exactly and no
// two rows share storage.
func checkRowsOwned(t *testing.T, q string, rows [][]sqltypes.Value, width int) {
	t.Helper()
	if len(rows) == 0 {
		t.Fatalf("%q: no rows", q)
	}
	seen := make(map[unsafe.Pointer]bool, len(rows))
	for _, row := range rows {
		if len(row) != width || cap(row) != len(row) {
			t.Fatalf("%q: row len/cap = %d/%d, want %d/%d", q, len(row), cap(row), width, width)
		}
		p := unsafe.Pointer(&row[0])
		if seen[p] {
			t.Fatalf("%q: two output rows share storage", q)
		}
		seen[p] = true
	}
}

// TestJoinChainRowOwnership drives chains directly and checks the
// invariant on what comes out: a final-chain row fills its capacity
// exactly, and no two output rows share storage — the first match of a
// probe row is written in place, every further match is a copy. The capped
// run repeats it on a chain whose lower joins spilled to sorted runs, so
// the joins above them probe with rows that came back from
// disk without any reserved capacity. Where a chain's tail of small tables
// is pre-joined (DESIGN.md ADR-034), the dimension join is the top one: it
// extends the chain when a join precedes it, and the rows it emits are
// owned the same way.
func TestJoinChainRowOwnership(t *testing.T) {
	db := chainTestDB(t, 3000)
	db.SetSpillDir(t.TempDir())
	// check returns how many joins below the top one spilled.
	check := func(q string, limit int64, dim, extends bool) (spilled int) {
		t.Helper()
		db.SetMemoryLimit(limit)
		before := db.Stats.DimensionBuilds.Load()
		ex, src := sourceOf(t, db, q)
		defer ex.releaseSpills()
		defer src.op.Close()
		if built := db.Stats.DimensionBuilds.Load() > before; built != dim {
			t.Fatalf("%q: dimension built = %v, want %v", q, built, dim)
		}
		top, ok := src.op.(*joinOperator)
		if !ok || top.extends != extends {
			t.Fatalf("%q: top of the pipeline is %s (extends %v), want a join that extends its chain: %v", q, opShape(src.op), ok && top.extends, extends)
		}
		// A join drops its spilled state when it closes, and the drain closes it.
		count := func() {
			for j, ok := top.left.(*joinOperator); ok; j, ok = j.left.(*joinOperator) {
				if j.spilled != nil {
					spilled++
				}
			}
		}
		rows, err := drainRows(ex, closeHook{src.op, count}, math.MaxInt)
		if err != nil {
			t.Fatal(err)
		}
		checkRowsOwned(t, q, rows, src.rel.width)
		return spilled
	}
	// The first four chains end in small tables and meet them as one
	// dimension, their first join; the fifth starts with a JOIN expression,
	// whose size is unknown until it runs, and stays per member.
	for i, q := range chainShapes[:5] {
		check(q, 0, i < 4, i == 4)
	}
	// A large table between the stream and the tail: the dimension join is
	// the chain's second join and fills in the rows the first one reserved.
	check(`SELECT * FROM a, a a2, b, c WHERE a.id = a2.id AND a2.k = b.k AND b.x = c.x`, 0, true, true)
	// Under a cap the chain stays per member.
	if spilled := check(spillChain, 8<<10, false, true); spilled != 2 {
		t.Errorf("%d of the 2 lower joins spilled under the cap: the chain never saw respilled probe rows", spilled)
	}
}

// outerTestDB is the LEFT OUTER probe/build pair: p has NULL keys (id%7 ==
// 3), keys without a build row (k >= 40) and two rows (id 10 and 1500, in
// different probe batches) on key 777, whose bucket in q is wider than one
// fill; q also has NULL keys, which never match; e is empty.
func outerTestDB(t *testing.T) *DB {
	t.Helper()
	db := Open(ModePostgres)
	if _, err := db.ExecScript(`
		CREATE TABLE p (id INTEGER NOT NULL, k INTEGER, v INTEGER NOT NULL);
		CREATE TABLE q (k INTEGER, w INTEGER NOT NULL, tag VARCHAR NOT NULL);
		CREATE TABLE e (k INTEGER, z INTEGER);
		CREATE TABLE one (id INTEGER NOT NULL, v INTEGER NOT NULL)`); err != nil {
		t.Fatal(err)
	}
	tp, tq, to := db.Table("p"), db.Table("q"), db.Table("one")
	for i := 0; i < 2500; i++ {
		k := sqltypes.NewInt(int64(i % 50))
		switch {
		case i%7 == 3:
			k = sqltypes.Null
		case i == 10 || i == 1500:
			k = sqltypes.NewInt(777)
		}
		tp.AppendRow([]sqltypes.Value{sqltypes.NewInt(int64(i)), k, sqltypes.NewInt(int64(i % 11))})
	}
	for k := 0; k < 40; k++ {
		for w := 0; w < k%4; w++ { // 0..3 rows per key
			tq.AppendRow([]sqltypes.Value{sqltypes.NewInt(int64(k)), sqltypes.NewInt(int64(w)), sqltypes.NewString(fmt.Sprintf("q%d.%d", k, w))})
		}
		tq.AppendRow([]sqltypes.Value{sqltypes.Null, sqltypes.NewInt(int64(k)), sqltypes.NewString("null-key")})
	}
	for w := 0; w < joinFillRows+3000; w++ {
		tq.AppendRow([]sqltypes.Value{sqltypes.NewInt(777), sqltypes.NewInt(int64(w)), sqltypes.NewString("wide")})
	}
	for id := 0; id < 3; id++ {
		to.AppendRow([]sqltypes.Value{sqltypes.NewInt(int64(id)), sqltypes.NewInt(int64(4 * id))})
	}
	return db
}

// lastWide is the w of the wide bucket's last candidate.
const lastWide = joinFillRows + 3000 - 1

// outerShapes: q keyed on a plain column is probed through its persistent
// index and the capped run stays in memory; keyed on q.k + 0 it is hashed
// per statement, so the cap spills the join.
var outerShapes = []struct {
	sql    string
	spills bool
}{
	// NULL probe keys, keys without a bucket, the wide bucket without a residual.
	{`SELECT * FROM p LEFT JOIN q ON p.k = q.k`, false},
	{`SELECT * FROM p LEFT JOIN q ON p.k = q.k + 0`, true},
	// Empty build.
	{`SELECT * FROM p LEFT JOIN e ON p.k = e.k`, false},
	{`SELECT * FROM p LEFT JOIN e ON p.k = e.k + 0 AND e.z > p.v`, false},
	// Residual-only ON: no equi pair, every build row a candidate.
	{`SELECT * FROM p LEFT JOIN one ON p.v > one.v`, false},
	{`SELECT * FROM p LEFT JOIN one ON 1 = 1`, false},
	// ... with a build side of several morsels: the twin operator hashed it
	// on a zero-column key, which the morsel-parallel build took for NULL.
	{`SELECT one.id, COUNT(q.w) AS n FROM one LEFT JOIN q ON 1 = 1 GROUP BY one.id ORDER BY one.id`, true},
	// The residual accepts only the wide bucket's last candidate (and the
	// first of every narrow one) / none at all: one row per probe row, in
	// probe order across the fill boundary.
	{fmt.Sprintf(`SELECT * FROM p LEFT JOIN q ON p.k = q.k AND (q.w = %d OR q.w = 0 AND q.k < 777)`, lastWide), false},
	{fmt.Sprintf(`SELECT * FROM p LEFT JOIN q ON p.k = q.k + 0 AND (q.w = %d OR q.w = 0 AND q.k < 777)`, lastWide), true},
	// ... only its first: the matched bit survives the fills that follow.
	{`SELECT * FROM p LEFT JOIN q ON p.k = q.k AND q.w = 0`, false},
	{`SELECT * FROM p LEFT JOIN q ON p.k = q.k AND q.w < 0`, false},
	{`SELECT * FROM p LEFT JOIN q ON p.k = q.k + 0 AND q.w < 0`, true},
	// A residual that fails on one candidate of the wide bucket, in memory
	// and on the spilled path's fill.
	{`SELECT * FROM p LEFT JOIN q ON p.k = q.k AND 100 / (q.w - 17000) < 0`, false},
	{`SELECT * FROM p LEFT JOIN q ON p.k = q.k + 0 AND 100 / (q.w - 17000) < 0`, true},
	// An outer join feeding an inner chain, and inner joins feeding an outer.
	{`SELECT * FROM p LEFT JOIN q ON p.k = q.k AND q.w < 2, one, q q3 WHERE one.id = 2 AND p.v = one.v AND q3.k = one.id`, false},
	{`SELECT * FROM p LEFT JOIN q ON p.k = q.k + 0 AND q.w < 2, one WHERE p.v = one.v`, true},
	{`SELECT * FROM p JOIN one ON p.v = one.v JOIN q ON q.k = one.id + 1 LEFT JOIN q q2 ON q2.k = p.k AND q2.w <> q.w`, false},
	// A filtered probe stream: the inner join's residual drops rows — NULL
	// keys among them — from the selection the outer join probes with.
	{`SELECT * FROM p JOIN one ON one.id = 1 AND p.v % 3 = 0 LEFT JOIN q ON p.k = q.k AND q.w < 3`, false},
	{`SELECT * FROM p JOIN one ON one.id = 1 AND p.v % 3 = 0 LEFT JOIN q ON p.k = q.k + 0 AND q.w < 3`, true},
	// Outer output consumed by a breaker: 52 groups fold within the cap, one
	// group per probe row does not and spills by itself.
	{`SELECT p.k, COUNT(q.w) AS n, COUNT(*) AS m FROM p LEFT JOIN q ON p.k = q.k AND q.w < 5 GROUP BY p.k ORDER BY p.k`, false},
	{`SELECT p.id, COUNT(q.w) AS n, COUNT(*) AS m FROM p LEFT JOIN q ON p.k = q.k AND q.w < 5 GROUP BY p.id ORDER BY p.id`, true},
}

// TestJoinOuterMatchesReference: every LEFT OUTER shape is byte-identical
// to the reference executor — unlimited, under the 64 KB cap (where the
// q.k + 0 shapes must really spill and the others must not), under an 8 KB
// cap (where the spilling shapes spill too, and a breaker above a join that
// stays in memory may) and at parallelism 8.
func TestJoinOuterMatchesReference(t *testing.T) {
	forceParallel(t)
	db := outerTestDB(t)
	db.SetSpillDir(t.TempDir())
	defer cfgProduction.apply(db)
	for _, tc := range outerShapes {
		q := tc.sql
		db.SetMemoryLimit(0)
		db.SetParallelism(1)
		cfgReference.apply(db)
		want := execKey(db.QuerySQL(q))
		if strings.HasPrefix(want, "error: ") != strings.Contains(q, "100 /") {
			t.Fatalf("%q: reference: %.200s", q, want)
		}
		for _, limit := range []int64{0, 64 << 10, 8 << 10} {
			db.SetMemoryLimit(limit)
			for _, cfg := range checkedConfigs {
				cfg.apply(db)
				for _, par := range []int{1, 8} {
					db.SetParallelism(par)
					db.Stats = Stats{}
					if got := execKey(db.QuerySQL(q)); got != want {
						t.Errorf("%s limit=%d par=%d %q: differs from reference (%d vs %d bytes)", cfg.name, limit, par, q, len(got), len(want))
					}
					spilled := db.Stats.Snapshot().SpillRuns > 0
					if limit == 64<<10 && spilled != tc.spills || limit == 8<<10 && tc.spills && !spilled {
						t.Errorf("%s limit=%d par=%d %q: spilled = %v, want %v", cfg.name, limit, par, q, spilled, tc.spills)
					}
				}
			}
		}
	}
	db.SetMemoryLimit(0)
	db.SetParallelism(1)
	cfgProduction.apply(db)
	// The rejecting residual: exactly one null-extended row per probe row.
	res, err := db.QuerySQL(`SELECT p.id, q.w FROM p LEFT JOIN q ON p.k = q.k AND q.w < 0`)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.Rows {
		if len(res.Rows) != 2500 || row[0].AsInt() != int64(i) || !row[1].IsNull() {
			t.Fatalf("rejecting residual: %d rows, row %d = %v; want 2500 null-extended rows in probe order", len(res.Rows), i, row)
		}
	}
}

// TestJoinOuterRowOwnership: an outer join copies every row it emits — its
// rows fill their capacity exactly and share no storage, whether its probe
// rows come from inner joins or it feeds a chain that then extends its own
// rows — and one fill never holds more than joinFillRows rows.
func TestJoinOuterRowOwnership(t *testing.T) {
	db := outerTestDB(t)
	for _, q := range []string{
		`SELECT * FROM p JOIN one ON p.v = one.v JOIN q ON q.k = one.id + 1 LEFT JOIN q q2 ON q2.k = p.k AND q2.w <> q.w`,
		`SELECT * FROM p LEFT JOIN q ON p.k = q.k AND q.w < 2, one, q q3 WHERE p.v = one.v AND q3.k = one.id`,
		`SELECT * FROM p LEFT JOIN q ON p.k = q.k`,
	} {
		ex, src := sourceOf(t, db, q)
		outer, isJoin := src.op.(*joinOperator)
		for isJoin && !outer.outer {
			outer, isJoin = outer.left.(*joinOperator)
		}
		if !isJoin || outer.extends || outer.rowCap != outer.orel.width {
			t.Fatalf("%q: no standalone outer join on the probe spine of %s", q, opShape(src.op))
		}
		if err := src.op.Open(ex); err != nil {
			t.Fatal(err)
		}
		var rows [][]sqltypes.Value
		for {
			b, err := src.op.Next(ex)
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			if len(outer.pending) > joinFillRows {
				t.Fatalf("%q: a fill holds %d rows, bound is %d", q, len(outer.pending), joinFillRows)
			}
			for _, i := range b.sel {
				rows = append(rows, b.rows[i])
			}
		}
		src.op.Close()
		checkRowsOwned(t, q, rows, src.rel.width)
	}
}
