package engine_test

// Randomized differential fuzzer over the mtdbgen (MT-H) schemas: random
// SELECTs — joins, GROUP BY, ORDER BY, DISTINCT, IN- and EXISTS-subqueries —
// are cross-checked through every execution arm the engine offers: the
// three configurations of DESIGN.md ADR-010 (production, evaluator check,
// reference executor), parallelism 1 vs 8, and unlimited vs a tiny memory
// limit that forces every pipeline breaker through the spill path. All arms
// must agree byte for byte.
//
// The generator emits only total expressions (no division), because a
// spilled statement may evaluate expressions an in-memory LIMIT run never
// reaches — the one accepted divergence of the overflow design (DESIGN.md
// ADR-006). The native FuzzQuery target, whose mutated inputs can contain
// anything, therefore treats error/success disagreement on capped arms as
// out of scope while still requiring byte identity whenever both runs
// succeed, and hard agreement on the reference/evaluator-check/parallel arms.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/mth"
	"mtbase/internal/optimizer"
)

// fuzzKey renders an outcome order- and type-sensitively; errors render as
// their text so error agreement is part of the differential claim.
func fuzzKey(res *engine.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Cols, "|"))
	sb.WriteByte('\n')
	for _, row := range res.Rows {
		for j, v := range row {
			if j > 0 {
				sb.WriteByte('|')
			}
			fmt.Fprintf(&sb, "%v:%s", v.K, v.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ------------------------------------------------------------- generator

// mtGen generates random SELECTs over the MT-H tenant view. Expressions are
// typed (numeric, string, date pools per table set) so generated queries
// plan cleanly, and total, so results carry no data-dependent errors.
type mtGen struct {
	r *rand.Rand
}

type fuzzCols struct {
	nums  []string
	strs  [][2]string // column, sample constant
	dates []string
	lists [][]string // a low-cardinality column, then values it takes: IN-list material
}

var (
	lineitemCols = fuzzCols{
		nums: []string{"l_partkey", "l_suppkey", "l_linenumber", "l_quantity", "l_extendedprice", "l_discount", "l_tax"},
		strs: [][2]string{
			{"l_returnflag", "R"}, {"l_linestatus", "O"},
			{"l_shipmode", "TRUCK"}, {"l_shipinstruct", "DELIVER IN PERSON"},
		},
		dates: []string{"l_shipdate", "l_commitdate", "l_receiptdate"},
		lists: [][]string{
			{"l_linenumber", "1", "2", "3", "4", "5", "6", "7"},
			{"l_shipmode", "'MAIL'", "'SHIP'", "'AIR'", "'TRUCK'", "'RAIL'", "'FOB'", "'REG AIR'"},
		},
	}
	ordersCols = fuzzCols{
		nums:  []string{"o_shippriority", "o_totalprice", "o_custkey"},
		strs:  [][2]string{{"o_orderstatus", "O"}, {"o_orderpriority", "1-URGENT"}},
		dates: []string{"o_orderdate"},
		lists: [][]string{{"o_orderpriority", "'1-URGENT'", "'2-HIGH'", "'3-MEDIUM'", "'4-NOT SPECIFIED'", "'5-LOW'"}},
	}
	customerCols = fuzzCols{
		nums:  []string{"c_custkey", "c_nationkey", "c_acctbal"},
		strs:  [][2]string{{"c_mktsegment", "BUILDING"}, {"c_name", "Customer#000000001"}},
		lists: [][]string{{"c_nationkey", "0", "3", "7", "7.0", "12", "19", "24"}},
	}
	supplierCols = fuzzCols{
		nums: []string{"s_suppkey", "s_nationkey", "s_acctbal"},
		strs: [][2]string{{"s_name", "Supplier#000000001"}},
	}
)

func merge(cs ...fuzzCols) fuzzCols {
	var out fuzzCols
	for _, c := range cs {
		out.nums = append(out.nums, c.nums...)
		out.strs = append(out.strs, c.strs...)
		out.dates = append(out.dates, c.dates...)
		out.lists = append(out.lists, c.lists...)
	}
	return out
}

func (g *mtGen) pick(ss []string) string { return ss[g.r.Intn(len(ss))] }

// numExpr is a total numeric expression: columns, small constants, and
// +, -, * (never division — see the package comment).
func (g *mtGen) numExpr(c fuzzCols, depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		if g.r.Intn(4) == 0 {
			return fmt.Sprintf("%d", g.r.Intn(5000))
		}
		return g.pick(c.nums)
	}
	ops := []string{"+", "-", "*"}
	return fmt.Sprintf("(%s %s %s)",
		g.numExpr(c, depth-1), ops[g.r.Intn(len(ops))], g.numExpr(c, depth-1))
}

func (g *mtGen) pred(c fuzzCols, depth int) string {
	if depth <= 0 {
		if len(c.lists) > 0 && g.r.Intn(4) == 0 {
			return g.inList(c)
		}
		switch g.r.Intn(3) {
		case 0:
			cmps := []string{"=", "<>", "<", "<=", ">", ">="}
			return fmt.Sprintf("(%s %s %s)",
				g.numExpr(c, 1), cmps[g.r.Intn(len(cmps))], g.numExpr(c, 1))
		case 1:
			sc := c.strs[g.r.Intn(len(c.strs))]
			cmps := []string{"=", "<>", "<", ">="}
			return fmt.Sprintf("(%s %s '%s')", sc[0], cmps[g.r.Intn(len(cmps))], sc[1])
		default:
			if len(c.dates) >= 2 {
				cmps := []string{"<", "<=", ">", ">="}
				return fmt.Sprintf("(%s %s %s)",
					g.pick(c.dates), cmps[g.r.Intn(len(cmps))], g.pick(c.dates))
			}
			return fmt.Sprintf("(%s >= %d)", g.pick(c.nums), g.r.Intn(2000))
		}
	}
	conj := []string{"AND", "OR"}
	return fmt.Sprintf("(%s %s %s)",
		g.pred(c, depth-1), conj[g.r.Intn(2)], g.pred(c, depth-1))
}

// inList is `col IN (…)` over a low-cardinality column: one to four of its
// values — duplicates, a NULL or a value it never takes among them — so the
// list selects anything from nothing to most of the table, on either side of
// the quarter of the heap where the index scan's range stops (DESIGN.md
// ADR-026).
func (g *mtGen) inList(c fuzzCols) string {
	l := c.lists[g.r.Intn(len(c.lists))]
	items := make([]string, 1+g.r.Intn(4))
	for i := range items {
		switch g.r.Intn(10) {
		case 0:
			items[i] = "NULL"
		case 1:
			items[i] = "99"
		default:
			items[i] = g.pick(l[1:])
		}
	}
	return fmt.Sprintf("(%s IN (%s))", l[0], strings.Join(items, ", "))
}

// query emits one random SELECT covering the breaker-heavy shapes: sorts,
// grouped aggregation, inner and LEFT joins, join chains, DISTINCT, IN and
// EXISTS.
func (g *mtGen) query() string {
	switch g.r.Intn(10) {
	case 0: // filtered scan through the external sort
		return fmt.Sprintf(
			"SELECT l_orderkey, l_linenumber, %s AS e FROM lineitem WHERE %s ORDER BY e, l_orderkey, l_linenumber LIMIT %d",
			g.numExpr(lineitemCols, 2), g.pred(lineitemCols, 2), 50+g.r.Intn(400))
	case 1: // grouped aggregation with HAVING
		return fmt.Sprintf(
			"SELECT l_returnflag, l_linestatus, COUNT(*) AS n, SUM(%s) AS s, AVG(%s) AS a, MIN(l_quantity) AS mn, MAX(l_extendedprice) AS mx "+
				"FROM lineitem WHERE %s GROUP BY l_returnflag, l_linestatus HAVING COUNT(*) > %d ORDER BY l_returnflag, l_linestatus",
			g.numExpr(lineitemCols, 2), g.numExpr(lineitemCols, 1), g.pred(lineitemCols, 2), g.r.Intn(4))
	case 2: // hash join orders ⋈ lineitem with residual predicate
		both := merge(ordersCols, lineitemCols)
		return fmt.Sprintf(
			"SELECT o_orderkey, o_totalprice, l_linenumber, %s AS e FROM orders, lineitem "+
				"WHERE o_orderkey = l_orderkey AND %s ORDER BY o_orderkey, l_linenumber, e LIMIT %d",
			g.numExpr(both, 1), g.pred(both, 1), 100+g.r.Intn(300))
	case 3: // LEFT JOIN with null-extended right side
		return fmt.Sprintf(
			"SELECT c_custkey, c_acctbal, o_orderkey, o_totalprice FROM customer LEFT JOIN orders ON c_custkey = o_custkey "+
				"WHERE %s ORDER BY c_custkey, o_orderkey",
			g.pred(customerCols, 1))
	case 4: // DISTINCT over an expression
		return fmt.Sprintf(
			"SELECT DISTINCT %s AS e, l_returnflag FROM lineitem WHERE %s ORDER BY e, l_returnflag",
			g.numExpr(lineitemCols, 1), g.pred(lineitemCols, 1))
	case 5: // uncorrelated IN subquery
		return fmt.Sprintf(
			"SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey IN "+
				"(SELECT c_custkey FROM customer WHERE %s) AND %s ORDER BY o_orderkey LIMIT %d",
			g.pred(customerCols, 1), g.pred(ordersCols, 1), 100+g.r.Intn(300))
	case 6: // three-way join into grouped aggregation
		all := merge(customerCols, ordersCols, lineitemCols)
		return fmt.Sprintf(
			"SELECT c_nationkey, COUNT(*) AS n, SUM(%s) AS s FROM customer, orders, lineitem "+
				"WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND %s GROUP BY c_nationkey ORDER BY c_nationkey",
			g.numExpr(lineitemCols, 1), g.pred(all, 1))
	case 7: // correlated EXISTS
		return fmt.Sprintf(
			"SELECT c_custkey, c_name FROM customer WHERE EXISTS "+
				"(SELECT 1 FROM orders WHERE o_custkey = c_custkey AND %s) ORDER BY c_custkey",
			g.pred(ordersCols, 1))
	case 8: // closed IN-subquery conjunct over one source of a three-way join
		all := merge(customerCols, ordersCols, lineitemCols)
		return fmt.Sprintf(
			"SELECT c_custkey, o_orderkey, l_linenumber, %s AS e FROM customer, orders, lineitem "+
				"WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND o_orderkey IN "+
				"(SELECT l_orderkey FROM lineitem GROUP BY l_orderkey HAVING SUM(l_quantity) > %d) AND %s "+
				"ORDER BY c_custkey, o_orderkey, l_linenumber LIMIT %d",
			g.numExpr(all, 1), 100+g.r.Intn(150), g.pred(all, 1), 100+g.r.Intn(300))
	default: // join against the globally shared tables
		both := merge(supplierCols, fuzzCols{nums: []string{"n_nationkey", "n_regionkey"}})
		return fmt.Sprintf(
			"SELECT s_suppkey, s_name, n_name FROM supplier, nation WHERE s_nationkey = n_nationkey AND %s ORDER BY s_suppkey",
			g.pred(both, 1))
	}
}

// ------------------------------------------------------------- arms

type fuzzArms struct {
	db   *engine.DB
	conn *middleware.Conn
}

func newFuzzArms(tb testing.TB) *fuzzArms {
	cfg := mth.Config{SF: 0.001, Tenants: 2, Dist: mth.Uniform, Seed: 11, Mode: engine.ModePostgres}
	inst, err := mth.LoadMT(mth.Generate(cfg))
	if err != nil {
		tb.Fatal(err)
	}
	if err := inst.GrantReadTo(1); err != nil {
		tb.Fatal(err)
	}
	conn, err := inst.Connect(1, "IN ()")
	if err != nil {
		tb.Fatal(err)
	}
	conn.SetOptLevel(optimizer.O4)
	return &fuzzArms{db: inst.Srv.DB(), conn: conn}
}

func (a *fuzzArms) reset() {
	a.db.SetStreamExec(true)
	a.db.SetCompileExprs(true)
	a.db.SetParallelism(1)
	a.db.SetMemoryLimit(0)
}

// run executes sql through the cursor path (which honors every knob,
// including the reference executor) under a timeout: mutated fuzz
// inputs can drop a join predicate and turn into multi-million-row cross
// products, and one such exec must not stall the whole fuzz loop.
func (a *fuzzArms) run(sql string, timeout time.Duration) string {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	rows, err := a.conn.QueryContext(ctx, sql)
	if err != nil {
		return "error: " + err.Error()
	}
	res, err := rows.Collect()
	rows.Close()
	return fuzzKey(res, err)
}

func timedOut(key string) bool {
	return strings.Contains(key, context.DeadlineExceeded.Error())
}

// fuzzMemLimit forces every breaker through the overflow path on the small
// fuzz dataset.
const fuzzMemLimit = 48 << 10

// checkArms are the arms check compares with the baseline: each sets its knobs
// on a reset database. capped arms run under fuzzMemLimit.
var checkArms = []struct {
	name   string
	prep   func(a *fuzzArms)
	capped bool
}{
	{"reference", func(a *fuzzArms) { a.db.SetStreamExec(false) }, false},
	{"evaluator-check", func(a *fuzzArms) { a.db.SetCompileExprs(false) }, false},
	{"parallel-8", func(a *fuzzArms) { a.db.SetParallelism(8) }, false},
	{"capped", func(a *fuzzArms) { a.db.SetMemoryLimit(fuzzMemLimit) }, true},
	{"capped-parallel-8", func(a *fuzzArms) {
		a.db.SetMemoryLimit(fuzzMemLimit)
		a.db.SetParallelism(8)
	}, true},
	{"capped-evaluator-check", func(a *fuzzArms) {
		a.db.SetMemoryLimit(fuzzMemLimit)
		a.db.SetCompileExprs(false)
	}, true},
}

// check runs sql through every arm — the reference executor, the evaluator
// check, and production under parallelism and memory caps — and compares
// against the serial, unlimited production baseline. strict requires bit-identical
// outcomes everywhere (the generated corpus is total, so even errors must
// agree textually); lenient mode — for arbitrary mutated inputs — skips
// error/success disagreement on the capped arms only.
func (a *fuzzArms) check(t *testing.T, sql string, strict bool) {
	t.Helper()
	timeout := 2 * time.Minute
	if !strict {
		timeout = 5 * time.Second
	}
	a.reset()
	base := a.run(sql, timeout)
	baseErr := strings.HasPrefix(base, "error: ")
	if baseErr && !strict {
		// The planner rejected a mutated input (or a pathological one timed
		// out); nothing to cross-check beyond "no panic".
		return
	}
	for _, arm := range checkArms {
		a.reset()
		arm.prep(a)
		got := a.run(sql, timeout)
		a.reset()
		if got == base {
			continue
		}
		if !strict && timedOut(got) {
			// A capped or parallel arm can legitimately be slower than the
			// baseline; a timeout is not a divergence.
			continue
		}
		gotErr := strings.HasPrefix(got, "error: ")
		if !strict && arm.capped && (gotErr != baseErr) && !strings.Contains(got, "spill") {
			// Accepted divergence: a capped run evaluates expressions an
			// in-memory LIMIT run never reaches (or vice versa). Spill
			// infrastructure errors are never acceptable.
			continue
		}
		t.Errorf("%s arm diverges on %q:\n--- arm\n%s--- baseline\n%s", arm.name, sql, got, base)
	}
}

// TestQueryFuzz is the seeded randomized differential suite: every
// generated query must produce identical bytes through all six arms, the
// capped arms must actually spill, and no temp file may outlive the run.
func TestQueryFuzz(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 25
	}
	a := newFuzzArms(t)
	dir := t.TempDir()
	a.db.SetSpillDir(dir)
	engine.SetMorselSize(1)
	defer engine.SetMorselSize(0)
	defer a.reset()
	a.db.Stats = engine.Stats{}
	levels := []optimizer.Level{optimizer.Canonical, optimizer.O3, optimizer.O4}
	g := &mtGen{r: rand.New(rand.NewSource(20260808))}
	for i := 0; i < seeds; i++ {
		a.conn.SetOptLevel(levels[i%len(levels)])
		a.check(t, g.query(), true)
	}
	if a.db.Stats.Snapshot().SpillRuns == 0 {
		t.Error("fuzz run never spilled: capped arms ran in memory")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("%d spill files leaked", len(ents))
	}
}

// TestFuzzArmsUnderDeadlines: a deadline that lands inside a statement ends
// each of check's arms with an error wrapping the context's, or the arm
// finishes with the baseline's answer — never fewer rows or another error,
// which a lenient check would report as a divergence. The statement is a
// mutated Q5 whose cross product with nation and region runs for about half
// a second serial in memory and longer in every other arm, so the deadlines
// land in its first batches, in its joins and near its end.
func TestFuzzArmsUnderDeadlines(t *testing.T) {
	const sql = `SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue FROM customer, orders, lineitem, supplier, nation, region WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey`
	a := newFuzzArms(t)
	a.db.SetSpillDir(t.TempDir())
	defer a.reset()
	a.reset()
	base := a.run(sql, time.Minute)
	if strings.HasPrefix(base, "error: ") {
		t.Fatalf("baseline: %s", base)
	}
	for _, arm := range checkArms {
		for _, d := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond, 400 * time.Millisecond} {
			a.reset()
			arm.prep(a)
			ctx, cancel := context.WithTimeout(context.Background(), d)
			var res *engine.Result
			rows, err := a.conn.QueryContext(ctx, sql)
			if err == nil {
				res, err = rows.Collect()
				rows.Close()
			}
			cancel()
			if got := fuzzKey(res, err); got != base && !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s arm under a %v deadline:\n--- arm\n%s--- baseline\n%s", arm.name, d, got, base)
			}
		}
	}
}

// cancelMutants cannot finish in any arm. The first is the input that kept
// the fuzz leg red: a TPC-H seed whose WHERE the fuzzer mutated away, so the
// FROM list is a cross product of 150 x 1 500 x 6 000 rows. The next is its
// LEFT JOIN form — every candidate passes the residual — and the last a
// skewed 1:N equi LEFT JOIN whose residual rejects every candidate, so a
// probe row examines 1 500 candidates to emit one null-extended row.
var cancelMutants = []struct{ name, sql string }{
	{"cross", `SELECT * FROM customer, orders, lineitem`},
	{"outer-pairless", `SELECT * FROM customer LEFT JOIN orders ON 1 = 1 LEFT JOIN lineitem ON 1 = 1`},
	{"outer-rejecting", `SELECT * FROM lineitem l1 LEFT JOIN lineitem l2 ON l1.l_linestatus = l2.l_linestatus AND l2.l_quantity < 0`},
}

// TestCancelMidJoinMutant: every arm must notice the deadline within a fill
// (production) or a probe row (reference) instead of first expanding a
// probe batch against the whole build side, and leave no spill file behind.
func TestCancelMidJoinMutant(t *testing.T) {
	a := newFuzzArms(t)
	dir := t.TempDir()
	a.db.SetSpillDir(dir)
	defer a.reset()
	arms := []struct {
		name string
		prep func()
	}{
		{"production", func() {}},
		{"reference", func() { a.db.SetStreamExec(false) }},
		{"evaluator-check", func() { a.db.SetCompileExprs(false) }},
		{"parallel-8", func() { a.db.SetParallelism(8) }},
		{"capped", func() { a.db.SetMemoryLimit(fuzzMemLimit) }},
	}
	for _, m := range cancelMutants {
		for _, arm := range arms {
			t.Run(m.name+"/"+arm.name, func(t *testing.T) {
				a.reset()
				arm.prep()
				start := time.Now()
				got := a.run(m.sql, 100*time.Millisecond)
				if !timedOut(got) {
					t.Errorf("want the context's deadline error, got %.80q", got)
				}
				if d := time.Since(start); d > 2*time.Second {
					t.Errorf("took %v to notice a 100ms deadline", d)
				}
			})
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("%d spill files leaked", len(ents))
	}
}

// FuzzQuery is the native fuzz target: arbitrary SQL (seeded with the 22
// MT-H queries, a sample of generated shapes and calls in every clause)
// must never panic the
// engine, and whenever the baseline succeeds, every arm must agree as
// described in check.
func FuzzQuery(f *testing.F) {
	for _, q := range mth.Queries(0.001) {
		f.Add(q.SQL)
	}
	g := &mtGen{r: rand.New(rand.NewSource(5))}
	for i := 0; i < 24; i++ {
		f.Add(g.query())
	}
	// Calls, EXTRACT and SUBSTRING are batch kernels whose arguments are
	// columns of their own (DESIGN.md ADR-016): conversion UDFs over
	// expression arguments and over each other, nested builtins, and both
	// constructs as filters, group keys and join keys.
	for _, sql := range []string{
		`SELECT l_orderkey, currencyToUniversal(l_extendedprice * (1 - l_discount), 1 + l_linenumber / 5) AS v FROM lineitem WHERE l_quantity < 3 ORDER BY l_orderkey, v`,
		`SELECT currencyFromUniversal(currencyToUniversal(c_acctbal, 1), c_nationkey / 13 + 1) AS v, phoneToUniversal(SUBSTRING(c_phone FROM 4), 1) AS p FROM customer ORDER BY v, p LIMIT 40`,
		`SELECT ROUND(ABS(l_extendedprice) / l_quantity, 2) AS r, COUNT(*) AS n FROM lineitem GROUP BY ROUND(ABS(l_extendedprice) / l_quantity, 2) ORDER BY n, r LIMIT 50`,
		`SELECT COALESCE(SUBSTRING(c_phone FROM c_nationkey), CONCAT(c_name, c_custkey)) AS x, CHAR_LENGTH(c_comment) AS n FROM customer ORDER BY x, n LIMIT 50`,
		`SELECT EXTRACT(YEAR FROM o_orderdate) AS y, SUBSTRING(o_orderpriority FROM 1 FOR 1) AS p, COUNT(*), SUM(ROUND(o_totalprice)) FROM orders WHERE EXTRACT(MONTH FROM o_orderdate) < 4 AND SUBSTRING(o_clerk FROM 14 FOR 2) <> '07' GROUP BY EXTRACT(YEAR FROM o_orderdate), SUBSTRING(o_orderpriority FROM 1 FOR 1) ORDER BY y, p`,
		`SELECT COUNT(*), MIN(c_name) FROM customer, supplier WHERE SUBSTRING(c_phone FROM 1 FOR 2) = SUBSTRING(s_phone FROM 1 FOR 2) AND CAST(c_acctbal AS INTEGER) > s_suppkey`,
		`SELECT o_orderkey FROM orders, lineitem WHERE l_orderkey = o_orderkey AND EXTRACT(YEAR FROM l_shipdate) = EXTRACT(YEAR FROM o_orderdate) + 1 ORDER BY o_orderkey LIMIT 30`,
		// The aggregate shapes the one split (ADR-018) must leave alone or
		// resolve: a bare column beside an aggregate, a group key that is no
		// output column, a group key named by its output alias.
		`SELECT c_name, SUM(c_acctbal) AS s FROM customer`,
		`SELECT c_name, SUM(c_acctbal) AS s, COUNT(*) FROM customer GROUP BY c_nationkey ORDER BY s`,
		`SELECT SUBSTRING(c_phone FROM 1 FOR 2) AS cc, COUNT(*), AVG(c_acctbal) FROM customer GROUP BY cc ORDER BY cc`,
	} {
		f.Add(sql)
	}
	a := newFuzzArms(f)
	a.db.SetSpillDir(f.TempDir())
	// Two LEFT JOIN seeds in the shape the rewrite gives every outer join:
	// Q13 as rewritten at canonical (ttid equality plus D' filters in the ON
	// clause) and at o4 (the filters pruned).
	q13 := mth.Queries(0.001)[12]
	if q13.ID != 13 {
		f.Fatalf("query 13 is not at index 12: found Q%d", q13.ID)
	}
	for _, level := range []optimizer.Level{optimizer.Canonical, optimizer.O4} {
		a.conn.SetOptLevel(level)
		sel, err := a.conn.RewriteSQL(q13.SQL)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sel.String())
	}
	// Correlated EXISTS in the index semi-join's shape (ADR-033), each beside
	// a way its parity could break: keys that are NULL for some outer rows,
	// a conjunct that reads the outer row, EXISTS as a select item.
	for _, sql := range []string{
		`SELECT c_custkey, c_name FROM customer WHERE NOT EXISTS (SELECT 1 FROM orders WHERE o_custkey = CASE WHEN c_custkey % 5 = 0 THEN NULL ELSE c_custkey END AND o_orderstatus = 'F') ORDER BY c_custkey LIMIT 40`,
		`SELECT c_custkey FROM customer WHERE EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey AND o_shippriority < c_nationkey - 12) ORDER BY c_custkey`,
		`SELECT c_custkey, EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey AND o_orderpriority = '1-URGENT') AS u, NOT EXISTS (SELECT o_orderkey FROM orders WHERE o_custkey = c_custkey) AS n FROM customer ORDER BY c_custkey LIMIT 30`,
	} {
		f.Add(sql)
	}
	// Last, so the seed numbers above do not move: Q22 as o4 rewrites it,
	// two nine-way chains whose eight conversion tables each meet the stream
	// as one pre-joined dimension (ADR-034).
	q22 := mth.Queries(0.001)[21]
	if q22.ID != 22 {
		f.Fatalf("query 22 is not at index 21: found Q%d", q22.ID)
	}
	a.conn.SetOptLevel(optimizer.O4)
	sel, err := a.conn.RewriteSQL(q22.SQL)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sel.String())
	// A grouped projection's output clauses as batch programs (ADR-035): a
	// UDF over an aggregate beside one over a column no key holds (o4's q10),
	// and scalar subqueries in HAVING and beside an aggregate.
	for _, sql := range []string{
		`SELECT c_nationkey, currencyFromUniversal(SUM(c_acctbal), 2) AS s, phoneToUniversal(c_phone, 1) AS p FROM customer GROUP BY c_nationkey ORDER BY c_nationkey`,
		`SELECT c_nationkey, (SELECT COUNT(*) FROM nation WHERE n_regionkey < c_nationkey % 5) + COUNT(*) AS n FROM customer GROUP BY c_nationkey HAVING (SELECT MAX(n_nationkey) FROM nation WHERE n_regionkey = c_nationkey % 5) > COUNT(*) % 20 ORDER BY c_nationkey`,
	} {
		f.Add(sql)
	}
	// The batch call (ADR-037): conversion calls whose arguments repeat
	// within a batch, are NULL for some rows, name a tenant without a meta
	// row (3, and 0), fail for some rows, and are VARCHAR.
	for _, sql := range []string{
		`SELECT l_linenumber, SUM(currencyToUniversal(ROUND(l_extendedprice, -3), l_linenumber % 3 + 1)) AS s, COUNT(*) FROM lineitem GROUP BY l_linenumber ORDER BY l_linenumber`,
		`SELECT o_orderkey, currencyFromUniversal(CASE WHEN o_orderkey % 4 = 0 THEN NULL ELSE o_totalprice END, CASE WHEN o_orderkey % 5 = 0 THEN NULL ELSE 1 END) AS v FROM orders ORDER BY o_orderkey LIMIT 60`,
		`SELECT c_custkey, currencyToUniversal(c_acctbal, c_custkey % 4) AS v FROM customer ORDER BY c_custkey LIMIT 50`,
		`SELECT p_partkey, currencyToUniversal(p_retailprice, 2 / (p_partkey % 7)) AS v FROM part ORDER BY p_partkey`,
		`SELECT s_suppkey, phoneToUniversal(s_phone, s_suppkey % 3 + 1) AS p, phoneFromUniversal(phoneToUniversal(s_phone, 1), s_nationkey % 2 + 1) AS q FROM supplier ORDER BY s_suppkey LIMIT 40`,
	} {
		f.Add(sql)
	}
	// Last again: Q3 and Q18 as o4 rewrites them, chains whose rows hold only
	// the columns read above each join (ADR-044) — Q18's beside an IN
	// subquery over a grouping.
	a.conn.SetOptLevel(optimizer.O4)
	for _, q := range []mth.Query{mth.Queries(0.001)[2], mth.Queries(0.001)[17]} {
		sel, err := a.conn.RewriteSQL(q.SQL)
		if err != nil || q.ID != 3 && q.ID != 18 {
			f.Fatalf("Q%d: %v", q.ID, err)
		}
		f.Add(sel.String())
	}
	// A column compared with a row-free operand is a selection kernel
	// (ADR-046): each kind against literals and folded intervals, the column
	// on either side, mixed INTEGER/DECIMAL, [NOT] BETWEEN, NULL columns (a
	// LEFT JOIN's unmatched rows, filtered above it), HAVING on a group key,
	// an operand that raises, and a bind, which this target runs unbound.
	for _, sql := range []string{
		`SELECT l_orderkey, l_linenumber FROM lineitem WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1994-01-01' + INTERVAL '1' YEAR AND l_discount BETWEEN 0.06 - 0.01 AND 0.06 + 0.01 AND l_quantity < 24 ORDER BY l_orderkey, l_linenumber`,
		`SELECT c_custkey FROM customer WHERE 'BUILDING' = c_mktsegment AND c_acctbal NOT BETWEEN -100 AND 5000 AND 3 <> c_nationkey ORDER BY c_custkey`,
		`SELECT o_orderkey FROM orders WHERE o_orderpriority <= '2-HIGH' AND DATE '1995-03-15' < o_orderdate AND o_totalprice > 1000 ORDER BY o_orderkey LIMIT 60`,
		`SELECT l_orderkey, l_linenumber FROM lineitem WHERE l_linenumber >= 2.5 AND l_tax <> 0 AND l_extendedprice <= -(-30000) ORDER BY l_orderkey, l_linenumber LIMIT 80`,
		`SELECT c_custkey, o_orderkey FROM customer LEFT JOIN orders ON c_custkey = o_custkey AND o_orderstatus = 'F' WHERE o_totalprice >= 50000 ORDER BY c_custkey, o_orderkey`,
		`SELECT c_custkey, o_orderkey, o_orderdate FROM customer LEFT JOIN orders ON c_custkey = o_custkey AND o_orderpriority = '1-URGENT' WHERE o_orderdate NOT BETWEEN DATE '1995-01-01' AND DATE '1996-12-31' ORDER BY c_custkey, o_orderkey`,
		`SELECT l_returnflag, l_linestatus, COUNT(*) FROM lineitem WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY GROUP BY l_returnflag, l_linestatus HAVING l_returnflag > 'A' ORDER BY l_returnflag, l_linestatus`,
		`SELECT o_orderkey FROM orders WHERE o_orderkey < 100 AND o_totalprice > 1 / 0`,
		`SELECT l_orderkey FROM lineitem WHERE l_shipdate >= $1 AND l_quantity < $2`,
	} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		if len(sql) > 4096 {
			t.Skip("oversized input")
		}
		// Canonical keeps every conversion a UDF call (the call kernel, the
		// statement's result cache, the planned bodies); o4 inlines them.
		a.conn.SetOptLevel([]optimizer.Level{optimizer.Canonical, optimizer.O4}[len(sql)%2])
		a.check(t, sql, false)
	})
}
