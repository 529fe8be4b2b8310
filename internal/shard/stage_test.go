// Staged routing (ADR-015): which blocks the hoist takes, and that a staged
// statement answers what the unsharded tier answers — header, rows and
// errors — on a small MT-H-shaped schema in which partsupp is tenant-specific.
package shard

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/sqlast"
)

const stageModeller = 99

var stageDDL = []string{
	`CREATE TABLE nation (n_nationkey INTEGER NOT NULL, n_name VARCHAR(25) NOT NULL)`,
	`CREATE TABLE supplier (s_suppkey INTEGER NOT NULL, s_nationkey INTEGER NOT NULL)`,
	`CREATE TABLE part (p_partkey INTEGER NOT NULL, p_brand VARCHAR(10) NOT NULL, p_container VARCHAR(10) NOT NULL)`,
	`CREATE TABLE customer SPECIFIC (
		c_custkey INTEGER NOT NULL SPECIFIC,
		c_phone VARCHAR(17) NOT NULL COMPARABLE,
		c_acctbal DECIMAL(15,2) NOT NULL COMPARABLE)`,
	`CREATE TABLE orders SPECIFIC (
		o_orderkey INTEGER NOT NULL SPECIFIC,
		o_custkey INTEGER NOT NULL SPECIFIC,
		o_comment VARCHAR(40) NOT NULL COMPARABLE)`,
	`CREATE TABLE lineitem SPECIFIC (
		l_orderkey INTEGER NOT NULL SPECIFIC,
		l_partkey INTEGER NOT NULL COMPARABLE,
		l_quantity DECIMAL(15,2) NOT NULL COMPARABLE,
		l_extendedprice DECIMAL(15,2) NOT NULL COMPARABLE)`,
	`CREATE TABLE partsupp SPECIFIC (
		ps_partkey INTEGER NOT NULL COMPARABLE,
		ps_suppkey INTEGER NOT NULL COMPARABLE,
		ps_availqty INTEGER NOT NULL COMPARABLE,
		ps_supplycost DECIMAL(15,2) NOT NULL COMPARABLE)`,
}

// MT-H texts the fixture's schema can run (queries.go; Q11's fraction fixed).
const (
	stageQ11 = `SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS value
		FROM partsupp, supplier, nation
		WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = 'GERMANY'
		GROUP BY ps_partkey
		HAVING SUM(ps_supplycost * ps_availqty) > (
			SELECT SUM(ps_supplycost * ps_availqty) * 0.05 FROM partsupp, supplier, nation
			WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = 'GERMANY')
		ORDER BY value DESC`
	stageQ13 = `SELECT c_count, COUNT(*) AS custdist FROM (
			SELECT c_custkey AS ck, COUNT(o_orderkey) AS c_count
			FROM customer LEFT OUTER JOIN orders ON c_custkey = o_custkey AND o_comment NOT LIKE '%special%requests%'
			GROUP BY c_custkey) AS c_orders
		GROUP BY c_count ORDER BY custdist DESC, c_count DESC`
	stageQ17 = `SELECT SUM(l_extendedprice) / 7.0 AS avg_yearly FROM lineitem, part
		WHERE p_partkey = l_partkey AND p_brand = 'Brand#23' AND p_container = 'MED BOX'
		  AND l_quantity < (SELECT 0.2 * AVG(l_quantity) FROM lineitem WHERE l_partkey = p_partkey)`
	stageQ22 = `SELECT cntrycode, COUNT(*) AS numcust, SUM(bal) AS totacctbal FROM (
			SELECT SUBSTRING(c_phone FROM 1 FOR 2) AS cntrycode, c_acctbal AS bal FROM customer
			WHERE SUBSTRING(c_phone FROM 1 FOR 2) IN ('13', '31', '23', '29', '30', '18', '17')
			  AND c_acctbal > (SELECT AVG(c_acctbal) FROM customer WHERE c_acctbal > 0.00
				AND SUBSTRING(c_phone FROM 1 FOR 2) IN ('13', '31', '23', '29', '30', '18', '17'))
			  AND NOT EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey)) AS custsale
		GROUP BY cntrycode ORDER BY cntrycode`
)

// stageFixture is the same data behind a 2-shard server (tenants 1 and 3 on
// shard 0, 2 and 4 on shard 1) and an unsharded one; tenant 1 may read all.
type stageFixture struct {
	srv    *Server
	osrv   *middleware.Server
	conn   *Conn            // tenant 1, scope all, sharded
	oracle *middleware.Conn // the same session, unsharded
}

func newStageFixture(t *testing.T) *stageFixture {
	t.Helper()
	place := MapPlacement{Assign: map[int64]int{1: 0, 2: 1, 3: 0, 4: 1}, Fallback: HashPlacement{N: 2}}
	srv, err := New(2, engine.ModePostgres, WithPlacement(place), WithDataModeller(stageModeller))
	if err != nil {
		t.Fatal(err)
	}
	osrv := middleware.NewServer(engine.Open(engine.ModePostgres), middleware.WithDataModeller(stageModeller))
	fx := &stageFixture{srv: srv, osrv: osrv}
	load := func(connect func(int64) (middleware.Session, error), createTenant func(int64) error) middleware.Session {
		exec := func(c middleware.Session, sql string) {
			t.Helper()
			if _, err := c.Exec(sql); err != nil {
				t.Fatalf("%.60s: %v", sql, err)
			}
		}
		admin, err := connect(stageModeller)
		if err != nil {
			t.Fatal(err)
		}
		for _, ddl := range stageDDL {
			exec(admin, ddl)
		}
		exec(admin, `INSERT INTO nation VALUES (1, 'GERMANY'), (2, 'FRANCE')`)
		exec(admin, `INSERT INTO supplier VALUES (1, 1), (2, 1), (3, 2)`)
		exec(admin, `INSERT INTO part VALUES (1, 'Brand#23', 'MED BOX'), (2, 'Brand#23', 'MED BOX'), (3, 'Brand#12', 'SM BOX')`)
		codes := []string{"13", "31", "23", "29", "30", "18", "17", "99"}
		for tt := int64(1); tt <= 4; tt++ {
			if err := createTenant(tt); err != nil {
				t.Fatal(err)
			}
			c, err := connect(tt)
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(1); i <= 16; i++ {
				exec(c, fmt.Sprintf(`INSERT INTO customer (c_custkey, c_phone, c_acctbal) VALUES (%d, '%s-555-%d', %d.25)`,
					i, codes[(i+tt)%8], i, (i*137+tt*53)%1000-100))
				if i%3 == 0 {
					continue // every third customer has no order: Q22's NOT EXISTS keeps it
				}
				exec(c, fmt.Sprintf(`INSERT INTO orders (o_orderkey, o_custkey, o_comment) VALUES (%d, %d, 'order %d')`, 100+i, i, i))
				exec(c, fmt.Sprintf(`INSERT INTO lineitem (l_orderkey, l_partkey, l_quantity, l_extendedprice) VALUES
					(%d, %d, %d, %d.5), (%d, %d, %d, %d.5)`,
					100+i, i%3+1, i%7+tt, i*11, 100+i, (i+1)%3+1, (i*3)%11+1, i*7+tt))
			}
			for p := int64(1); p <= 3; p++ {
				for s := int64(1); s <= 3; s++ {
					exec(c, fmt.Sprintf(`INSERT INTO partsupp (ps_partkey, ps_suppkey, ps_availqty, ps_supplycost) VALUES (%d, %d, %d, %d.75)`,
						p, s, (p*s*tt)%9+1, p*10+s+tt))
				}
			}
			if tt != 1 {
				exec(c, `GRANT READ ON DATABASE TO 1`)
			}
		}
		c, err := connect(1)
		if err != nil {
			t.Fatal(err)
		}
		exec(c, `SET SCOPE = "IN ()"`)
		return c
	}
	fx.conn = load(middleware.Connector(srv.Connect), srv.CreateTenant).(*Conn)
	fx.oracle = load(middleware.Connector(osrv.Connect), osrv.CreateTenant).(*middleware.Conn)
	return fx
}

// key renders an outcome — header and rows, or the error — for comparison.
func key(res *engine.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Cols, "|"))
	for _, row := range res.Rows {
		sb.WriteByte('\n')
		for j, v := range row {
			if j > 0 {
				sb.WriteByte('|')
			}
			fmt.Fprintf(&sb, "%v:%s", v.K, v.String())
		}
	}
	return sb.String()
}

func TestHoistScalars(t *testing.T) {
	schema := newStageFixture(t).srv.Schema()
	cases := []struct {
		name    string
		sql     string
		n       int      // bind parameters the client statement already has
		hoisted []string // fragments, one per hoisted block, in parameter order
		outer   string   // fragment of the outer statement after the hoist
		route   string   // "partial", "merge" or "fallback" for the outer statement
		reason  string   // why the client statement is not pinned as written
	}{
		{
			name:    "closed scalar over a tenant table",
			sql:     "SELECT c_custkey FROM customer WHERE c_acctbal > (SELECT AVG(c_acctbal) FROM customer) ORDER BY c_custkey",
			hoisted: []string{"AVG(c_acctbal)"},
			outer:   "c_acctbal > (SELECT $1)",
			route:   "merge",
			reason:  "2 unlinked tenant components",
		},
		{
			name:    "Q22: the scalar sits in a derived table's WHERE",
			sql:     stageQ22,
			hoisted: []string{"AVG(c_acctbal) AS mt_stage FROM customer WHERE"},
			outer:   "c_acctbal > (SELECT $1)",
			route:   "partial",
			reason:  "2 unlinked tenant components",
		},
		{
			name:    "Q11: HAVING against a scalar over tenant-specific partsupp",
			sql:     stageQ11,
			hoisted: []string{"* 0.05"},
			outer:   "> (SELECT $1)",
			route:   "partial",
			reason:  "2 unlinked tenant components",
		},
		{
			name:   "Q17: correlated through the global p_partkey",
			sql:    stageQ17,
			route:  "fallback",
			reason: "2 unlinked tenant components",
		},
		{
			name: "Q2: correlated MIN over tenant-specific partsupp",
			sql: `SELECT s_suppkey FROM part, supplier, partsupp
				WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey AND ps_supplycost = (
					SELECT MIN(ps_supplycost) FROM partsupp, supplier WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey)`,
			route:  "fallback",
			reason: "2 unlinked tenant components",
		},
		{
			name:  "scalar over global tables only stays in place",
			sql:   "SELECT COUNT(*) AS n FROM customer WHERE c_custkey > (SELECT MIN(s_suppkey) FROM supplier)",
			route: "partial",
		},
		{
			name: "a hoisted block keeps its own hoistable scalar for its own route",
			sql: `SELECT COUNT(*) AS n FROM customer WHERE c_acctbal > (
				SELECT AVG(c_acctbal) FROM customer WHERE c_acctbal > (SELECT MIN(c_acctbal) + 100 FROM customer))`,
			hoisted: []string{"(SELECT (MIN(c_acctbal) + 100) FROM customer)"},
			outer:   "c_acctbal > (SELECT $1)",
			route:   "partial",
			reason:  "3 unlinked tenant components",
		},
		{
			name:   "subquery in a select item stays in place",
			sql:    "SELECT c_custkey, (SELECT AVG(c_acctbal) FROM customer) AS a FROM customer",
			route:  "fallback",
			reason: "2 unlinked tenant components",
		},
		{
			name:   "subquery in GROUP BY stays in place",
			sql:    "SELECT COUNT(*) AS n FROM customer GROUP BY c_acctbal > (SELECT AVG(c_acctbal) FROM customer)",
			route:  "fallback",
			reason: "2 unlinked tenant components",
		},
		{
			name: "client binds keep their numbers, hoisted ones follow",
			sql: `SELECT COUNT(*) AS n FROM customer WHERE c_acctbal > $1 AND c_acctbal < (SELECT MAX(c_acctbal) FROM customer WHERE c_custkey > $2)
				AND c_custkey > (SELECT MIN(o_custkey) FROM orders)`,
			n:       2,
			hoisted: []string{"c_custkey > $2", "MIN(o_custkey)"},
			outer:   "(c_acctbal < (SELECT $3))) AND (c_custkey > (SELECT $4))",
			route:   "partial",
			reason:  "3 unlinked tenant components",
		},
		{
			name:    "ON position, and a nested EXISTS block is searched",
			sql:     `SELECT c_custkey, o_orderkey FROM customer JOIN orders ON c_custkey = o_custkey AND c_acctbal > (SELECT AVG(c_acctbal) FROM customer) WHERE EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey AND l_quantity > (SELECT AVG(l_quantity) FROM lineitem)) ORDER BY o_orderkey`,
			hoisted: []string{"AVG(c_acctbal)", "AVG(l_quantity)"},
			outer:   "l_quantity > (SELECT $2)",
			route:   "merge",
			reason:  "3 unlinked tenant components",
		},
		{
			name:   "a block with two columns is not a scalar to hoist",
			sql:    "SELECT c_custkey FROM customer WHERE c_acctbal > (SELECT c_acctbal, c_custkey FROM customer)",
			route:  "fallback",
			reason: "2 unlinked tenant components",
		},
		{
			name:   "hoisting that leaves the statement unpinned is not worth a stage",
			sql:    "SELECT c1.c_custkey FROM customer c1, customer c2 WHERE c1.c_phone = c2.c_phone AND c1.c_acctbal > (SELECT AVG(c_acctbal) FROM customer)",
			route:  "fallback",
			reason: "3 unlinked tenant components",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sel := parseSel(t, tc.sql)
			before := sel.String()
			if got := analyze(sel, schema).reason; got != tc.reason {
				t.Errorf("reason %q, want %q", got, tc.reason)
			}
			outer, subs := hoistScalars(sel, schema, tc.n)
			if sel.String() != before {
				t.Fatal("the hoist mutated the shared client AST")
			}
			if tc.route == "fallback" {
				// Nothing to hoist, or nothing gained by it.
				if an := analyze(outer, schema); an.aggPush || an.plainScan {
					t.Fatalf("outer statement routes, want it to stay on the fallback: %s", outer)
				}
				return
			}
			if len(subs) != len(tc.hoisted) {
				t.Fatalf("%d blocks hoisted, want %d: %s", len(subs), len(tc.hoisted), outer)
			}
			for i, frag := range tc.hoisted {
				if txt := subs[i].String(); !strings.Contains(txt, frag) {
					t.Errorf("hoisted block %d = %s, want it to contain %q", i+1, txt, frag)
				}
			}
			if txt := outer.String(); !strings.Contains(txt, tc.outer) {
				t.Errorf("outer = %s, want it to contain %q", txt, tc.outer)
			}
			if got, want := sqlast.MaxParam(outer), tc.n+len(subs); got != want {
				t.Errorf("outer statement's highest bind is $%d, want $%d", got, want)
			}
			an := analyze(outer, schema)
			if got := map[bool]string{true: "partial", false: "merge"}[an.aggPush]; !an.pinned() || (!an.aggPush && !an.plainScan) || got != tc.route {
				t.Errorf("outer statement: pinned=%v partial=%v merge=%v (%s), want route %s", an.pinned(), an.aggPush, an.plainScan, an.reason, tc.route)
			}
		})
	}
}

// TestAnalyzeReason: every rejection names its rule.
func TestAnalyzeReason(t *testing.T) {
	fx := newStageFixture(t)
	if _, err := fx.conn.Exec(`CREATE VIEW big_orders AS SELECT o_custkey AS bo_cust FROM orders WHERE o_orderkey > 105`); err != nil {
		t.Fatal(err)
	}
	for sql, want := range map[string]string{
		stageQ13:                         "derived table groups across tenants",
		stageQ17:                         "2 unlinked tenant components",
		"SELECT bo_cust FROM big_orders": "view",
		"SELECT x FROM nowhere":          "unknown table",
		"SELECT s.c_custkey FROM (SELECT DISTINCT c_custkey FROM customer) AS s":                                                                  "nested LIMIT or DISTINCT over tenant rows",
		"SELECT COUNT(*) FROM orders, customer WHERE o_custkey = c_custkey":                                                                       "",
		"SELECT c_custkey FROM customer WHERE c_acctbal IN ((SELECT MIN(c_acctbal) FROM customer), 0)":                                            "2 unlinked tenant components",
		"SELECT c_custkey FROM customer WHERE c_acctbal BETWEEN 0 AND (SELECT AVG(c_acctbal) FROM customer)":                                      "2 unlinked tenant components",
		"SELECT c_custkey FROM customer WHERE c_phone LIKE (SELECT MIN(c_phone) FROM customer)":                                                   "2 unlinked tenant components",
		"SELECT s_suppkey FROM supplier WHERE EXISTS (SELECT 1 FROM lineitem WHERE l_partkey = s_suppkey)":                                        "tenant rows only inside subqueries",
		"SELECT g.s_suppkey FROM (SELECT s_suppkey FROM supplier WHERE s_suppkey IN (SELECT l_partkey FROM lineitem)) AS g":                       "tenant rows only inside subqueries",
		"SELECT s_suppkey FROM supplier JOIN nation ON s_nationkey = n_nationkey AND EXISTS (SELECT 1 FROM lineitem WHERE l_partkey = s_suppkey)": "tenant rows only inside subqueries",
		"SELECT c_custkey FROM customer, orders WHERE c_custkey = o_custkey AND c_custkey = c_acctbal":                                            "rewrite: cannot compare tenant-specific attributes with other attributes (§2.4.2)",
	} {
		if got := analyze(parseSel(t, sql), fx.srv.Schema()).reason; got != want {
			t.Errorf("reason %q, want %q: %.70s", got, want, sql)
		}
	}
}

// TestStagedStatements runs statements on the 2-shard fixture and on the
// unsharded one: same header, rows and error text, by the expected route.
func TestStagedStatements(t *testing.T) {
	fx := newStageFixture(t)
	cases := []struct {
		name                       string
		sql                        string
		args                       []any
		hoisted, partial, fallback int64
		single                     int64
	}{
		{name: "Q22", sql: stageQ22, hoisted: 1, partial: 2},
		{name: "Q11", sql: stageQ11, hoisted: 1, partial: 2},
		{name: "Q17 stays on the fallback", sql: stageQ17, fallback: 1},
		{name: "Q13 stays on the fallback", sql: stageQ13, fallback: 1},
		{
			name: "two stages deep",
			sql: `SELECT COUNT(*) AS n, MIN(c_acctbal) AS lo FROM customer WHERE c_acctbal > (
				SELECT AVG(c_acctbal) FROM customer WHERE c_acctbal > (SELECT MIN(c_acctbal) + 100 FROM customer))`,
			hoisted: 2, partial: 3,
		},
		{
			name:    "stage 1 takes the merge route",
			sql:     `SELECT COUNT(*) AS n FROM customer WHERE c_acctbal > (SELECT c_acctbal FROM customer WHERE c_custkey = 5 ORDER BY c_acctbal DESC LIMIT 1)`,
			hoisted: 1, partial: 1,
		},
		{
			name:    "client binds beside the hoisted one",
			sql:     `SELECT c_custkey, c_acctbal FROM customer WHERE c_acctbal > $1 AND c_acctbal < (SELECT AVG(c_acctbal) FROM customer WHERE c_acctbal > $2) ORDER BY c_acctbal, c_custkey`,
			args:    []any{50, 200.5},
			hoisted: 1, partial: 1,
		},
		{
			name:     "wrong bind count is the engine's error",
			sql:      `SELECT c_custkey FROM customer WHERE c_acctbal > $1 AND c_acctbal < (SELECT AVG(c_acctbal) FROM customer)`,
			fallback: 1,
		},
		{
			name:    "empty stage-1 aggregate binds NULL",
			sql:     `SELECT COUNT(*) AS n FROM customer WHERE c_acctbal > (SELECT AVG(c_acctbal) FROM customer WHERE c_acctbal > 1000000)`,
			hoisted: 1, partial: 2,
		},
		{
			name:    "no stage-1 row binds NULL",
			sql:     `SELECT c_custkey FROM customer WHERE c_acctbal > (SELECT c_acctbal FROM customer WHERE c_custkey < 0) ORDER BY c_custkey`,
			hoisted: 1,
		},
		{
			name:     "two stage-1 rows abandon the stage",
			sql:      `SELECT COUNT(*) AS n FROM customer WHERE c_acctbal > (SELECT c_acctbal FROM customer WHERE c_custkey = 5)`,
			fallback: 1,
		},
		{
			name:     "a failing stage 1 abandons the stage",
			sql:      `SELECT COUNT(*) AS n FROM customer WHERE c_acctbal > (SELECT MAX(c_acctbal / (c_custkey - c_custkey)) FROM customer)`,
			fallback: 1, partial: 1,
		},
		{
			name:    "a global outer statement over a hoisted tenant scalar runs on one shard",
			sql:     `SELECT s_suppkey, s_nationkey FROM supplier WHERE s_suppkey > (SELECT AVG(c_custkey) / 8 FROM customer) ORDER BY s_suppkey`,
			hoisted: 1, partial: 1, single: 1,
		},
		{
			name:     "Q20's shape: global rows filtered by a correlated block over tenant rows",
			sql:      `SELECT s_suppkey FROM supplier WHERE 40 < (SELECT SUM(l_quantity) FROM lineitem WHERE l_partkey = s_suppkey) ORDER BY s_suppkey`,
			fallback: 1,
		},
		{
			name:     "Q20's shape in an ON: the block nested there counts as tenant data too",
			sql:      `SELECT s_suppkey, n_name FROM supplier JOIN nation ON s_nationkey = n_nationkey AND 40 < (SELECT SUM(l_quantity) FROM lineitem WHERE l_partkey = s_suppkey) ORDER BY s_suppkey`,
			fallback: 1,
		},
		{name: "un-aliased AVG", sql: `SELECT AVG(c_acctbal) FROM customer`, partial: 1},
		{name: "un-aliased COUNT(*)", sql: `SELECT COUNT(*) FROM orders`, partial: 1},
		{name: "un-aliased ratio beside an alias", sql: `SELECT l_partkey AS p, SUM(l_quantity) / SUM(l_extendedprice), 100.00 * MAX(l_quantity) FROM lineitem GROUP BY l_partkey ORDER BY p`, partial: 1},
		// Grouped by an output alias: the partial computes the aliased
		// expression (the split resolves it, as o3 does), so no fallback.
		{name: "GROUP BY an output alias", sql: `SELECT SUBSTRING(c_phone FROM 1 FOR 2) AS cc, COUNT(*) AS n, SUM(c_acctbal) AS bal FROM customer GROUP BY cc ORDER BY cc`, partial: 1},
		{name: "GROUP BY a CASE alias", sql: `SELECT CASE WHEN c_acctbal < 200 THEN 'low' ELSE 'high' END AS band, COUNT(*), AVG(c_acctbal) AS a FROM customer GROUP BY band ORDER BY band DESC`, partial: 1},
		// A GROUP BY name that is an input column and an output alias is the
		// column, as in the engine: 16 groups, not the alias's two.
		{name: "GROUP BY a column an alias shadows", sql: `SELECT c_custkey % 2 AS c_custkey, COUNT(*) AS n FROM customer GROUP BY c_custkey ORDER BY n, c_custkey`, partial: 1},
		{
			name:    "un-aliased outer over a hoisted scalar",
			sql:     `SELECT COUNT(*), SUM(c_acctbal) / 7.0 FROM customer WHERE c_acctbal > (SELECT AVG(c_acctbal) FROM customer)`,
			hoisted: 1, partial: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := fx.srv.Stats().Snapshot()
			got := key(fx.conn.Query(tc.sql, tc.args...))
			if want := key(fx.oracle.Query(tc.sql, tc.args...)); got != want {
				t.Errorf("differs from the unsharded tier\n got: %.300s\nwant: %.300s", got, want)
			}
			after := fx.srv.Stats().Snapshot()
			if h, p, f, s := after.HoistedSubqueries-before.HoistedSubqueries, after.PartialsPushed-before.PartialsPushed, after.RoutedFallback-before.RoutedFallback, after.RoutedSingle-before.RoutedSingle; h != tc.hoisted || p != tc.partial || f != tc.fallback || s != tc.single {
				t.Errorf("hoisted %d, partial folds %d, fallbacks %d, single %d; want %d, %d, %d, %d", h, p, f, s, tc.hoisted, tc.partial, tc.fallback, tc.single)
			}
		})
	}
}

// TestStagedPreparedStatement: one prepared statement, re-executed — stage 1
// runs per execution under that execution's binds and data, never cached.
func TestStagedPreparedStatement(t *testing.T) {
	fx := newStageFixture(t)
	const sql = `SELECT COUNT(*) AS n, SUM(c_acctbal) AS s FROM customer
		WHERE c_custkey > $1 AND c_acctbal > (SELECT AVG(c_acctbal) FROM customer WHERE c_acctbal > $2)`
	st, err := fx.conn.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	ost, err := fx.oracle.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	run := func(args ...any) string {
		t.Helper()
		before := fx.srv.Stats().Snapshot().HoistedSubqueries
		got, want := key(st.QueryResult(args...)), key(ost.QueryResult(args...))
		if got != want {
			t.Fatalf("binds %v differ from the unsharded tier\n got: %s\nwant: %s", args, got, want)
		}
		if h := fx.srv.Stats().Snapshot().HoistedSubqueries - before; h != 1 {
			t.Fatalf("binds %v: %d hoisted stages, want 1 per execution", args, h)
		}
		return got
	}
	first := run(0, 0.0)
	if run(4, 300.0) == first {
		t.Error("different binds gave the same answer: the fixture cannot tell them apart")
	}
	// The same binds over changed data: a cached stage-1 value would show.
	for _, connect := range []func(int64) (middleware.Session, error){
		middleware.Connector(fx.srv.Connect), middleware.Connector(fx.osrv.Connect),
	} {
		w, err := connect(2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Exec(`INSERT INTO customer (c_custkey, c_phone, c_acctbal) VALUES (77, '13-555-77', 99999.00)`); err != nil {
			t.Fatal(err)
		}
	}
	if run(0, 0.0) == first {
		t.Error("a write that moves the average left the answer unchanged")
	}
}

// TestFallbackCarriesReferencedTables: a remaining fallback repartitions the
// tenant tables its statement names, and a view statement all of them — the
// view's body reads a table the statement does not name.
func TestFallbackCarriesReferencedTables(t *testing.T) {
	fx := newStageFixture(t)
	sets := fx.srv.group([]int64{1, 2, 3, 4})
	names := func(tables []string) string {
		t.Helper()
		rels, err := fx.srv.repartition(sets, tables)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range rels {
			if len(r.Rows) == 0 || len(r.Rows) != cap(r.Rows) {
				t.Errorf("%s: %d rows in a relation sized for %d", r.Name, len(r.Rows), cap(r.Rows))
			}
			out = append(out, r.Name)
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	if got := names(middleware.TenantSpecificTables(parseSel(t, stageQ13))); got != "customer,orders" {
		t.Errorf("Q13 carries %s, want customer,orders", got)
	}
	if got := names(middleware.TenantSpecificTables(parseSel(t, stageQ17))); got != "lineitem" {
		t.Errorf("Q17 carries %s, want lineitem", got)
	}
	if got := names(fx.srv.tenantTables()); got != "customer,lineitem,orders,partsupp" {
		t.Errorf("a view statement carries %s, want every tenant table", got)
	}
	// A narrow D′ on shards that hold other tenants too: still sized exactly.
	sets = fx.srv.group([]int64{1, 2})
	if got := names([]string{"customer"}); got != "customer" {
		t.Errorf("narrow scope carries %s, want customer", got)
	}

	for _, c := range []middleware.Session{fx.conn, fx.oracle} {
		if _, err := c.Exec(`CREATE VIEW big_orders AS SELECT o_custkey AS bo_cust FROM orders WHERE o_orderkey > 105`); err != nil {
			t.Fatal(err)
		}
	}
	const viewQuery = `SELECT COUNT(*) AS n FROM customer, big_orders WHERE c_custkey = bo_cust`
	before := fx.srv.Stats().Snapshot().RoutedFallback
	got, want := key(fx.conn.Query(viewQuery)), key(fx.oracle.Query(viewQuery))
	if got != want || strings.HasSuffix(got, ":0") {
		t.Errorf("view statement over the fallback: %s, unsharded %s", got, want)
	}
	if f := fx.srv.Stats().Snapshot().RoutedFallback - before; f != 1 {
		t.Errorf("%d fallbacks for the view statement, want 1", f)
	}
}

// TestStageCancellation: a context cancelled while stage 1 runs, or between
// the stages, is reported as the context's error — never turned into a
// fallback of the original statement — and the session stays usable.
func TestStageCancellation(t *testing.T) {
	fx := newStageFixture(t)
	before := fx.srv.Stats().Snapshot()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fx.conn.QueryContext(ctx, stageQ22); err != context.Canceled {
		t.Fatalf("cancelled before stage 1: %v, want context.Canceled", err)
	}
	between := &cancelWhen{Context: context.Background(), when: func() bool {
		return fx.srv.Stats().Snapshot().HoistedSubqueries > before.HoistedSubqueries
	}}
	rows, err := fx.conn.QueryContext(between, stageQ22)
	if err == nil {
		_, err = rows.Collect()
	}
	if err != context.Canceled {
		t.Fatalf("cancelled between the stages: %v, want context.Canceled", err)
	}
	after := fx.srv.Stats().Snapshot()
	if h, f := after.HoistedSubqueries-before.HoistedSubqueries, after.RoutedFallback-before.RoutedFallback; h != 1 || f != 0 {
		t.Errorf("hoisted %d, fallbacks %d; want 1 (stage 1 of the second statement) and 0", h, f)
	}
	if got, want := key(fx.conn.Query(stageQ22)), key(fx.oracle.Query(stageQ22)); got != want {
		t.Errorf("session after the cancellations\n got: %s\nwant: %s", got, want)
	}
}

// cancelWhen is a context that reports cancellation from the moment when()
// first holds. The engine polls Err, so no Done channel is needed.
type cancelWhen struct {
	context.Context
	when func() bool
}

func (c *cancelWhen) Err() error {
	if c.when() {
		return context.Canceled
	}
	return nil
}

// TestWriteReadingTenantDataIsNotSplit: an UPDATE or DELETE whose nested block
// reads tenant data is one statement over all of D′ — split per shard, each
// shard would compute the block's value from its own tenants' share. It runs
// where D′ lands on one shard and is refused where it does not; a write that
// reads nothing but its target still splits. The unsharded tier is the oracle.
func TestWriteReadingTenantDataIsNotSplit(t *testing.T) {
	fx := newStageFixture(t)
	for _, srvConnect := range []func(int64) (middleware.Session, error){
		middleware.Connector(fx.srv.Connect), middleware.Connector(fx.osrv.Connect),
	} {
		for tt := int64(2); tt <= 4; tt++ {
			c, err := srvConnect(tt)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Exec(`GRANT UPDATE, DELETE ON customer TO 1`); err != nil {
				t.Fatal(err)
			}
		}
	}
	const state = `SELECT c_custkey, c_acctbal FROM customer ORDER BY c_acctbal, c_custkey`
	const avg = `UPDATE customer SET c_acctbal = (SELECT AVG(c_acctbal) FROM customer) WHERE c_custkey = 1`
	const del = `DELETE FROM customer WHERE c_custkey = 2 AND c_acctbal < (SELECT AVG(c_acctbal) FROM customer)`

	before := key(fx.conn.Query(state))
	for _, sql := range []string{avg, del} {
		_, err := fx.conn.Exec(sql)
		if err == nil || !strings.Contains(err.Error(), "reading tenant tables over a cross-shard tenant set is not supported") {
			t.Errorf("%s\nover a cross-shard D′: err = %v, want a refusal", sql, err)
		}
	}
	if after := key(fx.conn.Query(state)); after != before {
		t.Error("a refused write changed rows")
	}
	// Tenants 1 and 3 share shard 0: the same statements run there, whole.
	for _, c := range []middleware.Session{fx.conn, fx.oracle} {
		if _, err := c.Exec(`SET SCOPE = "IN (1, 3)"`); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range []string{avg, del, `UPDATE customer SET c_acctbal = c_acctbal + 1`} {
		if got, want := key(fx.conn.Exec(sql)), key(fx.oracle.Exec(sql)); got != want {
			t.Errorf("%s\nsharded %s\nunsharded %s", sql, got, want)
		}
	}
	for _, c := range []middleware.Session{fx.conn, fx.oracle} {
		if _, err := c.Exec(`SET SCOPE = "IN ()"`); err != nil {
			t.Fatal(err)
		}
	}
	const plain = `UPDATE customer SET c_acctbal = c_acctbal + 1 WHERE c_custkey > 8`
	if got, want := key(fx.conn.Exec(plain)), key(fx.oracle.Exec(plain)); got != want {
		t.Errorf("%s\nsharded %s\nunsharded %s", plain, got, want)
	}
	if got, want := key(fx.conn.Query(state)), key(fx.oracle.Query(state)); got != want {
		t.Errorf("state after the writes\nsharded %s\nunsharded %s", got, want)
	}
}

// TestFallbackCarriesTablesOfEverySlot: the fallback's copy set is the
// statement's read set, so a tenant table named only in an ORDER BY or GROUP
// BY subquery reaches the replica with its rows.
func TestFallbackCarriesTablesOfEverySlot(t *testing.T) {
	fx := newStageFixture(t)
	for _, sql := range []string{
		`SELECT c_custkey, c_acctbal FROM customer WHERE c_custkey < 5
			ORDER BY (SELECT COUNT(*) FROM orders WHERE o_custkey = c_custkey) DESC, c_acctbal, c_custkey`,
		`SELECT COUNT(*) AS n FROM customer GROUP BY (SELECT COUNT(*) FROM orders WHERE o_custkey = c_custkey) ORDER BY n`,
	} {
		before := fx.srv.Stats().Snapshot().RoutedFallback
		got, want := key(fx.conn.Query(sql)), key(fx.oracle.Query(sql))
		if got != want {
			t.Errorf("%s\nsharded %s\nunsharded %s", sql, got, want)
		}
		if fx.srv.Stats().Snapshot().RoutedFallback != before+1 {
			t.Errorf("%s\nexpected the repartition fallback", sql)
		}
	}
}
