package sqlparse

import (
	"strings"
	"testing"

	"mtbase/internal/sqlast"
)

// roundTrip parses src, serializes, reparses and checks the two serializations
// agree — the property the middleware relies on to ship rewritten SQL.
func roundTrip(t *testing.T, src string) sqlast.Statement {
	t.Helper()
	s1, err := ParseStatement(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	text := s1.String()
	s2, err := ParseStatement(text)
	if err != nil {
		t.Fatalf("reparse %q: %v", text, err)
	}
	if got := s2.String(); got != text {
		t.Fatalf("round trip mismatch:\n first: %s\nsecond: %s", text, got)
	}
	return s1
}

func TestParseSimpleSelect(t *testing.T) {
	sel := roundTrip(t, "SELECT e_name, e_salary FROM Employees WHERE e_age >= 45 ORDER BY e_salary DESC LIMIT 10").(*sqlast.Select)
	if len(sel.Items) != 2 || len(sel.From) != 1 || sel.Where == nil {
		t.Errorf("unexpected shape: %+v", sel)
	}
	if sel.Limit != 10 || !sel.OrderBy[0].Desc {
		t.Errorf("order/limit: %+v", sel)
	}
}

func TestParseStar(t *testing.T) {
	sel := roundTrip(t, "SELECT * FROM Employees").(*sqlast.Select)
	if !sel.Items[0].Star {
		t.Error("star not detected")
	}
	sel = roundTrip(t, "SELECT e.* FROM Employees e").(*sqlast.Select)
	if !sel.Items[0].Star || sel.Items[0].StarTable != "e" {
		t.Errorf("qualified star: %+v", sel.Items[0])
	}
}

func TestParseJoins(t *testing.T) {
	sel := roundTrip(t, "SELECT c_name FROM customer LEFT OUTER JOIN orders ON c_custkey = o_custkey AND o_comment NOT LIKE '%special%'").(*sqlast.Select)
	j, ok := sel.From[0].(*sqlast.JoinExpr)
	if !ok || j.Kind != sqlast.JoinLeftOuter {
		t.Fatalf("join shape: %T", sel.From[0])
	}
	if j.On == nil {
		t.Error("missing ON condition")
	}
}

func TestParseImplicitJoinList(t *testing.T) {
	sel := roundTrip(t, "SELECT 1 FROM a, b x, c AS y WHERE a.k = x.k").(*sqlast.Select)
	if len(sel.From) != 3 {
		t.Fatalf("from count = %d", len(sel.From))
	}
	if sel.From[1].(*sqlast.TableName).Alias != "x" {
		t.Error("bare alias not parsed")
	}
	if sel.From[2].(*sqlast.TableName).Alias != "y" {
		t.Error("AS alias not parsed")
	}
}

func TestParseGroupHaving(t *testing.T) {
	sel := roundTrip(t, "SELECT l_returnflag, SUM(l_quantity) AS sum_qty FROM lineitem GROUP BY l_returnflag HAVING SUM(l_quantity) > 100").(*sqlast.Select)
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Errorf("group/having: %+v", sel)
	}
}

func TestParseSubqueries(t *testing.T) {
	sel := roundTrip(t, "SELECT p_partkey FROM part WHERE p_size = (SELECT MIN(p_size) FROM part)").(*sqlast.Select)
	cmp := sel.Where.(*sqlast.BinaryExpr)
	if _, ok := cmp.R.(*sqlast.SubqueryExpr); !ok {
		t.Errorf("scalar subquery: %T", cmp.R)
	}

	sel = roundTrip(t, "SELECT 1 FROM orders WHERE EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey)").(*sqlast.Select)
	if _, ok := sel.Where.(*sqlast.ExistsExpr); !ok {
		t.Errorf("exists: %T", sel.Where)
	}

	sel = roundTrip(t, "SELECT 1 FROM part WHERE p_brand NOT IN ('a', 'b') AND p_partkey IN (SELECT ps_partkey FROM partsupp)").(*sqlast.Select)
	and := sel.Where.(*sqlast.BinaryExpr)
	if in := and.L.(*sqlast.InExpr); !in.Not || len(in.List) != 2 {
		t.Errorf("not-in list: %+v", and.L)
	}
	if in := and.R.(*sqlast.InExpr); in.Sub == nil {
		t.Errorf("in subquery: %+v", and.R)
	}
}

func TestParseNotExists(t *testing.T) {
	sel := roundTrip(t, "SELECT 1 FROM customer WHERE NOT EXISTS (SELECT 1 FROM orders WHERE o_custkey = c_custkey)").(*sqlast.Select)
	ex, ok := sel.Where.(*sqlast.ExistsExpr)
	if !ok || !ex.Not {
		t.Errorf("not exists: %#v", sel.Where)
	}
}

func TestParseCase(t *testing.T) {
	sel := roundTrip(t, "SELECT SUM(CASE WHEN o_orderpriority = '1-URGENT' THEN 1 ELSE 0 END) FROM orders").(*sqlast.Select)
	fc := sel.Items[0].Expr.(*sqlast.FuncCall)
	c := fc.Args[0].(*sqlast.CaseExpr)
	if len(c.Whens) != 1 || c.Else == nil {
		t.Errorf("case: %+v", c)
	}
}

func TestParseDateInterval(t *testing.T) {
	sel := roundTrip(t, "SELECT 1 FROM lineitem WHERE l_shipdate <= DATE '1998-12-01' - INTERVAL '90' DAY").(*sqlast.Select)
	if sel.Where == nil {
		t.Fatal("no where")
	}
	if !strings.Contains(sel.Where.String(), "INTERVAL '90' DAY") {
		t.Errorf("interval serialization: %s", sel.Where.String())
	}
}

func TestParseExtractSubstring(t *testing.T) {
	roundTrip(t, "SELECT EXTRACT(YEAR FROM o_orderdate) AS o_year FROM orders")
	roundTrip(t, "SELECT SUBSTRING(c_phone FROM 1 FOR 2) AS cntrycode FROM customer")
}

func TestParseBetweenLike(t *testing.T) {
	roundTrip(t, "SELECT 1 FROM part WHERE p_size BETWEEN 1 AND 15 AND p_type LIKE '%BRASS'")
	roundTrip(t, "SELECT 1 FROM part WHERE p_size NOT BETWEEN 1 AND 15 AND p_name NOT LIKE 'forest%'")
}

func TestParseAggregates(t *testing.T) {
	sel := roundTrip(t, "SELECT COUNT(*), COUNT(DISTINCT ps_suppkey), AVG(l_quantity) FROM x").(*sqlast.Select)
	if !sel.Items[0].Expr.(*sqlast.FuncCall).Star {
		t.Error("count(*) star")
	}
	if !sel.Items[1].Expr.(*sqlast.FuncCall).Distinct {
		t.Error("count distinct")
	}
}

func TestParseDerivedTable(t *testing.T) {
	sel := roundTrip(t, "SELECT AVG(x.sal) FROM (SELECT e_salary AS sal FROM Employees WHERE e_age >= 45) AS x").(*sqlast.Select)
	d, ok := sel.From[0].(*sqlast.DerivedTable)
	if !ok || d.Alias != "x" {
		t.Fatalf("derived: %T", sel.From[0])
	}
}

func TestParseCreateTableMTSQL(t *testing.T) {
	stmt := roundTrip(t, `CREATE TABLE Employees SPECIFIC (
		E_emp_id INTEGER NOT NULL SPECIFIC,
		E_name VARCHAR(25) NOT NULL COMPARABLE,
		E_role_id INTEGER NOT NULL SPECIFIC,
		E_reg_id INTEGER NOT NULL COMPARABLE,
		E_salary DECIMAL(15,2) NOT NULL CONVERTIBLE @currencyToUniversal @currencyFromUniversal,
		E_age INTEGER NOT NULL COMPARABLE,
		CONSTRAINT pk_emp PRIMARY KEY (E_emp_id),
		CONSTRAINT fk_emp FOREIGN KEY (E_role_id) REFERENCES Roles (R_role_id)
	)`)
	ct := stmt.(*sqlast.CreateTable)
	if ct.Generality != sqlast.TenantSpecific {
		t.Error("generality")
	}
	if ct.Columns[4].Comparability != sqlast.Convertible || ct.Columns[4].ToUniversal != "currencyToUniversal" {
		t.Errorf("convertible column: %+v", ct.Columns[4])
	}
	if ct.Columns[1].Comparability != sqlast.Comparable {
		t.Error("comparable column")
	}
	if ct.Columns[0].Comparability != sqlast.Specific {
		t.Error("specific column")
	}
	if len(ct.Constraints) != 2 {
		t.Errorf("constraints: %d", len(ct.Constraints))
	}
}

func TestParseDefaultComparability(t *testing.T) {
	// Attributes of tenant-specific tables default to tenant-specific,
	// attributes of global tables to comparable (§2.2.1).
	ct := roundTrip(t, "CREATE TABLE t SPECIFIC (a INTEGER)").(*sqlast.CreateTable)
	if ct.Columns[0].Comparability != sqlast.Specific {
		t.Error("tenant-specific default")
	}
	ct = roundTrip(t, "CREATE TABLE g (a INTEGER)").(*sqlast.CreateTable)
	if ct.Generality != sqlast.Global || ct.Columns[0].Comparability != sqlast.Comparable {
		t.Error("global default")
	}
}

func TestParseCreateFunction(t *testing.T) {
	stmt := roundTrip(t, `CREATE FUNCTION currencyToUniversal (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
		AS 'SELECT CT_to_universal * $1 FROM Tenant, CurrencyTransform WHERE T_tenant_key = $2 AND T_currency_key = CT_currency_key'
		LANGUAGE SQL IMMUTABLE`)
	cf := stmt.(*sqlast.CreateFunction)
	if !cf.Immutable || len(cf.ParamTypes) != 2 || cf.Body == nil {
		t.Errorf("function: %+v", cf)
	}
}

func TestParseSetScope(t *testing.T) {
	ss := roundTrip(t, `SET SCOPE = "IN (1, 3, 42)"`).(*sqlast.SetScope)
	if len(ss.Simple) != 3 || ss.Simple[2] != 42 {
		t.Errorf("simple scope: %+v", ss)
	}
	ss = roundTrip(t, `SET SCOPE = "IN ()"`).(*sqlast.SetScope)
	if !ss.All {
		t.Error("empty IN list must mean all tenants")
	}
	ss = roundTrip(t, `SET SCOPE = "FROM Employees WHERE E_salary > 180000"`).(*sqlast.SetScope)
	if ss.Complex == nil || ss.Complex.Where == nil {
		t.Errorf("complex scope: %+v", ss)
	}
}

func TestParseGrantRevoke(t *testing.T) {
	g := roundTrip(t, "GRANT READ ON Employees TO 42").(*sqlast.Grant)
	if g.Table != "Employees" || g.Grantee != 42 {
		t.Errorf("grant: %+v", g)
	}
	g = roundTrip(t, "GRANT READ, INSERT ON DATABASE TO ALL").(*sqlast.Grant)
	if g.Table != "" || !g.GranteeAll || len(g.Privileges) != 2 {
		t.Errorf("grant all: %+v", g)
	}
	r := roundTrip(t, "REVOKE DELETE ON Employees FROM 7").(*sqlast.Revoke)
	if r.Grantee != 7 {
		t.Errorf("revoke: %+v", r)
	}
}

func TestParseDML(t *testing.T) {
	ins := roundTrip(t, "INSERT INTO Roles (R_role_id, R_name) VALUES (0, 'intern'), (1, 'researcher')").(*sqlast.Insert)
	if len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Errorf("insert: %+v", ins)
	}
	insSel := roundTrip(t, "INSERT INTO Employees (E_name) SELECT E_name FROM Employees WHERE E_age > 40").(*sqlast.Insert)
	if insSel.Sub == nil {
		t.Error("insert-select")
	}
	up := roundTrip(t, "UPDATE Employees SET E_salary = E_salary * 1.1 WHERE E_age > 60").(*sqlast.Update)
	if len(up.Sets) != 1 || up.Where == nil {
		t.Errorf("update: %+v", up)
	}
	del := roundTrip(t, "DELETE FROM Employees WHERE E_age > 99").(*sqlast.Delete)
	if del.Where == nil {
		t.Errorf("delete: %+v", del)
	}
}

func TestParseViews(t *testing.T) {
	cv := roundTrip(t, "CREATE VIEW revenue AS SELECT l_suppkey AS supplier_no, SUM(l_extendedprice * (1 - l_discount)) AS total_revenue FROM lineitem GROUP BY l_suppkey").(*sqlast.CreateView)
	if cv.Name != "revenue" {
		t.Errorf("view: %+v", cv)
	}
	roundTrip(t, "DROP VIEW revenue")
	roundTrip(t, "DROP TABLE t")
}

// TestParseQuotedIdentifiers: a name the lexer would not read back bare — a
// keyword, a space, a leading digit — is serialized quoted, wherever a
// statement writes a name; the middleware hands the engine this text, so a
// bare spelling is a parse error there or, worse, a different statement
// (`SELECT a b FROM my t` aliases a column and a table).
func TestParseQuotedIdentifiers(t *testing.T) {
	roundTrip(t, `SELECT COUNT(*) AS "my count" FROM t`)
	roundTrip(t, `SELECT COUNT(*) AS "select" FROM t`)
	sel := roundTrip(t, `SELECT "a b" FROM "my t"`).(*sqlast.Select)
	if cr, ok := sel.Items[0].Expr.(*sqlast.ColumnRef); !ok || cr.Name != "a b" || sel.Items[0].Alias != "" {
		t.Errorf("item: %+v", sel.Items[0])
	}
	if tn := sel.From[0].(*sqlast.TableName); tn.Name != "my t" || tn.Alias != "" {
		t.Errorf("table: %+v", tn)
	}
	for _, src := range []string{
		`SELECT "x y"."a b", "from".* FROM "my t" "x y", (SELECT 1 AS "1st" FROM "my t") AS "from" WHERE "x y"."order" > 0 ORDER BY "a b"`,
		`CREATE TABLE "my t" ("a b" INTEGER, "order" INTEGER, CONSTRAINT "p k" PRIMARY KEY ("a b"), CONSTRAINT fk FOREIGN KEY ("order") REFERENCES "other t" ("a b"))`,
		`CREATE TABLE t (a INTEGER, PRIMARY KEY (a))`,
		`CREATE VIEW "my v" AS SELECT "a b" FROM "my t"`,
		`INSERT INTO "my t" ("a b", "order") VALUES (1, 2)`,
		`UPDATE "my t" SET "a b" = "order" + 1 WHERE "order" > 2`,
		`DELETE FROM "my t" WHERE "a b" = 1`,
		`DROP TABLE "my t"`,
		`DROP VIEW "my v"`,
		`GRANT READ ON "my t" TO 2`,
		`REVOKE READ ON "my t" FROM 2`,
	} {
		roundTrip(t, src)
	}
	// A bare spelling stays bare, whatever its case.
	if got := roundTrip(t, `SELECT "Plain_1" AS "x" FROM "T" "u"`).String(); got != `SELECT Plain_1 AS x FROM T u` {
		t.Errorf("needless quotes: %s", got)
	}
}

func TestParseStatements(t *testing.T) {
	stmts, err := ParseStatements("SELECT 1; SELECT 2; DROP TABLE t;")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Errorf("statement count = %d", len(stmts))
	}
}

func TestParsePrecedence(t *testing.T) {
	e, err := ParseExpr("a + b * c")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "(a + (b * c))" {
		t.Errorf("precedence: %s", e.String())
	}
	e, err = ParseExpr("a = 1 OR b = 2 AND c = 3")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "((a = 1) OR ((b = 2) AND (c = 3)))" {
		t.Errorf("bool precedence: %s", e.String())
	}
	e, err = ParseExpr("NOT a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "(NOT (a = 1))" {
		t.Errorf("not precedence: %s", e.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"SELECT",
		"SELECT 1 FROM",
		"SELECT 1 FROM t WHERE",
		"FROB 1",
		"CREATE TABLE t (a CONVERTIBLE)",
		"SET SCOPE = \"BOGUS\"",
		"SELECT 1 FROM (SELECT 2)", // derived table needs alias
		"INSERT INTO t VALUES",
	}
	for _, src := range bad {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("accepted invalid SQL: %q", src)
		}
	}
}

func TestParseCast(t *testing.T) {
	e, err := ParseExpr("CAST(x AS INTEGER)")
	if err != nil {
		t.Fatal(err)
	}
	fc := e.(*sqlast.FuncCall)
	if fc.Name != "CAST_INTEGER" {
		t.Errorf("cast: %s", fc.Name)
	}
}

func TestCloneIndependence(t *testing.T) {
	sel, err := ParseQuery("SELECT a, b FROM t WHERE a > 1 GROUP BY a HAVING COUNT(*) > 2 ORDER BY b")
	if err != nil {
		t.Fatal(err)
	}
	clone := sqlast.CloneSelect(sel)
	clone.Items[0].Expr.(*sqlast.ColumnRef).Name = "mutated"
	if sel.Items[0].Expr.(*sqlast.ColumnRef).Name != "a" {
		t.Error("clone shares memory with original")
	}
	if clone.String() == sel.String() {
		t.Error("mutation did not take effect on clone")
	}
}

func TestQuestionMarkNumbering(t *testing.T) {
	sel, err := ParseQuery("SELECT a FROM t WHERE a > ? AND b < ? AND c = $1")
	if err != nil {
		t.Fatal(err)
	}
	var ns []int
	sqlast.WalkExpr(sel.Where, func(e sqlast.Expr) bool {
		if p, ok := e.(*sqlast.Param); ok {
			ns = append(ns, p.N)
		}
		return true
	})
	if len(ns) != 3 || ns[0] != 1 || ns[1] != 2 || ns[2] != 1 {
		t.Fatalf("param numbering = %v, want [1 2 1]", ns)
	}
	if sqlast.MaxParam(sel) != 2 {
		t.Fatalf("MaxParam = %d, want 2", sqlast.MaxParam(sel))
	}
	// ? numbering restarts per statement in a script.
	stmts, err := ParseStatements("SELECT a FROM t WHERE a = ?; SELECT b FROM t WHERE b = ?")
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range stmts {
		if got := sqlast.MaxParam(st); got != 1 {
			t.Fatalf("statement %d MaxParam = %d, want 1", i, got)
		}
	}
	// Params render as $n, so rewritten texts stay parameterized.
	if s := sel.String(); !strings.Contains(s, "$1") || !strings.Contains(s, "$2") {
		t.Fatalf("serialized form lost placeholders: %s", s)
	}
}

func TestBadDollarParam(t *testing.T) {
	if _, err := ParseStatement("SELECT a FROM t WHERE a = $0"); err == nil {
		t.Error("$0 accepted")
	}
}
