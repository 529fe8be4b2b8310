package sqlast_test

import (
	"testing"

	"mtbase/internal/sqlast"
	"mtbase/internal/sqlparse"
)

// TestEqualAndHash: every select item of the statement below equals its own
// clone and hashes like it; two different items are not equal (each differs
// from its neighbour in one place: an operator, a literal's kind, a flag, a
// name's case, an absent clause); and no two of them share a hash.
func TestEqualAndHash(t *testing.T) {
	stmt, err := sqlparse.ParseStatement(`SELECT
		a + b, a - b, b + a, a + 1, a + 1.0, a + '1', -a, NOT a,
		f(a, b), f(a), g(a, b), SUM(a), SUM(DISTINCT a), COUNT(*), COUNT(a),
		CASE WHEN a THEN 1 END, CASE WHEN a THEN 1 ELSE 2 END, CASE a WHEN 1 THEN 1 END,
		a IN (1, 2), a NOT IN (1, 2), a IN (1), a IN (SELECT 1), a IN (SELECT 2), (a, b) IN (SELECT 1, 2),
		EXISTS (SELECT 1), NOT EXISTS (SELECT 1), EXISTS (SELECT 1 FROM t), EXISTS (SELECT 1 FROM t u),
		EXISTS (SELECT 1 FROM t JOIN u ON t.a = u.a), EXISTS (SELECT 1 FROM t LEFT OUTER JOIN u ON t.a = u.a),
		EXISTS (SELECT DISTINCT 1), EXISTS (SELECT 1 LIMIT 1), EXISTS (SELECT 1 AS x), EXISTS (SELECT * FROM t),
		EXISTS (SELECT 1 FROM t ORDER BY a), EXISTS (SELECT 1 FROM t ORDER BY a DESC), EXISTS (SELECT 1 FROM (SELECT 1) d),
		a BETWEEN 1 AND 2, a NOT BETWEEN 1 AND 2, a LIKE 'x', a NOT LIKE 'x', a IS NULL, a IS NOT NULL,
		(SELECT 1), EXTRACT(YEAR FROM a), EXTRACT(MONTH FROM a), SUBSTRING(a FROM 1), SUBSTRING(a FROM 1 FOR 2),
		INTERVAL '1' DAY, INTERVAL '1' MONTH, DATE '1998-01-01', t.a, "A", $1, $2, NULL, TRUE
		FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	items := stmt.(*sqlast.Select).Items
	hashes := map[uint64]string{}
	for i, it := range items {
		c := sqlast.CloneExpr(it.Expr)
		if !sqlast.Equal(it.Expr, c) || sqlast.Hash(it.Expr) != sqlast.Hash(c) {
			t.Errorf("%s: not equal to its clone, or hashed apart from it", it.Expr)
		}
		if prev, dup := hashes[sqlast.Hash(it.Expr)]; dup {
			t.Errorf("%s and %s share a hash", prev, it.Expr)
		}
		hashes[sqlast.Hash(it.Expr)] = it.Expr.String()
		for j, other := range items {
			if i != j && sqlast.Equal(it.Expr, other.Expr) {
				t.Errorf("%s equals %s", it.Expr, other.Expr)
			}
		}
	}
	if !sqlast.Equal(nil, nil) || sqlast.Equal(nil, items[0].Expr) || sqlast.Equal(items[0].Expr, nil) {
		t.Error("nil equals nil and nothing else")
	}
}

// TestEqualStatement: what a statement prints parses back to an equal
// statement, for every statement kind; a nil slice equals an empty one.
func TestEqualStatement(t *testing.T) {
	texts := []string{
		`SELECT a FROM t WHERE b = 1 GROUP BY a HAVING COUNT(*) > 1 ORDER BY a DESC LIMIT 3`,
		`CREATE TABLE t SPECIFIC (a INTEGER NOT NULL COMPARABLE, b DECIMAL(15,2) CONVERTIBLE @toU @fromU, CONSTRAINT pk PRIMARY KEY (a), CHECK (a > 0))`,
		`CREATE VIEW v AS SELECT a FROM t`,
		`CREATE FUNCTION f (INTEGER) RETURNS INTEGER AS 'SELECT $1 + 1' LANGUAGE SQL IMMUTABLE`,
		`DROP TABLE t`, `DROP VIEW v`,
		`INSERT INTO t (a, b) VALUES (1, 2), (3, 4)`, `INSERT INTO t SELECT a, b FROM u`,
		`UPDATE t SET a = a + 1 WHERE b IN (SELECT 1)`, `DELETE FROM t WHERE a = 1`,
		`GRANT READ, INSERT ON t TO 3`, `REVOKE READ ON DATABASE FROM ALL`,
		`SET SCOPE = "IN (1, 2)"`, `SET SCOPE = "IN ()"`, `SET SCOPE = "FROM t WHERE a > 1"`,
	}
	var stmts []sqlast.Statement
	for _, text := range texts {
		a, err := sqlparse.ParseStatement(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		b, err := sqlparse.ParseStatement(a.String())
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if !sqlast.EqualStatement(a, b) {
			t.Errorf("%s does not equal its reparse", text)
		}
		stmts = append(stmts, a)
	}
	for i, a := range stmts {
		for j, b := range stmts {
			if i != j && sqlast.EqualStatement(a, b) {
				t.Errorf("%s equals %s", a, b)
			}
		}
	}
	if !sqlast.EqualStatement(&sqlast.Insert{Table: "t", Rows: [][]sqlast.Expr{{sqlast.NewIntLit(1)}}},
		&sqlast.Insert{Table: "t", Columns: []string{}, Rows: [][]sqlast.Expr{{sqlast.NewIntLit(1)}}}) {
		t.Error("a nil column list does not equal an empty one")
	}
}
