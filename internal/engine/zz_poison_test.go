package engine

import (
	"fmt"
	"testing"

	"mtbase/internal/sqltypes"
)

func TestRecursiveMemoPoison2(t *testing.T) {
	// f(n) = n + f(n/2 - y) evaluated over both rows of t2 (y=0,1),
	// result taken from the first row (y=0). Gives each node two children,
	// so the same child has multiple parents. ModeSystemC has no result
	// cache to hide behind: every call recurses through the body's one
	// lowered projection, each level on a batch and an argument frame of its
	// own.
	for _, mode := range []Mode{ModePostgres, ModeSystemC} {
		testRecursiveMemoPoison2(t, mode)
	}
}

func testRecursiveMemoPoison2(t *testing.T, mode Mode) {
	mk := func() *DB {
		db := Open(mode)
		if _, err := db.ExecScript(`
			CREATE TABLE t2 (y INTEGER);
			CREATE TABLE t (x INTEGER);
			CREATE FUNCTION f (INTEGER) RETURNS INTEGER
				AS 'SELECT CASE WHEN $1 <= 0 THEN 0 ELSE $1 + f($1 / 2 - y) END FROM t2'
				LANGUAGE SQL IMMUTABLE`); err != nil {
			t.Fatal(err)
		}
		db.Table("t2").AppendRow([]sqltypes.Value{sqltypes.NewInt(0)})
		db.Table("t2").AppendRow([]sqltypes.Value{sqltypes.NewInt(1)})
		return db
	}
	for _, xs := range [][]int64{{8, 9, 10, 11, 12, 13}, {13, 12, 11, 10, 9, 8}, {30, 29, 28, 27}} {
		dbC, dbI := mk(), mk()
		dbI.SetCompileExprs(false)
		for _, x := range xs {
			dbC.Table("t").AppendRow([]sqltypes.Value{sqltypes.NewInt(x)})
			dbI.Table("t").AppendRow([]sqltypes.Value{sqltypes.NewInt(x)})
		}
		sql := "SELECT x, f(x) FROM t"
		rc, errC := dbC.ExecSQL(sql)
		ri, errI := dbI.ExecSQL(sql)
		if errC != nil || errI != nil {
			t.Fatalf("errors: compiled %v interp %v", errC, errI)
		}
		for i := range ri.Rows {
			if fmt.Sprint(rc.Rows[i]) != fmt.Sprint(ri.Rows[i]) {
				t.Errorf("mode %s xs=%v row %d: compiled %v, interpreter %v", mode, xs, i, rc.Rows[i], ri.Rows[i])
			}
		}
	}
}
