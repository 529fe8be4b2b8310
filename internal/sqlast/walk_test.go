package sqlast_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"mtbase/internal/sqlast"
	"mtbase/internal/sqlparse"
)

// label names a block by the integer literal it selects first; the blocks of
// the statements below are all `SELECT <n> ...`, the top one is "top".
func label(b *sqlast.Select) string {
	if len(b.Items) > 0 {
		if lit, ok := b.Items[0].Expr.(*sqlast.Literal); ok {
			return lit.String()
		}
	}
	return "top"
}

func walkOrder(t *testing.T, sql string) (pre, post string) {
	t.Helper()
	stmt, err := sqlparse.ParseStatement(sql)
	if err != nil {
		t.Fatalf("parse %s: %v", sql, err)
	}
	var a, b []string
	sqlast.WalkBlocks(stmt,
		func(s *sqlast.Select) { a = append(a, label(s)) },
		func(s *sqlast.Select) { b = append(b, label(s)) })
	return strings.Join(a, " "), strings.Join(b, " ")
}

// everySlot carries a distinct subquery in every slot of a block — under a
// join tree, nested two deep in a select item — and the order below is the
// documented one: derived tables in FROM order, then join ONs left to right,
// items, WHERE, GROUP BY, HAVING, ORDER BY.
const everySlot = `
SELECT (SELECT 30), (SELECT 31 FROM (SELECT 310) z WHERE (SELECT 311) = 1)
FROM (SELECT 10) d1 JOIN t ON t.a = (SELECT 20) JOIN (SELECT 11) d2 ON t.b IN (SELECT 21),
     (SELECT 12) d3
WHERE EXISTS (SELECT 40) AND t.c BETWEEN (SELECT 41) AND (SELECT 42)
GROUP BY (SELECT 50), CASE WHEN (SELECT 51) = 1 THEN 2 END
HAVING (SELECT 60) > 0
ORDER BY (SELECT 70), (SELECT 71) DESC`

func TestWalkBlocksOrder(t *testing.T) {
	for _, tc := range []struct{ sql, pre, post string }{
		{everySlot,
			"top 10 11 12 20 21 30 31 310 311 40 41 42 50 51 60 70 71",
			"10 11 12 20 21 30 310 311 31 40 41 42 50 51 60 70 71 top"},
		{"CREATE VIEW v AS SELECT a FROM t WHERE a IN (SELECT 1)", "top 1", "1 top"},
		{"INSERT INTO t SELECT (SELECT 2) FROM (SELECT 1) d", "top 1 2", "1 2 top"},
		{"INSERT INTO t VALUES ((SELECT 1), 2), (3, (SELECT 4 FROM (SELECT 40) d))", "1 4 40", "1 40 4"},
		{"UPDATE t SET a = (SELECT 1), b = (SELECT 2) WHERE c IN (SELECT 3 WHERE EXISTS (SELECT 30))", "1 2 3 30", "1 2 30 3"},
		{"DELETE FROM t WHERE EXISTS (SELECT 1) OR a = (SELECT 2)", "1 2", "1 2"},
		{"SET SCOPE = \"IN (1)\"", "", ""},
	} {
		pre, post := walkOrder(t, tc.sql)
		if pre != tc.pre {
			t.Errorf("%s\npre-order  %s\nwant       %s", tc.sql, pre, tc.pre)
		}
		if post != tc.post {
			t.Errorf("%s\npost-order %s\nwant       %s", tc.sql, post, tc.post)
		}
	}
}

// TestWalkerDerivedViews: what the package re-expresses on the walker agrees
// with it — every parameter is found in every slot, and the table set names
// the target and each table read once, in walk order.
func TestWalkerDerivedViews(t *testing.T) {
	sel, err := sqlparse.ParseStatement(strings.NewReplacer(
		"(SELECT 20)", "(SELECT $1 FROM On1)", "(SELECT 30)", "(SELECT $2 FROM item1, ON1)",
		"(SELECT 42)", "(SELECT $3 FROM where1)", "(SELECT 51)", "(SELECT $4 FROM group1)",
		"(SELECT 60)", "(SELECT $5 FROM having1)", "(SELECT 71)", "(SELECT $6 FROM order1)",
		"(SELECT 12)", "(SELECT $7 FROM derived1)").Replace(everySlot))
	if err != nil {
		t.Fatal(err)
	}
	if got := sqlast.MaxParam(sel); got != 7 {
		t.Errorf("MaxParam = %d, want 7", got)
	}
	ts := sqlast.Tables(sel)
	if got, want := strings.Join(ts.Reads, " "), "t derived1 On1 item1 where1 group1 having1 order1"; got != want || ts.Write != "" || ts.Priv != "" {
		t.Errorf("Tables = %+v, want reads %q and no target", ts, want)
	}
	for _, tc := range []struct {
		sql, write string
		priv       sqlast.Privilege
		reads      string
	}{
		{"INSERT INTO t SELECT a FROM s WHERE b IN (SELECT c FROM u)", "t", sqlast.PrivInsert, "s u"},
		{"INSERT INTO t VALUES ($1)", "t", sqlast.PrivInsert, ""},
		{"UPDATE t SET a = (SELECT MAX(x) FROM s) WHERE b IN (SELECT c FROM t)", "t", sqlast.PrivUpdate, "s t"},
		{"DELETE FROM t WHERE EXISTS (SELECT 1 FROM s, S)", "t", sqlast.PrivDelete, "s"},
		{"CREATE VIEW v AS SELECT a FROM t ORDER BY (SELECT MAX(x) FROM s)", "", "", "t s"},
	} {
		stmt, err := sqlparse.ParseStatement(tc.sql)
		if err != nil {
			t.Fatalf("parse %s: %v", tc.sql, err)
		}
		ts := sqlast.Tables(stmt)
		if ts.Write != tc.write || ts.Priv != tc.priv || strings.Join(ts.Reads, " ") != tc.reads {
			t.Errorf("%s: Tables = %+v, want %s/%s/[%s]", tc.sql, ts, tc.write, tc.priv, tc.reads)
		}
	}
}

// plant puts the sentinel block somewhere inside v when v's type can hold an
// expression, a FROM item or a block, at any depth of slices and structs, and
// reports whether it could.
func plant(v reflect.Value, sentinel *sqlast.Select) bool {
	var (
		exprT  = reflect.TypeOf((*sqlast.Expr)(nil)).Elem()
		fromT  = reflect.TypeOf((*sqlast.TableExpr)(nil)).Elem()
		blockT = reflect.TypeOf((*sqlast.Select)(nil))
	)
	switch {
	case v.Type() == exprT:
		v.Set(reflect.ValueOf(&sqlast.SubqueryExpr{Sub: sentinel}))
		return true
	case v.Type() == fromT:
		v.Set(reflect.ValueOf(&sqlast.DerivedTable{Sub: sentinel, Alias: "d"}))
		return true
	case v.Type() == blockT:
		v.Set(reflect.ValueOf(sentinel))
		return true
	case v.Kind() == reflect.Slice:
		one := reflect.MakeSlice(v.Type(), 1, 1)
		if !plant(one.Index(0), sentinel) {
			return false
		}
		v.Set(one)
		return true
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if plant(v.Field(i), sentinel) {
				return true
			}
		}
	}
	return false
}

// TestWalkerKnowsEveryField: for every field of the statement kinds that hold
// blocks, if the field's type can carry an expression the walker must reach a
// block planted there. A clause added to Select, Insert, Update or Delete
// without teaching walk.go fails here before it can become a slot that
// privilege pruning, plan dependencies or bind analysis forget.
func TestWalkerKnowsEveryField(t *testing.T) {
	planted := 0
	for _, zero := range []func() sqlast.Statement{
		func() sqlast.Statement { return sqlast.NewSelect() },
		func() sqlast.Statement { return &sqlast.Insert{} },
		func() sqlast.Statement { return &sqlast.Update{} },
		func() sqlast.Statement { return &sqlast.Delete{} },
		func() sqlast.Statement { return &sqlast.CreateView{} },
	} {
		typ := reflect.TypeOf(zero()).Elem()
		for i := 0; i < typ.NumField(); i++ {
			stmt := zero()
			sentinel := sqlast.NewSelect()
			if !plant(reflect.ValueOf(stmt).Elem().Field(i), sentinel) {
				continue // a name, a flag, a limit: nothing to walk
			}
			planted++
			if v, isView := stmt.(*sqlast.CreateView); isView && v.Sub == nil {
				t.Fatalf("CreateView gained an expression-bearing field %s", typ.Field(i).Name)
			}
			found := false
			sqlast.WalkBlocks(stmt, func(b *sqlast.Select) { found = found || b == sentinel }, nil)
			if !found {
				t.Errorf("%s.%s can hold a block that WalkBlocks does not reach: teach internal/sqlast/walk.go the new slot",
					typ.Name(), typ.Field(i).Name)
			}
		}
	}
	// Select: Items From Where GroupBy Having OrderBy; Insert: Rows Sub;
	// Update: Sets Where; Delete: Where; CreateView: Sub.
	if planted != 12 {
		t.Errorf("planted a block in %d fields, want 12: update this count with the walker", planted)
	}

	// A block's output clauses are a subset of its slots, and which ones is
	// written down once (OutputExprs): a new clause of Select is either one of
	// them or named here as one that is not.
	perRow := map[string]bool{"From": true, "Where": true, "GroupBy": true}
	selT := reflect.TypeOf(sqlast.Select{})
	var output []string
	for i := 0; i < selT.NumField(); i++ {
		sel, sentinel := sqlast.NewSelect(), sqlast.NewSelect()
		if !plant(reflect.ValueOf(sel).Elem().Field(i), sentinel) {
			continue
		}
		name, found := selT.Field(i).Name, false
		sqlast.OutputExprs(sel, func(e sqlast.Expr) {
			found = found || slices.Contains(sqlast.SubqueriesOf(e), sentinel)
		})
		if found {
			output = append(output, name)
		} else if !perRow[name] {
			t.Errorf("Select.%s holds expressions OutputExprs does not reach and is not known as a per-row clause", name)
		}
	}
	if want := []string{"Items", "Having", "OrderBy"}; !slices.Equal(output, want) {
		t.Errorf("OutputExprs reaches %v, want %v", output, want)
	}

	// The same for a join: a join planted in any field of JoinExpr that holds a
	// FROM item is one EachJoin reaches before the join that holds it, and a
	// field that holds an expression is the condition EachJoin's callers may
	// assign — BlockExprs finds what they put there.
	joinT := reflect.TypeOf(sqlast.JoinExpr{})
	sides, conds := 0, 0
	for i := 0; i < joinT.NumField(); i++ {
		outer, inner := &sqlast.JoinExpr{}, &sqlast.JoinExpr{}
		field := reflect.ValueOf(outer).Elem().Field(i)
		switch field.Type() {
		case reflect.TypeOf((*sqlast.TableExpr)(nil)).Elem():
			sides++
			field.Set(reflect.ValueOf(inner))
			var order []*sqlast.JoinExpr
			sqlast.EachJoin([]sqlast.TableExpr{outer}, func(j *sqlast.JoinExpr) { order = append(order, j) })
			if !slices.Equal(order, []*sqlast.JoinExpr{inner, outer}) {
				t.Errorf("EachJoin does not reach a join held in JoinExpr.%s before its holder", joinT.Field(i).Name)
			}
		case reflect.TypeOf((*sqlast.Expr)(nil)).Elem():
			conds++
			sentinel := sqlast.NewSelect()
			sel := sqlast.NewSelect()
			sel.From = []sqlast.TableExpr{outer}
			sqlast.EachJoin(sel.From, func(j *sqlast.JoinExpr) {
				reflect.ValueOf(j).Elem().Field(i).Set(reflect.ValueOf(&sqlast.SubqueryExpr{Sub: sentinel}))
			})
			found := false
			sqlast.NestedBlocks(sel, func(b *sqlast.Select) { found = found || b == sentinel })
			if !found {
				t.Errorf("JoinExpr.%s holds an expression the walker does not reach", joinT.Field(i).Name)
			}
		}
	}
	if sides != 2 || conds != 1 {
		t.Errorf("JoinExpr has %d FROM-item fields and %d expression fields, want L, R and On: teach EachJoin the new one", sides, conds)
	}
}

// TestWalkerAllocatesNothing: plan building walks a statement several times
// per cache miss, so the primitives must stay callback-shaped and free.
func TestWalkerAllocatesNothing(t *testing.T) {
	stmt, err := sqlparse.ParseStatement(everySlot)
	if err != nil {
		t.Fatal(err)
	}
	blocks, exprs := 0, 0
	countExpr := func(sqlast.Expr) { exprs++ }
	pre := func(b *sqlast.Select) {
		blocks++
		sqlast.BlockExprs(b, countExpr)
	}
	if n := testing.AllocsPerRun(50, func() { sqlast.WalkBlocks(stmt, pre, nil) }); n != 0 {
		t.Errorf("WalkBlocks + BlockExprs allocate %v times per walk, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { _ = sqlast.MaxParam(stmt) }); n != 0 {
		t.Errorf("MaxParam allocates %v times per walk, want 0", n)
	}
	if blocks == 0 || exprs == 0 {
		t.Fatal("the walk visited nothing")
	}
}

func TestSubqueriesOfOrder(t *testing.T) {
	q, err := sqlparse.ParseQuery("SELECT a FROM t WHERE a IN (SELECT 1) AND (EXISTS (SELECT 2) OR b > (SELECT 3 WHERE c = (SELECT 30)))")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range sqlast.SubqueriesOf(q.Where) {
		got = append(got, label(s))
	}
	if want := []string{"1", "2", "3"}; !slices.Equal(got, want) {
		t.Errorf("SubqueriesOf = %v, want %v (one level, left to right)", got, want)
	}
}

// TestReplaceExprStopsAtReplacement: f sees a node before its children and
// never sees inside what it put in place — a replacement that contains the
// pattern again is not rewritten again — and subqueries are boundaries.
func TestReplaceExprStopsAtReplacement(t *testing.T) {
	q, err := sqlparse.ParseQuery("SELECT SUBSTRING(a FROM a FOR 2), CASE WHEN a IN (a, 1) THEN (a, b) END, (SELECT a) FROM t WHERE a BETWEEN a AND -a OR a LIKE a OR a IS NULL OR EXTRACT(YEAR FROM a) = 1")
	if err != nil {
		t.Fatal(err)
	}
	wrap := func(n sqlast.Expr) (sqlast.Expr, bool) {
		if cr, ok := n.(*sqlast.ColumnRef); ok && cr.Name == "a" {
			return &sqlast.FuncCall{Name: "f", Args: []sqlast.Expr{cr}}, true
		}
		return n, false
	}
	var got []string
	for _, it := range q.Items {
		got = append(got, sqlast.ReplaceExpr(it.Expr, wrap).String())
	}
	got = append(got, sqlast.ReplaceExpr(q.Where, wrap).String())
	want := []string{
		"SUBSTRING(f(a) FROM f(a) FOR 2)",
		"CASE WHEN f(a) IN (f(a), 1) THEN (f(a), b) END",
		"(SELECT a)",
		"((((f(a) BETWEEN f(a) AND (-f(a))) OR (f(a) LIKE f(a))) OR (f(a) IS NULL)) OR (EXTRACT(YEAR FROM f(a)) = 1))",
	}
	if !slices.Equal(got, want) {
		t.Errorf("ReplaceExpr:\n got %q\nwant %q", got, want)
	}
}
