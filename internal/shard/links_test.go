package shard

import (
	"slices"
	"strings"
	"testing"

	"mtbase/internal/mtsql"
	"mtbase/internal/rewrite"
	"mtbase/internal/sqlast"
)

// The classifier unions what rewrite.Resolver.Links reports, and the rewrite
// emits what the same call reports, so the two cannot disagree on a predicate
// they both look at (ADR-018). What this check adds is that they look at the
// same predicates through the same scopes: for a statement, the partition of
// its tenant-table occurrences the classifier ends with equals the one read
// off the rewritten SQL — `x.ttid = y.ttid` conjuncts and (a, x.ttid) IN
// (SELECT b, y.ttid ...) extensions, each ttid resolved in its own block.

// tenantOccurrences lists the tenant-specific FROM items of stmt in walk
// order; the rewrite keeps blocks and FROM lists in place, so the i-th
// occurrence of a statement is the i-th of its rewritten form.
func tenantOccurrences(sel *sqlast.Select, schema *mtsql.Schema) []*sqlast.TableName {
	var occ []*sqlast.TableName
	sqlast.WalkBlocks(sel, func(b *sqlast.Select) {
		sqlast.BlockTables(b, func(t *sqlast.TableName) {
			if info := schema.Table(t.Name); info != nil && info.TenantSpecific() {
				occ = append(occ, t)
			}
		})
	}, nil)
	return occ
}

// partitionOf labels every occurrence with the first occurrence of its
// component.
func partitionOf(occ []*sqlast.TableName, c *classifier) []int {
	labels := make([]int, len(occ))
	for i, t := range occ {
		labels[i] = slices.IndexFunc(occ, func(u *sqlast.TableName) bool { return c.find(c.nodeFor(u)) == c.find(c.nodeFor(t)) })
	}
	return labels
}

// tiesInSQL unions, into c, the ttid ties written out in rewritten block sel.
func tiesInSQL(t *testing.T, c *classifier, sel *sqlast.Select, parent *rewrite.Resolver) {
	scope, err := rewrite.NewResolver(c.schema, sel, parent, func(sub *sqlast.Select, sc *rewrite.Resolver) error {
		tiesInSQL(t, c, sub, sc)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tie := func(sa, sb *rewrite.Resolver, a, b sqlast.Expr) {
		ra, oka := a.(*sqlast.ColumnRef)
		rb, okb := b.(*sqlast.ColumnRef)
		if !oka || !okb || !strings.EqualFold(ra.Name, mtsql.TTIDColumn) || !strings.EqualFold(rb.Name, mtsql.TTIDColumn) {
			return
		}
		x, fx := sa.Resolve(ra)
		y, fy := sb.Resolve(rb)
		if !fx || !fy {
			t.Fatalf("%s or %s does not resolve in %s", ra, rb, sel)
		}
		c.union(c.nodeFor(x.Binding.Table), c.nodeFor(y.Binding.Table))
	}
	sqlast.BlockExprs(sel, func(e sqlast.Expr) {
		sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
			switch x := n.(type) {
			case *sqlast.BinaryExpr:
				if x.Op == "=" {
					tie(scope, scope, x.L, x.R)
				}
			case *sqlast.InExpr:
				if row, ok := x.X.(*sqlast.RowExpr); ok && x.Sub != nil && len(row.Exprs) == 2 {
					sub, err := rewrite.NewResolver(c.schema, x.Sub, scope, nil)
					if err != nil {
						t.Fatal(err)
					}
					tie(scope, sub, row.Exprs[1], x.Sub.Items[len(x.Sub.Items)-1].Expr)
				}
			}
			return true
		})
		for _, sub := range sqlast.SubqueriesOf(e) {
			tiesInSQL(t, c, sub, scope)
		}
	})
}

// checkLinks compares the two partitions for one statement; a statement the
// rewrite refuses (an unknown table, a view's body) has no SQL to read.
func checkLinks(t *testing.T, sql string, schema *mtsql.Schema) {
	t.Helper()
	sel := parseSel(t, sql)
	rewritten, err := rewrite.Query(&rewrite.Context{C: 1, D: []int64{1, 2}, Schema: schema}, sel)
	if err != nil {
		return
	}
	cl := &classifier{schema: schema}
	cl.visitSelect(sel, nil, topBlock)
	fromSQL := &classifier{schema: schema}
	tiesInSQL(t, fromSQL, rewritten, nil)
	got := partitionOf(tenantOccurrences(sel, schema), cl)
	want := partitionOf(tenantOccurrences(rewritten, schema), fromSQL)
	if !slices.Equal(got, want) {
		t.Errorf("%.80s\nclassifier ties the tenant tables as %v, the rewritten SQL as %v\n%s", sql, got, want, rewritten)
	}
}

func TestClassifierUnionsWhatTheRewriteTies(t *testing.T) {
	schema := routeSchema(t)
	for _, tc := range classificationCases {
		checkLinks(t, tc.sql, schema)
	}
	for _, sql := range []string{
		"SELECT e_name FROM emp WHERE e_role IN (SELECT r_id FROM roles WHERE r_name = 'x')",
		"SELECT e_name FROM emp e WHERE EXISTS (SELECT 1 FROM roles WHERE r_id = e.e_role) AND e_id IN (SELECT e_id FROM emp GROUP BY e_id)",
		"SELECT a.e_name FROM emp a JOIN emp b ON a.e_id = b.e_role JOIN roles ON b.e_role BETWEEN r_id AND r_id WHERE a.e_age = b.e_age",
		"SELECT e_name FROM emp WHERE e_role IN (SELECT r.r_id FROM roles r, (SELECT e_role AS x FROM emp) d WHERE d.x > 1)",
	} {
		checkLinks(t, sql, schema)
	}
	stage := newStageFixture(t).srv.Schema()
	for _, sql := range []string{stageQ11, stageQ13, stageQ17, stageQ22} {
		checkLinks(t, sql, stage)
	}
}
