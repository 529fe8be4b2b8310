package shard

// Pinned-query classification (DESIGN.md ADR-009, ADR-018).
//
// The MTBase rewrite appends `a.ttid = b.ttid` for every comparison
// predicate over tenant-specific (SPECIFIC) attributes of two bindings,
// and tuple-extends `ts_attr IN (SELECT ts_attr ...)` with ttid on both
// sides (internal/rewrite, §2.4.2/§3.1). Those injected equalities chain:
// viewing tenant-specific bindings as nodes and the injected equalities as
// edges, every binding in one connected component is constrained to the
// same ttid at execution time — at any nesting depth, because each edge
// is literally a ttid-equality predicate in the rewritten SQL.
//
// A query is "pinned" when ALL tenant-specific bindings, across every
// block, form ONE component: each result row then derives from rows of
// exactly one tenant, so executing the statement per shard under the
// sub-scope D ∩ owned(shard) partitions the unsharded result exactly.
//
// Derived tables are the one boundary the chain cannot cross — the
// rewrite treats derived outputs as plain comparable attributes and never
// injects ttid through them — and grouping/DISTINCT/LIMIT inside a
// non-top block erases row-level tenant identity (groups merge by value
// across tenants, limits apply to cross-tenant heap order). Hence the
// conservative rules below. Which bindings a predicate ties, and how a column
// reference finds its binding, is asked of the rewrite itself
// (rewrite.Resolver, Resolver.Links); what is kept here is routing: the
// union-find, the block roles and the reject rules. A rejected statement gets one more planning
// step — its closed scalar subqueries run as routed statements of their own
// and come back as bind values (stage.go, ADR-015) — and only what is still
// unpinned after that routes through the exact repartition fallback.

import (
	"fmt"
	"strings"

	"mtbase/internal/mtsql"
	"mtbase/internal/rewrite"
	"mtbase/internal/sqlast"
	"mtbase/internal/sqltypes"
)

// analysis is the routing classification of one cross-shard SELECT.
type analysis struct {
	plainScan bool               // pinned scan shape: the statement on every shard, a sort/limit fold
	aggPush   bool               // pinned aggregation: partials on every shard, a combine fold
	order     []sqlast.OrderItem // ORDER BY as output positions (plainScan)
	plan      *partialPlan       // partial/combine ASTs (aggPush)
	reason    string             // why the statement is not pinned ("" when it is)
	// tenantFree: no block binds a tenant table, so any one shard answers the
	// statement. QueryStmt routes such client statements before classifying;
	// here it marks an outer statement whose tenant data all went into binds.
	tenantFree bool
}

// pinned: no rule was violated and all tenant bindings form one component.
func (a analysis) pinned() bool { return a.reason == "" }

// classifier accumulates the union-find over tenant bindings.
type classifier struct {
	schema *mtsql.Schema
	parent []int                     // union-find
	nodes  map[*sqlast.TableName]int // union-find node per tenant-table FROM item
	reason string                    // first rule violated → not pinned; "" when none was
}

// reject records a violated rule; the first one names the statement's reason.
func (c *classifier) reject(reason string) {
	if c.reason == "" {
		c.reason = reason
	}
}

func (c *classifier) newNode() int {
	c.parent = append(c.parent, len(c.parent))
	return len(c.parent) - 1
}

func (c *classifier) find(x int) int {
	for c.parent[x] != x {
		c.parent[x] = c.parent[c.parent[x]]
		x = c.parent[x]
	}
	return x
}

func (c *classifier) union(a, b int) { c.parent[c.find(a)] = c.find(b) }

func (c *classifier) components() int {
	n := 0
	for i := range c.parent {
		if c.find(i) == i {
			n++
		}
	}
	return n
}

// analyze classifies a cross-shard SELECT. The caller has already
// dispatched view queries to the fallback, so unknown tables here mark
// the query unpinned conservatively.
func analyze(sel *sqlast.Select, schema *mtsql.Schema) analysis {
	c := &classifier{schema: schema}
	c.visitSelect(sel, nil, topBlock)
	an := analysis{reason: c.reason}
	if n := c.components(); an.reason == "" && n > 1 {
		an.reason = fmt.Sprintf("%d unlinked tenant components", n)
	}
	if !an.pinned() {
		return an
	}
	an.tenantFree = len(c.parent) == 0
	if topHasAggregation(sel) {
		if plan, ok := buildPartialPlan(sel, schema); ok {
			an.aggPush = true
			an.plan = plan
		}
		return an
	}
	if sel.Distinct || sel.Having != nil {
		return an
	}
	order, ok := outputOrder(sel)
	if !ok {
		return an
	}
	an.plainScan = true
	an.order = order
	return an
}

// blockRole says where a block sits: the top and the derived blocks feed
// rows to the result, a predicate block (EXISTS, IN, scalar) only filters.
type blockRole int

const (
	topBlock blockRole = iota
	derivedBlock
	predicateBlock
)

// visitSelect processes one block: binds its FROM items through the rewrite's
// own scope (derived blocks are visited from there, seeing the items declared
// before them, as the rewrite rewrites them), unions the ttid ties the rewrite
// will make in WHERE/ON/HAVING, and recurses into nested blocks. Returns
// whether the block or any descendant binds a tenant-specific table.
func (c *classifier) visitSelect(sel *sqlast.Select, parent *rewrite.Resolver, role blockRole) bool {
	hasTenant := false
	scope, err := rewrite.NewResolver(c.schema, sel, parent, func(sub *sqlast.Select, scope *rewrite.Resolver) error {
		inner := c.visitSelect(sub, scope, derivedBlock)
		if inner && !plainBlock(sub) {
			// Grouped/distinct/limited derived rows merge or cut
			// across tenants; their tenant identity is gone.
			c.reject("derived table groups across tenants")
		}
		hasTenant = hasTenant || inner
		return nil
	})
	if err != nil {
		c.reject("unknown table")
		return hasTenant
	}
	for _, b := range scope.Bindings() {
		switch {
		case b.Info != nil && b.Info.TenantSpecific():
			c.nodeFor(b.Table)
			hasTenant = true
		case b.Info == nil && b.Table != nil:
			// Views bake their own tenant set; the router already
			// forces them through the fallback.
			c.reject("view")
		}
	}
	fromTenant := hasTenant

	if role != topBlock && hasTenant && (sel.Limit >= 0 || sel.Distinct) {
		// A nested LIMIT/DISTINCT over tenant rows is order- or
		// value-sensitive across the whole dataset, not per tenant.
		c.reject("nested LIMIT or DISTINCT over tenant rows")
	}

	// The rewrite ties bindings by ttid where it rewrites a predicate
	// (rewriteBoolExpr): WHERE, every JOIN ON, HAVING. Select items, GROUP BY
	// and ORDER BY keys only contribute their nested blocks (no ttid pairs
	// there; an ORDER BY key that names an output column holds none).
	sqlast.EachJoin(sel.From, func(j *sqlast.JoinExpr) {
		if j.On != nil {
			c.link(j.On, scope)
		}
	})
	for _, e := range []sqlast.Expr{sel.Where, sel.Having} {
		if e != nil {
			c.link(e, scope)
		}
	}
	sqlast.BlockExprs(sel, func(e sqlast.Expr) {
		for _, sub := range sqlast.SubqueriesOf(e) {
			hasTenant = c.visitSelect(sub, scope, predicateBlock) || hasTenant
		}
	})
	if role != predicateBlock && hasTenant && !fromTenant {
		// The block's rows are global rows that a predicate over tenant data
		// merely filters (MT-H Q20): every shard would return them, filtered
		// by its own tenants' share of a cross-tenant value.
		c.reject("tenant rows only inside subqueries")
	}
	return hasTenant
}

// link unions exactly the bindings the rewrite ties by ttid in predicate e:
// the pairs it appends `a.ttid = b.ttid` for and the two sides of every
// IN-subquery it tuple-extends. A predicate the rewrite refuses routes nowhere
// in particular; the fallback words its error.
func (c *classifier) link(e sqlast.Expr, scope *rewrite.Resolver) {
	links, err := scope.Links(e)
	if err != nil {
		c.reject(err.Error())
		return
	}
	tie := func(a, b *rewrite.Binding) {
		if a.Info.TenantSpecific() && b.Info.TenantSpecific() {
			c.union(c.nodeFor(a.Table), c.nodeFor(b.Table))
		}
	}
	for _, p := range links.Pairs {
		tie(p[0], p[1])
	}
	for _, in := range links.Ins {
		tie(in.Outer, in.Inner)
	}
}

// nodeFor memoizes the union-find node per tenant TableName occurrence: the
// rewrite builds an IN-subquery's scope a second time to resolve its item, and
// both bindings of one FROM item must land in one component.
func (c *classifier) nodeFor(tn *sqlast.TableName) int {
	if c.nodes == nil {
		c.nodes = make(map[*sqlast.TableName]int)
	}
	if id, ok := c.nodes[tn]; ok {
		return id
	}
	id := c.newNode()
	c.nodes[tn] = id
	return id
}

// plainBlock reports whether a derived-table block is a plain projection
// (no grouping, aggregation, DISTINCT or LIMIT) — the shape that keeps
// one output row per underlying (single-tenant) join row.
func plainBlock(sel *sqlast.Select) bool {
	if len(sel.GroupBy) > 0 || sel.Distinct || sel.Limit >= 0 || sel.Having != nil {
		return false
	}
	return !topHasAggregation(sel)
}

// topHasAggregation reports grouping or aggregate calls at a block's own
// level (subqueries are boundaries, exactly as in the engine).
func topHasAggregation(sel *sqlast.Select) bool {
	if len(sel.GroupBy) > 0 {
		return true
	}
	found := false
	sqlast.OutputExprs(sel, func(e sqlast.Expr) {
		sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
			if fc, ok := n.(*sqlast.FuncCall); ok && sqlast.IsAggregate(fc.Name) {
				found = true
			}
			return !found
		})
	})
	return found
}

// outputOrder maps each ORDER BY item onto an output column position, as the
// ordinal the replica's fold sorts the gathered parts by. Items that are not
// plain references to an output column (by ordinal, alias, column name, or
// textual equality with the item expression) leave the statement to the
// fallback; so does an ordinal out of range, whose error the engine words
// there.
func outputOrder(sel *sqlast.Select) ([]sqlast.OrderItem, bool) {
	if len(sel.OrderBy) == 0 {
		return nil, true
	}
	for _, it := range sel.Items {
		if it.Star {
			return nil, false // a star's columns are placement-dependent: unmappable
		}
	}
	order := make([]sqlast.OrderItem, 0, len(sel.OrderBy))
	for _, o := range sel.OrderBy {
		idx := -1
		if n, ok := o.Ordinal(); ok {
			if n < 1 || n > int64(len(sel.Items)) {
				return nil, false
			}
			idx = int(n) - 1
		} else if cr, ok := o.Expr.(*sqlast.ColumnRef); ok && cr.Table == "" {
			for i, it := range sel.Items {
				if strings.EqualFold(it.OutputName(), cr.Name) {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			want := o.Expr.String()
			for i, it := range sel.Items {
				if it.Expr != nil && it.Expr.String() == want {
					idx = i
					break
				}
			}
		}
		if idx < 0 {
			return nil, false
		}
		order = append(order, sqlast.OrderItem{Expr: &sqlast.Literal{Val: sqltypes.NewInt(int64(idx) + 1)}, Desc: o.Desc})
	}
	return order, true
}
