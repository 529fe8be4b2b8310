package shard

// Pinned-query classification (DESIGN.md ADR-009).
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
// conservative rules below. A rejected statement gets one more planning
// step — its closed scalar subqueries run as routed statements of their own
// and come back as bind values (stage.go, ADR-015) — and only what is still
// unpinned after that routes through the exact repartition fallback.

import (
	"fmt"
	"strings"

	"mtbase/internal/engine"
	"mtbase/internal/mtsql"
	"mtbase/internal/sqlast"
)

// analysis is the routing classification of one cross-shard SELECT.
type analysis struct {
	plainScan bool              // pinned scan shape: scatter + concat/merge
	aggPush   bool              // pinned aggregation: push partials, fold at gather
	mergeKeys []engine.MergeKey // ORDER BY as output-column merge keys (plainScan)
	plan      *partialPlan      // partial/combine ASTs (aggPush)
	reason    string            // why the statement is not pinned ("" when it is)
	// tenantFree: no block binds a tenant table, so any one shard answers the
	// statement. QueryStmt routes such client statements before classifying;
	// here it marks an outer statement whose tenant data all went into binds.
	tenantFree bool
}

// pinned: no rule was violated and all tenant bindings form one component.
func (a analysis) pinned() bool { return a.reason == "" }

// rtBinding mirrors the rewrite resolver's binding: one FROM item of one
// block. uf >= 0 names the union-find node of a tenant-specific binding.
type rtBinding struct {
	name    string
	info    *mtsql.TableInfo
	outputs map[string]bool
	uf      int
}

// rtScope chains binding scopes across nested blocks, mirroring the
// rewrite's correlated-reference resolution order exactly.
type rtScope struct {
	parent   *rtScope
	bindings []*rtBinding
}

func (s *rtScope) resolve(ref *sqlast.ColumnRef) *rtBinding {
	tl := strings.ToLower(ref.Table)
	cl := strings.ToLower(ref.Name)
	for sc := s; sc != nil; sc = sc.parent {
		for _, b := range sc.bindings {
			if tl != "" && b.name != tl {
				continue
			}
			if b.info != nil {
				if cl == mtsql.TTIDColumn {
					if b.info.TenantSpecific() && tl != "" {
						return b
					}
					continue
				}
				if b.info.Column(ref.Name) != nil {
					return b
				}
			} else if b.outputs[cl] {
				return b
			}
		}
	}
	return nil
}

// specificBinding returns the binding when ref resolves to a SPECIFIC
// attribute of a tenant table, else nil.
func (s *rtScope) specificBinding(ref *sqlast.ColumnRef) *rtBinding {
	b := s.resolve(ref)
	if b == nil || b.info == nil {
		return nil
	}
	ci := b.info.Column(ref.Name)
	if ci == nil || ci.Comparability != sqlast.Specific {
		return nil
	}
	return b
}

// classifier accumulates the union-find over tenant bindings.
type classifier struct {
	schema *mtsql.Schema
	parent []int                     // union-find
	nodes  map[*sqlast.TableName]int // union-find node per tenant TableName occurrence
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
	an := analysis{reason: c.reason, tenantFree: len(c.parent) == 0}
	if n := c.components(); an.reason == "" && n > 1 {
		an.reason = fmt.Sprintf("%d unlinked tenant components", n)
	}
	if !an.pinned() {
		return an
	}
	if topHasAggregation(sel) {
		if plan, ok := buildPartialPlan(sel); ok {
			an.aggPush = true
			an.plan = plan
		}
		return an
	}
	if sel.Distinct || sel.Having != nil {
		return an
	}
	keys, ok := mapOrderKeys(sel)
	if !ok {
		return an
	}
	an.plainScan = true
	an.mergeKeys = keys
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

// visitSelect processes one block: builds its binding scope (mirroring
// buildResolver's order, so derived subqueries see the bindings declared
// before them), collects ttid-equality edges from WHERE/ON/HAVING, and
// recurses into nested blocks. Returns whether the block or any
// descendant binds a tenant-specific table.
func (c *classifier) visitSelect(sel *sqlast.Select, parent *rtScope, role blockRole) bool {
	scope := &rtScope{parent: parent}
	hasTenant := false
	var visitFrom func(te sqlast.TableExpr)
	visitFrom = func(te sqlast.TableExpr) {
		switch t := te.(type) {
		case *sqlast.TableName:
			b := &rtBinding{name: strings.ToLower(t.Binding()), uf: -1}
			if info := c.schema.Table(t.Name); info != nil {
				b.info = info
				if info.TenantSpecific() {
					b.uf = c.nodeFor(t)
					hasTenant = true
				}
			} else if cols := c.schema.View(t.Name); cols != nil {
				// Views bake their own tenant set; the router already
				// forces them through the fallback.
				b.outputs = make(map[string]bool, len(cols))
				for _, col := range cols {
					b.outputs[strings.ToLower(col)] = true
				}
				c.reject("view")
			} else {
				c.reject("unknown table")
			}
			scope.bindings = append(scope.bindings, b)
		case *sqlast.DerivedTable:
			inner := c.visitSelect(t.Sub, scope, derivedBlock)
			if inner && !plainBlock(t.Sub) {
				// Grouped/distinct/limited derived rows merge or cut
				// across tenants; their tenant identity is gone.
				c.reject("derived table groups across tenants")
			}
			hasTenant = hasTenant || inner
			scope.bindings = append(scope.bindings, &rtBinding{
				name:    strings.ToLower(t.Alias),
				outputs: outputColumnSet(t.Sub),
				uf:      -1,
			})
		case *sqlast.JoinExpr:
			visitFrom(t.L)
			visitFrom(t.R)
		}
	}
	for _, te := range sel.From {
		visitFrom(te)
	}
	fromTenant := hasTenant

	if role != topBlock && hasTenant && (sel.Limit >= 0 || sel.Distinct) {
		// A nested LIMIT/DISTINCT over tenant rows is order- or
		// value-sensitive across the whole dataset, not per tenant.
		c.reject("nested LIMIT or DISTINCT over tenant rows")
	}

	// Edge collection mirrors rewriteBoolExpr's application sites: WHERE,
	// every JOIN ON, HAVING. Select items, GROUP BY and ORDER BY keys only
	// contribute their nested subqueries (the rewrite adds no ttid pairs there;
	// an ORDER BY key that names an output column holds none).
	var visitOns func(te sqlast.TableExpr)
	visitOns = func(te sqlast.TableExpr) {
		if j, ok := te.(*sqlast.JoinExpr); ok {
			visitOns(j.L)
			visitOns(j.R)
			if j.On != nil {
				c.collectEdges(j.On, scope)
			}
		}
	}
	for _, te := range sel.From {
		visitOns(te)
	}
	if sel.Where != nil {
		hasTenant = c.collectEdges(sel.Where, scope) || hasTenant
	}
	if sel.Having != nil {
		hasTenant = c.collectEdges(sel.Having, scope) || hasTenant
	}
	for _, it := range sel.Items {
		hasTenant = c.visitSubqueriesOnly(it.Expr, scope) || hasTenant
	}
	for _, g := range sel.GroupBy {
		hasTenant = c.visitSubqueriesOnly(g, scope) || hasTenant
	}
	for _, o := range sel.OrderBy {
		hasTenant = c.visitSubqueriesOnly(o.Expr, scope) || hasTenant
	}
	if role != predicateBlock && hasTenant && !fromTenant {
		// The block's rows are global rows that a predicate over tenant data
		// merely filters (MT-H Q20): every shard would return them, filtered
		// by its own tenants' share of a cross-tenant value.
		c.reject("tenant rows only inside subqueries")
	}
	return hasTenant
}

// collectEdges walks a predicate the way analyzeTenantSpecific does:
// comparisons over SPECIFIC attributes of two bindings become union-find
// edges, tenant-specific IN-subqueries link the two sides, and nested
// subqueries recurse with the chained scope. Returns whether any nested
// block binds a tenant table.
func (c *classifier) collectEdges(e sqlast.Expr, scope *rtScope) bool {
	nested := false
	link := func(operands ...sqlast.Expr) {
		var nodes []int
		for _, op := range operands {
			for _, cr := range sqlast.ColumnRefsOf(op) {
				if b := scope.specificBinding(cr); b != nil && b.uf >= 0 {
					nodes = append(nodes, b.uf)
				}
			}
		}
		for i := 1; i < len(nodes); i++ {
			c.union(nodes[0], nodes[i])
		}
	}
	// compare links the operands of one comparison; the blocks nested in them
	// (a scalar subquery as a bound or a list member) are visited on their own.
	compare := func(n sqlast.Expr, operands ...sqlast.Expr) bool {
		link(operands...)
		nested = c.visitSubqueriesOnly(n, scope) || nested
		return false
	}
	sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
		switch x := n.(type) {
		case *sqlast.BinaryExpr:
			switch x.Op {
			case "=", "<>", "<", "<=", ">", ">=":
				return compare(x, x.L, x.R)
			}
		case *sqlast.BetweenExpr:
			return compare(x, x.X, x.Lo, x.Hi)
		case *sqlast.LikeExpr:
			return compare(x, x.X, x.Pattern)
		case *sqlast.InExpr:
			if x.Sub == nil {
				return compare(x, append([]sqlast.Expr{x.X}, x.List...)...)
			}
			nested = c.visitInSub(x, scope) || nested
			return false
		case *sqlast.ExistsExpr:
			nested = c.visitSelect(x.Sub, scope, predicateBlock) || nested
			return false
		case *sqlast.SubqueryExpr:
			nested = c.visitSelect(x.Sub, scope, predicateBlock) || nested
			return false
		}
		return true
	})
	return nested
}

// visitSubqueriesOnly recurses into the subqueries of an expression that
// sits outside the rewrite's boolean positions (select items, GROUP BY and
// ORDER BY keys):
// nested blocks there are rewritten as independent blocks, so they
// contribute bindings but no ttid edges at this level. An IN-subquery
// here gets no tuple extension either, so only its block is visited.
func (c *classifier) visitSubqueriesOnly(e sqlast.Expr, scope *rtScope) bool {
	nested := false
	sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
		switch x := n.(type) {
		case *sqlast.InExpr:
			if x.Sub != nil {
				nested = c.visitSelect(x.Sub, scope, predicateBlock) || nested
				return false
			}
		case *sqlast.ExistsExpr:
			nested = c.visitSelect(x.Sub, scope, predicateBlock) || nested
			return false
		case *sqlast.SubqueryExpr:
			nested = c.visitSelect(x.Sub, scope, predicateBlock) || nested
			return false
		}
		return true
	})
	return nested
}

// visitInSub handles `attr IN (SELECT item ...)`: the rewrite carries
// ttid on both sides when attr and item are both SPECIFIC, linking the
// outer binding with the subquery item's binding.
func (c *classifier) visitInSub(in *sqlast.InExpr, scope *rtScope) bool {
	// Build the sub's scope first (its bindings may be edge endpoints).
	nested := c.visitSelect(in.Sub, scope, predicateBlock)
	cr, ok := in.X.(*sqlast.ColumnRef)
	if !ok {
		return nested
	}
	outer := scope.specificBinding(cr)
	if outer == nil || outer.uf < 0 {
		return nested
	}
	if len(in.Sub.Items) != 1 || in.Sub.Items[0].Star {
		return nested
	}
	subCr, ok := in.Sub.Items[0].Expr.(*sqlast.ColumnRef)
	if !ok {
		return nested
	}
	// Resolve the sub item in the sub's own scope (chained to ours).
	subScope := c.rebuildScope(in.Sub, scope)
	innerB := subScope.specificBinding(subCr)
	if innerB != nil && innerB.uf >= 0 {
		c.union(outer.uf, innerB.uf)
	}
	return nested
}

// rebuildScope rebuilds a block's binding scope without re-walking its
// predicates (visitSelect already collected that block's edges; reusing
// resolve() here only needs names). Derived tables inside get output-only
// bindings; no new union-find nodes are created.
func (c *classifier) rebuildScope(sel *sqlast.Select, parent *rtScope) *rtScope {
	scope := &rtScope{parent: parent}
	var visit func(te sqlast.TableExpr)
	visit = func(te sqlast.TableExpr) {
		switch t := te.(type) {
		case *sqlast.TableName:
			b := &rtBinding{name: strings.ToLower(t.Binding()), uf: -1}
			if info := c.schema.Table(t.Name); info != nil {
				b.info = info
				if info.TenantSpecific() {
					// The memo returns the node visitSelect created for
					// this same TableName occurrence, so unions through
					// this rebuilt binding land in the right component.
					b.uf = c.nodeFor(t)
				}
			} else if cols := c.schema.View(t.Name); cols != nil {
				b.outputs = make(map[string]bool, len(cols))
				for _, col := range cols {
					b.outputs[strings.ToLower(col)] = true
				}
			}
			scope.bindings = append(scope.bindings, b)
		case *sqlast.DerivedTable:
			scope.bindings = append(scope.bindings, &rtBinding{
				name:    strings.ToLower(t.Alias),
				outputs: outputColumnSet(t.Sub),
				uf:      -1,
			})
		case *sqlast.JoinExpr:
			visit(t.L)
			visit(t.R)
		}
	}
	for _, te := range sel.From {
		visit(te)
	}
	return scope
}

// nodeFor memoizes the union-find node per tenant TableName occurrence,
// so rebuildScope resolves into the same component visitSelect built.
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
	check := func(e sqlast.Expr) {
		sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
			if fc, ok := n.(*sqlast.FuncCall); ok && engine.IsAggregate(fc.Name) {
				found = true
			}
			return !found
		})
	}
	for _, it := range sel.Items {
		check(it.Expr)
	}
	check(sel.Having)
	for _, o := range sel.OrderBy {
		check(o.Expr)
	}
	return found
}

// outputColumnSet mirrors the rewrite's outputColumns.
func outputColumnSet(q *sqlast.Select) map[string]bool {
	out := make(map[string]bool)
	for _, it := range q.Items {
		switch {
		case it.Alias != "":
			out[strings.ToLower(it.Alias)] = true
		case it.Expr != nil:
			if cr, ok := it.Expr.(*sqlast.ColumnRef); ok {
				out[strings.ToLower(cr.Name)] = true
			} else {
				out[strings.ToLower(it.Expr.String())] = true
			}
		}
	}
	return out
}

// outputNames mirrors the engine's output-column naming for a block with
// no star items (stars make names placement-dependent → unmappable).
func outputNames(sel *sqlast.Select) ([]string, bool) {
	names := make([]string, 0, len(sel.Items))
	for _, it := range sel.Items {
		if it.Star {
			return nil, false
		}
		switch {
		case it.Alias != "":
			names = append(names, it.Alias)
		default:
			if cr, ok := it.Expr.(*sqlast.ColumnRef); ok {
				names = append(names, cr.Name)
			} else {
				names = append(names, it.Expr.String())
			}
		}
	}
	return names, true
}

// mapOrderKeys maps each ORDER BY item onto an output column position so
// the gather can k-way merge. Items that are not plain references to an
// output column (by alias, column name, or textual equality with the
// item expression) make the statement unmergeable → fallback.
func mapOrderKeys(sel *sqlast.Select) ([]engine.MergeKey, bool) {
	if len(sel.OrderBy) == 0 {
		return nil, true
	}
	names, ok := outputNames(sel)
	if !ok {
		return nil, false
	}
	keys := make([]engine.MergeKey, 0, len(sel.OrderBy))
	for _, o := range sel.OrderBy {
		idx := -1
		if cr, ok := o.Expr.(*sqlast.ColumnRef); ok && cr.Table == "" {
			for i, n := range names {
				if strings.EqualFold(n, cr.Name) {
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
		keys = append(keys, engine.MergeKey{Col: idx, Desc: o.Desc})
	}
	return keys, true
}
