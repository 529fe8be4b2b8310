package sqlast

import "strings"

// This file provides deep cloning and structural traversal of the AST.
// The rewrite algorithm (internal/rewrite) and the optimizer passes
// (internal/optimizer) are pure AST→AST functions; they clone before
// mutating so callers can keep the original statement.

// CloneExpr returns a deep copy of e. A nil expression clones to nil.
func CloneExpr(e Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *ColumnRef:
		c := *x
		return &c
	case *Literal:
		c := *x
		return &c
	case *Param:
		c := *x
		return &c
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, L: CloneExpr(x.L), R: CloneExpr(x.R)}
	case *UnaryExpr:
		return &UnaryExpr{Op: x.Op, X: CloneExpr(x.X)}
	case *FuncCall:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = CloneExpr(a)
		}
		return &FuncCall{Name: x.Name, Distinct: x.Distinct, Star: x.Star, Args: args}
	case *CaseExpr:
		whens := make([]CaseWhen, len(x.Whens))
		for i, w := range x.Whens {
			whens[i] = CaseWhen{Cond: CloneExpr(w.Cond), Then: CloneExpr(w.Then)}
		}
		return &CaseExpr{Operand: CloneExpr(x.Operand), Whens: whens, Else: CloneExpr(x.Else)}
	case *InExpr:
		var list []Expr
		if x.List != nil {
			list = make([]Expr, len(x.List))
			for i, it := range x.List {
				list[i] = CloneExpr(it)
			}
		}
		return &InExpr{X: CloneExpr(x.X), Not: x.Not, List: list, Sub: CloneSelect(x.Sub)}
	case *ExistsExpr:
		return &ExistsExpr{Not: x.Not, Sub: CloneSelect(x.Sub)}
	case *BetweenExpr:
		return &BetweenExpr{X: CloneExpr(x.X), Lo: CloneExpr(x.Lo), Hi: CloneExpr(x.Hi), Not: x.Not}
	case *LikeExpr:
		return &LikeExpr{X: CloneExpr(x.X), Pattern: CloneExpr(x.Pattern), Not: x.Not}
	case *IsNullExpr:
		return &IsNullExpr{X: CloneExpr(x.X), Not: x.Not}
	case *SubqueryExpr:
		return &SubqueryExpr{Sub: CloneSelect(x.Sub)}
	case *RowExpr:
		exprs := make([]Expr, len(x.Exprs))
		for i, e := range x.Exprs {
			exprs[i] = CloneExpr(e)
		}
		return &RowExpr{Exprs: exprs}
	case *ExtractExpr:
		return &ExtractExpr{Field: x.Field, X: CloneExpr(x.X)}
	case *SubstringExpr:
		return &SubstringExpr{X: CloneExpr(x.X), From: CloneExpr(x.From), For: CloneExpr(x.For)}
	case *IntervalExpr:
		c := *x
		return &c
	case *Select:
		return CloneSelect(x)
	}
	panic("sqlast: CloneExpr: unhandled node type")
}

// CloneSelect returns a deep copy of s; nil clones to nil.
func CloneSelect(s *Select) *Select {
	if s == nil {
		return nil
	}
	out := &Select{
		Distinct: s.Distinct,
		Limit:    s.Limit,
	}
	out.Items = make([]SelectItem, len(s.Items))
	for i, it := range s.Items {
		out.Items[i] = SelectItem{Star: it.Star, StarTable: it.StarTable, Expr: CloneExpr(it.Expr), Alias: it.Alias}
	}
	out.From = make([]TableExpr, len(s.From))
	for i, t := range s.From {
		out.From[i] = CloneTableExpr(t)
	}
	out.Where = CloneExpr(s.Where)
	out.GroupBy = make([]Expr, len(s.GroupBy))
	for i, g := range s.GroupBy {
		out.GroupBy[i] = CloneExpr(g)
	}
	out.Having = CloneExpr(s.Having)
	out.OrderBy = make([]OrderItem, len(s.OrderBy))
	for i, o := range s.OrderBy {
		out.OrderBy[i] = OrderItem{Expr: CloneExpr(o.Expr), Desc: o.Desc}
	}
	return out
}

// CloneTableExpr returns a deep copy of a FROM item.
func CloneTableExpr(t TableExpr) TableExpr {
	switch x := t.(type) {
	case *TableName:
		c := *x
		return &c
	case *DerivedTable:
		return &DerivedTable{Sub: CloneSelect(x.Sub), Alias: x.Alias}
	case *JoinExpr:
		return &JoinExpr{Kind: x.Kind, L: CloneTableExpr(x.L), R: CloneTableExpr(x.R), On: CloneExpr(x.On)}
	}
	panic("sqlast: CloneTableExpr: unhandled node type")
}

// TransformExpr rewrites e bottom-up: children are transformed first, then
// f is applied to the (rebuilt) node and its result replaces the node.
// Subqueries (*Select) are NOT entered — the rewrite algorithm recurses
// into subqueries explicitly, per Algorithm 1 of the paper.
func TransformExpr(e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	mapChildren(e, func(c Expr) Expr { return TransformExpr(c, f) })
	return f(e)
}

// ReplaceExpr rewrites e top-down: f sees a node before its children, and
// when it reports a replacement the node is replaced whole and the subtree is
// not descended — so f never sees a node it produced. Subqueries are
// boundaries, as for TransformExpr; nodes are rewritten in place.
func ReplaceExpr(e Expr, f func(Expr) (Expr, bool)) Expr {
	if e == nil {
		return nil
	}
	if repl, done := f(e); done {
		return repl
	}
	mapChildren(e, func(c Expr) Expr { return ReplaceExpr(c, f) })
	return e
}

// mapChildren replaces every child expression slot of e with g's result for
// it, in WalkExpr's order. Leaves and subquery boundaries have none.
func mapChildren(e Expr, g func(Expr) Expr) {
	switch x := e.(type) {
	case *BinaryExpr:
		x.L = g(x.L)
		x.R = g(x.R)
	case *UnaryExpr:
		x.X = g(x.X)
	case *FuncCall:
		for i, a := range x.Args {
			x.Args[i] = g(a)
		}
	case *CaseExpr:
		x.Operand = g(x.Operand)
		for i := range x.Whens {
			x.Whens[i].Cond = g(x.Whens[i].Cond)
			x.Whens[i].Then = g(x.Whens[i].Then)
		}
		x.Else = g(x.Else)
	case *InExpr:
		x.X = g(x.X)
		for i, it := range x.List {
			x.List[i] = g(it)
		}
	case *BetweenExpr:
		x.X = g(x.X)
		x.Lo = g(x.Lo)
		x.Hi = g(x.Hi)
	case *LikeExpr:
		x.X = g(x.X)
		x.Pattern = g(x.Pattern)
	case *IsNullExpr:
		x.X = g(x.X)
	case *RowExpr:
		for i, it := range x.Exprs {
			x.Exprs[i] = g(it)
		}
	case *ExtractExpr:
		x.X = g(x.X)
	case *SubstringExpr:
		x.X = g(x.X)
		x.From = g(x.From)
		x.For = g(x.For)
	}
}

// WalkExpr visits e and its children pre-order; if f returns false the
// children of the current node are skipped. Subqueries are not entered.
func WalkExpr(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch x := e.(type) {
	case *BinaryExpr:
		WalkExpr(x.L, f)
		WalkExpr(x.R, f)
	case *UnaryExpr:
		WalkExpr(x.X, f)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, f)
		}
	case *CaseExpr:
		WalkExpr(x.Operand, f)
		for _, w := range x.Whens {
			WalkExpr(w.Cond, f)
			WalkExpr(w.Then, f)
		}
		WalkExpr(x.Else, f)
	case *InExpr:
		WalkExpr(x.X, f)
		for _, it := range x.List {
			WalkExpr(it, f)
		}
	case *BetweenExpr:
		WalkExpr(x.X, f)
		WalkExpr(x.Lo, f)
		WalkExpr(x.Hi, f)
	case *LikeExpr:
		WalkExpr(x.X, f)
		WalkExpr(x.Pattern, f)
	case *IsNullExpr:
		WalkExpr(x.X, f)
	case *RowExpr:
		for _, it := range x.Exprs {
			WalkExpr(it, f)
		}
	case *ExtractExpr:
		WalkExpr(x.X, f)
	case *SubstringExpr:
		WalkExpr(x.X, f)
		WalkExpr(x.From, f)
		WalkExpr(x.For, f)
	}
}

// eachSubquery calls f for the directly nested subqueries of e (one level),
// in the order WalkExpr reaches the nodes that hold them.
func eachSubquery(e Expr, f func(*Select)) {
	WalkExpr(e, func(n Expr) bool {
		switch x := n.(type) {
		case *InExpr:
			if x.Sub != nil {
				f(x.Sub)
			}
		case *ExistsExpr:
			f(x.Sub)
		case *SubqueryExpr:
			f(x.Sub)
		}
		return true
	})
}

// SubqueriesOf returns the directly nested subqueries of e (one level).
func SubqueriesOf(e Expr) []*Select {
	var subs []*Select
	eachSubquery(e, func(s *Select) { subs = append(subs, s) })
	return subs
}

// ColumnRefsOf returns all column references in e (subqueries excluded).
func ColumnRefsOf(e Expr) []*ColumnRef {
	var refs []*ColumnRef
	WalkExpr(e, func(n Expr) bool {
		if c, ok := n.(*ColumnRef); ok {
			refs = append(refs, c)
		}
		return true
	})
	return refs
}

// AndExprs conjoins the non-nil expressions with AND; returns nil when all
// are nil.
func AndExprs(exprs ...Expr) Expr {
	var out Expr
	for _, e := range exprs {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &BinaryExpr{Op: "AND", L: out, R: e}
		}
	}
	return out
}

// ---------------------------------------------------------------- the statement walker
//
// Where a statement holds expressions, and which of those nest query blocks,
// is written down here and nowhere else. The primitives are callback-shaped
// and allocate nothing: plan building walks every statement several times,
// and a slice-returning spelling of the same enumeration cost the compile
// path measurably (DESIGN.md ADR-017). The order is fixed and part of the
// contract — SQL text, plan-stable subquery IDs and table lists derive from
// it:
//
//	a block's slots    join ONs (left to right, inner joins before the join
//	                   that holds them), select items, WHERE, GROUP BY,
//	                   HAVING, ORDER BY
//	its output clauses select items, HAVING, ORDER BY: the slots computed
//	                   over the block's groups (OutputExprs)
//	its nested blocks  derived tables in FROM order, then the subqueries of
//	                   each slot in slot order
//	a statement        its own block (SELECT, CREATE VIEW, INSERT ... SELECT),
//	                   then the blocks nested in its own slots: INSERT rows,
//	                   UPDATE assignments then WHERE, DELETE WHERE
//
// Passes that treat the clauses differently (the rewrite's per-clause rules,
// o1–o4, String, CloneSelect) name them themselves: they are not traversals.

// BlockExprs calls f for every expression slot of block s; empty slots are
// skipped. Subqueries inside a slot are not entered (NestedBlocks).
func BlockExprs(s *Select, f func(Expr)) {
	EachJoin(s.From, func(j *JoinExpr) {
		if j.On != nil {
			f(j.On)
		}
	})
	for i := range s.Items {
		if e := s.Items[i].Expr; e != nil {
			f(e)
		}
	}
	if s.Where != nil {
		f(s.Where)
	}
	for _, g := range s.GroupBy {
		f(g)
	}
	if s.Having != nil {
		f(s.Having)
	}
	for i := range s.OrderBy {
		f(s.OrderBy[i].Expr)
	}
}

// OutputExprs calls f for the expressions of the clauses computed over a
// block's groups — select items, HAVING, ORDER BY keys, in that order: where an
// aggregate call may stand at the block's own level.
func OutputExprs(s *Select, f func(Expr)) {
	for i := range s.Items {
		if e := s.Items[i].Expr; e != nil {
			f(e)
		}
	}
	if s.Having != nil {
		f(s.Having)
	}
	for i := range s.OrderBy {
		f(s.OrderBy[i].Expr)
	}
}

// EachJoin calls f for every explicit join of a FROM list: the joins nested in
// a join's left side, then those in its right side, then the join itself. f
// may assign j.On — the passes that rewrite join conditions do.
func EachJoin(from []TableExpr, f func(*JoinExpr)) {
	for _, te := range from {
		eachJoin(te, f)
	}
}

func eachJoin(te TableExpr, f func(*JoinExpr)) {
	if j, ok := te.(*JoinExpr); ok {
		eachJoin(j.L, f)
		eachJoin(j.R, f)
		f(j)
	}
}

// FromItems calls table for every base-table reference and derived for every
// derived table of a FROM list, through joins, in FROM order; either may be
// nil. A derived table's block is not entered (it is a nested block).
func FromItems(from []TableExpr, table func(*TableName), derived func(*DerivedTable)) {
	for _, te := range from {
		fromItem(te, table, derived)
	}
}

func fromItem(te TableExpr, table func(*TableName), derived func(*DerivedTable)) {
	switch t := te.(type) {
	case *TableName:
		if table != nil {
			table(t)
		}
	case *DerivedTable:
		if derived != nil {
			derived(t)
		}
	case *JoinExpr:
		fromItem(t.L, table, derived)
		fromItem(t.R, table, derived)
	}
}

// BlockTables calls f for every base-table reference in s's FROM list,
// through joins but not into derived tables (those are nested blocks).
func BlockTables(s *Select, f func(*TableName)) { FromItems(s.From, f, nil) }

// NestedBlocks calls f for the blocks directly nested in s.
func NestedBlocks(s *Select, f func(*Select)) {
	FromItems(s.From, nil, func(d *DerivedTable) { f(d.Sub) })
	BlockExprs(s, func(e Expr) { eachSubquery(e, f) })
}

// StmtExprs calls f for the expression slots a statement holds outside any
// block: INSERT rows, UPDATE assignments and WHERE, DELETE WHERE.
func StmtExprs(stmt Statement, f func(Expr)) {
	switch st := stmt.(type) {
	case *Insert:
		for _, row := range st.Rows {
			for _, e := range row {
				f(e)
			}
		}
	case *Update:
		for i := range st.Sets {
			f(st.Sets[i].Expr)
		}
		if st.Where != nil {
			f(st.Where)
		}
	case *Delete:
		if st.Where != nil {
			f(st.Where)
		}
	}
}

// WalkBlocks visits every block reachable from stmt: pre is called on a block
// before the blocks nested in it, post after them; either may be nil.
func WalkBlocks(stmt Statement, pre, post func(*Select)) {
	switch st := stmt.(type) {
	case *Select:
		walkBlock(st, pre, post)
	case *CreateView:
		walkBlock(st.Sub, pre, post)
	case *Insert:
		if st.Sub != nil {
			walkBlock(st.Sub, pre, post)
		}
	}
	StmtExprs(stmt, func(e Expr) {
		eachSubquery(e, func(s *Select) { walkBlock(s, pre, post) })
	})
}

func walkBlock(s *Select, pre, post func(*Select)) {
	if pre != nil {
		pre(s)
	}
	NestedBlocks(s, func(n *Select) { walkBlock(n, pre, post) })
	if post != nil {
		post(s)
	}
}

// Target names the table a statement writes and the privilege writing it
// takes: INSERT, UPDATE and DELETE have one, every other statement "".
func Target(stmt Statement) (table string, priv Privilege) {
	switch st := stmt.(type) {
	case *Insert:
		return st.Table, PrivInsert
	case *Update:
		return st.Table, PrivUpdate
	case *Delete:
		return st.Table, PrivDelete
	}
	return "", ""
}

// TableSet is what a statement touches: the table it writes under Priv
// (Target) and every base table a block of it reads — at any depth, in any
// slot — once each, in walk order.
type TableSet struct {
	Write string
	Priv  Privilege
	Reads []string
}

// Tables returns stmt's table set. Privilege pruning (middleware) and shard
// routing both take it from here, so a slot the walker knows cannot be a slot
// the pruning forgets.
func Tables(stmt Statement) TableSet {
	var ts TableSet
	ts.Write, ts.Priv = Target(stmt)
	WalkBlocks(stmt, func(b *Select) {
		BlockTables(b, func(t *TableName) {
			for _, r := range ts.Reads {
				if strings.EqualFold(r, t.Name) {
					return
				}
			}
			ts.Reads = append(ts.Reads, t.Name)
		})
	}, nil)
	return ts
}

// VisitAllExprs calls f for every expression node reachable from stmt,
// descending into subqueries, derived tables, join conditions and INSERT
// sources — unlike WalkExpr, which stops at subquery boundaries. It is the
// traversal bind-parameter analysis uses: every Param of a statement is
// visited exactly through here.
func VisitAllExprs(stmt Statement, f func(Expr)) {
	each := func(e Expr) {
		WalkExpr(e, func(n Expr) bool {
			f(n)
			return true
		})
	}
	StmtExprs(stmt, each)
	WalkBlocks(stmt, func(b *Select) { BlockExprs(b, each) }, nil)
}

// MaxParam returns the highest bind-parameter index ($n / ?) referenced
// anywhere in stmt, 0 when the statement has no parameters.
func MaxParam(stmt Statement) int {
	max := 0
	VisitAllExprs(stmt, func(e Expr) {
		if p, ok := e.(*Param); ok && p.N > max {
			max = p.N
		}
	})
	return max
}

// BaseTablesOf returns every base-table reference (recursing through joins
// but not into derived tables) in the FROM list.
func BaseTablesOf(from []TableExpr) []*TableName {
	var out []*TableName
	FromItems(from, func(t *TableName) { out = append(out, t) }, nil)
	return out
}
