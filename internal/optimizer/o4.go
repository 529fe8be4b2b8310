package optimizer

import (
	"fmt"
	"strings"

	"mtbase/internal/rewrite"
	"mtbase/internal/sqlast"
)

// applyO4 performs conversion-function inlining (§4.2.3, Listing 17):
// calls to SQL-bodied UDFs are replaced by the body's select expression,
// with the body's meta tables joined into the query's FROM clause and the
// body's predicates conjoined to WHERE. This turns a per-row interpreted
// function call into plain joins + arithmetic, which the DBMS optimizes
// aggressively — the paper's single most effective pass on System C.
func applyO4(ctx *rewrite.Context, q *sqlast.Select) {
	inl := &inliner{ctx: ctx}
	sqlast.WalkBlocks(q, nil, func(s *sqlast.Select) {
		inl.level(s)
	})
}

type inliner struct {
	ctx    *rewrite.Context
	nextID int
}

// inlineSite records the instantiation of one distinct call (fn + args).
type inlineSite struct {
	repl   sqlast.Expr
	tables []sqlast.TableExpr
	conds  []sqlast.Expr
}

func (inl *inliner) level(s *sqlast.Select) {
	sites := make(map[string]*inlineSite) // fn + rendered args -> site
	var newTables []sqlast.TableExpr
	var newConds []sqlast.Expr

	process := func(e sqlast.Expr) sqlast.Expr {
		if e == nil {
			return nil
		}
		return sqlast.TransformExpr(e, func(n sqlast.Expr) sqlast.Expr {
			fc, ok := n.(*sqlast.FuncCall)
			if !ok || fc.Star || fc.Distinct {
				return n
			}
			def := inl.ctx.Schema.Function(fc.Name)
			if def == nil || !inlinable(def) {
				return n
			}
			key := fc.String()
			site, seen := sites[key]
			if !seen {
				var ok bool
				site, ok = inl.instantiate(def, fc.Args)
				if !ok {
					return n
				}
				sites[key] = site
				newTables = append(newTables, site.tables...)
				newConds = append(newConds, site.conds...)
			}
			return sqlast.CloneExpr(site.repl)
		})
	}

	// Inlining is a cost-based decision (§4): it pays when the call would
	// execute per input row — in WHERE, in GROUP BY keys, inside aggregate
	// arguments, or anywhere in a non-grouped query. Calls in the output
	// clauses of a grouped query run once per *group* (e.g. the per-tenant
	// conversions o3 produces); joining meta tables against every input
	// row to save those few calls is a pessimization, so they stay UDFs.
	grouped := len(s.GroupBy) > 0
	if !grouped {
		for _, it := range s.Items {
			if !it.Star && hasAggregateCall(it.Expr) {
				grouped = true
				break
			}
		}
	}
	processPerRow := func(e sqlast.Expr) sqlast.Expr {
		if !grouped {
			return process(e)
		}
		return inAggregateArgs(e, process)
	}

	for i := range s.Items {
		s.Items[i].Expr = processPerRow(s.Items[i].Expr)
	}
	s.Where = process(s.Where)
	for i := range s.GroupBy {
		s.GroupBy[i] = process(s.GroupBy[i])
	}
	s.Having = processPerRow(s.Having)
	for i := range s.OrderBy {
		s.OrderBy[i].Expr = processPerRow(s.OrderBy[i].Expr)
	}

	s.From = append(s.From, newTables...)
	for _, c := range newConds {
		s.Where = sqlast.AndExprs(s.Where, c)
	}
}

func hasAggregateCall(e sqlast.Expr) bool {
	found := false
	sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
		if fc, ok := n.(*sqlast.FuncCall); ok && sqlast.IsAggregate(fc.Name) {
			found = true
			return false
		}
		return !found
	})
	return found
}

// inAggregateArgs applies f to the argument subtrees of aggregate calls
// within e, leaving everything outside aggregates untouched.
func inAggregateArgs(e sqlast.Expr, f func(sqlast.Expr) sqlast.Expr) sqlast.Expr {
	if e == nil {
		return nil
	}
	return sqlast.ReplaceExpr(e, func(n sqlast.Expr) (sqlast.Expr, bool) {
		fc, ok := n.(*sqlast.FuncCall)
		if !ok || !sqlast.IsAggregate(fc.Name) {
			return n, false
		}
		for i, a := range fc.Args {
			fc.Args[i] = f(a)
		}
		return fc, true
	})
}

// inlinable accepts bodies of the meta-lookup shape used by conversion
// functions: a single SELECT of one expression from plain tables with a
// conjunctive WHERE — the form that can be folded into an enclosing query
// as a 1:1 join.
func inlinable(def *sqlast.CreateFunction) bool {
	b := def.Body
	if b == nil || b.Distinct || len(b.Items) != 1 || b.Items[0].Star {
		return false
	}
	if len(b.GroupBy) > 0 || b.Having != nil || len(b.OrderBy) > 0 || b.Limit >= 0 {
		return false
	}
	for _, te := range b.From {
		if _, ok := te.(*sqlast.TableName); !ok {
			return false
		}
	}
	if len(sqlast.SubqueriesOf(b.Items[0].Expr)) > 0 || (b.Where != nil && len(sqlast.SubqueriesOf(b.Where)) > 0) {
		return false
	}
	return true
}

// instantiate clones the body with fresh table aliases, qualifies the
// body's column references, and substitutes $n parameters with the call
// arguments.
func (inl *inliner) instantiate(def *sqlast.CreateFunction, args []sqlast.Expr) (*inlineSite, bool) {
	if len(args) != len(def.ParamTypes) {
		return nil, false
	}
	body := sqlast.CloneSelect(def.Body)

	// Fresh alias per body table; column ownership comes from the schema.
	aliasOf := make(map[string]string) // lower table name -> alias
	colOwner := make(map[string]string)
	var tables []sqlast.TableExpr
	for _, te := range body.From {
		tn := te.(*sqlast.TableName)
		info := inl.ctx.Schema.Table(tn.Name)
		if info == nil {
			return nil, false
		}
		inl.nextID++
		alias := fmt.Sprintf("mt_inl%d", inl.nextID)
		aliasOf[strings.ToLower(tn.Binding())] = alias
		for _, c := range info.ColumnNames() {
			cl := strings.ToLower(c)
			if _, dup := colOwner[cl]; dup {
				return nil, false // ambiguous body column
			}
			colOwner[cl] = alias
		}
		tables = append(tables, &sqlast.TableName{Name: tn.Name, Alias: alias})
	}

	substitute := func(e sqlast.Expr) (sqlast.Expr, bool) {
		okAll := true
		out := sqlast.TransformExpr(e, func(n sqlast.Expr) sqlast.Expr {
			switch x := n.(type) {
			case *sqlast.Param:
				if x.N < 1 || x.N > len(args) {
					okAll = false
					return n
				}
				return sqlast.CloneExpr(args[x.N-1])
			case *sqlast.ColumnRef:
				if x.Table != "" {
					if alias, ok := aliasOf[strings.ToLower(x.Table)]; ok {
						return &sqlast.ColumnRef{Table: alias, Name: x.Name}
					}
					okAll = false
					return n
				}
				owner, ok := colOwner[strings.ToLower(x.Name)]
				if !ok {
					okAll = false
					return n
				}
				return &sqlast.ColumnRef{Table: owner, Name: x.Name}
			}
			return n
		})
		return out, okAll
	}

	repl, ok := substitute(body.Items[0].Expr)
	if !ok {
		return nil, false
	}
	site := &inlineSite{repl: repl, tables: tables}
	if body.Where != nil {
		w, ok := substitute(body.Where)
		if !ok {
			return nil, false
		}
		site.conds = conjunctsOf(w)
	}
	return site, true
}
