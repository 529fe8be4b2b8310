package engine

// This file is shared subexpressions (DESIGN.md ADR-023): the expressions a
// grouped projection evaluates over the same batch — its keys and aggregate
// arguments — are lowered as a DAG instead of a forest. The rewrite wraps
// every occurrence of a convertible attribute in its conversion pair and o3
// emits one partial per aggregate it distributes, so what reaches the engine
// is redundant by construction; a subexpression that occurs twice gets one
// slot, and a row's first demand computes what every later one reads.
//
// Two halves. The analysis (sharedExprs) is structural and made once per plan:
// it lives in the lazily built selAnalysis, so a plan that never executes
// never pays it and an execution hashes nothing. The slots (exprSlots) are
// execution state: value column, error column and per-row stamp belong to one
// lowering of one operator instance — each parallel worker has its own.
//
// The invariant: a shared subexpression is evaluated for a row at most once
// per batch, and only if some occurrence would have evaluated it there; every
// occurrence sees the value or the error evaluating it in place would have
// produced. Demand is per row because occurrences sit under different
// short-circuits: SUM(CASE WHEN c THEN v ELSE 0 END) reaches v for the rows
// of c only, and SUM(v) beside it needs v for all of them.

import (
	"fmt"
	"slices"
	"strings"

	"mtbase/internal/sqlast"
	"mtbase/internal/sqltypes"
)

// sharedExprs is the analysis of one operator's expression list.
type sharedExprs struct {
	// ident is the list it was made for, by pointer: plain expressions, then
	// aggregate calls. The memo serves an operator whose list is this one
	// (madeFor).
	ident []sqlast.Expr

	// siteOf maps aggregate call i to its site: calls of the same family,
	// DISTINCT flag and argument share one accumulator and one argument
	// column. SUM, AVG and COUNT(x) are one family, folded as SUM (newAggAcc);
	// MIN, MAX and COUNT(*) are a family each.
	siteOf []int32

	// slot maps every occurrence of a shared node the lowering can reach to
	// its slot; reps[s] is the occurrence slot s's program is lowered from,
	// the only one whose subtree the analysis entered. uses[s] counts the
	// occurrences (the census).
	slot map[sqlast.Expr]int32
	reps []sqlast.Expr
	uses []int
}

// sharedExprs returns the analysis of plain ++ calls (nil entries of plain
// are skipped), serving it from a's memo. nil when nothing is analysed: a
// query block the plan does not own is a clone made per execution, whose
// pointers no memo can recognise.
func (ex *exec) sharedExprs(a *selAnalysis, plain []sqlast.Expr, calls []*sqlast.FuncCall) *sharedExprs {
	if a == nil || !a.owned {
		return nil
	}
	p := ex.plan
	p.mu.Lock()
	defer p.mu.Unlock()
	if !a.shared.madeFor(plain, calls) {
		a.shared = ex.analyzeShared(plain, calls)
	}
	return a.shared
}

// madeFor reports whether s is the analysis of exactly these nodes.
func (s *sharedExprs) madeFor(plain []sqlast.Expr, calls []*sqlast.FuncCall) bool {
	if s == nil {
		return false
	}
	i := 0
	for _, e := range plain {
		if e == nil {
			continue
		}
		if i == len(s.ident) || s.ident[i] != e {
			return false
		}
		i++
	}
	for _, c := range calls {
		if i == len(s.ident) || s.ident[i] != sqlast.Expr(c) {
			return false
		}
		i++
	}
	return i == len(s.ident)
}

func (ex *exec) analyzeShared(plain []sqlast.Expr, calls []*sqlast.FuncCall) *sharedExprs {
	s := &sharedExprs{siteOf: make([]int32, len(calls))}
	roots := slices.DeleteFunc(slices.Clone(plain), func(e sqlast.Expr) bool { return e == nil })
	s.ident = slices.Clone(roots)
	var sites []*sqlast.FuncCall
	for i, c := range calls {
		s.ident = append(s.ident, c)
		j := slices.IndexFunc(sites, func(o *sqlast.FuncCall) bool {
			return sqlast.Equal(o, c) || o.Distinct == c.Distinct && len(o.Args) == 1 && len(c.Args) == 1 &&
				newAggAcc(o, true).op == aggSum && newAggAcc(c, true).op == aggSum && sqlast.Equal(o.Args[0], c.Args[0])
		})
		if j < 0 {
			j, sites = len(sites), append(sites, c)
			if len(c.Args) == 1 {
				roots = append(roots, c.Args[0])
			}
		}
		s.siteOf[i] = int32(j)
	}

	// Fewer than two nodes that could be shared: nothing to hash.
	candidates := 0
	for _, r := range roots {
		sqlast.WalkExpr(r, func(n sqlast.Expr) bool {
			if !isLeaf(n) {
				candidates++
			}
			return candidates < 2
		})
	}
	if candidates < 2 {
		return s
	}

	// Top-down, in the order the operator lowers: a node joins the class of
	// the nodes it equals, and only a class's first node is entered — what is
	// under a later one is never lowered, so it is not an occurrence of
	// anything. A conversion chain written four times is one class of four,
	// not four classes of the calls inside it.
	type class struct{ nodes []sqlast.Expr }
	var classes []*class
	byHash := make(map[uint64][]*class)
	for _, r := range roots {
		sqlast.WalkExpr(r, func(n sqlast.Expr) bool {
			if isLeaf(n) || !ex.shareable(n) {
				return true
			}
			h := sqlast.Hash(n)
			for _, c := range byHash[h] {
				if sqlast.Equal(c.nodes[0], n) {
					c.nodes = append(c.nodes, n)
					return false
				}
			}
			c := &class{nodes: []sqlast.Expr{n}}
			classes, byHash[h] = append(classes, c), append(byHash[h], c)
			return true
		})
	}
	for _, c := range classes {
		if len(c.nodes) < 2 {
			continue
		}
		if s.slot == nil {
			s.slot = make(map[sqlast.Expr]int32)
		}
		for _, n := range c.nodes {
			s.slot[n] = int32(len(s.reps))
		}
		s.reps, s.uses = append(s.reps, c.nodes[0]), append(s.uses, len(c.nodes))
	}
	return s
}

// isLeaf: a bare column, a constant, a parameter. Gathering a column twice
// measured inside the noise of gathering it once (ADR-023); leaves are left
// alone.
func isLeaf(e sqlast.Expr) bool {
	switch e.(type) {
	case *sqlast.ColumnRef, *sqlast.Literal, *sqlast.Param, *sqlast.IntervalExpr:
		return true
	}
	return false
}

// shareable reports whether evaluating e once for a row stands for
// evaluating it again: it reads the row (a constant subtree is folded or
// broadcast, not shared), and holds no subquery, no aggregate, no parameter
// and no UDF call but those callUDF would answer from its memo anyway — an
// IMMUTABLE function on the PostgreSQL-like engine. On the System-C-like
// engine every occurrence keeps its body execution, which is what the
// paper's uncached tables measure.
func (ex *exec) shareable(e sqlast.Expr) bool {
	ok, readsRow := true, false
	sqlast.WalkExpr(e, func(n sqlast.Expr) bool {
		switch x := n.(type) {
		case *sqlast.ColumnRef:
			readsRow = true
		case *sqlast.Param, *sqlast.SubqueryExpr, *sqlast.ExistsExpr, *sqlast.Select:
			ok = false
		case *sqlast.InExpr:
			ok = ok && x.Sub == nil
		case *sqlast.FuncCall:
			if upper := strings.ToUpper(x.Name); sqlast.IsAggregate(upper) {
				ok = false
			} else if !isScalarBuiltin(upper) {
				fn := ex.function(x.Name)
				ok = ok && fn != nil && fn.Immutable && ex.db.mode == ModePostgres
			}
		}
		return ok
	})
	return ok && readsRow
}

// describe lists what the analysis shares, for the census: per slot how many
// occurrences read it and the expression, then how many aggregate calls
// found a site of their family to fold into.
func (s *sharedExprs) describe() []string {
	var out []string
	for i, rep := range s.reps {
		out = append(out, fmt.Sprintf("%dx %s", s.uses[i], rep))
	}
	sites := 0
	for _, site := range s.siteOf {
		sites = max(sites, int(site)+1)
	}
	if folded := len(s.siteOf) - sites; folded > 0 {
		out = append(out, fmt.Sprintf("%d equal aggregate sites folded", folded))
	}
	return out
}

// ---------------------------------------------------------------- slots

// exprSlots is one lowering's slots: per shared node the program lowered
// from its representative, the value and error columns of the current batch,
// and per row the stamp of the batch it was computed for. The operator
// starts every batch with nextBatch; nothing is cleared, stale stamps just
// stop matching.
type exprSlots struct {
	stats *Stats
	gen   uint32
	slots []exprSlot
}

type exprSlot struct {
	prog   vecExpr
	vals   []sqltypes.Value
	errs   []error
	stamp  []uint32 // stamp[i] == gen: row i is computed
	seen   uint32   // == gen: some row is
	anyErr bool     // some row of this batch failed: errs is worth reading
}

// nextBatch invalidates every slot: the operator is about to evaluate a
// batch it has not evaluated before. A nil receiver shares nothing.
func (s *exprSlots) nextBatch() {
	if s != nil {
		s.gen++
	}
}

// kernel is the program of every occurrence of slot id's node: rows already
// computed for this batch copy the value out or are poisoned again with the
// error they raised — evalArgs resets the batch between aggregate sites, the
// slot remembers — and the rest are the demand the node's own program runs
// for, into the slot.
func (s *exprSlots) kernel(ve *venv, id int32) vecExpr {
	sl := &s.slots[id]
	if sl.prog == nil {
		sl.prog = ve.lower(ve.shared.reps[id])
		s.stats.ExprSlots.Add(1)
	}
	st, stats := ve.vs, s.stats
	return func(b *Batch, sel []int32, out []sqltypes.Value) {
		n, gen := len(b.rows), s.gen
		if len(sl.stamp) < n {
			sl.vals, sl.errs, sl.stamp = make([]sqltypes.Value, n), make([]error, n), make([]uint32, n)
		}
		need, m := sel, st.mark()
		if sl.seen != gen { // the batch's first demand: all of sel
			sl.seen = gen
			if sl.anyErr {
				clear(sl.errs)
				sl.anyErr = false
			}
		} else {
			need = st.takeSel(len(sel))
			for _, i := range sel {
				switch {
				case sl.stamp[i] != gen:
					need = append(need, i)
				case sl.anyErr && sl.errs[i] != nil:
					b.poison(i, sl.errs[i])
				default:
					out[i] = sl.vals[i]
				}
			}
			if reused := len(sel) - len(need); reused > 0 {
				stats.ExprSlotReuses.Add(int64(reused))
			}
		}
		if len(need) > 0 {
			sl.prog(b, need, sl.vals)
			for _, i := range need {
				sl.stamp[i] = gen
				if b.anyErr && b.errs[i] != nil {
					sl.errs[i], sl.anyErr = b.errs[i], true
					continue
				}
				out[i] = sl.vals[i]
			}
		}
		st.release(m)
	}
}
