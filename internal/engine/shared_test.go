package engine

// Tests for shared subexpressions (DESIGN.md ADR-023): an operator that
// evaluates one subexpression for two occurrences must answer — values,
// kinds, row order, error text — what the reference executor answers
// evaluating every occurrence in place, wherever the occurrences sit.

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// sharedTestDB is groupTestDB plus a function that raises inside its body.
func sharedTestDB(t *testing.T, mode Mode, n int) *DB {
	t.Helper()
	db := groupTestDB(t, n)
	db.mode = mode
	if _, err := db.ExecScript(`CREATE FUNCTION inv (INTEGER) RETURNS INTEGER AS 'SELECT 1000 / $1' LANGUAGE SQL IMMUTABLE`); err != nil {
		t.Fatal(err)
	}
	return db
}

// sharedTerms are the subexpressions the generated statements repeat: plain
// arithmetic, an IMMUTABLE function with a planned body, NULL for some rows
// (k is NULL on every 11th, label on v % 7 >= 5), and four that raise — on one
// row (ids 1717 and 2500, the second inside a function body), on every row of
// a group (k = 3) and on every hundredth row under a CASE of its own.
var sharedTerms = []string{
	`(v * 3 + id)`,
	`twice(f)`,
	`CHAR_LENGTH(label(v % 7))`,
	`(k + v)`,
	`100 / (id - 1717)`,
	`inv(id - 2500)`,
	`v % (k - 3)`,
	`CASE WHEN v > 90 THEN 1 / (v - 95) ELSE v END`,
}

// sharedPlacements put a term where a short-circuit decides, row by row,
// whether it is reached: CASE arms, the right side of OR and AND, COALESCE
// tails, a strict call behind an argument that is NULL (label) or fails
// (id 17) first — and twice within one expression.
var sharedPlacements = []string{
	`%s`,
	`CASE WHEN v < 50 THEN %s ELSE 0 END`,
	`CASE WHEN b THEN 1 ELSE %s END`,
	`CASE WHEN (v < 30 OR %s > 5) THEN 1 ELSE 0 END`,
	`CASE WHEN (b AND %s IS NOT NULL) THEN v ELSE 2 END`,
	`COALESCE(k, %s)`,
	`COALESCE(k, m - 1, %s)`,
	`CHAR_LENGTH(CONCAT(label(v %% 7), %s))`,
	`CHAR_LENGTH(CONCAT(100 / (id - 17), %s))`,
	`(%[1]s * 2 - %[1]s)`,
}

// sharedShapes are a grouped projection's sites, the one operator that
// shares (few groups; many, with the failing row's group behind HAVING;
// equal sites; a first site that is computed and never evaluated, so what it
// raised must reach the second from the slot), its key and a site — and, as
// result checks, the repeats sharing does not reach: a projection's items,
// an item and a sort key, the conjuncts of one filter. %[1]s is the bare
// term, %[2]s–%[4]s three placements of it, %[5]s a WHERE conjunct that
// keeps every raising row out, or TRUE.
var sharedShapes = []string{
	`SELECT k, MAX(%[2]s), MIN(%[3]s), COUNT(%[4]s), SUM(%[2]s) FROM g WHERE %[5]s GROUP BY k`,
	`SELECT id %% 700 AS r, MAX(%[2]s), MIN(%[3]s), AVG(%[1]s) FROM g WHERE %[5]s GROUP BY id %% 700 HAVING r NOT IN (317, 400, 17) ORDER BY r`,
	`SELECT SUM(%[2]s), SUM(%[2]s), AVG(%[2]s), COUNT(DISTINCT %[3]s), COUNT(DISTINCT %[3]s), MAX(%[1]s) FROM g WHERE %[5]s`,
	`SELECT k, CASE WHEN COUNT(*) < 0 THEN SUM(%[1]s) ELSE 0 END, MAX(%[2]s), MIN(%[3]s) FROM g WHERE %[5]s GROUP BY k`,
	`SELECT COALESCE(%[1]s, 0) %% 7, MAX(%[2]s), COUNT(%[3]s) FROM g WHERE %[5]s GROUP BY COALESCE(%[1]s, 0) %% 7`,
	`SELECT id, %[2]s, %[3]s, %[1]s FROM g WHERE id %% 3 = 0 AND %[5]s ORDER BY id`,
	`SELECT id, %[2]s FROM g WHERE v < 40 AND %[5]s ORDER BY %[3]s DESC, %[1]s, id`,
	`SELECT COUNT(*), SUM(id) FROM g WHERE %[5]s AND (%[2]s > 10 OR v < 5) AND %[3]s < 100000 AND %[4]s IS NOT NULL`,
}

const sharedKeepOut = `(id NOT IN (17, 1717, 2500) AND v <> 95 AND (k IS NULL OR k <> 3))`

// sharedStatements draws n statements from the cross product, the same ones
// every run.
func sharedStatements(n int) []string {
	rng := rand.New(rand.NewSource(29))
	place := func(term string) string {
		return fmt.Sprintf(sharedPlacements[rng.Intn(len(sharedPlacements))], term)
	}
	out := make([]string, 0, n)
	for len(out) < n {
		term := sharedTerms[rng.Intn(len(sharedTerms))]
		where := "TRUE"
		if rng.Intn(2) == 0 {
			where = sharedKeepOut
		}
		out = append(out, fmt.Sprintf(sharedShapes[len(out)%len(sharedShapes)], term, place(term), place(term), place(term), where))
	}
	return out
}

// TestSharedExprDifferential: 240 generated statements, in production and in
// the evaluator check, at parallelism 1 and 4 over one-batch morsels,
// unlimited and under 64 KB (the spill merge re-enters evalArgs), are
// byte-identical to the reference executor. Production lowers slots and
// reads them; the two interpreting configurations never lower one.
func TestSharedExprDifferential(t *testing.T) {
	db := sharedTestDB(t, ModePostgres, 3000)
	db.SetSpillDir(t.TempDir())
	SetMorselSize(batchSize)
	defer SetMorselSize(0)
	stmts := sharedStatements(240)

	cfgReference.apply(db)
	db.SetMemoryLimit(0)
	db.Stats = Stats{}
	want := make([]string, len(stmts))
	raised := 0
	for i, q := range stmts {
		want[i] = execKey(db.QuerySQL(q))
		if strings.HasPrefix(want[i], "error: ") {
			raised++
			if !strings.Contains(want[i], "division by zero") && !strings.Contains(want[i], "modulo by zero") {
				t.Fatalf("reference %q: %s", q, want[i])
			}
		}
	}
	if raised < len(stmts)/5 || raised > len(stmts)*2/3 {
		t.Fatalf("%d of %d statements raise; the suite wants a good share of both outcomes", raised, len(stmts))
	}
	if st := db.Stats.Snapshot(); st.ExprSlots != 0 {
		t.Errorf("the reference executor lowered %d slots", st.ExprSlots)
	}
	for _, cfg := range checkedConfigs {
		cfg.apply(db)
		db.Stats = Stats{}
		for _, limit := range []int64{0, 64 << 10} {
			for _, par := range []int{1, 4} {
				db.SetParallelism(par)
				db.SetMemoryLimit(limit)
				for i, q := range stmts {
					if got := execKey(db.QuerySQL(q)); got != want[i] {
						t.Errorf("%s limit=%d par=%d %q:\ngot  %.300s\nwant %.300s", cfg.name, limit, par, q, got, want[i])
					}
				}
			}
		}
		st := db.Stats.Snapshot()
		if shares := st.ExprSlots > 0 && st.ExprSlotReuses > 0; shares != cfg.compile {
			t.Errorf("%s: %d slots lowered, %d row evaluations saved", cfg.name, st.ExprSlots, st.ExprSlotReuses)
		}
	}
}

// TestSharedExprAnalysis pins what the analysis shares, shape by shape, and
// that it is made once per plan: the second execution finds the first's.
func TestSharedExprAnalysis(t *testing.T) {
	db := sharedTestDB(t, ModePostgres, 200)
	for _, tc := range []struct {
		sql  string
		want []string
	}{
		// A chain written three times is one slot, not one per call inside
		// it; the product around it, written twice, is another. SUM and
		// COUNT of the chain are one site (ADR-047), so the lowering reaches
		// two of the chain's three occurrences.
		{`SELECT SUM(twice(twice(f))), AVG(twice(twice(f)) * v), MAX(twice(twice(f)) * v + 1), COUNT(twice(twice(f))) FROM g`,
			[]string{"group: 2x twice(twice(f))", "group: 2x (twice(twice(f)) * v)", "group: 1 equal aggregate sites folded"}},
		// What is inside a shared node and also outside it has its own slot.
		// (SUM and AVG of one argument are one site: MAX and MIN keep two.)
		{`SELECT SUM(twice(f) + 1), MAX(twice(f) + 1), MIN(twice(f)) FROM g`,
			[]string{"group: 2x (twice(f) + 1)", "group: 2x twice(f)"}},
		// Leaves, constants, parameters, subqueries and aggregates are not shared.
		{`SELECT SUM(v), MAX(v), SUM(1 + 2), MAX(1 + 2), SUM(v + (SELECT 1)), MAX(v + (SELECT 1)) FROM g`, nil},
		// Sites fold by family, DISTINCT flag and argument: SUM, AVG and
		// COUNT(x) are one family, MIN and MAX each one of their own.
		{`SELECT SUM(v), SUM(v), SUM(DISTINCT v), COUNT(v), k FROM g GROUP BY k HAVING SUM(v) > 0`,
			[]string{"group: 3 equal aggregate sites folded"}},
		{`SELECT SUM(v), AVG(v), COUNT(v), MIN(v), MAX(v), COUNT(*), COUNT(DISTINCT v), AVG(DISTINCT v) FROM g`,
			[]string{"group: 3 equal aggregate sites folded"}},
		// A group key and a site.
		{`SELECT (v + id) % 5, SUM((v + id) * 2) FROM g GROUP BY (v + id) % 5`, []string{"group: 2x (v + id)"}},
		// Equal is structural, byte for byte: another literal kind, another
		// spelling of the column or another operator is another expression.
		{`SELECT SUM(v + 1), AVG(v + 1.0), MAX(V + 1), MIN(v - 1), MAX(v + 1) FROM g`, []string{"group: 2x (v + 1)"}},
		{`SELECT SUM(v + 1), AVG(v + 1.0), COUNT(v + 1) FROM g`, []string{"group: 1 equal aggregate sites folded"}},
		// Block by block in subquery order, whatever order the plan keeps them in.
		{`SELECT SUM(v * 2), MAX(v * 2) FROM g WHERE id IN (SELECT SUM(v + 1) + MAX(v + 1) FROM g GROUP BY k)`,
			[]string{"group: 2x (v * 2)", "group: 2x (v + 1)"}},
	} {
		plan, err := db.PreparePlan(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.SharedExprs(); got != nil {
			t.Errorf("%s: analysed before it ran: %q", tc.sql, got)
		}
		first := map[*selAnalysis]*sharedExprs{}
		for run := 0; run < 2; run++ {
			if _, err := db.ExecPlanContext(context.Background(), plan); err != nil {
				t.Fatalf("%s: %v", tc.sql, err)
			}
			for i := 0; i < 100; i++ { // the plan keeps its blocks in a map
				if got := plan.SharedExprs(); !slices.Equal(got, tc.want) {
					t.Fatalf("%s shares\n     %q\nwant %q", tc.sql, got, tc.want)
				}
			}
			for _, a := range plan.analysis {
				if run == 0 {
					first[a] = a.shared
				} else if a.shared != first[a] {
					t.Errorf("%s: the second execution analysed again", tc.sql)
				}
			}
		}
	}
}

// TestSharedExprKeepsBodyExecutions: sharing never changes how many function
// bodies run. Where callUDF memoizes (IMMUTABLE, PostgreSQL-like) a slot
// saves memo probes, so cache hits drop and executions stay; on the
// System-C-like engine a call is not shared at all and every occurrence
// executes its body, as the paper's uncached tables count them.
func TestSharedExprKeepsBodyExecutions(t *testing.T) {
	const n, q = 500, `SELECT SUM(twice(f)), MAX(twice(f)), SUM(twice(f) + v), MIN((v + id) * 2), MAX((v + id) * 2) FROM g`
	for _, mode := range []Mode{ModePostgres, ModeSystemC} {
		db := sharedTestDB(t, mode, n)
		db.SetParallelism(1)
		var st [2]StatsSnapshot
		for i, cfg := range checkedConfigs {
			cfg.apply(db)
			db.Stats = Stats{}
			if _, err := db.QuerySQL(q); err != nil {
				t.Fatal(err)
			}
			st[i] = db.Stats.Snapshot()
		}
		prod, check := st[0], st[1]
		if prod.UDFCalls != check.UDFCalls {
			t.Errorf("%s: %d body executions sharing, %d evaluating every occurrence in place", mode, prod.UDFCalls, check.UDFCalls)
		}
		switch mode {
		case ModePostgres: // twice(f) and (v + id) * 2
			if prod.ExprSlots != 2 || prod.UDFCacheHits >= check.UDFCacheHits {
				t.Errorf("%s: %d slots, %d cache hits (%d without sharing)", mode, prod.ExprSlots, prod.UDFCacheHits, check.UDFCacheHits)
			}
		case ModeSystemC: // (v + id) * 2 alone
			if prod.ExprSlots != 1 || prod.UDFCalls != 3*n {
				t.Errorf("%s: %d slots, %d body executions for 3 occurrences over %d rows", mode, prod.ExprSlots, prod.UDFCalls, n)
			}
		}
	}
}

// TestSharedExprConcurrent: sessions executing one cached plan at once, each
// with parallel workers, find or make one analysis under Plan.mu and lower
// slots of their own; every execution answers the reference's rows. Run
// under -race in CI.
func TestSharedExprConcurrent(t *testing.T) {
	db := sharedTestDB(t, ModePostgres, 3000)
	SetMorselSize(batchSize)
	defer SetMorselSize(0)
	stmts := sharedStatements(len(sharedShapes))
	cfgReference.apply(db)
	want := make([]string, len(stmts))
	for i, q := range stmts {
		want[i] = execKey(db.QuerySQL(q))
	}
	cfgProduction.apply(db)
	db.SetParallelism(2)
	var wg sync.WaitGroup
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, q := range stmts {
					if got := execKey(db.QuerySQL(q)); got != want[i] {
						t.Errorf("%q:\ngot  %.300s\nwant %.300s", q, got, want[i])
					}
				}
			}
		}()
	}
	wg.Wait()
}
