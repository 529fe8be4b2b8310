package mth

import (
	"fmt"
	"testing"

	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/optimizer"
	"mtbase/internal/rewrite"
	"mtbase/internal/sqlast"
	"mtbase/internal/sqlparse"
)

// The wire-oltp statements (the benchmark module's workload of that name):
// prepared single-tenant reads, and bind writes to a tenant-specific table
// created for them.
const (
	seamEvent = `CREATE TABLE bench_event SPECIFIC (
		e_id INTEGER NOT NULL SPECIFIC,
		e_custkey INTEGER NOT NULL SPECIFIC,
		e_amount DECIMAL(15,2) NOT NULL COMPARABLE,
		e_note VARCHAR(40) NOT NULL COMPARABLE,
		CONSTRAINT pk_e PRIMARY KEY (e_id))`
	seamCustByKey = `SELECT c_custkey, c_name, c_acctbal, c_phone, c_mktsegment FROM customer WHERE c_custkey = ?`
	seamOrderCust = `SELECT o_orderkey, o_orderdate, o_totalprice, c_name, c_phone FROM orders, customer WHERE o_orderkey = ? AND o_custkey = c_custkey`
)

var seamWrites = []string{
	`INSERT INTO bench_event (e_id, e_custkey, e_amount, e_note) VALUES (?, ?, ?, ?)`,
	`UPDATE bench_event SET e_amount = ? WHERE e_id = ?`,
	`DELETE FROM bench_event WHERE e_id = ?`,
}

// TestRewriteDeterministic: the same MTSQL must rewrite to the same SQL
// text on every call — o3's partial aggregation once emitted its inner
// select list in map order, so the text changed from call to call. Every
// MT-H query at every level, under the all-tenant scope and the default one,
// is rewritten afresh (RewriteSQL bypasses the middleware's statement cache)
// ten times and the texts compared.
//
// It also holds the §3 seam (DESIGN.md ADR-027): the middleware hands the DBMS
// the statement its rewrite built, not that statement's text, so the text must
// be pure SQL for that statement — every rewritten statement prints a text that
// parses back to an equal one (sqlast.EqualStatement). Beside Q1–Q22 and Q15's
// CREATE VIEW, that covers the parameterized queries, the wire-oltp reads and
// bind writes (an INSERT is one statement per tenant of D′) at three scopes,
// and what the shard coordinator's fallback hands its replica at shards {2, 4}.
// A printer that drops the parentheses of an OR under an AND, or prints 0.001
// as 0.00, fails it.
func TestRewriteDeterministic(t *testing.T) {
	inst := paramInstance(t)
	admin, err := inst.Connect(ModellerTTID, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Exec(seamEvent); err != nil {
		t.Fatal(err)
	}
	for owner := int64(2); owner <= int64(inst.Cfg.Tenants); owner++ {
		conn, err := inst.Connect(owner, "")
		if err != nil {
			t.Fatal(err)
		}
		for _, priv := range []string{"INSERT", "UPDATE", "DELETE"} {
			if _, err := conn.Exec(fmt.Sprintf("GRANT %s ON bench_event TO 1", priv)); err != nil {
				t.Fatal(err)
			}
		}
	}
	reads := []string{seamCustByKey, seamOrderCust}
	for _, pq := range ParamQueries() {
		reads = append(reads, pq.SQL)
	}

	for _, scope := range []string{"IN ()", "", "IN (1, 3)"} {
		conn, err := inst.Connect(1, scope)
		if err != nil {
			t.Fatal(err)
		}
		for _, level := range optimizer.Levels {
			conn.SetOptLevel(level)
			where := fmt.Sprintf("scope=%q level=%v", scope, level)
			for _, text := range reads {
				sel, err := conn.RewriteSQL(text)
				if err != nil {
					t.Fatalf("%s: %v\n%s", where, err, text)
				}
				checkSeam(t, where, sel)
			}
			for _, text := range seamWrites {
				for _, st := range rewriteStatement(t, conn, text) {
					checkSeam(t, where, st)
				}
			}
			if scope == "IN (1, 3)" {
				continue
			}
			// The texts of the paper's SF 1, where Q11's fraction is 0.0001: a
			// literal two fractional digits cannot hold.
			for _, q := range Queries(1) {
				_, err := q.Run(func(sql string) (*engine.Result, error) {
					if sql != q.SQL {
						if st, _ := middleware.Parse(sql); st != nil {
							if _, isView := st.AST().(*sqlast.CreateView); isView {
								checkSeam(t, fmt.Sprintf("%s Q%d view", where, q.ID), rewriteStatement(t, conn, sql)[0])
							}
						}
						return conn.Exec(sql) // Q15's view
					}
					var first string
					for i := 0; i < 10; i++ {
						sel, err := conn.RewriteSQL(sql)
						if err != nil {
							t.Fatalf("%s Q%d: %v", where, q.ID, err)
						}
						if txt := sel.String(); i == 0 {
							first = txt
							checkSeam(t, fmt.Sprintf("%s Q%d", where, q.ID), sel)
						} else if txt != first {
							t.Fatalf("%s Q%d: rewrite %d differs from rewrite 0:\n%s\nvs\n%s", where, q.ID, i, txt, first)
						}
					}
					return nil, nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// The shard coordinator's fallback: the statement rewritten on the replica
	// under the explicit scope D′, which the replica's engine runs as is.
	fallbacks := map[int]bool{13: true, 15: true, 17: true, 20: true, 103: true, 104: true}
	for _, shards := range []int{2, 4} {
		cfg := shardTestConfig()
		sinst, err := LoadMTSharded(Generate(cfg), shards)
		if err != nil {
			t.Fatal(err)
		}
		if err := sinst.GrantReadTo(1); err != nil {
			t.Fatal(err)
		}
		sconn, err := sinst.Connect(1, "IN ()")
		if err != nil {
			t.Fatal(err)
		}
		rconn, err := sinst.Srv.Replica().Connect(1)
		if err != nil {
			t.Fatal(err)
		}
		onReplica := rconn.Scoped(&sqlast.SetScope{Simple: sinst.Srv.Replica().Tenants()})
		for _, level := range optimizer.Levels {
			onReplica.SetOptLevel(level)
			for _, q := range append(Queries(cfg.SF), StagedExtras()...) {
				if !fallbacks[q.ID] {
					continue
				}
				_, err := q.Run(func(sql string) (*engine.Result, error) {
					if sql != q.SQL {
						return sconn.Exec(sql)
					}
					sel, err := onReplica.RewriteSQL(sql)
					if err != nil {
						return nil, err
					}
					checkSeam(t, fmt.Sprintf("replica of %d shards, level=%v Q%d", shards, level, q.ID), sel)
					return nil, nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// checkSeam fails unless st prints a text that parses back to st.
func checkSeam(t *testing.T, where string, st sqlast.Statement) {
	t.Helper()
	text := st.String()
	back, err := sqlparse.ParseStatement(text)
	if err != nil || !sqlast.EqualStatement(back, st) {
		t.Errorf("%s: the rewritten statement's text does not parse back to it (%v):\n%s", where, err, text)
	}
}

// rewriteStatement rewrites a write or a CREATE VIEW the way the middleware's
// compile does, through the rewrite's exported entries: the statement under
// the D′ its table set prunes the session's scope to, a view's defining query
// optimized at the session's level. RewriteSQL covers queries.
func rewriteStatement(t *testing.T, conn *middleware.Conn, text string) []sqlast.Statement {
	t.Helper()
	st, err := middleware.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := conn.RewriteContextFor(st.Tables())
	if err != nil {
		t.Fatal(err)
	}
	var one sqlast.Statement
	switch ast := st.AST().(type) {
	case *sqlast.Insert:
		out, err := rewrite.Insert(ctx, ast)
		if err != nil {
			t.Fatal(err)
		}
		return out
	case *sqlast.Update:
		one, err = rewrite.Update(ctx, ast)
	case *sqlast.Delete:
		one, err = rewrite.Delete(ctx, ast)
	case *sqlast.CreateView:
		var view *sqlast.CreateView
		if view, err = rewrite.View(ctx, ast); err == nil {
			var q *sqlast.Select
			q, err = optimizer.Optimize(ctx, view.Sub, conn.OptLevel())
			one = &sqlast.CreateView{Name: view.Name, Sub: q}
		}
	default:
		t.Fatalf("%T is not rewritten", ast)
	}
	if err != nil {
		t.Fatal(err)
	}
	return []sqlast.Statement{one}
}
