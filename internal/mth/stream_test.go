package mth

// Differential acceptance suite for the pull-based operator executor: every
// MT-H query (the full Q1–Q22 shape spread — joins, grouping, ORDER BY,
// DISTINCT, correlated and uncorrelated subqueries, EXISTS/IN, conversion
// UDFs) must produce byte-identical results in the production and
// evaluator-check configurations, serial and parallel, and on the reference
// executor (engine DESIGN.md ADR-010), across the optimization levels.

import (
	"fmt"
	"strings"
	"testing"

	"mtbase/internal/engine"
	"mtbase/internal/optimizer"
)

// exactKey renders a result order- and type-sensitively: the differential
// claim is byte identity, not multiset equality.
func exactKey(res *engine.Result) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Cols, "|"))
	sb.WriteByte('\n')
	for _, row := range res.Rows {
		for j, v := range row {
			if j > 0 {
				sb.WriteByte('|')
			}
			fmt.Fprintf(&sb, "%v:%s", v.K, v.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestStreamDifferentialQ1toQ22 is the acceptance gate for the operator
// tree and for morsel-driven parallel execution at once: every MT-H query
// at canonical, O3 and O4 runs once on the reference executor (materializing,
// interpreted, serial), and then on the operator tree with compiled kernels
// and with the lifted interpreter, at parallelism 1 and 8 — all four must
// match the reference byte for byte. The morsel size is shrunk so the
// parallel scan, aggregate, join-build and sort paths all engage on the
// small differential dataset. StagedExtras ride along: Q22 is empty at every
// test scale factor (every generated customer has an order), so Q101 is the
// MT-H anti-join whose NOT EXISTS answers both ways here. Tenant 1's formats
// are the universal ones, so converting a result back to its client's
// formats is the identity there; the C ≠ 1 arm runs as tenant 2, whose
// currency and phone formats are its own, at canonical, where every
// conversion is a UDF call through the batch call kernel (DESIGN.md ADR-037),
// and at O4, whose grouped output clauses keep the client conversions.
func TestStreamDifferentialQ1toQ22(t *testing.T) {
	engine.SetMorselSize(1)
	defer engine.SetMorselSize(0)
	cfg := Config{SF: 0.002, Tenants: 3, Dist: Uniform, Seed: 7, Mode: engine.ModePostgres}
	d := Generate(cfg)
	if d.ToUniversalRate[2] == 1.0 || d.PhonePrefix[2] == "" {
		t.Fatalf("tenant 2 must not have universal formats: rate=%v prefix=%q", d.ToUniversalRate[2], d.PhonePrefix[2])
	}
	inst, err := LoadMT(d)
	if err != nil {
		t.Fatal(err)
	}
	db := inst.Srv.DB()
	defer db.SetParallelism(0)
	defer db.SetStreamExec(true)
	defer db.SetCompileExprs(true)

	for _, arm := range []struct {
		client int64
		levels []optimizer.Level
	}{
		{1, []optimizer.Level{optimizer.Canonical, optimizer.O3, optimizer.O4}},
		{2, []optimizer.Level{optimizer.Canonical, optimizer.O4}},
	} {
		if err := inst.GrantReadTo(arm.client); err != nil {
			t.Fatal(err)
		}
		conn, err := inst.Connect(arm.client, "IN ()")
		if err != nil {
			t.Fatal(err)
		}
		for _, level := range arm.levels {
			conn.SetOptLevel(level)
			for _, q := range append(Queries(cfg.SF), StagedExtras()...) {
				db.SetStreamExec(false)
				reference, err := RunOnMT(conn, q)
				if err != nil && q.ID <= 22 {
					t.Fatalf("C=%d level=%v Q%d reference: %v", arm.client, level, q.ID, err)
				}
				want := outcomeKey(reference, err)
				db.SetStreamExec(true)
				for _, compiled := range []bool{true, false} {
					db.SetCompileExprs(compiled)
					for _, par := range []int{1, 8} {
						db.SetParallelism(par)
						got, err := RunOnMT(conn, q)
						if err != nil && q.ID <= 22 {
							t.Fatalf("C=%d level=%v compiled=%v par=%d Q%d: %v", arm.client, level, compiled, par, q.ID, err)
						}
						if outcomeKey(got, err) != want {
							t.Errorf("C=%d level=%v compiled=%v par=%d Q%d: operator tree differs from the reference executor",
								arm.client, level, compiled, par, q.ID)
						}
					}
				}
			}
		}
	}
}

// TestStreamCursorMatchesResult drains the middleware cursor for the
// conversion-heavy queries and compares against the materialized result —
// the end-to-end path mtsh streams through.
func TestStreamCursorMatchesResult(t *testing.T) {
	cfg := Config{SF: 0.002, Tenants: 3, Dist: Uniform, Seed: 7, Mode: engine.ModePostgres}
	inst, err := LoadMT(Generate(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.GrantReadTo(1); err != nil {
		t.Fatal(err)
	}
	conn, err := inst.Connect(1, "IN ()")
	if err != nil {
		t.Fatal(err)
	}
	conn.SetOptLevel(optimizer.O4)
	for _, id := range []int{1, 6, 22} {
		q, err := QueryByID(cfg.SF, id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunOnMT(conn, q)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := conn.QueryRows(q.SQL)
		if err != nil {
			t.Fatalf("Q%d cursor: %v", id, err)
		}
		got, err := rows.Collect()
		if err != nil {
			t.Fatalf("Q%d collect: %v", id, err)
		}
		if exactKey(got) != exactKey(want) {
			t.Errorf("Q%d: cursor differs from materialized result", id)
		}
	}
}
