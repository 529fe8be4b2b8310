package mth

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/optimizer"
	"mtbase/internal/sqltypes"
)

// Run executes the query — setup statements, the query, teardown — through
// exec, whichever tier's statement entry point that is.
func (q Query) Run(exec func(sql string) (*engine.Result, error)) (*engine.Result, error) {
	for _, s := range q.Setup {
		if _, err := exec(s); err != nil {
			return nil, fmt.Errorf("mth: Q%d setup: %w", q.ID, err)
		}
	}
	res, err := exec(q.SQL)
	for _, s := range q.Teardown {
		if _, terr := exec(s); terr != nil && err == nil {
			err = fmt.Errorf("mth: Q%d teardown: %w", q.ID, terr)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("mth: Q%d: %w", q.ID, err)
	}
	return res, nil
}

// RunOnPlain executes a query on the plain TPC-H baseline database.
func RunOnPlain(db *engine.DB, q Query) (*engine.Result, error) { return q.Run(db.ExecSQL) }

// RunOnMT executes a query through a middleware or sharded session.
func RunOnMT(conn middleware.Session, q Query) (*engine.Result, error) {
	return q.Run(func(sql string) (*engine.Result, error) { return conn.Exec(sql) })
}

// canonicalRows renders a result as a sorted multiset of rows for
// order-insensitive comparison; floats are normalized.
func canonicalRows(res *engine.Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		var sb strings.Builder
		for j, v := range row {
			if j > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(normalizeValue(v))
		}
		out[i] = sb.String()
	}
	sort.Strings(out)
	return out
}

func normalizeValue(v sqltypes.Value) string {
	switch v.K {
	case sqltypes.KindFloat:
		// Compare at 10 significant digits: enough to absorb float
		// reassociation across optimization levels (a few ulps), too few
		// to let a conversion applied to the wrong rows through.
		return fmt.Sprintf("%.10g", roundRel(v.F))
	case sqltypes.KindInt:
		return fmt.Sprintf("%d", v.I)
	default:
		return v.String()
	}
}

func roundRel(f float64) float64 {
	if f == 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return f
	}
	mag := math.Pow(10, math.Floor(math.Log10(math.Abs(f)))-11)
	return math.Round(f/mag) * mag
}

// Diff compares two results order-insensitively with float tolerance,
// returning "" when equal or a human-readable discrepancy.
func Diff(a, b *engine.Result) string {
	ra, rb := canonicalRows(a), canonicalRows(b)
	if len(ra) != len(rb) {
		return fmt.Sprintf("row counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			return fmt.Sprintf("row %d differs:\n  a: %s\n  b: %s", i, ra[i], rb[i])
		}
	}
	return ""
}

// Report is the outcome of validating one query at one optimization level.
type Report struct {
	QueryID int
	Level   optimizer.Level
	OK      bool
	Detail  string
}

// Validate implements §5's validation: with C = 1 (universal formats) and
// D = all tenants, every MT-H query must produce the plain TPC-H result.
// Because this generator derives both databases from one dataset with
// globally unique keys, the equality even holds for the customer-order
// join queries the paper excepts; the canonical rewrite remains the gold
// standard all optimization levels are additionally compared against.
func Validate(inst *Instance, plain *engine.DB, levels []optimizer.Level) ([]Report, error) {
	if err := inst.GrantReadTo(1); err != nil {
		return nil, err
	}
	conn, err := inst.Connect(1, "IN ()")
	if err != nil {
		return nil, err
	}
	var reports []Report
	for _, q := range Queries(inst.Cfg.SF) {
		want, err := RunOnPlain(plain, q)
		if err != nil {
			return nil, err
		}
		conn.SetOptLevel(optimizer.Canonical)
		gold, err := RunOnMT(conn, q)
		if err != nil {
			return nil, err
		}
		if d := Diff(want, gold); d != "" {
			reports = append(reports, Report{QueryID: q.ID, Level: optimizer.Canonical,
				Detail: "canonical vs plain TPC-H: " + d})
		} else {
			reports = append(reports, Report{QueryID: q.ID, Level: optimizer.Canonical, OK: true})
		}
		for _, level := range levels {
			if level == optimizer.Canonical {
				continue
			}
			conn.SetOptLevel(level)
			got, err := RunOnMT(conn, q)
			if err != nil {
				return nil, fmt.Errorf("Q%d at %s: %w", q.ID, level, err)
			}
			r := Report{QueryID: q.ID, Level: level, OK: true}
			if d := Diff(gold, got); d != "" {
				r.OK = false
				r.Detail = d
			}
			reports = append(reports, r)
		}
	}
	return reports, nil
}
