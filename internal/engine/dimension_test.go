package engine

// Tests for the dimension join (DESIGN.md ADR-034): a join chain whose
// greedy sequence ends in a run of small base tables pre-joins the run into
// one build side and probes it once per stream row — and must answer exactly
// what the reference executor answers, values, kinds, row order and error
// text, whether the run was pre-joined or stayed per member.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"mtbase/internal/sqltypes"
)

// dimensionDB is a fact table and meta tables in the shape o4 joins: fact
// rows carry a tenant key; ten maps a tenant to a currency and a phone key
// (tenant 3 twice: two matches for its rows), cur has two rates for currency
// 2 and a z that is 0 on currency 4's rate, ph holds phone prefixes, one is
// an unlinked three-row table, wide is small enough to be a member but
// crossed with ten outgrows a batch, and fan holds 300 rows for each of the
// keys 0 and 1.
func dimensionDB(t *testing.T) *DB {
	t.Helper()
	db := Open(ModePostgres)
	if _, err := db.ExecScript(`
		CREATE TABLE fact (id INTEGER NOT NULL, tk INTEGER, amt DECIMAL(15,2) NOT NULL, phone VARCHAR NOT NULL, ck INTEGER NOT NULL);
		CREATE TABLE ten (tk INTEGER NOT NULL, ck INTEGER, pk INTEGER NOT NULL);
		CREATE TABLE cur (ck INTEGER NOT NULL, rate DECIMAL(15,4) NOT NULL, z INTEGER NOT NULL);
		CREATE TABLE ph (pk INTEGER NOT NULL, prefix VARCHAR NOT NULL);
		CREATE TABLE one (id INTEGER NOT NULL, v INTEGER NOT NULL);
		CREATE TABLE wide (w INTEGER NOT NULL);
		CREATE TABLE fan (g INTEGER NOT NULL, v INTEGER NOT NULL)`); err != nil {
		t.Fatal(err)
	}
	var fact, ten, cur, ph, one, wide, fan [][]sqltypes.Value
	for i := 0; i < 3000; i++ {
		tk := sqltypes.NewInt(int64(i % 11)) // tenant 10 has no ten row
		if i%97 == 5 {
			tk = sqltypes.Null
		}
		fact = append(fact, []sqltypes.Value{sqltypes.NewInt(int64(i)), tk, sqltypes.NewFloat(float64(i%500) + 0.25),
			sqltypes.NewString(fmt.Sprintf("%02d-%03d", i%7, i%1000)), sqltypes.NewInt(int64(i % 6))})
	}
	for tk := 0; tk < 10; tk++ {
		ck := sqltypes.NewInt(int64(tk % 5))
		if tk == 7 {
			ck = sqltypes.Null
		}
		ten = append(ten, []sqltypes.Value{sqltypes.NewInt(int64(tk)), ck, sqltypes.NewInt(int64(tk % 4))})
	}
	ten = append(ten, []sqltypes.Value{sqltypes.NewInt(3), sqltypes.NewInt(2), sqltypes.NewInt(1)})
	for ck := 0; ck < 5; ck++ {
		z := int64(1)
		if ck == 4 {
			z = 0
		}
		cur = append(cur, []sqltypes.Value{sqltypes.NewInt(int64(ck)), sqltypes.NewFloat(1 + float64(ck)/8), sqltypes.NewInt(z)})
	}
	cur = append(cur, []sqltypes.Value{sqltypes.NewInt(2), sqltypes.NewFloat(0.5), sqltypes.NewInt(1)})
	for pk := 0; pk < 4; pk++ {
		ph = append(ph, []sqltypes.Value{sqltypes.NewInt(int64(pk)), sqltypes.NewString(fmt.Sprintf("+%d", pk+1))})
	}
	for id := 0; id < 3; id++ {
		one = append(one, []sqltypes.Value{sqltypes.NewInt(int64(id)), sqltypes.NewInt(int64(2 * id))})
	}
	for w := 0; w < 200; w++ {
		wide = append(wide, []sqltypes.Value{sqltypes.NewInt(int64(w))})
	}
	for i := 0; i < 600; i++ {
		fan = append(fan, []sqltypes.Value{sqltypes.NewInt(int64(i % 2)), sqltypes.NewInt(int64(i))})
	}
	for name, rows := range map[string][][]sqltypes.Value{"fact": fact, "ten": ten, "cur": cur, "ph": ph, "one": one, "wide": wide, "fan": fan} {
		db.Table(name).BulkLoad(rows)
	}
	return db
}

var dimensionShapes = []struct {
	name, sql string
	wantErr   string
	dim       int64 // dimensions production builds, serial and uncapped
	hashed    int64 // and the rows its joins hash, where the test pins them (0: not pinned)
	scanned   int64 // and the base-table rows it reads, where the test pins them (0: not pinned)
}{
	{name: "o4's conversion: the client's own tenant and the row's, N:M at ten and cur",
		sql: `SELECT f.id, f.amt * c1.rate / c2.rate, t2.tk FROM fact f, ten t1, cur c1, ten t2, cur c2
			WHERE t1.tk = f.tk AND t1.ck = c1.ck AND t2.tk = 1 AND t2.ck = c2.ck AND f.id % 3 = 0`,
		dim: 1},
	{name: "two members linked through the stream only: t1.tk = f.tk = t2.tk",
		sql: `SELECT f.id, c.rate, p.prefix, t1.pk + t2.pk FROM fact f, ten t1, cur c, ten t2, ph p
			WHERE t1.tk = f.tk AND t1.ck = c.ck AND t2.tk = f.tk AND t2.pk = p.pk AND f.amt > 100`,
		// t2 is keyed on t1 through the stream: the pre-join holds a row per
		// tenant and currency match, not per pair of tenants.
		dim: 1, hashed: 15},
	{name: "the dimension's first member filtered by its own conjunct",
		sql: `SELECT f.id, t.pk, c.rate FROM fact f, ten t, cur c WHERE t.tk = f.tk AND t.pk <> 2 AND t.ck = c.ck AND f.id < 1000`,
		dim: 1},
	{name: "a later member equated twice to one stream column no earlier member holds",
		sql: `SELECT f.id, t.pk, c.rate FROM fact f, ten t, cur c WHERE t.tk = f.tk AND c.ck = f.ck AND c.z = f.ck`,
		dim: 1},
	{name: "a cross-product member in mid-run and at its end",
		sql: `SELECT f.id, o.v, t.ck, o2.id FROM fact f, ten t, one o, ph p, one o2 WHERE t.tk = f.tk AND o.v = p.pk AND f.id < 900`,
		dim: 1},
	{name: "grouped over the run, residual across stream and members",
		sql: `SELECT t.ck, COUNT(*), SUM(f.amt * c.rate) FROM fact f, ten t, cur c
			WHERE t.tk = f.tk AND t.ck = c.ck AND f.amt * c.rate > 200 GROUP BY t.ck`,
		dim: 1},
	{name: "a large table between stream and run: the dimension join fills the reserved tail",
		sql: `SELECT f.id, g.id, t.pk, p.prefix FROM fact f, fact g, ten t, ph p WHERE g.id = f.id + 1 AND t.tk = g.tk AND t.pk = p.pk AND f.id < 400`,
		dim: 1},
	{name: "a member's own conjunct raises",
		sql:     `SELECT f.id FROM fact f, ten t, cur c WHERE t.tk = f.tk AND t.ck = c.ck AND 10 / c.z > 1`,
		wantErr: "division by zero", dim: 0},
	{name: "a member's raising conjunct no row of its own reaches",
		sql: `SELECT f.id, c.rate FROM fact f, ten t, cur c WHERE t.tk = f.tk AND t.ck = c.ck AND c.ck < 4 AND 10 / c.z > 1`,
		dim: 1},
	// The chain reads fact's 3 000 rows, the 10 rows of ten its stream's keys
	// reach and wide's 200 — and nothing for a pre-join.
	{name: "a cross product past a batch, 11 x 200 rows: refused before it runs, the chain stays per member",
		sql: `SELECT f.id, w.w FROM fact f, ten t, wide w WHERE t.tk = f.tk AND f.id < 10`,
		dim: 0, scanned: 3210},
	{name: "keys that fan out past a batch, 7 x 300 rows: the pre-join is dropped after a batch",
		sql: `SELECT f.id, t.tk, n.v FROM fact f, ten t, fan n WHERE t.tk = f.tk AND n.g = t.pk AND f.id < 10`,
		dim: 0},
	{name: "an index-probed driving source: one candidate, the chain stays per member",
		sql: `SELECT f.id, c.rate, t.pk FROM fact f, ten t, cur c WHERE f.id = 3 AND t.tk = f.tk AND t.ck = c.ck`,
		dim: 0},
	{name: "a one-member tail stays a join",
		sql: `SELECT f.id, g.amt, t.ck FROM fact f, ten t, fact g WHERE t.tk = f.tk AND g.id = t.pk`,
		dim: 0},
}

// TestDimensionDifferential: every shape answers what the reference answers,
// row order included (no ORDER BY), in production and the evaluator check,
// at parallelism 1, 2 and 8 and under a 64 KB cap; production builds the
// dimensions the shape says, serial or parallel, and none under the cap.
func TestDimensionDifferential(t *testing.T) {
	SetMorselSize(1)
	defer SetMorselSize(0)
	db := dimensionDB(t)
	db.SetSpillDir(t.TempDir())
	defer cfgProduction.apply(db)
	run := func(sql string) string {
		p, err := db.PreparePlan(sql)
		if err != nil {
			return execKey(nil, err)
		}
		return execKey(db.ExecPlanContext(context.Background(), p))
	}
	cfgReference.apply(db)
	db.SetParallelism(1)
	db.SetMemoryLimit(0)
	want := make([]string, len(dimensionShapes))
	for i, tc := range dimensionShapes {
		want[i] = run(tc.sql)
		if isErr := strings.HasPrefix(want[i], "error: "); isErr != (tc.wantErr != "") || !strings.Contains(want[i], tc.wantErr) {
			t.Fatalf("reference %s: %.300s (want error %q)", tc.name, want[i], tc.wantErr)
		}
		if tc.wantErr == "" && strings.Count(want[i], "\n") < 3 {
			t.Fatalf("reference %s: under two rows — the shape checks nothing", tc.name)
		}
	}
	for _, limit := range []int64{0, 64 << 10} {
		for _, cfg := range checkedConfigs {
			for _, par := range []int{1, 2, 8} {
				cfg.apply(db)
				db.SetParallelism(par)
				db.SetMemoryLimit(limit)
				for i, tc := range dimensionShapes {
					db.Stats = Stats{}
					if got := run(tc.sql); got != want[i] {
						t.Errorf("limit=%d %s par=%d %s:\ngot  %.300s\nwant %.300s", limit, cfg.name, par, tc.name, got, want[i])
					}
					wantDim := tc.dim
					if limit > 0 {
						wantDim = 0
					}
					if n := db.Stats.DimensionBuilds.Load(); n != wantDim {
						t.Errorf("limit=%d %s par=%d %s: DimensionBuilds = %d, want %d", limit, cfg.name, par, tc.name, n, wantDim)
					}
					pinned := limit == 0 && par == 1 && cfg == cfgProduction
					if n := db.Stats.JoinBuildRows.Load(); pinned && tc.hashed > 0 && n != tc.hashed {
						t.Errorf("%s: JoinBuildRows = %d, want %d", tc.name, n, tc.hashed)
					}
					if n := db.Stats.ScanRows.Load(); pinned && tc.scanned > 0 && n != tc.scanned {
						t.Errorf("%s: ScanRows = %d, want %d", tc.name, n, tc.scanned)
					}
				}
			}
		}
	}
}
