package mth

// The isolation invariant in its negative form (ROADMAP aim 3, DESIGN.md
// ADR-017): a client never sees — and never acts on — a row outside the
// privilege-pruned D′ of its statement, whichever slot of the statement names
// the table the privilege is missing on. The suites here run a hand-written
// statement per slot on the unsharded tier and at two shards under two
// placements, at all six optimization levels, against the same statement run
// after the rows outside D′ were physically deleted.

import (
	"fmt"
	"strings"
	"testing"

	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/mtsql"
	"mtbase/internal/optimizer"
	"mtbase/internal/shard"
)

const (
	isoModeller = 99
	isoMarkText = "zMARK" // sorts after every honest value, so MAX would pick it
	isoMarkNum  = "987654"
)

var isoDDL = []string{
	`CREATE TABLE Tenant (T_tenant_key INTEGER NOT NULL, T_currency_key INTEGER NOT NULL)`,
	`CREATE TABLE CurrencyTransform (CT_currency_key INTEGER NOT NULL,
		CT_to_universal DECIMAL(15,2) NOT NULL, CT_from_universal DECIMAL(15,2) NOT NULL)`,
	`CREATE FUNCTION currencyToUniversal (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
		AS 'SELECT CT_to_universal * $1 FROM Tenant, CurrencyTransform WHERE T_tenant_key = $2 AND T_currency_key = CT_currency_key'
		LANGUAGE SQL IMMUTABLE`,
	`CREATE FUNCTION currencyFromUniversal (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
		AS 'SELECT CT_from_universal * $1 FROM Tenant, CurrencyTransform WHERE T_tenant_key = $2 AND T_currency_key = CT_currency_key'
		LANGUAGE SQL IMMUTABLE`,
	`CREATE TABLE Pub SPECIFIC (p_id INTEGER NOT NULL COMPARABLE, p_name VARCHAR(25) COMPARABLE,
		p_amt DECIMAL(15,2) NOT NULL CONVERTIBLE @currencyToUniversal @currencyFromUniversal)`,
	`CREATE TABLE Secret SPECIFIC (s_id INTEGER NOT NULL COMPARABLE, s_val VARCHAR(25) NOT NULL COMPARABLE,
		s_amt DECIMAL(15,2) NOT NULL CONVERTIBLE @currencyToUniversal @currencyFromUniversal)`,
	`CREATE TABLE Risk SPECIFIC (r_id INTEGER NOT NULL COMPARABLE, r_div INTEGER NOT NULL COMPARABLE,
		r_big INTEGER NOT NULL COMPARABLE, r_txt VARCHAR(10) NOT NULL COMPARABLE)`,
	// Tenant 1 keeps its books in a currency of its own; the others in the
	// universal one, so the marker number survives every conversion.
	`INSERT INTO Tenant VALUES (0, 0), (1, 1), (2, 0), (3, 0)`,
	`INSERT INTO CurrencyTransform VALUES (0, 1.0, 1.0), (1, 1.1, 0.9090909090909091)`,
}

// isoRows is what each tenant loads through a session of its own. Tenants 2
// and 3 hold a marker in every column but the correlation key, and in Risk
// a value that raises: a zero divisor, the largest integer, which overflows
// when incremented, and text that casts to no number.
var isoRows = map[int64][]string{
	0: {`INSERT INTO Pub VALUES (1, 'a-one', 10)`,
		`INSERT INTO Secret VALUES (1, 'a-secret-1', 5)`,
		`INSERT INTO Risk VALUES (1, 5, 1, '5')`},
	1: {`INSERT INTO Pub VALUES (1, 'b-one', 30), (2, 'b-two', 40)`,
		`INSERT INTO Secret VALUES (1, 'b-secret-1', 7), (2, 'b-secret-2', 9)`,
		`INSERT INTO Risk VALUES (1, 7, 2, ' 7'), (2, 9, 3, '9 ')`},
	2: {`INSERT INTO Pub VALUES (1, 'zMARK-p1', 987654), (2, 'zMARK-p2', 987654), (3, 'zMARK-p3', 987654)`,
		`INSERT INTO Secret VALUES (1, 'zMARK-s1', 987654), (2, 'zMARK-s2', 987654), (3, 'zMARK-s3', 987654)`,
		isoRiskRow},
	3: {`INSERT INTO Pub VALUES (1, 'zMARK-q1', 987654), (2, 'zMARK-q2', 987654)`,
		`INSERT INTO Secret VALUES (1, 'zMARK-t1', 987654), (2, 'zMARK-t2', 987654)`,
		isoRiskRow},
}

// isoRiskRow is one raising Risk row of a tenant outside D′.
const isoRiskRow = `INSERT INTO Risk VALUES (1, 0, 9223372036854775807, 'zMARK')`

// isoTier is one way of standing the fixture up.
type isoTier struct {
	name   string
	shards int
	place  map[int64]int // tenant -> shard rank
}

var isoTiers = []isoTier{
	{name: "unsharded"},
	// D′ on one shard, the tenants outside it on the other.
	{name: "shards2-together", shards: 2, place: map[int64]int{0: 0, 1: 0, 2: 1, 3: 1}},
	// D′ split: every statement scatters, folds, stages or falls back, and
	// each shard also holds a tenant the client may not read.
	{name: "shards2-apart", shards: 2, place: map[int64]int{0: 0, 1: 1, 2: 0, 3: 1}},
}

// isoInstance is the fixture on one tier: four tenants, their rows and the
// grants given, behind the tier's Connect.
type isoInstance struct {
	connect func(int64) (middleware.Session, error)
}

func (in *isoInstance) session(t testing.TB, ttid int64, scope string, level optimizer.Level) middleware.Session {
	t.Helper()
	c, err := connectScoped(in.connect, ttid, scope)
	if err != nil {
		t.Fatal(err)
	}
	c.SetOptLevel(level)
	return c
}

// newIsoInstance builds the fixture. grants maps a tenant to the GRANT
// statements it issues; purge lists the tenants whose rows are physically
// deleted again after loading (by their owners, under their default scope).
func newIsoInstance(t testing.TB, tier isoTier, grants map[int64][]string, purge ...int64) *isoInstance {
	t.Helper()
	in := &isoInstance{}
	var servers []*middleware.Server
	var createTenant func(int64) error
	if tier.shards == 0 {
		srv := middleware.NewServer(engine.Open(engine.ModePostgres), middleware.WithDataModeller(isoModeller))
		servers, createTenant = []*middleware.Server{srv}, srv.CreateTenant
		in.connect = middleware.Connector(srv.Connect)
	} else {
		srv, err := shard.New(tier.shards, engine.ModePostgres, shard.WithDataModeller(isoModeller),
			shard.WithPlacement(shard.MapPlacement{Assign: tier.place, Fallback: shard.HashPlacement{N: tier.shards}}))
		if err != nil {
			t.Fatal(err)
		}
		servers, createTenant = append(srv.Shards(), srv.Replica()), srv.CreateTenant
		in.connect = middleware.Connector(srv.Connect)
	}
	for _, mw := range servers {
		if err := mw.Schema().Convs().Register(mtsql.ConvPair{
			Name: "currency", ToFunc: "currencyToUniversal", FromFunc: "currencyFromUniversal", Class: mtsql.ClassLinear,
		}); err != nil {
			t.Fatal(err)
		}
	}
	in.run(t, isoModeller, isoDDL...)
	for ttid := int64(0); ttid < 4; ttid++ {
		if err := createTenant(ttid); err != nil {
			t.Fatal(err)
		}
		in.run(t, ttid, isoRows[ttid]...)
		in.run(t, ttid, grants[ttid]...)
	}
	for _, ttid := range purge {
		in.run(t, ttid, `DELETE FROM Pub`, `DELETE FROM Secret`, `DELETE FROM Risk`)
	}
	return in
}

// run executes stmts as tenant ttid, under its default scope.
func (in *isoInstance) run(t testing.TB, ttid int64, stmts ...string) {
	t.Helper()
	c, err := in.connect(ttid)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stmts {
		if _, err := c.Exec(s); err != nil {
			t.Fatalf("tenant %d: %s: %v", ttid, s, err)
		}
	}
}

// ownData reads what a tenant holds, as that tenant and in its own format.
func (in *isoInstance) ownData(t testing.TB, ttid int64) string {
	t.Helper()
	c := in.session(t, ttid, "", optimizer.Canonical)
	var sb strings.Builder
	for _, q := range []string{
		`SELECT p_id, p_name, p_amt FROM Pub ORDER BY p_id, p_name`,
		`SELECT s_id, s_val, s_amt FROM Secret ORDER BY s_id, s_val`,
		`SELECT r_id, r_div, r_big, r_txt FROM Risk ORDER BY r_id, r_div`,
	} {
		sb.WriteString(outcomeKey(c.Query(q)))
	}
	return sb.String()
}

func hasMarker(s string) bool {
	return strings.Contains(s, isoMarkText) || strings.Contains(s, isoMarkNum)
}

// isoSlots places a reference to Secret — the table tenant 2 granted nothing
// on, while it granted everything on Pub — in each slot of a statement in
// turn. Every statement's D′ is therefore {0, 1}, and no row of tenants 2 and
// 3, of either table, may take part in it.
var isoSlots = []struct {
	slot, sql string
	dml       bool
}{
	{slot: "select item", sql: `SELECT p_name, (SELECT MAX(s_val) FROM Secret WHERE s_id = p_id) AS m FROM Pub ORDER BY p_name`},
	{slot: "WHERE", sql: `SELECT p_name, p_amt FROM Pub WHERE p_id IN (SELECT s_id FROM Secret WHERE s_val LIKE '%2') ORDER BY p_name`},
	{slot: "join ON", sql: `SELECT a.p_name AS l, b.p_name AS r FROM Pub a JOIN Pub b ON a.p_id = b.p_id AND a.p_id < (SELECT MAX(s_id) FROM Secret) ORDER BY l, r`},
	{slot: "joined table", sql: `SELECT p_name, s_val FROM Pub JOIN Secret ON s_id = p_id ORDER BY p_name, s_val`},
	{slot: "derived table", sql: `SELECT p_name, d.m FROM Pub, (SELECT s_id, MAX(s_val) AS m FROM Secret GROUP BY s_id) AS d WHERE d.s_id = p_id ORDER BY p_name`},
	{slot: "GROUP BY", sql: `SELECT COUNT(*) AS n FROM Pub GROUP BY (SELECT MAX(s_val) FROM Secret WHERE s_id = p_id) ORDER BY n`},
	{slot: "HAVING", sql: `SELECT p_id, COUNT(*) AS n FROM Pub GROUP BY p_id HAVING COUNT(*) < (SELECT COUNT(*) FROM Secret) ORDER BY p_id`},
	{slot: "ORDER BY", sql: `SELECT p_name FROM Pub ORDER BY (SELECT MAX(s_val) FROM Secret WHERE s_id = p_id) DESC, p_name`},
	{slot: "ORDER BY key outside the select list", sql: `SELECT p_name FROM Pub, Secret WHERE s_id = p_id ORDER BY s_amt DESC, p_amt, p_name`},
	{slot: "UPDATE SET", dml: true, sql: `UPDATE Pub SET p_name = (SELECT MAX(s_val) FROM Secret WHERE s_id = p_id)`},
	{slot: "UPDATE WHERE", dml: true, sql: `UPDATE Pub SET p_name = 'hit', p_amt = 1 WHERE p_id IN (SELECT s_id FROM Secret WHERE s_val LIKE '%2')`},
	{slot: "DELETE WHERE", dml: true, sql: `DELETE FROM Pub WHERE EXISTS (SELECT s_id FROM Secret WHERE s_id = p_id AND s_val LIKE '%1')`},
	{slot: "INSERT SELECT source", dml: true, sql: `INSERT INTO Pub (p_id, p_name, p_amt) SELECT s_id + 100, s_val, s_amt FROM Secret`},
}

// isoGrants: tenant 1 lets the client do everything; tenant 2 everything on
// Pub and nothing on Secret — the partial grant that a forgotten slot turns
// into a hole; tenant 3 nothing at all.
var isoGrants = map[int64][]string{
	1: {`GRANT READ, INSERT, UPDATE, DELETE ON Pub TO 0`, `GRANT READ, INSERT, UPDATE, DELETE ON Secret TO 0`,
		`GRANT READ, INSERT, UPDATE, DELETE ON Risk TO 0`},
	2: {`GRANT READ, INSERT, UPDATE, DELETE ON Pub TO 0`},
}

func TestIsolationEverySlot(t *testing.T) {
	for _, level := range optimizer.Levels {
		unsharded := make(map[string]string) // slot -> outcome on the unsharded tier
		for _, tier := range isoTiers {
			for _, tc := range isoSlots {
				t.Run(fmt.Sprintf("%s/%s/%s", tier.name, level, tc.slot), func(t *testing.T) {
					full := newIsoInstance(t, tier, isoGrants)
					pruned := newIsoInstance(t, tier, isoGrants, 2, 3)
					checkIsoSlot(t, full, pruned, tier, level, tc.slot, tc.sql, tc.dml, unsharded)
				})
			}
		}
	}
}

// checkIsoSlot runs sql as tenant 0 under SET SCOPE = "IN ()" at level on
// full and on pruned, the same fixture after the rows outside D′ were
// deleted, and fails unless the outcomes — rows or error, and after a write
// what the owners in D′ hold — are equal, nothing outside D′ was written, no
// marker came out, and a sharded tier answers as the unsharded one did
// (unsharded maps a slot to that tier's outcome).
func checkIsoSlot(t *testing.T, full, pruned *isoInstance, tier isoTier, level optimizer.Level, slot, sql string, dml bool, unsharded map[string]string) {
	t.Helper()
	outside := full.ownData(t, 2) + full.ownData(t, 3)
	got := outcomeKey(full.session(t, 0, "IN ()", level).Query(sql))
	want := outcomeKey(pruned.session(t, 0, "IN ()", level).Query(sql))
	if dml {
		got = dmlOutcome(full.session(t, 0, "IN ()", level).Exec(sql))
		want = dmlOutcome(pruned.session(t, 0, "IN ()", level).Exec(sql))
		for _, owner := range []int64{0, 1} {
			got += full.ownData(t, owner)
			want += pruned.ownData(t, owner)
		}
		if after := full.ownData(t, 2) + full.ownData(t, 3); after != outside {
			t.Errorf("rows outside D′ were written\nbefore:\n%s\nafter:\n%s", outside, after)
		}
	}
	if got != want {
		t.Errorf("%s\nwith the rows outside D′ present:\n%s\nwith them physically deleted:\n%s", sql, got, want)
	}
	if hasMarker(got) {
		t.Errorf("%s\na marker value of a tenant outside D′ came out:\n%s", sql, got)
	}
	// The unsharded tier is the oracle of the sharded ones, except where a
	// shard refuses what it cannot split.
	oracle, ran := unsharded[slot]
	switch {
	case tier.shards == 0:
		unsharded[slot] = got
	case ran && !strings.Contains(got, "cross-shard tenant set is not supported") && got != oracle:
		t.Errorf("%s\nsharded:\n%s\nunsharded:\n%s", sql, got, oracle)
	}
}

// isoRaisingSlots read Risk, on which tenants 2 and 3 granted nothing, through
// a conjunct that raises on their rows (ROADMAP item 14): D′ is {0, 1}, so
// the statement must answer as if those rows did not exist, where a row
// outside D′ deciding its fate shows as an error. Each shape is one way a
// conjunct list becomes a filter (DESIGN.md ADR-043).
var isoRaisingSlots = []struct {
	slot, sql string
	dml       bool
}{
	{slot: "WHERE", sql: `SELECT r_id FROM Risk WHERE 100 / r_div > 0 ORDER BY r_id`},
	{slot: "WHERE overflow", sql: `SELECT r_id, r_big FROM Risk WHERE r_big + 1 > 0 ORDER BY r_id, r_big`},
	{slot: "WHERE cast", sql: `SELECT r_id, CAST(r_txt AS INTEGER) FROM Risk WHERE CAST(r_txt AS DECIMAL) > 0 ORDER BY r_id`},
	{slot: "join ON, tenant partner", sql: `SELECT r.r_id, p.p_name FROM Risk r JOIN Pub p ON r.r_id = p.p_id AND 100 / r.r_div > 0 ORDER BY r.r_id, p.p_name`},
	{slot: "join ON, global partner", sql: `SELECT r.r_id, t.T_currency_key FROM Risk r JOIN Tenant t ON r.r_id = t.T_tenant_key AND r.r_big + 1 > 0 ORDER BY r.r_id, t.T_currency_key`},
	{slot: "LEFT JOIN ON, null-supplying side", sql: `SELECT p.p_name, r.r_id FROM Pub p LEFT JOIN Risk r ON r.r_id = p.p_id AND 100 / r.r_div > 0 ORDER BY p.p_name, r.r_id`},
	{slot: "EXISTS", sql: `SELECT p_name FROM Pub WHERE EXISTS (SELECT 1 FROM Risk WHERE r_id = p_id AND 100 / r_div > 0) ORDER BY p_name`},
	{slot: "IN subquery", sql: `SELECT p_name FROM Pub WHERE p_id IN (SELECT r_id FROM Risk WHERE r_big + 1 > 0) ORDER BY p_name`},
	{slot: "point probe", sql: `SELECT r_id, r_div FROM Risk WHERE r_id = 1 AND 100 / r_div > 0 ORDER BY r_id, r_div`},
	{slot: "UPDATE WHERE", dml: true, sql: `UPDATE Risk SET r_big = r_big * 2 WHERE 100 / r_div > 0`},
	{slot: "DELETE WHERE", dml: true, sql: `DELETE FROM Risk WHERE r_big + 1 > 2`},
}

// TestIsolationEverySlotRaising is TestIsolationEverySlot over
// isoRaisingSlots, once with one raising row per tenant outside D′ and once
// with ten, so that D′'s rows fall below 1/indexJoinShare of Risk's heap and
// the ttid range serves the scan (ADR-026): the outcome must not depend on
// the access path.
func TestIsolationEverySlotRaising(t *testing.T) {
	for _, outsideRows := range []int{1, 10} {
		for _, level := range optimizer.Levels {
			unsharded := make(map[string]string)
			for _, tier := range isoTiers {
				for _, tc := range isoRaisingSlots {
					t.Run(fmt.Sprintf("%d/%s/%s/%s", outsideRows, tier.name, level, tc.slot), func(t *testing.T) {
						full := newIsoInstance(t, tier, isoGrants)
						for _, ttid := range []int64{2, 3} {
							for range outsideRows - 1 {
								full.run(t, ttid, isoRiskRow)
							}
						}
						pruned := newIsoInstance(t, tier, isoGrants, 2, 3)
						checkIsoSlot(t, full, pruned, tier, level, tc.slot, tc.sql, tc.dml, unsharded)
					})
				}
			}
		}
	}
}

// firstColumn is a result's first column, comma-separated, or its error.
func firstColumn(res *engine.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	vals := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		vals[i] = row[0].String()
	}
	return strings.Join(vals, ",")
}

func dmlOutcome(res *engine.Result, err error) string {
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	return fmt.Sprintf("affected %d\n", res.Affected)
}

// TestIsolationRepros pins the three statements ISSUE 22 reproduced against
// Pub and Secret (the fourth, an ordering by a convertible key, lives beside
// the running example in internal/middleware): tenant 1 grants the client
// READ and UPDATE on Pub and nothing on Secret, so under SET SCOPE = "IN ()"
// every statement naming both tables has D′ = {0}.
func TestIsolationRepros(t *testing.T) {
	grants := map[int64][]string{1: {`GRANT READ ON Pub TO 0`, `GRANT UPDATE ON Pub TO 0`}}
	const orderBy = `SELECT p_name FROM Pub ORDER BY (SELECT MAX(s_val) FROM Secret WHERE s_id = p_id) DESC, p_name`
	for _, tier := range isoTiers {
		for _, level := range optimizer.Levels {
			t.Run(fmt.Sprintf("%s/%s", tier.name, level), func(t *testing.T) {
				in := newIsoInstance(t, tier, grants)
				c := in.session(t, 0, "IN ()", level)

				// (2) ORDER BY: D′ is pruned by Secret, and the nested block is
				// filtered like every other.
				if got := firstColumn(c.Query(orderBy)); got != "a-one" {
					t.Errorf("ORDER BY subquery over Secret: got %s, want a-one", got)
				}
				if level == optimizer.Canonical {
					rw, err := c.RewriteSQL(orderBy)
					if err != nil {
						t.Fatal(err)
					}
					if txt := rw.String(); strings.Count(txt, "ttid IN (0)") != 2 {
						t.Errorf("rewritten text must filter Pub and the nested Secret block by D′ = {0}:\n%s", txt)
					}
				}
				// (3) GROUP BY: tenant 1's Pub rows do not count.
				if got := firstColumn(c.Query(`SELECT COUNT(*) FROM Pub GROUP BY (SELECT MAX(s_val) FROM Secret WHERE s_id = p_id)`)); got != "1" {
					t.Errorf("GROUP BY subquery over Secret: got %s, want 1", got)
				}
				// (1) UPDATE: only the client's own row is written, and nothing
				// of tenant 1's Secret becomes readable through Pub.
				res, err := c.Exec(`UPDATE Pub SET p_name = (SELECT MAX(s_val) FROM Secret WHERE s_id = p_id)`)
				if err != nil || res.Affected != 1 {
					t.Fatalf("UPDATE with a subquery over Secret: affected %v, err %v; want 1 row", res, err)
				}
				if got := firstColumn(c.Query(`SELECT p_name FROM Pub ORDER BY p_name`)); got != "a-secret-1,b-one,b-two" {
					t.Errorf("Pub after the UPDATE: got %s, want a-secret-1,b-one,b-two", got)
				}
			})
		}
	}
}
