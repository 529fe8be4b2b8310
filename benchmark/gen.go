package main

// Seeded statement generators. The program under test only ever sees the
// statements produced here; the same seed yields the same byte stream.
//
// Three sources:
//   - fixedKinds: the validation-literal MT-H texts of mth.Queries, cycled
//     (xt-analytic, xt-canonical, shard-scatter) — caches hit by design;
//   - compilePool: the 22 MT-H templates with TPC-H-qgen-style substitution
//     literals, more distinct texts than any statement cache holds
//     (mtsql-compile) — caches miss by design;
//   - oltpGen: the wire-oltp 80:20 read/write mix with fresh binds.

import (
	"fmt"
	"math/rand"
	"strings"

	"mtbase/internal/mth"
	"mtbase/internal/sqltypes"
)

// stmt is one generated statement.
type stmt struct {
	kind    string
	kindIdx int
	id      int // index into the workload's distinct-statement table; -1 for writes
	sess    int // index into the workload's sessions (tenant + scope)
	text    string
	args    []any
	write   bool
	ordered bool // the text has a top-level ORDER BY: the digest is order-aware
}

// generator yields client c's i-th statement. Implementations are
// deterministic in (seed, c, i); each client calls next with increasing i
// from its own goroutine.
type generator interface {
	// distinct lists every read statement next can return, ids 0..n-1.
	distinct() []*stmt
	next(c, i int) *stmt
}

func kindName(id int) string { return fmt.Sprintf("q%02d", id) }

func hasOrderBy(sql string) bool {
	// Top-level ORDER BY of the MT-H texts always sits after the last
	// closing parenthesis; sub-selects in this workload never order.
	tail := sql[strings.LastIndex(sql, ")")+1:]
	return strings.Contains(tail, "ORDER BY")
}

// ---------------------------------------------------------------- fixed kinds

// cycleGen sends a fixed list of statements in cycles, each cycle in a
// fresh seeded order (the single-client analytic workloads). Every kind
// runs once per cycle; the changing order keeps a periodic cost of the
// program — a garbage collection every so many allocated bytes — from
// always landing on the same kind.
type cycleGen struct {
	stmts []*stmt
	r     *rand.Rand
	order []int
}

func (g *cycleGen) distinct() []*stmt { return g.stmts }

func (g *cycleGen) next(_, i int) *stmt {
	if i%len(g.order) == 0 {
		g.r.Shuffle(len(g.order), func(a, b int) { g.order[a], g.order[b] = g.order[b], g.order[a] })
	}
	return g.stmts[g.order[i%len(g.order)]]
}

// fixedKind is one entry of a cycled workload: an MT-H query id run on one
// of the workload's sessions, under an optional kind-name suffix.
type fixedKind struct {
	id     int
	sess   int
	suffix string
}

func newCycleGen(sf float64, seed int64, kinds []fixedKind) (*cycleGen, error) {
	g := &cycleGen{r: rand.New(rand.NewSource(seed))}
	for i, k := range kinds {
		g.order = append(g.order, i)
		q, err := mth.QueryByID(sf, k.id)
		if err != nil {
			return nil, err
		}
		g.stmts = append(g.stmts, &stmt{
			kind: kindName(k.id) + k.suffix, kindIdx: i, id: i, sess: k.sess,
			text: q.SQL, ordered: hasOrderBy(q.SQL),
		})
	}
	return g, nil
}

// ---------------------------------------------------------------- compile pool

// Value domains of the MT-H generator (mth/dbgen.go keeps them unexported).
var (
	genRegions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	genNations = []struct {
		name   string
		region int
	}{
		{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
		{"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
		{"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
		{"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
		{"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
		{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},
		{"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
	}
	genColors = []string{"almond", "antique", "aquamarine", "azure", "beige",
		"bisque", "black", "blanched", "blue", "blush", "brown", "burlywood",
		"burnished", "chartreuse", "chiffon", "chocolate", "coral", "cornflower",
		"cornsilk", "cream", "cyan", "dark", "deep", "dim", "dodger", "drab",
		"firebrick", "floral", "forest", "frosted", "gainsboro", "ghost",
		"goldenrod", "green", "grey", "honeydew", "hot", "hotpink", "indian",
		"ivory", "khaki", "lace", "lavender", "lawn", "lemon", "light", "lime",
		"linen", "magenta", "maroon", "medium", "metallic", "midnight", "mint",
		"misty", "moccasin", "navajo", "navy", "olive", "orange", "orchid",
		"pale", "papaya", "peach", "peru", "pink", "plum", "powder", "puff",
		"purple", "red", "rose", "rosy", "royal", "saddle", "salmon", "sandy",
		"seashell", "sienna", "sky", "slate", "smoke", "snow", "spring",
		"steel", "tan", "thistle", "tomato", "turquoise", "violet", "wheat",
		"white", "yellow"}
	genType1      = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	genType2      = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	genType3      = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	genContainer1 = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
	genContainer2 = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}
	genSegments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	genShipmodes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	genWords1     = []string{"special", "pending", "unusual", "express", "ironic", "final", "bold", "regular", "even", "silent"}
	genWords2     = []string{"packages", "requests", "accounts", "deposits", "foxes", "ideas", "theodolites", "platelets", "beans", "pinto"}
)

func pick(r *rand.Rand, xs []string) string { return xs[r.Intn(len(xs))] }

// dateIn returns a DATE literal uniformly drawn from [from, from+days).
func dateIn(r *rand.Rand, from string, days int) string {
	day := sqltypes.NewDate(sqltypes.MustDate(from).I + int64(r.Intn(days)))
	return "DATE '" + sqltypes.DateToTime(day).Format("2006-01-02") + "'"
}

func brand(r *rand.Rand) string { return fmt.Sprintf("Brand#%d%d", 1+r.Intn(5), 1+r.Intn(5)) }

// q15Inline is MT-H Q15 with its revenue0 view inlined as derived tables
// (TPC-H's "variant B" shape), so the statement is self-contained and its
// date can be substituted per text.
const q15Inline = `
SELECT s_suppkey, s_name, s_address, s_phone, total_revenue
FROM supplier, (
  SELECT l_suppkey AS supplier_no, SUM(l_extendedprice * (1 - l_discount)) AS total_revenue
  FROM lineitem
  WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1996-01-01' + INTERVAL '3' MONTH
  GROUP BY l_suppkey) AS revenue0
WHERE s_suppkey = supplier_no
  AND total_revenue = (SELECT MAX(total_revenue) FROM (
    SELECT l_suppkey AS supplier_no, SUM(l_extendedprice * (1 - l_discount)) AS total_revenue
    FROM lineitem
    WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1996-01-01' + INTERVAL '3' MONTH
    GROUP BY l_suppkey) AS revenue1)
ORDER BY s_suppkey`

// substitutions maps MT-H query id → a function returning (old, new)
// replacement pairs for the validation literals in that query's text, in
// the manner of TPC-H qgen. Where qgen's domain has fewer values than the
// pool needs per template, it is widened (any day instead of the first of
// a month; a wider quantity range) — the statement shape is unchanged.
var substitutions = map[int]func(r *rand.Rand) []string{
	1: func(r *rand.Rand) []string {
		return []string{"'90' DAY", fmt.Sprintf("'%d' DAY", 30+r.Intn(121))}
	},
	2: func(r *rand.Rand) []string {
		return []string{"p_size = 15", fmt.Sprintf("p_size = %d", 1+r.Intn(50)),
			"'%BRASS'", "'%" + pick(r, genType3) + "'",
			"'EUROPE'", "'" + pick(r, genRegions) + "'"}
	},
	3: func(r *rand.Rand) []string {
		return []string{"'BUILDING'", "'" + pick(r, genSegments) + "'",
			"DATE '1995-03-15'", dateIn(r, "1995-03-01", 31)}
	},
	4: func(r *rand.Rand) []string {
		return []string{"DATE '1993-07-01'", dateIn(r, "1993-01-01", 1735)}
	},
	5: func(r *rand.Rand) []string {
		return []string{"'ASIA'", "'" + pick(r, genRegions) + "'",
			"DATE '1994-01-01'", dateIn(r, "1993-01-01", 1461)}
	},
	6: func(r *rand.Rand) []string {
		d := 2 + r.Intn(8)
		return []string{"DATE '1994-01-01'", dateIn(r, "1993-01-01", 1461),
			"BETWEEN 0.05 AND 0.07", fmt.Sprintf("BETWEEN 0.%02d AND 0.%02d", d-1, d+1),
			"l_quantity < 24", fmt.Sprintf("l_quantity < %d", 24+r.Intn(2))}
	},
	7: func(r *rand.Rand) []string {
		a := r.Intn(len(genNations))
		b := (a + 1 + r.Intn(len(genNations)-1)) % len(genNations)
		return []string{"'FRANCE'", "'" + genNations[a].name + "'",
			"'GERMANY'", "'" + genNations[b].name + "'"}
	},
	8: func(r *rand.Rand) []string {
		n := genNations[r.Intn(len(genNations))]
		return []string{"'BRAZIL'", "'" + n.name + "'",
			"'AMERICA'", "'" + genRegions[n.region] + "'",
			"'ECONOMY ANODIZED STEEL'", "'" + pick(r, genType1) + " " + pick(r, genType2) + " " + pick(r, genType3) + "'"}
	},
	9: func(r *rand.Rand) []string {
		// 92 colours alone are fewer than the pool needs: also vary whether
		// the colour may appear anywhere in the name or must start it.
		return []string{"'%green%'", "'" + pick(r, []string{"%", ""}) + pick(r, genColors) + "%'"}
	},
	10: func(r *rand.Rand) []string {
		return []string{"DATE '1993-10-01'", dateIn(r, "1993-02-01", 700)}
	},
	11: func(r *rand.Rand) []string {
		// The fraction literal depends on sf; scale the comparison instead.
		return []string{"'GERMANY'", "'" + genNations[r.Intn(len(genNations))].name + "'",
			"SUM(ps_supplycost * ps_availqty) * ", fmt.Sprintf("SUM(ps_supplycost * ps_availqty) * 1.%02d * ", r.Intn(10))}
	},
	12: func(r *rand.Rand) []string {
		a := r.Intn(len(genShipmodes))
		b := (a + 1 + r.Intn(len(genShipmodes)-1)) % len(genShipmodes)
		return []string{"'MAIL'", "'" + genShipmodes[a] + "'", "'SHIP'", "'" + genShipmodes[b] + "'",
			"DATE '1994-01-01'", dateIn(r, "1993-01-01", 1461)}
	},
	13: func(r *rand.Rand) []string {
		return []string{"'%special%requests%'", "'%" + pick(r, genWords1) + "%" + pick(r, genWords2) + "%'"}
	},
	14: func(r *rand.Rand) []string {
		return []string{"DATE '1995-09-01'", dateIn(r, "1993-01-01", 1800)}
	},
	15: func(r *rand.Rand) []string {
		return []string{"DATE '1996-01-01'", dateIn(r, "1993-01-01", 1735)}
	},
	16: func(r *rand.Rand) []string {
		sizes := r.Perm(50)[:8]
		parts := make([]string, len(sizes))
		for i, s := range sizes {
			parts[i] = fmt.Sprint(s + 1)
		}
		return []string{"'Brand#45'", "'" + brand(r) + "'",
			"'MEDIUM POLISHED%'", "'" + pick(r, genType1) + " " + pick(r, genType2) + "%'",
			"(49, 14, 23, 45, 19, 3, 36, 9)", "(" + strings.Join(parts, ", ") + ")"}
	},
	17: func(r *rand.Rand) []string {
		return []string{"'Brand#23'", "'" + brand(r) + "'",
			"'MED BOX'", "'" + pick(r, genContainer1) + " " + pick(r, genContainer2) + "'"}
	},
	18: func(r *rand.Rand) []string {
		return []string{"> 250", fmt.Sprintf("> %d", 250+r.Intn(100))}
	},
	19: func(r *rand.Rand) []string {
		q1, q2, q3 := 1+r.Intn(10), 10+r.Intn(11), 20+r.Intn(11)
		return []string{"'Brand#12'", "'" + brand(r) + "'", "'Brand#23'", "'" + brand(r) + "'", "'Brand#34'", "'" + brand(r) + "'",
			"l_quantity >= 1 AND l_quantity <= 11", fmt.Sprintf("l_quantity >= %d AND l_quantity <= %d", q1, q1+10),
			"l_quantity >= 10 AND l_quantity <= 20", fmt.Sprintf("l_quantity >= %d AND l_quantity <= %d", q2, q2+10),
			"l_quantity >= 20 AND l_quantity <= 30", fmt.Sprintf("l_quantity >= %d AND l_quantity <= %d", q3, q3+10)}
	},
	20: func(r *rand.Rand) []string {
		return []string{"'forest%'", "'" + pick(r, genColors) + "%'",
			"DATE '1994-01-01'", dateIn(r, "1993-01-01", 1461),
			"'CANADA'", "'" + genNations[r.Intn(len(genNations))].name + "'"}
	},
	21: func(r *rand.Rand) []string {
		return []string{"'SAUDI ARABIA'", "'" + genNations[r.Intn(len(genNations))].name + "'",
			"LIMIT 100", fmt.Sprintf("LIMIT %d", 25*(1+r.Intn(4)))}
	},
	22: func(r *rand.Rand) []string {
		codes := r.Perm(25)[:7]
		parts := make([]string, len(codes))
		for i, c := range codes {
			parts[i] = fmt.Sprintf("'%d'", c+10)
		}
		return []string{"'13', '31', '23', '29', '30', '18', '17'", strings.Join(parts, ", ")}
	},
}

// textsPerTemplate × 22 templates = 2068 distinct texts: 4× the 512-entry
// statement and plan caches (stmtCacheCap, planCacheCap), so a cyclic visit
// never finds an entry it left behind.
const textsPerTemplate = 94

// compileGen visits the pool round-robin over templates, so any 22
// consecutive statements cover all 22 kinds and a text recurs only after
// every other text was sent.
type compileGen struct{ stmts []*stmt }

func (g *compileGen) distinct() []*stmt   { return g.stmts }
func (g *compileGen) next(_, i int) *stmt { return g.stmts[i%len(g.stmts)] }

func newCompileGen(sf float64, seed int64) (*compileGen, error) {
	queries := mth.Queries(sf)
	perKind := make([][]string, len(queries))
	for k, q := range queries {
		base := q.SQL
		if q.ID == 15 {
			base = q15Inline
		}
		sub := substitutions[q.ID]
		r := rand.New(rand.NewSource(seed*1000 + int64(q.ID)))
		seen := make(map[string]bool)
		for tries := 0; len(perKind[k]) < textsPerTemplate; tries++ {
			if tries > 100*textsPerTemplate {
				return nil, fmt.Errorf("gen: template q%02d yields fewer than %d distinct texts", q.ID, textsPerTemplate)
			}
			pairs := sub(r)
			for i := 0; i < len(pairs); i += 2 {
				if !strings.Contains(base, pairs[i]) {
					return nil, fmt.Errorf("gen: template q%02d no longer contains literal %q", q.ID, pairs[i])
				}
			}
			text := strings.NewReplacer(pairs...).Replace(base)
			if !seen[text] {
				seen[text] = true
				perKind[k] = append(perKind[k], text)
			}
		}
	}
	g := &compileGen{}
	for j := 0; j < textsPerTemplate; j++ {
		for k, q := range queries {
			g.stmts = append(g.stmts, &stmt{
				kind: kindName(q.ID), kindIdx: k, id: len(g.stmts), text: perKind[k][j],
			})
		}
	}
	return g, nil
}

// ---------------------------------------------------------------- wire-oltp

// The wire-oltp statements. Reads are prepared once per session and bound
// per execution; writes target bench_event, a tenant-specific table the
// set-up creates over the wire (so its DDL is in the WAL).
const (
	oltpCreateEvent = `CREATE TABLE bench_event SPECIFIC (
		e_id INTEGER NOT NULL SPECIFIC,
		e_custkey INTEGER NOT NULL SPECIFIC,
		e_amount DECIMAL(15,2) NOT NULL COMPARABLE,
		e_note VARCHAR(40) NOT NULL COMPARABLE,
		CONSTRAINT pk_e PRIMARY KEY (e_id))`
	oltpCustByKey = `SELECT c_custkey, c_name, c_acctbal, c_phone, c_mktsegment FROM customer WHERE c_custkey = ?`
	oltpOrderCust = `SELECT o_orderkey, o_orderdate, o_totalprice, c_name, c_phone FROM orders, customer WHERE o_orderkey = ? AND o_custkey = c_custkey`
	oltpInsert    = `INSERT INTO bench_event (e_id, e_custkey, e_amount, e_note) VALUES (?, ?, ?, ?)`
	oltpUpdate    = `UPDATE bench_event SET e_amount = ? WHERE e_id = ?`
	oltpTally     = `SELECT COUNT(*), SUM(e_amount) FROM bench_event WHERE e_id > 0`
)

var oltpKinds = []string{"cust_by_key", "order_with_customer", "q06_param", "event_insert", "event_update"}

// oltpQ6 is the tenant-local parameterized Q6 of mth.ParamQueries.
var oltpQ6, _ = mth.ParamQueryByID(6)

// oltpTexts maps kind index → statement text.
var oltpTexts = []string{oltpCustByKey, oltpOrderCust, oltpQ6.SQL, oltpInsert, oltpUpdate}

// oltpKeysPerKind bounds the distinct binds per read kind and tenant, so
// the oracle can run every distinct statement once.
const oltpKeysPerKind = 128

// oltpGen produces each client's seeded 80:20 read/write stream. Client c
// is bound to session c (its own tenant). Reads draw a bind from a
// per-tenant pool; consecutive reads never reuse the previous bind.
// Writes keep the generator's own tally (live rows and their amount sum)
// that the post-window and post-restart checks compare against.
type oltpGen struct {
	reads   []*stmt   // all distinct reads, id = index
	byKind  [][][]int // [client][kind] → ids into reads
	clients []*oltpClient
}

type oltpClient struct {
	r       *rand.Rand
	lastID  int
	nextEID int64
	amounts []int64 // amount of event e_id = i+1, in quarter units
	count   int64
	sum     int64 // quarter units: sums stay exact in float64 in any order
}

// newOltpGen builds the generator over the tenants' generated keys:
// custKeys[c] and orderKeys[c] are keys owned by client c's tenant.
func newOltpGen(seed int64, custKeys, orderKeys [][]int64) *oltpGen {
	g := &oltpGen{}
	for c := range custKeys {
		r := rand.New(rand.NewSource(seed*7919 + int64(c)))
		kinds := make([][]int, 3)
		add := func(kind int, args []any) {
			kinds[kind] = append(kinds[kind], len(g.reads))
			g.reads = append(g.reads, &stmt{kind: oltpKinds[kind], kindIdx: kind, id: len(g.reads),
				sess: c, text: oltpTexts[kind], args: args})
		}
		for _, i := range r.Perm(len(custKeys[c])) {
			if len(kinds[0]) == oltpKeysPerKind {
				break
			}
			add(0, []any{custKeys[c][i]})
		}
		for _, i := range r.Perm(len(orderKeys[c])) {
			if len(kinds[1]) == oltpKeysPerKind {
				break
			}
			add(1, []any{orderKeys[c][i]})
		}
		for i := 0; i < 12; i++ { // ParamQueries Q6 has 12 distinct bindings
			add(2, oltpQ6.Args(i))
		}
		g.byKind = append(g.byKind, kinds)
		g.clients = append(g.clients, &oltpClient{r: r, lastID: -1})
	}
	return g
}

func (g *oltpGen) distinct() []*stmt { return g.reads }

func (g *oltpGen) next(c, _ int) *stmt {
	cl := g.clients[c]
	if cl.r.Intn(5) == 0 { // 20 % writes
		if len(cl.amounts) == 0 || cl.r.Intn(2) == 0 {
			amount := int64(1 + cl.r.Intn(4000))
			cl.nextEID++
			cl.amounts = append(cl.amounts, amount)
			cl.count++
			cl.sum += amount
			ids := g.byKind[c][0]
			cust := g.reads[ids[cl.r.Intn(len(ids))]].args[0]
			return &stmt{kind: oltpKinds[3], kindIdx: 3, id: -1, sess: c, write: true, text: oltpTexts[3],
				args: []any{cl.nextEID, cust, float64(amount) / 4, fmt.Sprintf("event %d", cl.nextEID)}}
		}
		i := cl.r.Intn(len(cl.amounts))
		amount := int64(1 + cl.r.Intn(4000))
		cl.sum += amount - cl.amounts[i]
		cl.amounts[i] = amount
		return &stmt{kind: oltpKinds[4], kindIdx: 4, id: -1, sess: c, write: true, text: oltpTexts[4],
			args: []any{float64(amount) / 4, int64(i + 1)}}
	}
	// Reads: 60 % point lookup, 30 % join lookup, 10 % tenant-local Q6.
	kind := 0
	switch p := cl.r.Intn(10); {
	case p >= 9:
		kind = 2
	case p >= 6:
		kind = 1
	}
	ids := g.byKind[c][kind]
	id := ids[cl.r.Intn(len(ids))]
	for id == cl.lastID {
		id = ids[cl.r.Intn(len(ids))]
	}
	cl.lastID = id
	return g.reads[id]
}

// tally returns client c's expected live event count and amount sum.
func (g *oltpGen) tally(c int) (count int64, sum float64) {
	return g.clients[c].count, float64(g.clients[c].sum) / 4
}
