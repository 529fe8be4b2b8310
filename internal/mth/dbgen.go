// Package mth implements the MT-H benchmark of §5: a multi-tenant
// extension of TPC-H. It contains a dbgen-style data generator with the
// paper's modifications (tenant-specific Customer/Orders/Lineitem,
// per-tenant currency and phone formats, uniform/zipfian tenant shares
// preserving foreign-key locality), the 22 queries, the schema setup
// through the MTBase middleware, and the §5 validation harness.
package mth

import (
	"fmt"
	"math"
	"math/rand"

	"mtbase/internal/engine"
	"mtbase/internal/sqltypes"
)

// Distribution selects the tenant-share distribution ρ of §5.
type Distribution string

// Tenant share distributions.
const (
	Uniform Distribution = "uniform"
	Zipf    Distribution = "zipf"
)

// Config parameterizes an MT-H database.
type Config struct {
	SF      float64 // TPC-H scale factor (1.0 = ~6M lineitems)
	Tenants int     // T; ttids range from 1 to T (§5)
	Dist    Distribution
	Seed    int64
	Mode    engine.Mode
}

// rowCounts scales the TPC-H table cardinalities.
func (c Config) rowCounts() (suppliers, parts, customers, orders int) {
	suppliers = max(int(c.SF*10000), 10)
	parts = max(int(c.SF*200000), 200)
	customers = max(int(c.SF*150000), 150)
	orders = max(int(c.SF*1500000), 1500)
	return
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Data is a generated MT-H dataset. Tenant-specific rows are kept in
// universal format alongside their tenant assignment; loaders convert them
// into each owner's currency/phone format (the dbgen modification of §5).
type Data struct {
	Cfg Config

	Region, Nation, Supplier, Part, Partsupp [][]sqltypes.Value

	Customer, Orders, Lineitem          [][]sqltypes.Value
	CustTenant, OrderTenant, LineTenant []int64

	// Per-tenant formats; tenant 1 has the universal format for both (§5).
	ToUniversalRate map[int64]float64 // universal = tenant_value * rate
	PhonePrefix     map[int64]string
}

var regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// nationDefs maps the 25 TPC-H nations to their regions.
var nationDefs = []struct {
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

var (
	partColors = []string{"almond", "antique", "aquamarine", "azure", "beige",
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
	typeSyllable1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyllable2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyllable3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	containers1   = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
	containers2   = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}
	segments      = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities    = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	instructions  = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	shipmodes     = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	commentWords  = []string{"carefully", "quickly", "furiously", "slyly", "blithely",
		"ironic", "final", "bold", "express", "regular", "pending", "even",
		"silent", "daring", "accounts", "packages", "theodolites", "pinto",
		"beans", "foxes", "ideas", "requests", "deposits", "platelets"}
	phonePrefixes = []string{"", "00", "+", "011", "0011", "810", "009", "1", "8~10"}
)

// Date domain: orders span [1992-01-01, 1998-08-02] as in TPC-H.
var (
	startDate = sqltypes.MustDate("1992-01-01").I
	endDate   = sqltypes.MustDate("1998-08-02").I
	currentDT = sqltypes.MustDate("1995-06-17").I // CURRENTDATE for flags
)

func comment(r *rand.Rand, n int) string {
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += " "
		}
		out += commentWords[r.Intn(len(commentWords))]
	}
	return out
}

// Generate produces a deterministic MT-H dataset for the configuration.
func Generate(cfg Config) *Data {
	if cfg.Tenants < 1 {
		cfg.Tenants = 1
	}
	d := &Data{Cfg: cfg,
		ToUniversalRate: make(map[int64]float64),
		PhonePrefix:     make(map[int64]string),
	}
	r := rand.New(rand.NewSource(cfg.Seed))

	// Per-tenant formats: tenant 1 is universal (§5).
	for t := int64(1); t <= int64(cfg.Tenants); t++ {
		if t == 1 {
			d.ToUniversalRate[t] = 1.0
			d.PhonePrefix[t] = ""
			continue
		}
		d.ToUniversalRate[t] = math.Round((0.25+4.75*r.Float64())*10000) / 10000
		d.PhonePrefix[t] = phonePrefixes[int(t)%len(phonePrefixes)]
	}

	suppliers, parts, customers, orders := cfg.rowCounts()

	for i, name := range regionNames {
		d.Region = append(d.Region, []sqltypes.Value{
			sqltypes.NewInt(int64(i)), sqltypes.NewString(name),
			sqltypes.NewString(comment(r, 4)),
		})
	}
	for i, n := range nationDefs {
		d.Nation = append(d.Nation, []sqltypes.Value{
			sqltypes.NewInt(int64(i)), sqltypes.NewString(n.name),
			sqltypes.NewInt(int64(n.region)), sqltypes.NewString(comment(r, 4)),
		})
	}
	for i := 1; i <= suppliers; i++ {
		cmt := comment(r, 6)
		if r.Intn(100) == 0 {
			cmt = "blithely Customer ironic Complaints " + cmt // Q16 filter
		}
		nation := r.Intn(len(nationDefs))
		d.Supplier = append(d.Supplier, []sqltypes.Value{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("Supplier#%09d", i)),
			sqltypes.NewString(comment(r, 2)),
			sqltypes.NewInt(int64(nation)),
			sqltypes.NewString(tpchPhone(nation, r)),
			sqltypes.NewFloat(money(r, -999.99, 9999.99)),
			sqltypes.NewString(cmt),
		})
	}
	retail := make([]float64, parts+1)
	for i := 1; i <= parts; i++ {
		name := partColors[r.Intn(len(partColors))] + " " +
			partColors[r.Intn(len(partColors))] + " " +
			partColors[r.Intn(len(partColors))]
		ptype := typeSyllable1[r.Intn(6)] + " " + typeSyllable2[r.Intn(5)] + " " + typeSyllable3[r.Intn(5)]
		brand := fmt.Sprintf("Brand#%d%d", 1+r.Intn(5), 1+r.Intn(5))
		container := containers1[r.Intn(5)] + " " + containers2[r.Intn(8)]
		retail[i] = 900 + float64(i%1000) + 0.01*float64(i%100)
		d.Part = append(d.Part, []sqltypes.Value{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(name),
			sqltypes.NewString(fmt.Sprintf("Manufacturer#%d", 1+r.Intn(5))),
			sqltypes.NewString(brand),
			sqltypes.NewString(ptype),
			sqltypes.NewInt(int64(1 + r.Intn(50))),
			sqltypes.NewString(container),
			sqltypes.NewFloat(retail[i]),
			sqltypes.NewString(comment(r, 3)),
		})
	}
	supplycost := make(map[[2]int64]float64)
	for i := 1; i <= parts; i++ {
		for j := 0; j < 4; j++ {
			sk := int64((i+j*(suppliers/4+1))%suppliers + 1)
			cost := money(r, 1, 1000)
			supplycost[[2]int64{int64(i), sk}] = cost
			d.Partsupp = append(d.Partsupp, []sqltypes.Value{
				sqltypes.NewInt(int64(i)), sqltypes.NewInt(sk),
				sqltypes.NewInt(int64(1 + r.Intn(9999))),
				sqltypes.NewFloat(cost),
				sqltypes.NewString(comment(r, 5)),
			})
		}
	}

	// Tenant assignment: customers are distributed uniformly or zipfian;
	// orders pick a customer of their own tenant so FK locality holds (§5).
	assign := tenantSampler(cfg, r)
	custsOf := make(map[int64][]int64) // tenant -> custkeys
	for i := 1; i <= customers; i++ {
		t := assign()
		nation := r.Intn(len(nationDefs))
		d.CustTenant = append(d.CustTenant, t)
		custsOf[t] = append(custsOf[t], int64(i))
		d.Customer = append(d.Customer, []sqltypes.Value{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("Customer#%09d", i)),
			sqltypes.NewString(comment(r, 2)),
			sqltypes.NewInt(int64(nation)),
			sqltypes.NewString(tpchPhone(nation, r)), // universal format
			sqltypes.NewFloat(money(r, -999.99, 9999.99)),
			sqltypes.NewString(segments[r.Intn(len(segments))]),
			sqltypes.NewString(comment(r, 8)),
		})
	}

	for i := 1; i <= orders; i++ {
		// Pick the order's tenant with the same distribution, then a
		// customer within that tenant (FK locality, §5).
		t := assign()
		if len(custsOf[t]) == 0 {
			t = d.CustTenant[r.Intn(customers)]
		}
		ckeys := custsOf[t]
		custkey := ckeys[r.Intn(len(ckeys))]
		orderdate := startDate + int64(r.Intn(int(endDate-startDate)-150))
		okey := int64(i)
		d.OrderTenant = append(d.OrderTenant, t)

		nlines := 1 + r.Intn(7)
		var total float64
		fCount := 0
		for ln := 1; ln <= nlines; ln++ {
			pk := int64(1 + r.Intn(parts))
			// one of the part's four suppliers
			j := r.Intn(4)
			sk := int64((int(pk)+j*(suppliers/4+1))%suppliers + 1)
			qty := float64(1 + r.Intn(50))
			price := round2(qty * retail[pk] / 10)
			discount := float64(r.Intn(11)) / 100
			tax := float64(r.Intn(9)) / 100
			shipdate := orderdate + int64(1+r.Intn(121))
			commitdate := orderdate + int64(30+r.Intn(61))
			receiptdate := shipdate + int64(1+r.Intn(30))
			var returnflag string
			if receiptdate <= currentDT {
				if r.Intn(2) == 0 {
					returnflag = "R"
				} else {
					returnflag = "A"
				}
			} else {
				returnflag = "N"
			}
			linestatus := "O"
			if shipdate <= currentDT {
				linestatus = "F"
				fCount++
			}
			d.LineTenant = append(d.LineTenant, t)
			d.Lineitem = append(d.Lineitem, []sqltypes.Value{
				sqltypes.NewInt(okey),
				sqltypes.NewInt(pk),
				sqltypes.NewInt(sk),
				sqltypes.NewInt(int64(ln)),
				sqltypes.NewFloat(qty),
				sqltypes.NewFloat(price), // universal format
				sqltypes.NewFloat(discount),
				sqltypes.NewFloat(tax),
				sqltypes.NewString(returnflag),
				sqltypes.NewString(linestatus),
				sqltypes.NewDate(shipdate),
				sqltypes.NewDate(commitdate),
				sqltypes.NewDate(receiptdate),
				sqltypes.NewString(instructions[r.Intn(len(instructions))]),
				sqltypes.NewString(shipmodes[r.Intn(len(shipmodes))]),
				sqltypes.NewString(comment(r, 3)),
			})
			total += price * (1 + tax) * (1 - discount)
		}
		status := "P"
		switch fCount {
		case nlines:
			status = "F"
		case 0:
			status = "O"
		}
		cmt := comment(r, 6)
		if r.Intn(100) == 0 {
			cmt = "special packages requests " + cmt // Q13 filter
		}
		d.Orders = append(d.Orders, []sqltypes.Value{
			sqltypes.NewInt(okey),
			sqltypes.NewInt(custkey),
			sqltypes.NewString(status),
			sqltypes.NewFloat(round2(total)), // universal format
			sqltypes.NewDate(orderdate),
			sqltypes.NewString(priorities[r.Intn(len(priorities))]),
			sqltypes.NewString(fmt.Sprintf("Clerk#%09d", 1+r.Intn(max(suppliers, 1)))),
			sqltypes.NewInt(0),
			sqltypes.NewString(cmt),
		})
	}
	return d
}

// tenantSampler returns a deterministic sampler of ttids 1..T following
// the configured share distribution ρ.
func tenantSampler(cfg Config, r *rand.Rand) func() int64 {
	if cfg.Dist != Zipf || cfg.Tenants == 1 {
		next := 0
		return func() int64 {
			// Uniform shares via round-robin keeps per-tenant counts exact.
			next++
			return int64((next-1)%cfg.Tenants + 1)
		}
	}
	// Zipf with s=1: tenant 1 gets the biggest share (§5).
	cum := make([]float64, cfg.Tenants)
	sum := 0.0
	for k := 1; k <= cfg.Tenants; k++ {
		sum += 1 / float64(k)
		cum[k-1] = sum
	}
	return func() int64 {
		x := r.Float64() * sum
		lo, hi := 0, cfg.Tenants-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return int64(lo + 1)
	}
}

// tpchPhone renders the TPC-H phone format CC-NNN-NNN-NNNN with country
// code nationkey+10 — the universal phone format of MT-H (Q22 relies on
// the country code prefix).
func tpchPhone(nation int, r *rand.Rand) string {
	return fmt.Sprintf("%d-%03d-%03d-%04d", nation+10,
		100+r.Intn(900), 100+r.Intn(900), 1000+r.Intn(9000))
}

func money(r *rand.Rand, lo, hi float64) float64 {
	return round2(lo + (hi-lo)*r.Float64())
}

func round2(f float64) float64 { return math.Round(f*100) / 100 }

// ConvertCurrency converts a universal amount into tenant format.
func (d *Data) ConvertCurrency(universal float64, t int64) float64 {
	return universal / d.ToUniversalRate[t]
}

// ConvertPhone converts a universal phone number into tenant format.
func (d *Data) ConvertPhone(universal string, t int64) string {
	return d.PhonePrefix[t] + universal
}
