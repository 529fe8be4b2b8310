package mth

import (
	"fmt"

	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/mtsql"
	"mtbase/internal/sqltypes"
)

// ModellerTTID is the data-modeller role used to issue the MT-H DDL
// (§2.2: "the SaaS provider"); it owns no data.
const ModellerTTID = 0

// metaDDL sets up the conversion meta tables and UDFs (Listings 4–7).
var metaDDL = []string{
	`CREATE TABLE Tenant (
		T_tenant_key INTEGER NOT NULL,
		T_currency_key INTEGER NOT NULL,
		T_phone_prefix_key INTEGER NOT NULL,
		CONSTRAINT pk_tenant PRIMARY KEY (T_tenant_key))`,
	`CREATE TABLE CurrencyTransform (
		CT_currency_key INTEGER NOT NULL,
		CT_to_universal DECIMAL(15,2) NOT NULL,
		CT_from_universal DECIMAL(15,2) NOT NULL,
		CONSTRAINT pk_ct PRIMARY KEY (CT_currency_key))`,
	`CREATE TABLE PhoneTransform (
		PT_phone_prefix_key INTEGER NOT NULL,
		PT_prefix VARCHAR(8) NOT NULL,
		CONSTRAINT pk_pt PRIMARY KEY (PT_phone_prefix_key))`,
	`CREATE FUNCTION currencyToUniversal (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
		AS 'SELECT CT_to_universal * $1 FROM Tenant, CurrencyTransform WHERE T_tenant_key = $2 AND T_currency_key = CT_currency_key'
		LANGUAGE SQL IMMUTABLE`,
	`CREATE FUNCTION currencyFromUniversal (DECIMAL(15,2), INTEGER) RETURNS DECIMAL(15,2)
		AS 'SELECT CT_from_universal * $1 FROM Tenant, CurrencyTransform WHERE T_tenant_key = $2 AND T_currency_key = CT_currency_key'
		LANGUAGE SQL IMMUTABLE`,
	`CREATE FUNCTION phoneToUniversal (VARCHAR(17), INTEGER) RETURNS VARCHAR(17)
		AS 'SELECT SUBSTRING($1, CHAR_LENGTH(PT_prefix) + 1) FROM Tenant, PhoneTransform WHERE T_tenant_key = $2 AND T_phone_prefix_key = PT_phone_prefix_key'
		LANGUAGE SQL IMMUTABLE`,
	`CREATE FUNCTION phoneFromUniversal (VARCHAR(17), INTEGER) RETURNS VARCHAR(17)
		AS 'SELECT CONCAT(PT_prefix, $1) FROM Tenant, PhoneTransform WHERE T_tenant_key = $2 AND T_phone_prefix_key = PT_phone_prefix_key'
		LANGUAGE SQL IMMUTABLE`,
}

// globalDDL defines the publicly shared tables of §5 (plain SQL types;
// global tables default to comparable attributes).
var globalDDL = []string{
	`CREATE TABLE region (r_regionkey INTEGER NOT NULL, r_name VARCHAR(25) NOT NULL,
		r_comment VARCHAR(152), CONSTRAINT pk_r PRIMARY KEY (r_regionkey))`,
	`CREATE TABLE nation (n_nationkey INTEGER NOT NULL, n_name VARCHAR(25) NOT NULL,
		n_regionkey INTEGER NOT NULL, n_comment VARCHAR(152),
		CONSTRAINT pk_n PRIMARY KEY (n_nationkey),
		CONSTRAINT fk_n_r FOREIGN KEY (n_regionkey) REFERENCES region (r_regionkey))`,
	`CREATE TABLE supplier (s_suppkey INTEGER NOT NULL, s_name VARCHAR(25) NOT NULL,
		s_address VARCHAR(40) NOT NULL, s_nationkey INTEGER NOT NULL,
		s_phone VARCHAR(15) NOT NULL, s_acctbal DECIMAL(15,2) NOT NULL,
		s_comment VARCHAR(101) NOT NULL,
		CONSTRAINT pk_s PRIMARY KEY (s_suppkey),
		CONSTRAINT fk_s_n FOREIGN KEY (s_nationkey) REFERENCES nation (n_nationkey))`,
	`CREATE TABLE part (p_partkey INTEGER NOT NULL, p_name VARCHAR(55) NOT NULL,
		p_mfgr VARCHAR(25) NOT NULL, p_brand VARCHAR(10) NOT NULL,
		p_type VARCHAR(25) NOT NULL, p_size INTEGER NOT NULL,
		p_container VARCHAR(10) NOT NULL, p_retailprice DECIMAL(15,2) NOT NULL,
		p_comment VARCHAR(23) NOT NULL, CONSTRAINT pk_p PRIMARY KEY (p_partkey))`,
	`CREATE TABLE partsupp (ps_partkey INTEGER NOT NULL, ps_suppkey INTEGER NOT NULL,
		ps_availqty INTEGER NOT NULL, ps_supplycost DECIMAL(15,2) NOT NULL,
		ps_comment VARCHAR(199) NOT NULL,
		CONSTRAINT pk_ps PRIMARY KEY (ps_partkey, ps_suppkey),
		CONSTRAINT fk_ps_p FOREIGN KEY (ps_partkey) REFERENCES part (p_partkey),
		CONSTRAINT fk_ps_s FOREIGN KEY (ps_suppkey) REFERENCES supplier (s_suppkey))`,
}

// tenantDDL defines the tenant-specific tables with MT-H's attribute
// comparability (§5): keys are tenant-specific, monetary values and the
// customer phone are convertible, everything else is comparable.
var tenantDDL = []string{
	`CREATE TABLE customer SPECIFIC (
		c_custkey INTEGER NOT NULL SPECIFIC,
		c_name VARCHAR(25) NOT NULL COMPARABLE,
		c_address VARCHAR(40) NOT NULL COMPARABLE,
		c_nationkey INTEGER NOT NULL COMPARABLE,
		c_phone VARCHAR(17) NOT NULL CONVERTIBLE @phoneToUniversal @phoneFromUniversal,
		c_acctbal DECIMAL(15,2) NOT NULL CONVERTIBLE @currencyToUniversal @currencyFromUniversal,
		c_mktsegment VARCHAR(10) NOT NULL COMPARABLE,
		c_comment VARCHAR(117) NOT NULL COMPARABLE,
		CONSTRAINT pk_c PRIMARY KEY (c_custkey))`,
	`CREATE TABLE orders SPECIFIC (
		o_orderkey INTEGER NOT NULL SPECIFIC,
		o_custkey INTEGER NOT NULL SPECIFIC,
		o_orderstatus VARCHAR(1) NOT NULL COMPARABLE,
		o_totalprice DECIMAL(15,2) NOT NULL CONVERTIBLE @currencyToUniversal @currencyFromUniversal,
		o_orderdate DATE NOT NULL COMPARABLE,
		o_orderpriority VARCHAR(15) NOT NULL COMPARABLE,
		o_clerk VARCHAR(15) NOT NULL COMPARABLE,
		o_shippriority INTEGER NOT NULL COMPARABLE,
		o_comment VARCHAR(79) NOT NULL COMPARABLE,
		CONSTRAINT pk_o PRIMARY KEY (o_orderkey),
		CONSTRAINT fk_o_c FOREIGN KEY (o_custkey) REFERENCES customer (c_custkey))`,
	`CREATE TABLE lineitem SPECIFIC (
		l_orderkey INTEGER NOT NULL SPECIFIC,
		l_partkey INTEGER NOT NULL COMPARABLE,
		l_suppkey INTEGER NOT NULL COMPARABLE,
		l_linenumber INTEGER NOT NULL COMPARABLE,
		l_quantity DECIMAL(15,2) NOT NULL COMPARABLE,
		l_extendedprice DECIMAL(15,2) NOT NULL CONVERTIBLE @currencyToUniversal @currencyFromUniversal,
		l_discount DECIMAL(15,2) NOT NULL COMPARABLE,
		l_tax DECIMAL(15,2) NOT NULL COMPARABLE,
		l_returnflag VARCHAR(1) NOT NULL COMPARABLE,
		l_linestatus VARCHAR(1) NOT NULL COMPARABLE,
		l_shipdate DATE NOT NULL COMPARABLE,
		l_commitdate DATE NOT NULL COMPARABLE,
		l_receiptdate DATE NOT NULL COMPARABLE,
		l_shipinstruct VARCHAR(25) NOT NULL COMPARABLE,
		l_shipmode VARCHAR(10) NOT NULL COMPARABLE,
		l_comment VARCHAR(44) NOT NULL COMPARABLE,
		CONSTRAINT fk_l_o FOREIGN KEY (l_orderkey) REFERENCES orders (o_orderkey))`,
}

// Instance is a loaded MT-H deployment.
type Instance struct {
	Cfg  Config
	Srv  *middleware.Server
	Data *Data
}

// BuildMT generates data and stands up a complete MTBase instance.
func BuildMT(cfg Config) (*Instance, error) {
	return LoadMT(Generate(cfg))
}

// LoadMT stands up an MTBase instance from pre-generated data.
func LoadMT(d *Data) (*Instance, error) {
	srv := middleware.NewServer(engine.Open(d.Cfg.Mode), middleware.WithDataModeller(ModellerTTID))
	one := []*middleware.Server{srv}
	if err := load(d, srv.Connect, srv.CreateTenant, one, one, func(int64) int { return 0 }); err != nil {
		return nil, err
	}
	return &Instance{Cfg: d.Cfg, Srv: srv, Data: d}, nil
}

// load fills a freshly stood-up deployment, unsharded or sharded, from d.
// Every server in meta carries the conversion registry, the schema (DDL goes
// through a modeller session, which a sharded tier fans out under its schema
// barrier), the tenants, the conversion meta rows and the global tables —
// rewrites happen wherever a statement lands. Each tenant's rows go to
// owners[ownerOf(t)] only, in generated order: heap order is part of what the
// differential suites compare through unordered scans.
func load[C middleware.Session](d *Data, connect func(int64) (C, error), createTenant func(int64) error,
	meta, owners []*middleware.Server, ownerOf func(t int64) int) error {
	for _, mw := range meta {
		for _, pair := range []mtsql.ConvPair{
			{Name: "currency", ToFunc: "currencyToUniversal", FromFunc: "currencyFromUniversal", Class: mtsql.ClassLinear},
			{Name: "phone", ToFunc: "phoneToUniversal", FromFunc: "phoneFromUniversal", Class: mtsql.ClassEqualityPreserving},
		} {
			if err := mw.Schema().Convs().Register(pair); err != nil {
				return err
			}
		}
	}
	admin, err := connect(ModellerTTID)
	if err != nil {
		return err
	}
	for _, group := range [][]string{metaDDL, globalDDL, tenantDDL} {
		for _, ddl := range group {
			if _, err := admin.Exec(ddl); err != nil {
				return fmt.Errorf("mth: DDL failed: %w", err)
			}
		}
	}
	tenants := int64(d.Cfg.Tenants)
	for t := int64(1); t <= tenants; t++ {
		if err := createTenant(t); err != nil {
			return err
		}
	}

	// Conversion meta data — one currency and one phone prefix per tenant —
	// and the global tables.
	for _, mw := range meta {
		db := mw.DB()
		tenantT := db.Table("Tenant")
		ct := db.Table("CurrencyTransform")
		pt := db.Table("PhoneTransform")
		for t := int64(1); t <= tenants; t++ {
			tenantT.AppendRow([]sqltypes.Value{
				sqltypes.NewInt(t), sqltypes.NewInt(t), sqltypes.NewInt(t),
			})
			rate := d.ToUniversalRate[t]
			ct.AppendRow([]sqltypes.Value{
				sqltypes.NewInt(t), sqltypes.NewFloat(rate), sqltypes.NewFloat(1 / rate),
			})
			pt.AppendRow([]sqltypes.Value{
				sqltypes.NewInt(t), sqltypes.NewString(d.PhonePrefix[t]),
			})
		}
		db.Table("region").BulkLoad(d.Region)
		db.Table("nation").BulkLoad(d.Nation)
		db.Table("supplier").BulkLoad(d.Supplier)
		db.Table("part").BulkLoad(d.Part)
		db.Table("partsupp").BulkLoad(d.Partsupp)
	}

	// Tenant-specific rows: prepend ttid and convert monetary / phone
	// values from universal into the owner's format (the dbgen
	// modification of §5).
	loadTenant := func(name string, rows [][]sqltypes.Value, tenantOf []int64, convert func(row []sqltypes.Value, t int64)) {
		counts := make([]int, len(owners))
		for _, t := range tenantOf {
			counts[ownerOf(t)]++
		}
		parts := make([][][]sqltypes.Value, len(owners))
		for i, n := range counts {
			parts[i] = make([][]sqltypes.Value, 0, n)
		}
		for i, row := range rows {
			t := tenantOf[i]
			nr := make([]sqltypes.Value, 0, len(row)+1)
			nr = append(nr, sqltypes.NewInt(t))
			nr = append(nr, row...)
			convert(nr, t)
			parts[ownerOf(t)] = append(parts[ownerOf(t)], nr)
		}
		for i, mw := range owners {
			mw.DB().Table(name).BulkLoad(parts[i])
		}
	}
	// Tenant-format monetary values are stored at full precision (not
	// rounded to cents): rounding at load time would make converted
	// values differ from the universal originals by up to half a cent per
	// row, which Q9-style big-positive-minus-big-negative aggregations
	// amplify past any sensible validation tolerance.
	loadTenant("customer", d.Customer, d.CustTenant, func(row []sqltypes.Value, t int64) {
		// row[0]=ttid; columns shift by one.
		row[5] = sqltypes.NewString(d.ConvertPhone(row[5].S, t))
		row[6] = sqltypes.NewFloat(d.ConvertCurrency(row[6].F, t))
	})
	loadTenant("orders", d.Orders, d.OrderTenant, func(row []sqltypes.Value, t int64) {
		row[4] = sqltypes.NewFloat(d.ConvertCurrency(row[4].F, t))
	})
	loadTenant("lineitem", d.Lineitem, d.LineTenant, func(row []sqltypes.Value, t int64) {
		row[6] = sqltypes.NewFloat(d.ConvertCurrency(row[6].F, t))
	})
	return nil
}

// GrantReadTo lets the given client read every tenant's data (database-
// wide READ grants from every owner), the §6 evaluation setup.
func (inst *Instance) GrantReadTo(client int64) error {
	return grantReadTo(inst.Srv.Connect, inst.Cfg.Tenants, client)
}

// Connect opens a session with the given scope already set.
func (inst *Instance) Connect(ttid int64, scope string) (*middleware.Conn, error) {
	return connectScoped(inst.Srv.Connect, ttid, scope)
}

// grantReadTo and connectScoped serve both deployments (Instance and
// ShardedInstance): they need nothing but a session.
func grantReadTo[C middleware.Session](connect func(int64) (C, error), tenants int, client int64) error {
	for t := int64(1); t <= int64(tenants); t++ {
		if t == client {
			continue
		}
		conn, err := connect(t)
		if err != nil {
			return err
		}
		if _, err := conn.Exec(fmt.Sprintf("GRANT READ ON DATABASE TO %d", client)); err != nil {
			return err
		}
	}
	return nil
}

func connectScoped[C middleware.Session](connect func(int64) (C, error), ttid int64, scope string) (C, error) {
	conn, err := connect(ttid)
	if err != nil || scope == "" {
		return conn, err
	}
	if _, err := conn.Exec(fmt.Sprintf("SET SCOPE = \"%s\"", scope)); err != nil {
		var none C
		return none, err
	}
	return conn, nil
}

// plainDDL mirrors the MT-H tables without tenant machinery, for the plain
// TPC-H baseline database.
func plainDDL() []string {
	out := make([]string, 0, len(globalDDL)+3)
	out = append(out, globalDDL...)
	out = append(out,
		`CREATE TABLE customer (c_custkey INTEGER NOT NULL, c_name VARCHAR(25) NOT NULL,
			c_address VARCHAR(40) NOT NULL, c_nationkey INTEGER NOT NULL,
			c_phone VARCHAR(17) NOT NULL, c_acctbal DECIMAL(15,2) NOT NULL,
			c_mktsegment VARCHAR(10) NOT NULL, c_comment VARCHAR(117) NOT NULL,
			CONSTRAINT pk_c PRIMARY KEY (c_custkey))`,
		`CREATE TABLE orders (o_orderkey INTEGER NOT NULL, o_custkey INTEGER NOT NULL,
			o_orderstatus VARCHAR(1) NOT NULL, o_totalprice DECIMAL(15,2) NOT NULL,
			o_orderdate DATE NOT NULL, o_orderpriority VARCHAR(15) NOT NULL,
			o_clerk VARCHAR(15) NOT NULL, o_shippriority INTEGER NOT NULL,
			o_comment VARCHAR(79) NOT NULL, CONSTRAINT pk_o PRIMARY KEY (o_orderkey))`,
		`CREATE TABLE lineitem (l_orderkey INTEGER NOT NULL, l_partkey INTEGER NOT NULL,
			l_suppkey INTEGER NOT NULL, l_linenumber INTEGER NOT NULL,
			l_quantity DECIMAL(15,2) NOT NULL, l_extendedprice DECIMAL(15,2) NOT NULL,
			l_discount DECIMAL(15,2) NOT NULL, l_tax DECIMAL(15,2) NOT NULL,
			l_returnflag VARCHAR(1) NOT NULL, l_linestatus VARCHAR(1) NOT NULL,
			l_shipdate DATE NOT NULL, l_commitdate DATE NOT NULL, l_receiptdate DATE NOT NULL,
			l_shipinstruct VARCHAR(25) NOT NULL, l_shipmode VARCHAR(10) NOT NULL,
			l_comment VARCHAR(44) NOT NULL)`,
	)
	return out
}

// LoadPlain builds the plain TPC-H baseline database: the same generated
// rows, universal format, no ttid columns.
func LoadPlain(d *Data, mode engine.Mode) (*engine.DB, error) {
	db := engine.Open(mode)
	for _, ddl := range plainDDL() {
		if _, err := db.ExecSQL(ddl); err != nil {
			return nil, err
		}
	}
	db.Table("region").BulkLoad(d.Region)
	db.Table("nation").BulkLoad(d.Nation)
	db.Table("supplier").BulkLoad(d.Supplier)
	db.Table("part").BulkLoad(d.Part)
	db.Table("partsupp").BulkLoad(d.Partsupp)
	db.Table("customer").BulkLoad(d.Customer)
	db.Table("orders").BulkLoad(d.Orders)
	db.Table("lineitem").BulkLoad(d.Lineitem)
	return db, nil
}
