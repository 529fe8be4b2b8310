package mth

// Sharded MT-H deployment: the same schema, conversion metadata and
// generated rows as LoadMT, stood up over a shard.Server. Metadata,
// global tables and conversion meta rows replicate to every shard AND the
// coordinator replica; each tenant's rows bulk load onto its owning shard
// only (the replica holds none, ever: a repartition fallback reads the
// shards' rows as statement-local relations over its empty tenant tables).

import (
	"fmt"

	"mtbase/internal/middleware"
	"mtbase/internal/mtsql"
	"mtbase/internal/shard"
	"mtbase/internal/sqltypes"
)

// ShardedInstance is a loaded MT-H deployment partitioned over N shards.
type ShardedInstance struct {
	Cfg  Config
	Srv  *shard.Server
	Data *Data
}

// BuildMTSharded generates data and stands up a sharded MTBase instance.
func BuildMTSharded(cfg Config, nshards int, opts ...shard.Option) (*ShardedInstance, error) {
	return LoadMTSharded(Generate(cfg), nshards, opts...)
}

// LoadMTSharded stands up a sharded MTBase instance from pre-generated
// data. The same Data loaded unsharded (LoadMT) and sharded under any
// placement must answer every query identically — the differential
// harness depends on it.
func LoadMTSharded(d *Data, nshards int, opts ...shard.Option) (*ShardedInstance, error) {
	cfg := d.Cfg
	opts = append([]shard.Option{shard.WithDataModeller(ModellerTTID)}, opts...)
	srv, err := shard.New(nshards, cfg.Mode, opts...)
	if err != nil {
		return nil, err
	}

	// Every server — shards and replica — carries the full conversion
	// registry and metadata; rewrites happen wherever a statement lands.
	servers := append([]*middleware.Server{}, srv.Shards()...)
	servers = append(servers, srv.Replica())
	for _, mw := range servers {
		if err := mw.Schema().Convs().Register(mtsql.ConvPair{
			Name: "currency", ToFunc: "currencyToUniversal", FromFunc: "currencyFromUniversal",
			Class: mtsql.ClassLinear,
		}); err != nil {
			return nil, err
		}
		if err := mw.Schema().Convs().Register(mtsql.ConvPair{
			Name: "phone", ToFunc: "phoneToUniversal", FromFunc: "phoneFromUniversal",
			Class: mtsql.ClassEqualityPreserving,
		}); err != nil {
			return nil, err
		}
	}

	// DDL through a sharded admin session fans out to every server under
	// the schema barrier.
	admin, err := srv.Connect(ModellerTTID)
	if err != nil {
		return nil, err
	}
	for _, group := range [][]string{metaDDL, globalDDL, tenantDDL} {
		for _, ddl := range group {
			if _, err := admin.Exec(ddl); err != nil {
				return nil, fmt.Errorf("mth: sharded DDL failed: %w", err)
			}
		}
	}
	for t := int64(1); t <= int64(cfg.Tenants); t++ {
		if err := srv.CreateTenant(t); err != nil {
			return nil, err
		}
	}

	// Conversion meta rows and global tables replicate everywhere.
	for _, mw := range servers {
		db := mw.DB()
		tenantT := db.Table("Tenant")
		ct := db.Table("CurrencyTransform")
		pt := db.Table("PhoneTransform")
		for t := int64(1); t <= int64(cfg.Tenants); t++ {
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

	// Tenant rows go to the owning shard only, preserving the generated
	// relative order within each shard (heap order is part of what the
	// differential suite compares through unordered scans).
	loadTenant := func(name string, rows [][]sqltypes.Value, tenants []int64, convert func(row []sqltypes.Value, t int64)) {
		parts := make([][][]sqltypes.Value, nshards)
		for i, row := range rows {
			t := tenants[i]
			nr := make([]sqltypes.Value, 0, len(row)+1)
			nr = append(nr, sqltypes.NewInt(t))
			nr = append(nr, row...)
			convert(nr, t)
			rank := srv.ShardOf(t)
			parts[rank] = append(parts[rank], nr)
		}
		for rank, mw := range srv.Shards() {
			mw.DB().Table(name).BulkLoad(parts[rank])
		}
	}
	loadTenant("customer", d.Customer, d.CustTenant, func(row []sqltypes.Value, t int64) {
		row[5] = sqltypes.NewString(d.ConvertPhone(row[5].S, t))
		row[6] = sqltypes.NewFloat(d.ConvertCurrency(row[6].F, t))
	})
	loadTenant("orders", d.Orders, d.OrderTenant, func(row []sqltypes.Value, t int64) {
		row[4] = sqltypes.NewFloat(d.ConvertCurrency(row[4].F, t))
	})
	loadTenant("lineitem", d.Lineitem, d.LineTenant, func(row []sqltypes.Value, t int64) {
		row[6] = sqltypes.NewFloat(d.ConvertCurrency(row[6].F, t))
	})
	return &ShardedInstance{Cfg: cfg, Srv: srv, Data: d}, nil
}

// GrantReadTo lets the given client read every tenant's data, like
// Instance.GrantReadTo. Grants are metadata and fan out to every server.
func (inst *ShardedInstance) GrantReadTo(client int64) error {
	return grantReadTo(inst.Srv.Connect, inst.Cfg.Tenants, client)
}

// Connect opens a sharded session with the given scope already set.
func (inst *ShardedInstance) Connect(ttid int64, scope string) (*shard.Conn, error) {
	return connectScoped(inst.Srv.Connect, ttid, scope)
}
