package mth

// Sharded MT-H deployment: the same schema, conversion metadata and
// generated rows as LoadMT, stood up over a shard.Server by the same loader
// (load). Metadata, global tables and conversion meta rows replicate to every
// shard AND the coordinator replica; each tenant's rows bulk load onto its
// owning shard only (the replica holds none, ever: a repartition fallback reads
// the shards' rows as statement-local relations over its empty tenant tables).

import (
	"mtbase/internal/middleware"
	"mtbase/internal/shard"
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
	opts = append([]shard.Option{shard.WithDataModeller(ModellerTTID)}, opts...)
	srv, err := shard.New(nshards, d.Cfg.Mode, opts...)
	if err != nil {
		return nil, err
	}
	meta := append(append([]*middleware.Server{}, srv.Shards()...), srv.Replica())
	if err := load(d, srv.Connect, srv.CreateTenant, meta, srv.Shards(), srv.ShardOf); err != nil {
		return nil, err
	}
	return &ShardedInstance{Cfg: d.Cfg, Srv: srv, Data: d}, nil
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
