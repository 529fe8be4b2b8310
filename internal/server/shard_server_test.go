package server_test

// End-to-end acceptance for the sharded backend: mtserve fronting a
// shard.Server must return byte-identical results over TCP to the
// in-process sharded session, expose shard routing counters and per-shard
// admission counters through Stats, and keep the full prepared-statement
// surface working across the scatter/gather path.

import (
	"strings"
	"sync"
	"testing"

	"mtbase/internal/client"
	"mtbase/internal/engine"
	"mtbase/internal/mth"
	"mtbase/internal/optimizer"
	"mtbase/internal/server"
	"mtbase/internal/wire"
)

var (
	shE2EOnce sync.Once
	shE2EInst *mth.ShardedInstance
	shE2EAddr string
	shE2EErr  error
)

// shardE2E stands up one shared 2-shard instance over a loopback socket.
// Five uniform tenants hash onto both shards, so cross-tenant queries
// genuinely scatter.
func shardE2E(t *testing.T) (*mth.ShardedInstance, string) {
	t.Helper()
	shE2EOnce.Do(func() {
		cfg := mth.Config{SF: 0.002, Tenants: 5, Dist: mth.Uniform, Seed: 7, Mode: engine.ModePostgres}
		shE2EInst, shE2EErr = mth.BuildMTSharded(cfg, 2)
		if shE2EErr != nil {
			return
		}
		for c := int64(1); c <= 5; c++ {
			if shE2EErr = shE2EInst.GrantReadTo(c); shE2EErr != nil {
				return
			}
		}
		srv := server.NewSharded(shE2EInst.Srv, server.Config{})
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			shE2EErr = err
			return
		}
		shE2EAddr = addr.String()
	})
	if shE2EErr != nil {
		t.Fatal(shE2EErr)
	}
	return shE2EInst, shE2EAddr
}

// TestShardedE2EByteIdentical compares the wire path against the in-process
// sharded session (which the mth differential suite already pins to the
// unsharded oracle) across routing shapes: partial-agg pushdown (Q1, Q6,
// Q12) and the repartition fallback (Q22).
func TestShardedE2EByteIdentical(t *testing.T) {
	inst, addr := shardE2E(t)
	local, err := inst.Connect(1, "IN ()")
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []optimizer.Level{optimizer.Canonical, optimizer.O4} {
		remote, err := client.Dial(addr, 1, level.String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := remote.Exec(`SET SCOPE = "IN ()"`); err != nil {
			t.Fatal(err)
		}
		local.SetOptLevel(level)
		for _, id := range []int{1, 6, 12, 22} {
			q, err := mth.QueryByID(inst.Cfg.SF, id)
			if err != nil {
				t.Fatal(err)
			}
			want, err := mth.RunOnMT(local, q)
			if err != nil {
				t.Fatalf("%s Q%d local: %v", level, id, err)
			}
			got, err := remote.Query(q.SQL)
			if err != nil {
				t.Fatalf("%s Q%d remote: %v", level, id, err)
			}
			if exactKey(got) != exactKey(want) {
				t.Fatalf("%s Q%d: wire result differs from in-process sharded", level, id)
			}
		}
		remote.Close()
	}
}

func TestShardedE2EPreparedAndStats(t *testing.T) {
	inst, addr := shardE2E(t)
	remote, err := client.Dial(addr, 1, "o3")
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	if _, err := remote.Exec(`SET SCOPE = "IN ()"`); err != nil {
		t.Fatal(err)
	}
	local, err := inst.Connect(1, "IN ()")
	if err != nil {
		t.Fatal(err)
	}
	local.SetOptLevel(optimizer.O3)

	// A parameterized cross-tenant scan: prepared on the server, routed per
	// execution, byte-identical to the in-process prepared path.
	const sql = `SELECT c_custkey, c_name FROM customer WHERE c_acctbal > ? ORDER BY c_custkey LIMIT 10`
	rst, err := remote.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	defer rst.Close()
	lst, err := local.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, bal := range []float64{0, 2500} {
		want, err := lst.QueryResult(bal)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rst.QueryResult(bal)
		if err != nil {
			t.Fatal(err)
		}
		if exactKey(got) != exactKey(want) {
			t.Fatalf("prepared bal=%v differs over the wire", bal)
		}
	}

	pairs, err := remote.Stats()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int64{}
	for _, p := range pairs {
		byName[p.Name] = p.Value
	}
	if byName["shard.shards"] != 2 {
		t.Fatalf("shard.shards = %d over the wire: %v", byName["shard.shards"], pairs)
	}
	if byName["shard.routed_scatter"] <= 0 {
		t.Fatalf("no scatter routing visible in Stats: %v", pairs)
	}
	if byName["shard0.rows_streamed"] <= 0 || byName["shard1.rows_streamed"] <= 0 {
		t.Fatalf("per-shard engine counters missing: %v", pairs)
	}
	if byName["admission.shard0.admitted"]+byName["admission.shard1.admitted"] <= 0 {
		t.Fatalf("per-shard admission counters missing: %v", pairs)
	}
	if byName["server.statements"] <= 0 {
		t.Fatalf("server counters missing: %v", pairs)
	}

	// RewriteSQL goes through the shard session's rewriter.
	plan, err := remote.RewriteSQL(`SELECT c_name FROM customer WHERE c_custkey = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "ttid") {
		t.Fatalf("explain returned no rewritten SQL: %s", plan)
	}
}

// TestShardedE2EWritesAndDurabilityGate: single-tenant writes route over
// the wire, and durability operations are typed-unsupported on a sharded
// (ephemeral) server.
func TestShardedE2EWritesAndDurabilityGate(t *testing.T) {
	inst, addr := shardE2E(t)
	remote, err := client.Dial(addr, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	res, err := remote.Exec(`INSERT INTO region (r_regionkey, r_name, r_comment) VALUES (91, 'E2E', 'wire')`)
	if err != nil || res.Affected != 1 {
		t.Fatalf("global insert over wire: affected=%d err=%v", res.Affected, err)
	}
	// Global writes replicate to every shard and the replica.
	for rank, mw := range inst.Srv.Shards() {
		r, err := mw.DB().ExecSQL(`SELECT COUNT(*) FROM region WHERE r_regionkey = 91`)
		if err != nil || r.Rows[0][0].I != 1 {
			t.Fatalf("shard %d missing replicated global row: %v %v", rank, r, err)
		}
	}
	cnt, err := remote.Query(`SELECT COUNT(*) FROM region`)
	if err != nil || cnt.Rows[0][0].I != 6 {
		t.Fatalf("region count after wire insert: %v %v", cnt, err)
	}
	if _, err := remote.Exec(`DELETE FROM region WHERE r_regionkey = 91`); err != nil {
		t.Fatal(err)
	}
	// Sharded servers run without a Store: durability ops are typed errors,
	// not panics (non-admin tenants are refused before the store check).
	if _, err := remote.Snapshot(); wire.ErrCode(err) != wire.CodeAuth {
		t.Fatalf("snapshot on sharded server: %v", err)
	}
}
