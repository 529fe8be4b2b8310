// Command mtserve runs the MTBase network server: an MT-H instance served
// over TCP with per-tenant sessions, admission control and (with -data)
// write-ahead logged durability.
//
//	mtserve -addr :7687 -sf 0.01 -tenants 5                 # ephemeral
//	mtserve -data /var/lib/mtbase -snapshot-every 4096      # durable
//	mtserve -data dir -rate 100 -inflight 4 -tenant-conns 8 # admission limits
//	mtserve -shards 4 -sf 0.01 -tenants 16                  # tenant-partitioned
//
// With -data, the first start writes MANIFEST.json and an empty WAL; later
// starts recover the exact acknowledged state by rebuilding the manifest's
// deterministic base instance, installing the newest heap snapshot and
// replaying the WAL tail. SIGINT/SIGTERM shut down gracefully: in-flight
// statements finish, new ones are refused, the WAL is synced.
//
// Connect with mtsh -connect host:port, or programmatically via
// internal/client.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mtbase/internal/engine"
	"mtbase/internal/mth"
	"mtbase/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", fmt.Sprintf(":%d", 7687), "listen address")
		sf        = flag.Float64("sf", 0.01, "MT-H scale factor")
		tenants   = flag.Int("tenants", 5, "number of tenants")
		dist      = flag.String("dist", "uniform", "tenant size distribution (uniform|zipf)")
		seed      = flag.Int64("seed", 42, "data generator seed")
		mode      = flag.String("mode", "postgres", "engine mode (postgres|system-c)")
		grantAll  = flag.Bool("grant-all", true, "grant every tenant read access to every tenant (the paper's evaluation setup)")
		data      = flag.String("data", "", "durability directory (empty = ephemeral, no WAL)")
		snapEvery = flag.Int("snapshot-every", 4096, "records between automatic snapshots (0 disables)")
		shards    = flag.Int("shards", 1, "number of tenant-partitioned engine shards (1 = unsharded)")

		maxConns    = flag.Int("max-conns", 0, "max concurrent connections (0 = unlimited)")
		tenantConns = flag.Int("tenant-conns", 0, "max concurrent connections per tenant (0 = unlimited)")
		rate        = flag.Float64("rate", 0, "statement rate limit per tenant, statements/sec (0 = unlimited)")
		burst       = flag.Int("burst", 0, "statement rate burst (0 = ceil(rate))")
		inflight    = flag.Int("inflight", 0, "max in-flight statements per tenant (0 = unlimited)")
		stmtWait    = flag.Duration("wait", time.Second, "longest a rate-limited statement waits for a token")

		memLimit    = flag.Int64("memlimit", 0, "engine memory budget in bytes (0 = unlimited)")
		spillDir    = flag.String("spill-dir", "", "spill directory (default: system temp)")
		parallelism = flag.Int("parallelism", 0, "engine worker count (0 = GOMAXPROCS)")
		drain       = flag.Duration("drain", 15*time.Second, "graceful shutdown drain timeout")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("mtserve: ")

	man := server.Manifest{
		SF: *sf, Tenants: *tenants, Dist: *dist, Seed: *seed, Mode: *mode, GrantAll: *grantAll,
	}

	limits := server.Limits{
		MaxConns: *maxConns, TenantConns: *tenantConns,
		StmtRate: *rate, StmtBurst: *burst,
		TenantInflight: *inflight, MaxStmtWait: *stmtWait,
	}

	// Each tier ends in a server and the engines behind it.
	var (
		srv  *server.Server
		dbs  []*engine.DB
		scfg = server.Config{AdminTenant: mth.ModellerTTID, Limits: limits}
	)
	switch {
	case *shards > 1:
		if *data != "" {
			log.Fatal("-shards and -data are mutually exclusive: durability is an unsharded-tier feature")
		}
		cfg, err := man.Config()
		if err != nil {
			log.Fatal(err)
		}
		sinst, err := mth.BuildMTSharded(cfg, *shards)
		if err != nil {
			log.Fatal(err)
		}
		if *grantAll {
			grantReadToAll(cfg.Tenants, sinst.GrantReadTo)
		}
		for _, mw := range sinst.Srv.Shards() {
			dbs = append(dbs, mw.DB())
		}
		dbs = append(dbs, sinst.Srv.Replica().DB())
		log.Printf("sharded: shards=%d sf=%g tenants=%d mode=%s", *shards, *sf, *tenants, *mode)
		srv = server.NewSharded(sinst.Srv, scfg)
	case *data != "":
		// The store applies the manifest's grant-all itself, on first start
		// and on every recovery.
		st, err := server.OpenStore(*data, man, *snapEvery)
		if err != nil {
			log.Fatal(err)
		}
		eff := st.Manifest()
		log.Printf("durable: dir=%s sf=%g tenants=%d mode=%s recovered=%d records (lsn %d)",
			*data, eff.SF, eff.Tenants, eff.Mode, st.Recovered(), st.LastLSN())
		mw := st.Instance().Srv
		dbs = []*engine.DB{mw.DB()}
		srv = server.New(mw, st, scfg)
	default:
		cfg, err := man.Config()
		if err != nil {
			log.Fatal(err)
		}
		inst, err := mth.BuildMT(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if *grantAll {
			grantReadToAll(cfg.Tenants, inst.GrantReadTo)
		}
		log.Printf("ephemeral: sf=%g tenants=%d mode=%s", *sf, *tenants, *mode)
		dbs = []*engine.DB{inst.Srv.DB()}
		srv = server.New(inst.Srv, nil, scfg)
	}
	for _, db := range dbs {
		if *memLimit > 0 {
			db.SetMemoryLimit(*memLimit)
		}
		if *spillDir != "" {
			db.SetSpillDir(*spillDir)
		}
		if *parallelism > 0 {
			db.SetParallelism(*parallelism)
		}
	}
	serveUntilSignal(srv, *addr, *drain)
}

// grantReadToAll gives every tenant read access to every tenant's data, the
// paper's evaluation setup.
func grantReadToAll(tenants int, grantReadTo func(ttid int64) error) {
	for t := int64(1); t <= int64(tenants); t++ {
		if err := grantReadTo(t); err != nil {
			log.Fatal(err)
		}
	}
}

// serveUntilSignal listens, blocks for SIGINT/SIGTERM, then drains.
func serveUntilSignal(srv *server.Server, addr string, drain time.Duration) {
	bound, err := srv.Listen(addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("listening on %s", bound)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	sig := <-sigc
	log.Printf("%s: draining (timeout %s)", sig, drain)
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	log.Printf("clean shutdown")
}
