package main

import (
	"mtbase/internal/engine"
	"mtbase/internal/mth"
)

// workload is one named set of inputs. Names are fixed: later issues cite
// them. Why records what the workload was chosen to expose.
type workload struct {
	Name     string    `json:"name"`
	Why      string    `json:"why"`
	Tier     string    `json:"tier"`
	SF       float64   `json:"sf"`
	Tenants  int       `json:"tenants"`
	Dist     string    `json:"dist"`
	Level    string    `json:"level"`
	Shards   int       `json:"shards,omitempty"`
	Clients  int       `json:"clients"`
	Loop     string    `json:"loop"`
	Sessions []session `json:"sessions"`
	Kinds    []string  `json:"kinds"`

	// allocShare is the weight of the yardstick's alloc kernel in this
	// workload's machine speed (yardstick.go): 1 where the engine's
	// allocation-heavy execution is the work, 0.5 where front-end or
	// serving code is.
	allocShare float64
	// warmMix is how many generated ops per client the warm-up sends after
	// the distinct statements (wire-oltp: so the write path is warm too).
	warmMix int
	build   func(w *workload, cfg mth.Config, seed int64, dir string) (deployment, generator, error)
}

func (w *workload) config(seed int64) mth.Config {
	return mth.Config{SF: w.SF, Tenants: w.Tenants, Dist: mth.Distribution(w.Dist), Seed: seed, Mode: engine.ModePostgres}
}

func buildCycle(kinds []fixedKind) func(*workload, mth.Config, int64, string) (deployment, generator, error) {
	return func(w *workload, cfg mth.Config, seed int64, _ string) (deployment, generator, error) {
		dep, err := deployMW(cfg, w.Sessions, w.Level, false)
		if err != nil {
			return nil, nil, err
		}
		gen, err := newCycleGen(cfg.SF, seed, kinds)
		return dep, gen, err
	}
}

func kindNames(kinds []fixedKind) []string {
	out := make([]string, len(kinds))
	for i, k := range kinds {
		out[i] = kindName(k.id) + k.suffix
	}
	return out
}

func allTemplates() []string {
	out := make([]string, 22)
	for i := range out {
		out[i] = kindName(i + 1)
	}
	return out
}

var (
	analyticKinds  = []fixedKind{{id: 1}, {id: 3}, {id: 6}, {id: 10}, {id: 18}, {id: 22}}
	canonicalKinds = []fixedKind{{id: 1}, {id: 6}, {id: 22}}
	scatterKinds   = []fixedKind{{id: 1}, {id: 6}, {id: 3}, {id: 22}, {id: 6, sess: 1, suffix: "_single"}}
)

const closedLoop = "closed: each client sends its next statement when the previous reply is drained and checked"

// workloads returns the benchmark's five workloads.
func workloads() []*workload {
	return []*workload{
		{
			Name: "xt-analytic",
			Why:  "Cross-tenant analytics at o4 with every statement cache warm: engine execute is >=90% of each statement, so executor changes show here and front-end changes must not.",
			Tier: "in-process middleware.Conn", SF: 0.01, Tenants: 10, Dist: "uniform", Level: "o4", Clients: 1, Loop: closedLoop,
			Sessions:   []session{{Tenant: 1, Scope: "IN ()"}},
			Kinds:      kindNames(analyticKinds),
			allocShare: 1,
			build:      buildCycle(analyticKinds),
		},
		{
			Name: "xt-canonical",
			Why:  "Same deployment at level canonical: time goes to conversion-UDF calls, not vectorized kernels; the bottom rung of the paper's ladder, read beside xt-analytic to expose inversions.",
			Tier: "in-process middleware.Conn", SF: 0.01, Tenants: 10, Dist: "uniform", Level: "canonical", Clients: 1, Loop: closedLoop,
			Sessions:   []session{{Tenant: 1, Scope: "IN ()"}},
			Kinds:      kindNames(canonicalKinds),
			allocShare: 1,
			build:      buildCycle(canonicalKinds),
		},
		{
			Name: "mtsql-compile",
			Why:  "Middleware as a compiler, nothing executed: 2068 distinct texts (4x the 512-entry caches) so every op misses every cache; parse, rewrite, optimize, serialize and plan lowering do all the work.",
			Tier: "in-process middleware.Conn (RewriteSQL + PreparePlan)", SF: 0.001, Tenants: 10, Dist: "uniform", Level: "o4", Clients: 1, Loop: closedLoop,
			Sessions:   []session{{Tenant: 1, Scope: "IN (2,3,5)"}},
			Kinds:      allTemplates(),
			allocShare: 0.5,
			build: func(w *workload, cfg mth.Config, seed int64, _ string) (deployment, generator, error) {
				dep, err := deployMW(cfg, w.Sessions, w.Level, true)
				if err != nil {
					return nil, nil, err
				}
				gen, err := newCompileGen(cfg.SF, seed)
				return dep, gen, err
			},
		},
		{
			Name: "wire-oltp",
			Why:  "Served path with durability: short single-tenant prepared reads and WAL-logged writes from two client sessions over TCP, so wire, server, client and wal dominate; the only concurrent workload.",
			Tier: "client.Conn -> mtserve (server.New over server.OpenStore) on TCP loopback", SF: 0.01, Tenants: 10, Dist: "uniform", Level: "o4", Clients: 2, Loop: closedLoop,
			Sessions:   []session{{Tenant: 2}, {Tenant: 3}},
			Kinds:      oltpKinds,
			warmMix:    40,
			allocShare: 0.5,
			build: func(w *workload, cfg mth.Config, seed int64, dir string) (deployment, generator, error) {
				dep, err := deployWire(cfg, w.Sessions, w.Level, dir)
				if err != nil {
					return nil, nil, err
				}
				return dep, dep.newGen(seed), nil
			},
		},
		{
			Name: "shard-scatter",
			Why:  "Four shards under zipf tenants (one heavy): partial-aggregate fold, merge, repartition fallback and single-shard routing do visible work only here; the slowest part sets each scatter's time.",
			Tier: "in-process shard.Conn", SF: 0.01, Tenants: 16, Dist: "zipf", Level: "o4", Shards: 4, Clients: 1, Loop: closedLoop,
			Sessions:   []session{{Tenant: 1, Scope: "IN ()"}, {Tenant: 1, Scope: "IN (7)"}},
			Kinds:      kindNames(scatterKinds),
			allocShare: 1,
			build: func(w *workload, cfg mth.Config, seed int64, _ string) (deployment, generator, error) {
				dep, err := deployShard(cfg, w.Shards, w.Sessions, w.Level)
				if err != nil {
					return nil, nil, err
				}
				gen, err := newCycleGen(cfg.SF, seed, scatterKinds)
				return dep, gen, err
			},
		},
	}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.Name == name {
			return w
		}
	}
	return nil
}
