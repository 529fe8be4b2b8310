package mtbase

// Benchmarks regenerating every table and figure of the paper's
// evaluation at laptop scale. One testing.B benchmark corresponds to one
// paper artifact; the mtbench CLI runs the same specs with configurable
// scale and prints the paper-style tables.
//
// Per-query micro benchmarks for the conversion-intensive queries the
// paper focuses on (Q1, Q6, Q22) expose individual (query, level) timings
// via sub-benchmarks.

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mtbase/internal/bench"
	"mtbase/internal/client"
	"mtbase/internal/engine"
	"mtbase/internal/mth"
	"mtbase/internal/optimizer"
	"mtbase/internal/server"
)

// benchSF keeps `go test -bench=.` tractable; mtbench -sf raises it.
const benchSF = 0.002

const benchTenants = 5

func runTable(b *testing.B, number int) {
	spec, err := bench.TableSpec(number, benchSF, benchTenants)
	if err != nil {
		b.Fatal(err)
	}
	spec.Repeats = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunOptLevels(spec, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 — optimization levels, PostgreSQL mode, C=1, D={1}.
func BenchmarkTable3(b *testing.B) { runTable(b, 3) }

// BenchmarkTable4 — optimization levels, PostgreSQL mode, C=1, D={2}.
func BenchmarkTable4(b *testing.B) { runTable(b, 4) }

// BenchmarkTable5 — optimization levels, PostgreSQL mode, C=1, D=all.
func BenchmarkTable5(b *testing.B) { runTable(b, 5) }

// BenchmarkTable7 — optimization levels, System C mode, C=1, D={1}.
func BenchmarkTable7(b *testing.B) { runTable(b, 7) }

// BenchmarkTable8 — optimization levels, System C mode, C=1, D={2}.
func BenchmarkTable8(b *testing.B) { runTable(b, 8) }

// BenchmarkTable9 — optimization levels, System C mode, C=1, D=all.
func BenchmarkTable9(b *testing.B) { runTable(b, 9) }

func runFigure(b *testing.B, number int) {
	spec, err := bench.FigureSpec(number, benchSF, []int{1, 5, 25})
	if err != nil {
		b.Fatal(err)
	}
	spec.Repeats = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunScaling(spec, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5 — tenant scaling of Q1/Q6/Q22, PostgreSQL mode.
func BenchmarkFigure5(b *testing.B) { runFigure(b, 5) }

// BenchmarkFigure6 — tenant scaling of Q1/Q6/Q22, System C mode.
func BenchmarkFigure6(b *testing.B) { runFigure(b, 6) }

// BenchmarkQuery measures the conversion-intensive queries per
// optimization level on a shared instance (PostgreSQL mode, D = all).
func BenchmarkQuery(b *testing.B) {
	cfg := mth.Config{SF: benchSF, Tenants: benchTenants, Dist: mth.Uniform, Seed: 42, Mode: engine.ModePostgres}
	inst, err := mth.LoadMT(mth.Generate(cfg))
	if err != nil {
		b.Fatal(err)
	}
	if err := inst.GrantReadTo(1); err != nil {
		b.Fatal(err)
	}
	conn, err := inst.Connect(1, "IN ()")
	if err != nil {
		b.Fatal(err)
	}
	db := inst.Srv.DB()
	for _, id := range []int{1, 6, 22} {
		q, err := mth.QueryByID(cfg.SF, id)
		if err != nil {
			b.Fatal(err)
		}
		for _, level := range []optimizer.Level{
			optimizer.Canonical, optimizer.O1, optimizer.O2,
			optimizer.O3, optimizer.O4, optimizer.InlOnly,
		} {
			b.Run(q.Name+"/"+level.String(), func(b *testing.B) {
				b.ReportAllocs()
				conn.SetOptLevel(level)
				db.Stats = engine.Stats{}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := mth.RunOnMT(conn, q); err != nil {
						b.Fatal(err)
					}
				}
				// Streaming-executor counters: rows moved between operators
				// per execution, and the largest batch any operator emitted.
				// A jump in rows_streamed/op (or peak_batch past the batch
				// size) flags accidental materialization.
				b.ReportMetric(float64(db.Stats.RowsStreamed)/float64(b.N), "rows_streamed/op")
				b.ReportMetric(float64(db.Stats.PeakBatch), "peak_batch")
			})
		}
	}
}

// BenchmarkQuerySpill measures the memory-bound execution path: Q1 (wide
// grouped aggregation) and Q18 (join + group + sort over the largest
// intermediate) at the unlimited default, a 1MB cap and a 64KB cap. The
// capped runs overflow sort buffers, group tables and join builds to
// disk; spill_runs/op, spill_mb/op and peak_mem_bytes report how much of
// each statement went through the external path. The unlimited row is the
// latency baseline — no accountant is armed there, so its memory metrics
// read zero by design.
func BenchmarkQuerySpill(b *testing.B) {
	cfg := mth.Config{SF: benchSF, Tenants: benchTenants, Dist: mth.Uniform, Seed: 42, Mode: engine.ModePostgres}
	inst, err := mth.LoadMT(mth.Generate(cfg))
	if err != nil {
		b.Fatal(err)
	}
	if err := inst.GrantReadTo(1); err != nil {
		b.Fatal(err)
	}
	conn, err := inst.Connect(1, "IN ()")
	if err != nil {
		b.Fatal(err)
	}
	conn.SetOptLevel(optimizer.O4)
	db := inst.Srv.DB()
	db.SetSpillDir(b.TempDir())
	defer db.SetSpillDir("")
	defer db.SetMemoryLimit(0)
	for _, id := range []int{1, 18} {
		q, err := mth.QueryByID(cfg.SF, id)
		if err != nil {
			b.Fatal(err)
		}
		for _, lim := range []struct {
			name  string
			bytes int64
		}{{"unlimited", 0}, {"mem1MB", 1 << 20}, {"mem64KB", 64 << 10}} {
			b.Run(fmt.Sprintf("%s/%s", q.Name, lim.name), func(b *testing.B) {
				db.SetMemoryLimit(lim.bytes)
				// Warm plan and UDF caches so the series compares execution.
				if _, err := mth.RunOnMT(conn, q); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				db.Stats = engine.Stats{}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := mth.RunOnMT(conn, q); err != nil {
						b.Fatal(err)
					}
				}
				st := db.Stats.Snapshot()
				b.ReportMetric(float64(st.SpillRuns)/float64(b.N), "spill_runs/op")
				b.ReportMetric(float64(st.SpillBytes)/float64(b.N)/(1<<20), "spill_mb/op")
				b.ReportMetric(float64(st.PeakMemBytes), "peak_mem_bytes")
			})
		}
	}
}

// BenchmarkQueryPlanCache isolates per-statement planning cost on the
// conversion-heavy Q1 at the canonical level (the worst-case statement
// text the rewrite emits). "cold" drops the middleware statement caches and
// the engine plan cache before every execution, so each iteration pays
// parse + rewrite + optimize + serialize + reparse + lowering; "warm" reuses
// the cached plan and reports the plan-cache hit rate as a custom metric so
// BENCH_*.json records that the cache actually served the runs.
func BenchmarkQueryPlanCache(b *testing.B) {
	cfg := mth.Config{SF: benchSF, Tenants: benchTenants, Dist: mth.Uniform, Seed: 42, Mode: engine.ModePostgres}
	inst, err := mth.LoadMT(mth.Generate(cfg))
	if err != nil {
		b.Fatal(err)
	}
	if err := inst.GrantReadTo(1); err != nil {
		b.Fatal(err)
	}
	conn, err := inst.Connect(1, "IN ()")
	if err != nil {
		b.Fatal(err)
	}
	conn.SetOptLevel(optimizer.Canonical)
	q, err := mth.QueryByID(cfg.SF, 1)
	if err != nil {
		b.Fatal(err)
	}
	db := inst.Srv.DB()
	// Planning only — no execution: client parse + rewrite + optimize +
	// serialize + engine parse + lowering analysis. The cold/warm delta IS
	// the per-statement planning cost the cache eliminates.
	rewritten, err := conn.RewriteSQL(q.SQL)
	if err != nil {
		b.Fatal(err)
	}
	txt := rewritten.String()
	b.Run("q1-canonical-plan-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inst.Srv.InvalidateStatementCaches()
			rw, err := conn.RewriteSQL(q.SQL)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := db.Prepare(rw.String()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("q1-canonical-plan-warm", func(b *testing.B) {
		if _, err := db.Prepare(txt); err != nil {
			b.Fatal(err)
		}
		db.Stats = engine.Stats{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Prepare(txt); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(db.Stats.PlanCacheHits)/float64(b.N), "plan_hits/op")
		b.ReportMetric(float64(db.Stats.PlanCacheMisses)/float64(b.N), "plan_misses/op")
	})
	// End-to-end: the same statement with execution included.
	b.Run("q1-canonical-cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inst.Srv.InvalidateStatementCaches()
			if _, err := mth.RunOnMT(conn, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("q1-canonical-warm", func(b *testing.B) {
		if _, err := mth.RunOnMT(conn, q); err != nil {
			b.Fatal(err)
		}
		db.Stats = engine.Stats{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := mth.RunOnMT(conn, q); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(db.Stats.PlanCacheHits)/float64(b.N), "plan_hits/op")
		b.ReportMetric(float64(db.Stats.PlanCacheMisses)/float64(b.N), "plan_misses/op")
	})
}

// BenchmarkQueryParam measures the conversion-intensive queries with
// literal-varying workloads: each iteration runs a *distinct* binding.
// "binds" executes one prepared, parameterized text (every execution after
// the first hits the rewrite and plan caches — param_hits/op reports the
// engine plan-cache hit rate); "inlined" serializes the same values as
// literals, so every iteration is a byte-distinct text that misses every
// cache. The delta is the planning cost this API removes from realistic
// traffic.
func BenchmarkQueryParam(b *testing.B) {
	cfg := mth.Config{SF: benchSF, Tenants: benchTenants, Dist: mth.Uniform, Seed: 42, Mode: engine.ModePostgres}
	inst, err := mth.LoadMT(mth.Generate(cfg))
	if err != nil {
		b.Fatal(err)
	}
	if err := inst.GrantReadTo(1); err != nil {
		b.Fatal(err)
	}
	conn, err := inst.Connect(1, "IN ()")
	if err != nil {
		b.Fatal(err)
	}
	conn.SetOptLevel(optimizer.O4)
	db := inst.Srv.DB()
	for _, pq := range mth.ParamQueries() {
		st, err := conn.Prepare(pq.SQL)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("Q%02d/binds", pq.ID), func(b *testing.B) {
			// Warm the caches once so param_hits/op reports the steady state
			// (every measured execution is a hit) independent of benchtime.
			if _, err := st.QueryResult(pq.Args(0)...); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			db.Stats = engine.Stats{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.QueryResult(pq.Args(i + 1)...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(db.Stats.PlanCacheHits)/float64(b.N), "param_hits/op")
		})
		b.Run(fmt.Sprintf("Q%02d/inlined", pq.ID), func(b *testing.B) {
			b.ReportAllocs()
			db.Stats = engine.Stats{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := conn.Query(pq.Inlined(i)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(db.Stats.PlanCacheHits)/float64(b.N), "param_hits/op")
		})
	}
}

// BenchmarkQueryScaling measures intra-query parallel speedup: Q1 at the
// canonical level (the conversion-heavy worst case) on a dataset large
// enough for the morsel paths to engage, at 1/2/4/8 workers. The par1
// sub-benchmark is the serial oracle; the ns/op ratio across the series is
// the scaling curve bench.sh records into BENCH_*.json.
func BenchmarkQueryScaling(b *testing.B) {
	// Bigger than benchSF so every parallel operator (scan filter,
	// aggregate columns, join builds, sort runs) clears the 2-morsel
	// threshold at the default morsel size.
	cfg := mth.Config{SF: 0.02, Tenants: benchTenants, Dist: mth.Uniform, Seed: 42, Mode: engine.ModePostgres}
	inst, err := mth.LoadMT(mth.Generate(cfg))
	if err != nil {
		b.Fatal(err)
	}
	if err := inst.GrantReadTo(1); err != nil {
		b.Fatal(err)
	}
	conn, err := inst.Connect(1, "IN ()")
	if err != nil {
		b.Fatal(err)
	}
	conn.SetOptLevel(optimizer.Canonical)
	db := inst.Srv.DB()
	defer db.SetParallelism(0)
	q, err := mth.QueryByID(cfg.SF, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("q1-canonical/par%d", par), func(b *testing.B) {
			db.SetParallelism(par)
			// Warm plan and UDF caches so the series compares execution.
			if _, err := mth.RunOnMT(conn, q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := mth.RunOnMT(conn, q); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(par), "workers")
		})
	}
}

// BenchmarkShardScaling measures the conversion-intensive queries (Q1, Q6,
// Q22) over tenant-partitioned engine shards at 1/2/4/8 shards, cross-tenant
// scope, O4. The shards1 series is the unsharded-equivalent oracle (the
// router passes statements straight through); the ns/op trajectory across
// the series prices D′-routed scatter/gather — partial-agg pushdown for
// Q1/Q6, the staged plan (a hoisted AVG, then a partial fold) for Q22. One
// dataset is generated once and re-partitioned per shard count, so every
// series answers over identical rows.
func BenchmarkShardScaling(b *testing.B) {
	cfg := mth.Config{SF: 0.01, Tenants: 16, Dist: mth.Uniform, Seed: 42, Mode: engine.ModePostgres}
	data := mth.Generate(cfg)
	for _, nshards := range []int{1, 2, 4, 8} {
		inst, err := mth.LoadMTSharded(data, nshards)
		if err != nil {
			b.Fatal(err)
		}
		if err := inst.GrantReadTo(1); err != nil {
			b.Fatal(err)
		}
		conn, err := inst.Connect(1, "IN ()")
		if err != nil {
			b.Fatal(err)
		}
		conn.SetOptLevel(optimizer.O4)
		for _, id := range []int{1, 6, 22} {
			q, err := mth.QueryByID(cfg.SF, id)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/shards%d", q.Name, nshards), func(b *testing.B) {
				// Warm plan and UDF caches on every shard so the series
				// compares execution, not first-touch planning.
				if _, err := mth.RunOnMT(conn, q); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := mth.RunOnMT(conn, q); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(nshards), "shards")
			})
		}
	}
}

// BenchmarkMixedReadWrite measures read throughput while writers commit
// continuously: background goroutines insert into and update a side table
// (publishing fresh table snapshots under DB.mu) while the measured loop
// runs parallel aggregate scans over lineitem and advances an open cursor
// pinned before the writes began. Reported metrics: qps (measured reads
// per second), read latency p50/p99 in milliseconds, and the write commits
// per second that overlapped them — the snapshot-isolation concurrency
// story in one number set.
func BenchmarkMixedReadWrite(b *testing.B) {
	cfg := mth.Config{SF: 0.01, Tenants: benchTenants, Dist: mth.Uniform, Seed: 42, Mode: engine.ModePostgres}
	inst, err := mth.LoadMT(mth.Generate(cfg))
	if err != nil {
		b.Fatal(err)
	}
	if err := inst.GrantReadTo(1); err != nil {
		b.Fatal(err)
	}
	conn, err := inst.Connect(1, "IN ()")
	if err != nil {
		b.Fatal(err)
	}
	conn.SetOptLevel(optimizer.O4)
	db := inst.Srv.DB()
	defer db.SetParallelism(0)
	db.SetParallelism(4)
	if _, err := db.ExecSQL(`CREATE TABLE bench_audit (id INTEGER NOT NULL, v INTEGER NOT NULL)`); err != nil {
		b.Fatal(err)
	}
	q, err := mth.QueryByID(cfg.SF, 6)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := mth.RunOnMT(conn, q); err != nil { // warm caches
		b.Fatal(err)
	}

	// Cursor pinned before any writer commits; advanced between reads and
	// drained after the writers stop — it must still see its snapshot.
	cursor, err := db.QueryRows(`SELECT l_orderkey FROM lineitem`)
	if err != nil {
		b.Fatal(err)
	}
	defer cursor.Close()

	stop := make(chan struct{})
	var writes int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.ExecSQL(fmt.Sprintf(`INSERT INTO bench_audit VALUES (%d, %d)`, w*1_000_000+i, i)); err != nil {
					b.Error(err)
					return
				}
				if i%8 == 0 {
					if _, err := db.ExecSQL(fmt.Sprintf(`UPDATE bench_audit SET v = v + 1 WHERE id %% 13 = %d`, i%13)); err != nil {
						b.Error(err)
						return
					}
				}
				atomic.AddInt64(&writes, 1)
			}
		}(w)
	}

	lat := make([]time.Duration, 0, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := mth.RunOnMT(conn, q); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(t0))
		if !cursor.Next() {
			b.Fatal("open cursor exhausted early or failed:", cursor.Err())
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	close(stop)
	wg.Wait()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		idx := int(p * float64(len(lat)-1))
		return float64(lat[idx].Nanoseconds()) / 1e6
	}
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "qps")
	b.ReportMetric(pct(0.50), "p50_ms")
	b.ReportMetric(pct(0.99), "p99_ms")
	b.ReportMetric(float64(writes)/elapsed.Seconds(), "writes_per_sec")
}

// BenchmarkRewrite isolates the middleware's own cost: parse + canonical
// rewrite + optimization of Q1 without execution (the paper argues this
// overhead is negligible compared to execution).
func BenchmarkRewrite(b *testing.B) {
	cfg := mth.Config{SF: benchSF, Tenants: benchTenants, Dist: mth.Uniform, Seed: 42, Mode: engine.ModePostgres}
	inst, err := mth.LoadMT(mth.Generate(cfg))
	if err != nil {
		b.Fatal(err)
	}
	if err := inst.GrantReadTo(1); err != nil {
		b.Fatal(err)
	}
	conn, err := inst.Connect(1, "IN ()")
	if err != nil {
		b.Fatal(err)
	}
	q, err := mth.QueryByID(cfg.SF, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, level := range []optimizer.Level{optimizer.Canonical, optimizer.O4} {
		b.Run(level.String(), func(b *testing.B) {
			b.ReportAllocs()
			conn.SetOptLevel(level)
			for i := 0; i < b.N; i++ {
				if _, err := conn.RewriteSQL(q.SQL); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// serveBench lazily starts one wire server over the benchmark dataset,
// shared by every BenchmarkServe sub-benchmark.
var serveBench struct {
	once sync.Once
	addr string
	err  error
	stop func()
}

func serveBenchAddr(b *testing.B) string {
	serveBench.once.Do(func() {
		cfg := mth.Config{SF: benchSF, Tenants: benchTenants, Dist: mth.Uniform, Seed: 42, Mode: engine.ModePostgres}
		inst, err := mth.LoadMT(mth.Generate(cfg))
		if err != nil {
			serveBench.err = err
			return
		}
		if err := inst.GrantReadTo(1); err != nil {
			serveBench.err = err
			return
		}
		srv := server.New(inst.Srv, nil, server.Config{})
		bound, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			serveBench.err = err
			return
		}
		serveBench.addr = bound.String()
		serveBench.stop = func() { srv.Shutdown(context.Background()) }
	})
	if serveBench.err != nil {
		b.Fatal(serveBench.err)
	}
	return serveBench.addr
}

// BenchmarkServe measures Q6 over the mtserve wire protocol — a real TCP
// loopback round trip per execution — one sub-benchmark per optimization
// level. Reported metrics mirror BenchmarkMixedReadWrite: qps, p50_ms and
// p99_ms, so bench.sh records the wire numbers on the same JSON trajectory
// and the in-process numbers beside them put a price on the network hop.
func BenchmarkServe(b *testing.B) {
	addr := serveBenchAddr(b)
	q, err := mth.QueryByID(benchSF, 6)
	if err != nil {
		b.Fatal(err)
	}
	for _, level := range optimizer.Levels {
		b.Run(level.String(), func(b *testing.B) {
			conn, err := client.Dial(addr, 1, level.String())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Exec(`SET SCOPE = "IN ()"`); err != nil {
				b.Fatal(err)
			}
			if _, err := conn.Query(q.SQL); err != nil { // warm caches
				b.Fatal(err)
			}
			lat := make([]time.Duration, 0, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, err := conn.Query(q.SQL); err != nil {
					b.Fatal(err)
				}
				lat = append(lat, time.Since(t0))
			}
			elapsed := time.Since(start)
			b.StopTimer()
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			pct := func(p float64) float64 {
				if len(lat) == 0 {
					return 0
				}
				return float64(lat[int(p*float64(len(lat)-1))].Nanoseconds()) / 1e6
			}
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "qps")
			b.ReportMetric(pct(0.50), "p50_ms")
			b.ReportMetric(pct(0.99), "p99_ms")
		})
	}
}
