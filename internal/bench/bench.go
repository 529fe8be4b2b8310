// Package bench is the MT-H experiment driver: it regenerates every table
// and figure of the paper's evaluation (§6 and Appendices C/D) — response
// times of the 22 queries across optimization levels (Tables 3–5 on the
// PostgreSQL-like engine, Tables 7–9 on the System-C-like engine) and the
// tenant-scaling curves for Q1/Q6/Q22 (Figures 5 and 6).
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/mth"
	"mtbase/internal/optimizer"
)

// OptSpec parameterizes one optimization-level table (Tables 3–5, 7–9).
type OptSpec struct {
	Label   string // e.g. "Table 3"
	SF      float64
	Tenants int
	Dist    mth.Distribution
	Mode    engine.Mode
	C       int64
	Scope   string  // MTSQL scope text, e.g. "IN (1)" or "IN ()"
	BaseSF  float64 // plain TPC-H baseline scale factor
	Repeats int     // runs per query: one warm-up, then the median of the rest is reported (timeRuns)
	Queries []int   // query ids; nil = all 22

	// Levels restricts the table to these optimization levels (nil = all
	// six of the paper's Table 6) — one level is what a profile wants.
	Levels []optimizer.Level

	// Parallelism sets the engine's intra-query worker count for the
	// measured runs (0 keeps the engine default, GOMAXPROCS; 1 is the
	// serial oracle). Sharded, it is the gather replica's, and each shard
	// engine runs max(1, Parallelism/Shards) (shard.Server.PartWorkers).
	Parallelism int

	// MemLimit caps per-statement working memory in bytes (0 keeps the
	// unlimited default); capped runs overflow sort buffers, group
	// tables and join builds to disk and the table reports what spilled.
	MemLimit int64

	// Shards partitions tenants over N engine shards (0/1 = unsharded);
	// the table then measures the D′-routed scatter/gather path, with
	// engine counters summed over shards and the gather replica.
	Shards int
}

// Levels evaluated in every table (Table 6 of the paper).
var levels = []optimizer.Level{
	optimizer.Canonical, optimizer.O1, optimizer.O2,
	optimizer.O3, optimizer.O4, optimizer.InlOnly,
}

func (s OptSpec) levels() []optimizer.Level {
	if len(s.Levels) > 0 {
		return s.Levels
	}
	return levels
}

// OptResult holds measured response times in seconds.
type OptResult struct {
	Spec       OptSpec
	QueryIDs   []int
	Baseline   []float64                                  // plain TPC-H per query
	Times      map[optimizer.Level][]float64              // per level, per query
	UDFCalls   map[optimizer.Level][]int64                // ablation metric
	Joins      map[optimizer.Level][]engine.StatsSnapshot // ablation metric: the Join* and ExprSlot* counters — which path the hash joins took, what the operators shared
	Allocs     map[optimizer.Level][]uint64               // heap allocations of the measured run
	PlanHits   map[optimizer.Level][]int64                // engine plan-cache hits across the runs
	PlanMisses map[optimizer.Level][]int64                // engine plan-cache misses (builds)
	SpillRuns  map[optimizer.Level][]int64                // spill runs written (memory-capped runs)
	PeakMem    map[optimizer.Level][]int64                // accounted peak bytes of the measured runs
}

func (s OptSpec) repeats() int {
	if s.Repeats <= 0 {
		return 2
	}
	return s.Repeats
}

func (s OptSpec) queryIDs() []int {
	if len(s.Queries) > 0 {
		out := append([]int{}, s.Queries...)
		sort.Ints(out)
		return out
	}
	ids := make([]int, 22)
	for i := range ids {
		ids[i] = i + 1
	}
	return ids
}

// buildMTSession stands up the measured deployment — unsharded, or with
// nshards > 1 partitioned over engine shards — applying the spec's engine
// knobs everywhere (a shard engine gets its share of parallelism), and
// returns the session plus every engine DB involved so counters can be
// aggregated across shards and the gather replica.
func buildMTSession(cfg mth.Config, nshards int, c int64, scope string,
	parallelism int, memLimit int64) (middleware.Session, []*engine.DB, error) {
	data := mth.Generate(cfg)
	var (
		conn    middleware.Session
		servers []*middleware.Server
		workers []int // per server, in step with servers
	)
	if nshards > 1 {
		inst, err := mth.LoadMTSharded(data, nshards)
		if err != nil {
			return nil, nil, err
		}
		if err := inst.GrantReadTo(c); err != nil {
			return nil, nil, err
		}
		if conn, err = inst.Connect(c, scope); err != nil {
			return nil, nil, err
		}
		for _, mw := range inst.Srv.Shards() {
			servers = append(servers, mw)
			workers = append(workers, inst.Srv.PartWorkers(parallelism))
		}
		servers = append(servers, inst.Srv.Replica())
		workers = append(workers, parallelism)
	} else {
		inst, err := mth.LoadMT(data)
		if err != nil {
			return nil, nil, err
		}
		if err := inst.GrantReadTo(c); err != nil {
			return nil, nil, err
		}
		if conn, err = inst.Connect(c, scope); err != nil {
			return nil, nil, err
		}
		servers = append(servers, inst.Srv)
		workers = append(workers, parallelism)
	}
	dbs := make([]*engine.DB, 0, len(servers))
	for i, mw := range servers {
		db := mw.DB()
		if parallelism > 0 {
			db.SetParallelism(workers[i])
		}
		if memLimit > 0 {
			db.SetMemoryLimit(memLimit)
		}
		dbs = append(dbs, db)
	}
	return conn, dbs, nil
}

// resetStats zeroes and sumStats aggregates counters over every measured DB.
func resetStats(dbs []*engine.DB) {
	for _, db := range dbs {
		db.Stats = engine.Stats{}
	}
}

func sumStats(dbs []*engine.DB) engine.StatsSnapshot {
	var total engine.StatsSnapshot
	for _, db := range dbs {
		st := db.Stats.Snapshot()
		total.UDFCalls += st.UDFCalls
		total.PlanCacheHits += st.PlanCacheHits
		total.PlanCacheMisses += st.PlanCacheMisses
		total.SpillRuns += st.SpillRuns
		total.JoinBuildRows += st.JoinBuildRows
		total.JoinIndexProbes += st.JoinIndexProbes
		total.JoinEagerFallbacks += st.JoinEagerFallbacks
		total.ExprSlots += st.ExprSlots
		total.ExprSlotReuses += st.ExprSlotReuses
		if st.PeakMemBytes > total.PeakMemBytes {
			total.PeakMemBytes = st.PeakMemBytes
		}
	}
	return total
}

// RunOptLevels builds the MT-H instance and the plain baseline, then
// measures every query at every optimization level.
func RunOptLevels(spec OptSpec, progress io.Writer) (*OptResult, error) {
	cfg := mth.Config{SF: spec.SF, Tenants: spec.Tenants, Dist: spec.Dist, Seed: 42, Mode: spec.Mode}
	conn, dbs, err := buildMTSession(cfg, spec.Shards, spec.C, spec.Scope,
		spec.Parallelism, spec.MemLimit)
	if err != nil {
		return nil, err
	}

	baseCfg := mth.Config{SF: spec.BaseSF, Tenants: 1, Dist: mth.Uniform, Seed: 42, Mode: spec.Mode}
	plain, err := mth.LoadPlain(mth.Generate(baseCfg), spec.Mode)
	if err != nil {
		return nil, err
	}

	ids := spec.queryIDs()
	res := &OptResult{
		Spec:       spec,
		QueryIDs:   ids,
		Times:      make(map[optimizer.Level][]float64),
		UDFCalls:   make(map[optimizer.Level][]int64),
		Joins:      make(map[optimizer.Level][]engine.StatsSnapshot),
		Allocs:     make(map[optimizer.Level][]uint64),
		PlanHits:   make(map[optimizer.Level][]int64),
		PlanMisses: make(map[optimizer.Level][]int64),
		SpillRuns:  make(map[optimizer.Level][]int64),
		PeakMem:    make(map[optimizer.Level][]int64),
	}

	for _, id := range ids {
		q, err := mth.QueryByID(spec.BaseSF, id)
		if err != nil {
			return nil, err
		}
		secs, _, err := timePlain(plain, q, spec.repeats())
		if err != nil {
			return nil, fmt.Errorf("baseline Q%d: %w", id, err)
		}
		res.Baseline = append(res.Baseline, secs)
	}

	for _, level := range spec.levels() {
		conn.SetOptLevel(level)
		for _, id := range ids {
			q, err := mth.QueryByID(spec.SF, id)
			if err != nil {
				return nil, err
			}
			resetStats(dbs)
			secs, allocs, err := timeMT(conn, q, spec.repeats())
			if err != nil {
				return nil, fmt.Errorf("%s Q%d at %s: %w", spec.Label, id, level, err)
			}
			st := sumStats(dbs)
			res.Times[level] = append(res.Times[level], secs)
			res.UDFCalls[level] = append(res.UDFCalls[level], st.UDFCalls)
			res.Joins[level] = append(res.Joins[level], st)
			res.Allocs[level] = append(res.Allocs[level], allocs)
			res.PlanHits[level] = append(res.PlanHits[level], st.PlanCacheHits)
			res.PlanMisses[level] = append(res.PlanMisses[level], st.PlanCacheMisses)
			res.SpillRuns[level] = append(res.SpillRuns[level], st.SpillRuns)
			res.PeakMem[level] = append(res.PeakMem[level], st.PeakMemBytes)
			if progress != nil {
				fmt.Fprintf(progress, "%s %-9s Q%02d %8.4fs (%d UDF calls, plan cache %d/%d hit/miss)\n",
					spec.Label, level, id, secs, st.UDFCalls,
					st.PlanCacheHits, st.PlanCacheMisses)
			}
		}
	}
	return res, nil
}

// mallocs reads the process-wide allocation counter; deltas around a
// single-threaded run approximate allocs per query, making interpreter
// overhead visible next to response times.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timeRuns runs a query repeats times. The first run warms the caches and is
// left out when there is another; the report is the median of the rest (the
// mean of the middle two when their number is even) and the heap allocations
// of the last. §6.2 reports the last of several runs — which -repeats 2 still
// is; with more, a median is not at the mercy of where a GC cycle lands.
func timeRuns(repeats int, run func() error) (float64, uint64, error) {
	secs := make([]float64, 0, repeats)
	var allocs uint64
	for i := 0; i < repeats; i++ {
		before := mallocs()
		start := time.Now()
		if err := run(); err != nil {
			return 0, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		allocs = mallocs() - before
	}
	if len(secs) > 1 {
		secs = secs[1:]
	}
	sort.Float64s(secs)
	n := len(secs)
	return (secs[(n-1)/2] + secs[n/2]) / 2, allocs, nil
}

func timePlain(db *engine.DB, q mth.Query, repeats int) (float64, uint64, error) {
	return timeRuns(repeats, func() error { _, err := mth.RunOnPlain(db, q); return err })
}

func timeMT(conn middleware.Session, q mth.Query, repeats int) (float64, uint64, error) {
	return timeRuns(repeats, func() error { _, err := mth.RunOnMT(conn, q); return err })
}

// WriteTable renders the result in the paper's layout: one row per level,
// one column per query, seconds with two significant digits.
func (r *OptResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%s: response times [sec], sf=%g, T=%d, dist=%s, mode=%s, C=%d, D=%q",
		r.Spec.Label, r.Spec.SF, r.Spec.Tenants, r.Spec.Dist, r.Spec.Mode, r.Spec.C, r.Spec.Scope)
	if r.Spec.Shards > 1 {
		fmt.Fprintf(w, ", shards=%d", r.Spec.Shards)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s", "Level")
	for _, id := range r.QueryIDs {
		fmt.Fprintf(w, " %8s", fmt.Sprintf("Q%02d", id))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s", fmt.Sprintf("tpch-%g", r.Spec.BaseSF))
	for _, t := range r.Baseline {
		fmt.Fprintf(w, " %8s", sig2(t))
	}
	fmt.Fprintln(w)
	for _, level := range r.Spec.levels() {
		fmt.Fprintf(w, "%-10s", level.String())
		for _, t := range r.Times[level] {
			fmt.Fprintf(w, " %8s", sig2(t))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "UDF body executions per level (ablation):")
	for _, level := range r.Spec.levels() {
		fmt.Fprintf(w, "%-10s", level.String())
		for _, n := range r.UDFCalls[level] {
			fmt.Fprintf(w, " %8d", n)
		}
		fmt.Fprintln(w)
	}
	for _, c := range []struct {
		name string
		of   func(engine.StatsSnapshot) int64
	}{
		{"JoinBuildRows", func(st engine.StatsSnapshot) int64 { return st.JoinBuildRows }},
		{"JoinIndexProbes", func(st engine.StatsSnapshot) int64 { return st.JoinIndexProbes }},
		{"JoinEagerFallbacks", func(st engine.StatsSnapshot) int64 { return st.JoinEagerFallbacks }},
		{"ExprSlots", func(st engine.StatsSnapshot) int64 { return st.ExprSlots }},
		{"ExprSlotReuses", func(st engine.StatsSnapshot) int64 { return st.ExprSlotReuses }},
	} {
		fmt.Fprintf(w, "%s per level (ablation, across all runs of a query):\n", c.name)
		for _, level := range r.Spec.levels() {
			fmt.Fprintf(w, "%-10s", level.String())
			for _, st := range r.Joins[level] {
				fmt.Fprintf(w, " %8d", c.of(st))
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "heap allocations per level (measured run):")
	for _, level := range r.Spec.levels() {
		fmt.Fprintf(w, "%-10s", level.String())
		for _, n := range r.Allocs[level] {
			fmt.Fprintf(w, " %8d", n)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "plan cache hits/misses per level (across all runs of a query):")
	for _, level := range r.Spec.levels() {
		fmt.Fprintf(w, "%-10s", level.String())
		for i := range r.PlanHits[level] {
			fmt.Fprintf(w, " %8s", fmt.Sprintf("%d/%d", r.PlanHits[level][i], r.PlanMisses[level][i]))
		}
		fmt.Fprintln(w)
	}
	if r.Spec.MemLimit > 0 {
		fmt.Fprintf(w, "spill runs / peak accounted KB per level (memory limit %d bytes):\n", r.Spec.MemLimit)
		for _, level := range r.Spec.levels() {
			fmt.Fprintf(w, "%-10s", level.String())
			for i := range r.SpillRuns[level] {
				fmt.Fprintf(w, " %8s", fmt.Sprintf("%d/%d", r.SpillRuns[level][i], r.PeakMem[level][i]>>10))
			}
			fmt.Fprintln(w)
		}
	}
}

// sig2 formats seconds with two significant digits, like the paper.
func sig2(t float64) string {
	switch {
	case t <= 0:
		return "0"
	case t < 0.0001:
		return fmt.Sprintf("%.1e", t)
	case t < 0.001:
		return fmt.Sprintf("%.5f", t)
	case t < 0.01:
		return fmt.Sprintf("%.4f", t)
	case t < 0.1:
		return fmt.Sprintf("%.3f", t)
	case t < 1:
		return fmt.Sprintf("%.2f", t)
	case t < 10:
		return fmt.Sprintf("%.1f", t)
	default:
		return fmt.Sprintf("%.0f", t)
	}
}

// ---------------------------------------------------------------- scaling

// ScaleSpec parameterizes a tenant-scaling figure (Figures 5 and 6).
type ScaleSpec struct {
	Label        string
	SF           float64
	TenantCounts []int
	Dist         mth.Distribution
	Mode         engine.Mode
	QueryIDs     []int // default Q1, Q6, Q22
	Repeats      int
	Parallelism  int   // intra-query workers; 0 = engine default
	MemLimit     int64 // per-statement memory cap in bytes; 0 = unlimited
	Shards       int   // tenant-partitioned engine shards; 0/1 = unsharded
}

// ScaleResult holds response times relative to plain TPC-H (= 1.0).
type ScaleResult struct {
	Spec     ScaleSpec
	QueryIDs []int
	Baseline []float64                       // absolute seconds per query
	Rel      map[optimizer.Level][][]float64 // [query][tenantCount]
}

var scaleLevels = []optimizer.Level{optimizer.O4, optimizer.InlOnly}

// RunScaling measures the conversion-intensive queries for a growing
// number of tenants, comparing o4 and inl-only to single-tenant TPC-H
// (§6.4: "the cost overhead compared to single-tenant query-processing").
func RunScaling(spec ScaleSpec, progress io.Writer) (*ScaleResult, error) {
	ids := spec.QueryIDs
	if len(ids) == 0 {
		ids = []int{1, 6, 22}
	}
	repeats := spec.Repeats
	if repeats <= 0 {
		repeats = 2
	}

	res := &ScaleResult{Spec: spec, QueryIDs: ids, Rel: make(map[optimizer.Level][][]float64)}
	baseCfg := mth.Config{SF: spec.SF, Tenants: 1, Dist: mth.Uniform, Seed: 42, Mode: spec.Mode}
	plain, err := mth.LoadPlain(mth.Generate(baseCfg), spec.Mode)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		q, err := mth.QueryByID(spec.SF, id)
		if err != nil {
			return nil, err
		}
		secs, _, err := timePlain(plain, q, repeats)
		if err != nil {
			return nil, err
		}
		res.Baseline = append(res.Baseline, secs)
	}
	for _, level := range scaleLevels {
		res.Rel[level] = make([][]float64, len(ids))
	}

	for _, tcount := range spec.TenantCounts {
		cfg := mth.Config{SF: spec.SF, Tenants: tcount, Dist: spec.Dist, Seed: 42, Mode: spec.Mode}
		conn, _, err := buildMTSession(cfg, spec.Shards, 1, "IN ()",
			spec.Parallelism, spec.MemLimit)
		if err != nil {
			return nil, err
		}
		for _, level := range scaleLevels {
			conn.SetOptLevel(level)
			for qi, id := range ids {
				q, err := mth.QueryByID(spec.SF, id)
				if err != nil {
					return nil, err
				}
				secs, _, err := timeMT(conn, q, repeats)
				if err != nil {
					return nil, fmt.Errorf("%s T=%d Q%d at %s: %w", spec.Label, tcount, id, level, err)
				}
				rel := secs / res.Baseline[qi]
				res.Rel[level][qi] = append(res.Rel[level][qi], rel)
				if progress != nil {
					fmt.Fprintf(progress, "%s T=%-6d %-9s Q%02d %8.4fs (%.2fx TPC-H)\n",
						spec.Label, tcount, level, id, secs, rel)
				}
			}
		}
	}
	return res, nil
}

// WriteFigure renders one series block per query: tenant count vs
// response time relative to TPC-H for o4 and inl-only.
func (r *ScaleResult) WriteFigure(w io.Writer) {
	fmt.Fprintf(w, "%s: response time relative to TPC-H (=1.0), sf=%g, dist=%s, mode=%s\n",
		r.Spec.Label, r.Spec.SF, r.Spec.Dist, r.Spec.Mode)
	for qi, id := range r.QueryIDs {
		fmt.Fprintf(w, "MT-H Query %d (baseline %.4fs):\n", id, r.Baseline[qi])
		fmt.Fprintf(w, "  %-10s %10s %10s\n", "tenants", "o4", "inl-only")
		for ti, t := range r.Spec.TenantCounts {
			fmt.Fprintf(w, "  %-10d %10.2f %10.2f\n", t,
				r.Rel[optimizer.O4][qi][ti], r.Rel[optimizer.InlOnly][qi][ti])
		}
	}
}

// ---------------------------------------------------------------- presets

// TableSpec returns the preset for a numbered paper table. sf scales the
// experiment (the paper used sf=1 for Tables 3–5 and sf=10 for 7–9; the
// default here is laptop-scale — shapes, not absolute numbers).
func TableSpec(number int, sf float64, tenants int) (OptSpec, error) {
	base := OptSpec{SF: sf, Tenants: tenants, Dist: mth.Uniform, C: 1, Repeats: 2}
	switch number {
	case 3:
		base.Label, base.Mode, base.Scope, base.BaseSF = "Table 3", engine.ModePostgres, "IN (1)", sf/float64(tenants)
	case 4:
		base.Label, base.Mode, base.Scope, base.BaseSF = "Table 4", engine.ModePostgres, "IN (2)", sf/float64(tenants)
	case 5:
		base.Label, base.Mode, base.Scope, base.BaseSF = "Table 5", engine.ModePostgres, "IN ()", sf
	case 7:
		base.Label, base.Mode, base.Scope, base.BaseSF = "Table 7", engine.ModeSystemC, "IN (1)", sf/float64(tenants)
	case 8:
		base.Label, base.Mode, base.Scope, base.BaseSF = "Table 8", engine.ModeSystemC, "IN (2)", sf/float64(tenants)
	case 9:
		base.Label, base.Mode, base.Scope, base.BaseSF = "Table 9", engine.ModeSystemC, "IN ()", sf
	default:
		return OptSpec{}, fmt.Errorf("bench: no Table %d preset (3-5, 7-9)", number)
	}
	return base, nil
}

// FigureSpec returns the preset for a numbered paper figure.
func FigureSpec(number int, sf float64, tenantCounts []int) (ScaleSpec, error) {
	if len(tenantCounts) == 0 {
		tenantCounts = []int{1, 10, 100, 1000}
	}
	spec := ScaleSpec{SF: sf, TenantCounts: tenantCounts, Dist: mth.Zipf, Repeats: 2}
	switch number {
	case 5:
		spec.Label, spec.Mode = "Figure 5", engine.ModePostgres
	case 6:
		spec.Label, spec.Mode = "Figure 6", engine.ModeSystemC
	default:
		return ScaleSpec{}, fmt.Errorf("bench: no Figure %d preset (5 or 6)", number)
	}
	return spec, nil
}
