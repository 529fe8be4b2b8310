package main

// Per-layer metrics: the traced run's stage spans and counter deltas
// reduced to one number per layer metric, per kind and per workload.

import "strings"

// metricDef declares one metric of the benchmark.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: the share by which it may worsen
}

// endToEndMetrics are what a user of the system feels; every workload
// reports all four with tracing off.
var endToEndMetrics = []metricDef{
	{"stmt_geomean_ms", "ms", "lower", 0.20},
	{"stmts_per_s", "1/s", "higher", 0.20},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// layerMetrics are the traced run's numbers, one layer each; a layer a
// workload does not exercise reports 0.
var layerMetrics = []metricDef{
	{Name: "parse_us", Unit: "us", Better: "lower"},
	{Name: "rewrite_us", Unit: "us", Better: "lower"},
	{Name: "optimize_us", Unit: "us", Better: "lower"},
	{Name: "serialize_us", Unit: "us", Better: "lower"},
	{Name: "plan_us", Unit: "us", Better: "lower"},
	{Name: "plan_hit_share", Unit: "share", Better: "higher"},
	{Name: "rewrite_cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "execute_ms", Unit: "ms", Better: "lower"},
	{Name: "rows_streamed_per_stmt", Unit: "count", Better: "lower"},
	{Name: "udf_calls_per_stmt", Unit: "count", Better: "lower"},
	{Name: "allocs_per_stmt", Unit: "count", Better: "lower"},
	{Name: "alloc_kb_per_stmt", Unit: "KB", Better: "lower"},
	{Name: "spill_runs_per_stmt", Unit: "count", Better: "lower"},
	{Name: "encode_us", Unit: "us", Better: "lower"},
	{Name: "decode_us", Unit: "us", Better: "lower"},
	{Name: "wire_bytes_per_stmt", Unit: "B", Better: "lower"},
	{Name: "wire_hop_us", Unit: "us", Better: "lower"},
	{Name: "wal_commit_us", Unit: "us", Better: "lower"},
	{Name: "wal_bytes_per_write", Unit: "B", Better: "lower"},
	{Name: "wal_syncs_per_write", Unit: "count", Better: "lower"},
	{Name: "admission_waits", Unit: "count", Better: "lower"},
	{Name: "route_single_per_stmt", Unit: "count", Better: "higher"},
	{Name: "route_scatter_per_stmt", Unit: "count", Better: "lower"},
	{Name: "route_partial_per_stmt", Unit: "count", Better: "higher"},
	{Name: "route_fallback_per_stmt", Unit: "count", Better: "lower"},
	{Name: "shard_parts_max_ms", Unit: "ms", Better: "lower"},
	{Name: "gather_self_ms", Unit: "ms", Better: "lower"},
	{Name: "plain_geomean_ms", Unit: "ms", Better: "lower"},
	{Name: "overhead_vs_plain", Unit: "ratio", Better: "lower"},
	{Name: "trace_coverage", Unit: "share", Better: "higher"},
	{Name: "trace_overhead_share", Unit: "share", Better: "lower"},
}

// layerExtras are layer numbers read around the whole traced phase rather
// than around one op.
type layerExtras struct {
	walBytes       int64
	admissionWaits int64
	plainGeomeanMS float64
}

type stageReport struct {
	Stage    string  `json:"stage"`
	MedianUS float64 `json:"median_us"`
	Share    float64 `json:"share_of_root"`
}

// layerReport is one kind's row of the traced run.
type layerReport struct {
	Kind     string             `json:"kind"`
	Traced   int                `json:"traced_stmts"`
	RootMS   float64            `json:"root_median_ms"`
	Stages   []stageReport      `json:"stages"`
	Coverage float64            `json:"trace_coverage"`
	Flagged  bool               `json:"coverage_flagged"`
	Values   map[string]float64 `json:"per_stmt"`
}

// stageMetric maps a replayed stage to the layer metric it feeds and the
// divisor from nanoseconds to the metric's unit.
var stageMetric = map[string]struct {
	metric string
	div    float64
}{
	"parse": {"parse_us", 1e3}, "rewrite": {"rewrite_us", 1e3}, "optimize": {"optimize_us", 1e3},
	"serialize": {"serialize_us", 1e3}, "plan": {"plan_us", 1e3},
	"execute": {"execute_ms", 1e6}, "inproc": {"execute_ms", 1e6},
	"encode": {"encode_us", 1e3}, "decode": {"decode_us", 1e3}, "wal_commit": {"wal_commit_us", 1e3},
}

// layers fills the per-layer side of the report from the traced phase.
func (r *runner) layers(rep *workloadReport, samples [][]sample, extra layerExtras) {
	byKind := make([][]opTrace, len(r.w.Kinds))
	var writes int64
	for _, ts := range r.traces {
		for _, t := range ts {
			rep.Spans += 1 + len(t.stages)
			if t.err == nil {
				byKind[t.kindIdx] = append(byKind[t.kindIdx], t)
			}
		}
	}
	// perKind[metric] collects one value per kind that has the metric;
	// the workload's number is their mean.
	perKind := make(map[string][]float64)
	for k, ts := range byKind {
		if len(ts) == 0 {
			continue
		}
		lr := layerReport{Kind: r.w.Kinds[k], Traced: len(ts), Values: map[string]float64{}}
		col := func(f func(t opTrace) float64) []float64 {
			out := make([]float64, len(ts))
			for i, t := range ts {
				out[i] = f(t)
			}
			return out
		}
		put := func(name string, v float64) {
			lr.Values[name] = v
			perKind[name] = append(perKind[name], v)
		}
		rootNS := median(col(func(t opTrace) float64 { return float64(t.rootNS) }))
		lr.RootMS = rootNS / 1e6

		stageNS := make(map[string][]float64)
		var order []string
		for _, t := range ts {
			for _, st := range t.stages {
				if _, seen := stageNS[st.name]; !seen {
					order = append(order, st.name)
				}
				stageNS[st.name] = append(stageNS[st.name], float64(st.ns))
			}
		}
		for _, name := range order {
			med := median(stageNS[name])
			lr.Stages = append(lr.Stages, stageReport{Stage: name, MedianUS: med / 1e3, Share: med / rootNS})
			if m, ok := stageMetric[name]; ok {
				put(m.metric, med/m.div)
			}
		}
		lr.Coverage = median(col(func(t opTrace) float64 {
			var sum int64
			for _, st := range t.stages {
				sum += st.ns
			}
			return float64(sum) / float64(t.rootNS)
		}))
		lr.Flagged = lr.Coverage < 0.85 || lr.Coverage > 1.15
		put("trace_coverage", lr.Coverage)

		sum := func(f func(t opTrace) int64) (n int64) {
			for _, t := range ts {
				n += f(t)
			}
			return n
		}
		share := func(name string, hits, misses int64) {
			if hits+misses > 0 {
				put(name, float64(hits)/float64(hits+misses))
			}
		}
		share("plan_hit_share", sum(func(t opTrace) int64 { return t.delta.planHits }), sum(func(t opTrace) int64 { return t.delta.planMisses }))
		share("rewrite_cache_hit_share", sum(func(t opTrace) int64 { return t.delta.rwHits }), sum(func(t opTrace) int64 { return t.delta.rwMisses }))
		put("rows_streamed_per_stmt", median(col(func(t opTrace) float64 { return float64(t.delta.rows) })))
		put("udf_calls_per_stmt", median(col(func(t opTrace) float64 { return float64(t.delta.udfCalls) })))
		put("spill_runs_per_stmt", median(col(func(t opTrace) float64 { return float64(t.delta.spillRuns) })))
		if _, ok := stageNS["execute"]; ok {
			put("allocs_per_stmt", median(col(func(t opTrace) float64 { return float64(t.delta.allocs) })))
			put("alloc_kb_per_stmt", median(col(func(t opTrace) float64 { return float64(t.delta.allocBytes) / 1024 })))
		}
		if _, ok := stageNS["encode"]; ok {
			put("wire_bytes_per_stmt", median(col(func(t opTrace) float64 { return float64(t.delta.wireIO) })))
			put("wire_hop_us", median(col(func(t opTrace) float64 { return float64(t.rootNS-t.stageNS("inproc")) / 1e3 })))
		}
		if n := len(stageNS["wal_commit"]); n > 0 {
			writes += int64(n)
		}
		if _, sharded := r.dep.(*shardDeployment); sharded {
			put("route_single_per_stmt", median(col(func(t opTrace) float64 { return float64(t.delta.single) })))
			put("route_scatter_per_stmt", median(col(func(t opTrace) float64 { return float64(t.delta.scatter) })))
			put("route_partial_per_stmt", median(col(func(t opTrace) float64 { return float64(t.delta.partials) })))
			put("route_fallback_per_stmt", median(col(func(t opTrace) float64 { return float64(t.delta.fallbacks) })))
			put("shard_parts_max_ms", median(col(func(t opTrace) float64 { return float64(t.maxPartNS()) / 1e6 })))
			put("gather_self_ms", median(col(func(t opTrace) float64 { return float64(t.rootNS-t.maxPartNS()) / 1e6 })))
		}
		rep.Layers = append(rep.Layers, lr)
	}

	values := map[string]float64{
		"admission_waits":  float64(extra.admissionWaits),
		"plain_geomean_ms": extra.plainGeomeanMS,
	}
	if writes > 0 {
		// Real WAL bytes over real writes of the traced phase; the replay
		// commits alone on its scratch log, one sync per write — the real
		// log's group-commit share is not observable from outside.
		var realWrites int64
		for _, cs := range samples {
			for _, s := range cs {
				if s.traced && s.ok && s.id < 0 {
					realWrites++
				}
			}
		}
		if realWrites > 0 {
			values["wal_bytes_per_write"] = float64(extra.walBytes) / float64(realWrites)
		}
		values["wal_syncs_per_write"] = 1
	}

	// trace_overhead_share: root spans of the traced statements against the
	// same kinds' latencies in the window's untraced blocks.
	base := make([][]float64, len(r.w.Kinds))
	traced := make([][]float64, len(r.w.Kinds))
	for _, cs := range samples {
		for _, s := range cs {
			if s.late || !s.ok {
				continue
			}
			if s.traced {
				traced[s.kind] = append(traced[s.kind], float64(s.dur))
			} else {
				base[s.kind] = append(base[s.kind], float64(s.dur))
			}
		}
	}
	var baseMed, tracedMed []float64
	for k := range base {
		if len(base[k]) > 0 && len(traced[k]) > 0 {
			baseMed = append(baseMed, median(base[k]))
			tracedMed = append(tracedMed, median(traced[k]))
		}
	}
	if g := geomean(baseMed); g > 0 {
		values["trace_overhead_share"] = (geomean(tracedMed) - g) / g
		if extra.plainGeomeanMS > 0 {
			values["overhead_vs_plain"] = g / 1e6 / extra.plainGeomeanMS
		}
	}

	rep.PerLayer = make(map[string]metric, len(layerMetrics))
	for _, def := range layerMetrics {
		v, ok := values[def.Name]
		if !ok {
			v = mean(perKind[def.Name])
		}
		rep.PerLayer[def.Name] = metric{v, def.Unit}
	}
}

func (t opTrace) stageNS(name string) int64 {
	for _, st := range t.stages {
		if st.name == name {
			return st.ns
		}
	}
	return 0
}

// maxPartNS is the slowest replayed shard part.
func (t opTrace) maxPartNS() int64 {
	var m int64
	for _, st := range t.stages {
		if strings.HasPrefix(st.name, "part") && st.ns > m {
			m = st.ns
		}
	}
	return m
}
