package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkJSON is BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	if string(g) != string(w) {
		t.Errorf("%s:\n  have %s\n  BENCHMARK.json declares %s", what, g, w)
	}
}

// TestSmoke runs every workload with a 300 ms traced window at sf 0.001
// and holds the program to BENCHMARK.json: the same workload and metric
// names in both directions, no failed op, a trace_coverage for every kind.
func TestSmoke(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the program's window is %d", decl.RunSeconds, runSeconds)
	}
	var declWorkloads, declE2E, declLayer []string
	for _, w := range decl.Workloads {
		declWorkloads = append(declWorkloads, w.Name)
		if have := workloadByName(w.Name); have != nil && have.Why != w.Why {
			t.Errorf("%s: BENCHMARK.json and the program give different reasons", w.Name)
		}
	}
	sameSet(t, "workloads", workloadNames(), declWorkloads)
	byName := map[string]metricDef{}
	for _, d := range endToEndMetrics {
		byName[d.Name] = d
	}
	for _, m := range decl.EndToEnd {
		declE2E = append(declE2E, m.Name)
		if d := byName[m.Name]; d.Unit != m.Unit || d.Better != m.Better || d.Bound != m.Bound {
			t.Errorf("%s: BENCHMARK.json says %+v, the program %+v", m.Name, m, d)
		}
	}
	for _, d := range layerMetrics {
		byName[d.Name] = d
	}
	for _, m := range decl.PerLayer {
		declLayer = append(declLayer, m.Name)
		if d := byName[m.Name]; d.Unit != m.Unit || d.Better != m.Better {
			t.Errorf("%s: BENCHMARK.json says %+v, the program %+v", m.Name, m, d)
		}
	}

	for _, w := range workloads() {
		t.Run(w.Name, func(t *testing.T) {
			// 300 ms covers every kind on the sandbox; a slower machine (or
			// the race detector) gets a longer window rather than a failure.
			var rep *workloadReport
			for window := 300 * time.Millisecond; window < 10*time.Second; window *= 4 {
				var err error
				rep, err = runWorkload(workloadByName(w.Name), runConfig{seed: 1, window: window, traced: true,
					sf: 0.001, setups: 1, dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Layers) == len(w.Kinds) {
					break
				}
			}
			if rep.Attempted == 0 || rep.Failed != 0 || !rep.Correct {
				t.Errorf("attempted %d, failed %d, correct %v, checks %v, errors %v",
					rep.Attempted, rep.Failed, rep.Correct, rep.Checks, rep.Errors)
			}
			sameSet(t, "end-to-end metrics", sortedKeys(rep.EndToEnd), append([]string(nil), declE2E...))
			sameSet(t, "per-layer metrics", sortedKeys(rep.PerLayer), append([]string(nil), declLayer...))
			for name, m := range rep.EndToEnd {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, m.Value)
				}
			}
			var traced []string
			for _, l := range rep.Layers {
				traced = append(traced, l.Kind)
				if l.Coverage <= 0 {
					t.Errorf("%s: trace_coverage %v", l.Kind, l.Coverage)
				}
			}
			sameSet(t, "kinds with a trace_coverage", traced, append([]string(nil), w.Kinds...))
			if rep.Claim != nil {
				t.Error("the report claims something; this benchmark claims no gain")
			}
		})
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "stmt_geomean_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "stmts_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		def                              metricDef
		parent, change, pSpread, cSpread float64
		want                             string
	}{
		{lower, 10, 10.9, 0.01, 0.01, "within"},
		{lower, 10, 11.1, 0.01, 0.01, "regression"},
		{lower, 10, 5, 0.01, 0.01, "within"},
		{higher, 100, 91, 0.01, 0.01, "within"},
		{higher, 100, 89, 0.01, 0.01, "regression"},
		{higher, 100, 89, 0.20, 0.01, "unresolved"},
		{lower, 10, 12, 0.01, 0.11, "unresolved"},
	} {
		if _, got := verdict(c.def, c.parent, c.change, c.pSpread, c.cSpread); got != c.want {
			t.Errorf("%s %v -> %v (spreads %v, %v): verdict %s, want %s",
				c.def.Name, c.parent, c.change, c.pSpread, c.cSpread, got, c.want)
		}
	}
	// Quartiles as Python's statistics.quantiles(n=4) gives them.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quantile(xs, 0.25), quantile(xs, 0.75); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
}
