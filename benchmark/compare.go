package main

// -compare: ROADMAP's benchcmp, scoped to this benchmark's own output.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

func loadDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end workload reports (was it written by -all?)", path)
	}
	return &d, nil
}

// verdict judges one end-to-end metric of one workload. A metric is a
// regression when the change is worse than the parent by more than the
// metric's bound; it is unresolved, not unchanged, when either side's
// within-window spread is wider than that bound.
func verdict(def metricDef, parent, change, parentSpread, changeSpread float64) (ratio float64, v string) {
	if parent == 0 {
		return 0, "unresolved"
	}
	ratio = change / parent
	worse := ratio - 1
	if def.Better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case parentSpread > def.Bound || changeSpread > def.Bound:
		return ratio, "unresolved"
	case worse > def.Bound:
		return ratio, "regression"
	}
	return ratio, "within"
}

// compareReports prints, for every end-to-end metric × workload, parent,
// change, ratio with its base, the bound and a verdict. It returns the
// process exit code: non-zero on any regression or any rise in the share
// of failed ops.
func compareReports(parentPath, changePath string, out io.Writer) int {
	parent, err := loadDocument(parentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	change, err := loadDocument(changePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	byName := make(map[string]*workloadReport)
	for _, w := range change.Workloads {
		byName[w.Workload] = w
	}
	code := 0
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent\tchange\tratio (change/parent)\tbound\tverdict")
	for _, p := range parent.Workloads {
		c := byName[p.Workload]
		if c == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\tmissing in %s\n", p.Workload, changePath)
			code = 1
			continue
		}
		for _, def := range endToEndMetrics {
			pv, cv := p.EndToEnd[def.Name].Value, c.EndToEnd[def.Name].Value
			ratio, v := verdict(def, pv, cv, p.SpreadShare, c.SpreadShare)
			sign := "+"
			if def.Better == "higher" {
				sign = "-"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%.3f of %.4g\t%s%.0f%%\t%s\n",
				p.Workload, def.Name, pv, def.Unit, cv, def.Unit, ratio, pv, sign, def.Bound*100, v)
			if v == "regression" {
				code = 1
			}
		}
		pf, cf := failShare(p), failShare(c)
		v := "within"
		if cf > pf {
			v, code = "regression", 1
		}
		fmt.Fprintf(tw, "%s\tops_failed/ops_attempted\t%d/%d\t%d/%d\t-\tno rise\t%s\n",
			p.Workload, p.Failed, p.Attempted, c.Failed, c.Attempted, v)
	}
	tw.Flush()
	return code
}

func failShare(r *workloadReport) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}
