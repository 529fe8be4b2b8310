package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mtbase/internal/optimizer"
)

func TestTableSpecPresets(t *testing.T) {
	for _, n := range []int{3, 4, 5, 7, 8, 9} {
		spec, err := TableSpec(n, 0.01, 10)
		if err != nil {
			t.Fatalf("Table %d: %v", n, err)
		}
		if spec.Label == "" || spec.BaseSF <= 0 {
			t.Errorf("Table %d spec incomplete: %+v", n, spec)
		}
	}
	if _, err := TableSpec(6, 0.01, 10); err == nil {
		t.Error("Table 6 accepted")
	}
	if _, err := FigureSpec(7, 0.01, nil); err == nil {
		t.Error("Figure 7 accepted")
	}
}

// TestRunTable3Shape runs a miniature Table 3 end-to-end and checks the
// paper's qualitative findings for D={1}: trivial optimizations already
// eliminate all conversions (§6.3), so o1..o4 issue no UDF calls.
func TestRunTable3Shape(t *testing.T) {
	spec, err := TableSpec(3, 0.001, 5)
	if err != nil {
		t.Fatal(err)
	}
	spec.Queries = []int{1, 6} // keep the unit test fast
	spec.Repeats = 1
	res, err := RunOptLevels(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.QueryIDs {
		if res.UDFCalls[optimizer.Canonical][i] == 0 {
			t.Errorf("canonical Q%d executed no conversions", res.QueryIDs[i])
		}
		for _, level := range []optimizer.Level{optimizer.O1, optimizer.O4} {
			if res.UDFCalls[level][i] != 0 {
				t.Errorf("%s Q%d still calls UDFs with D={C}... wait, D={1}=C", level, res.QueryIDs[i])
			}
		}
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	out := buf.String()
	for _, want := range []string{"Table 3", "canonical", "inl-only", "Q01", "Q06", "tpch-"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

// TestRunTable5Shape checks the D=all shape: conversions cannot be
// dropped, aggregation distribution (o3) cuts UDF calls to ~T+1, and
// inlining (o4) eliminates them.
func TestRunTable5Shape(t *testing.T) {
	spec, err := TableSpec(9, 0.001, 5) // System C mode: exact call counts
	if err != nil {
		t.Fatal(err)
	}
	spec.Queries = []int{6}
	spec.Repeats = 1
	res, err := RunOptLevels(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	canonical := res.UDFCalls[optimizer.Canonical][0]
	o3 := res.UDFCalls[optimizer.O3][0]
	o4 := res.UDFCalls[optimizer.O4][0]
	inl := res.UDFCalls[optimizer.InlOnly][0]
	if canonical < 100 {
		t.Errorf("canonical Q6 UDF calls suspiciously low: %d", canonical)
	}
	if o3 > int64(res.Spec.Tenants)+1 {
		t.Errorf("o3 Q6 UDF calls = %d, want <= T+1 = %d", o3, res.Spec.Tenants+1)
	}
	// o4 keeps the (cheap) per-tenant partial conversions as UDFs — the
	// cost-based gate — so it needs at most T+1 calls as well.
	if o4 > int64(res.Spec.Tenants)+1 {
		t.Errorf("o4 Q6 UDF calls = %d, want <= T+1 = %d", o4, res.Spec.Tenants+1)
	}
	// inl-only (no distribution) inlines the per-row conversions away.
	if inl != 0 {
		t.Errorf("inl-only Q6 UDF calls = %d, want 0", inl)
	}
}

func TestRunScalingShape(t *testing.T) {
	spec, err := FigureSpec(5, 0.001, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	spec.QueryIDs = []int{6}
	spec.Repeats = 1
	res, err := RunScaling(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rel[optimizer.O4][0]) != 2 {
		t.Fatalf("series length: %+v", res.Rel)
	}
	var buf bytes.Buffer
	res.WriteFigure(&buf)
	if !strings.Contains(buf.String(), "MT-H Query 6") {
		t.Errorf("figure output:\n%s", buf.String())
	}
}

func TestSig2(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		0.0347: "0.035",
		0.347:  "0.35",
		3.47:   "3.5",
		34.7:   "35",
	}
	for in, want := range cases {
		if got := sig2(in); got != want {
			t.Errorf("sig2(%v) = %q, want %q", in, got, want)
		}
	}
}

// TestTimeRunsReportsMedian: the warm-up run and one slow outlier (a GC
// cycle, on a real query) do not reach the report; a single run is its own.
func TestTimeRunsReportsMedian(t *testing.T) {
	pauses := []time.Duration{80 * time.Millisecond, time.Millisecond, 60 * time.Millisecond, time.Millisecond, time.Millisecond}
	i := 0
	secs, _, err := timeRuns(len(pauses), func() error { time.Sleep(pauses[i]); i++; return nil })
	if err != nil || secs > 0.03 {
		t.Errorf("median of %v after the warm-up = %.3fs, %v; want about 1ms", pauses, secs, err)
	}
	if secs, _, _ = timeRuns(1, func() error { time.Sleep(20 * time.Millisecond); return nil }); secs < 0.02 {
		t.Errorf("one run of 20ms reported as %.3fs", secs)
	}
}
