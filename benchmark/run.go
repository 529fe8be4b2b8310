package main

// One workload, one process: set-up (repeated, median reported), an
// untimed warm-up pass, runtime.GC, a fixed measured window, then the
// post-window checks and the oracle.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mtbase/internal/mth"
)

// runConfig is what varies between invocations of one workload.
type runConfig struct {
	seed      int64
	window    time.Duration
	traced    bool
	tracePath string  // where a traced run writes its spans; "" = nowhere
	sf        float64 // 0 = the workload's own scale factor
	setups    int     // set-up repetitions; the median is setup_s
	dir       string  // scratch directory for WAL stores, inside the checkout
}

// sample is one op of the measured window.
type sample struct {
	kind   int32
	id     int32 // distinct-statement id, -1 for writes
	ok     bool
	late   bool // finished after the window closed: not counted, but its time inside the window feeds the slices
	traced bool
	start  int64 // ns since the window opened
	dur    int64
}

// first is what a distinct statement returned the first time the system
// under test ran it (the warm-up pass): the rows the oracle judges, and
// the exact digest every measured execution must reproduce.
type first struct {
	reply  reply
	digest uint64
}

type runner struct {
	w      *workload
	cfg    runConfig
	dep    deployment
	gen    generator
	firsts []first

	drift    atomic.Int64 // digest differed but values matched within tolerance
	errMu    sync.Mutex
	errs     []string
	nextOp   []int // per client: index of the next generated op
	traces   [][]opTrace
	recs     []*recorder // one per client
	stmtSeq  atomic.Int64
	yards    []*yardstick // one per client
	winStart time.Time
}

func (r *runner) noteErr(err error) {
	r.errMu.Lock()
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
	r.errMu.Unlock()
}

// check judges one measured reply against the statement's first execution.
func (r *runner) check(s *stmt, rep reply, err error) bool {
	if err != nil {
		r.noteErr(fmt.Errorf("%s: %w", s.kind, err))
		return false
	}
	if s.write {
		return rep.affected == 1
	}
	f := r.firsts[s.id]
	if rep.digest(s.ordered) == f.digest {
		return true
	}
	if sameReply(rep, f.reply, s.ordered) {
		r.drift.Add(1)
		return true
	}
	return false
}

// setup stands the deployment up and runs the warm-up pass: every distinct
// statement once (recording its first reply), then warmMix generated ops
// per client.
func (r *runner) setup() error {
	cfg := r.w.config(r.cfg.seed)
	dep, gen, err := r.w.build(r.w, cfg, r.cfg.seed, filepath.Join(r.cfg.dir, fmt.Sprintf("%s-%d", r.w.Name, os.Getpid())))
	if err != nil {
		return err
	}
	r.dep, r.gen = dep, gen
	distinct := gen.distinct()
	r.firsts = make([]first, len(distinct))
	for _, s := range distinct {
		rep, err := dep.exec(s)
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", s.kind, err)
		}
		r.firsts[s.id] = first{reply: rep, digest: rep.digest(s.ordered)}
	}
	r.nextOp = make([]int, r.w.Clients)
	for c := 0; c < r.w.Clients; c++ {
		for ; r.nextOp[c] < r.w.warmMix; r.nextOp[c]++ {
			s := gen.next(c, r.nextOp[c])
			rep, err := dep.exec(s)
			if !r.check(s, rep, err) {
				return fmt.Errorf("warm-up %s failed (err=%v)", s.kind, err)
			}
		}
	}
	return nil
}

// measure runs the closed loop: every client sends its next statement when
// the previous reply is drained and checked, until the window closes. In a
// traced run every fourth block of 8 statements stays untraced (their
// latencies, spread over the same window, are the base of
// trace_overhead_share); every other op is followed by its stage-by-stage
// replay.
func (r *runner) measure() [][]sample {
	out := make([][]sample, r.w.Clients)
	r.traces = make([][]opTrace, r.w.Clients)
	r.recs = make([]*recorder, r.w.Clients)
	var wg sync.WaitGroup
	r.winStart = time.Now()
	for c := range r.recs {
		r.recs[c] = &recorder{epoch: r.winStart}
	}
	deadline := r.winStart.Add(r.cfg.window)
	for c := 0; c < r.w.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			samples := make([]sample, 0, 1<<16)
			y := r.yards[c]
			lastBurst := time.Now()
			for i := r.nextOp[c]; ; i++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					break
				}
				if t0.Sub(lastBurst) >= yardstickEvery {
					y.burst()
					lastBurst = time.Now()
					t0 = lastBurst
				}
				s := r.gen.next(c, i)
				traced := r.cfg.traced && (i/8)%4 != 3
				var before counters
				if traced {
					before = r.dep.counters()
					t0 = time.Now()
				}
				rep, err := r.dep.exec(s)
				drained := time.Now()
				ok := r.check(s, rep, err)
				t1 := time.Now()
				samples = append(samples, sample{kind: int32(s.kindIdx), id: int32(s.id), ok: ok,
					late: t1.After(deadline), traced: traced,
					start: t0.Sub(r.winStart).Nanoseconds(), dur: t1.Sub(t0).Nanoseconds()})
				if traced && ok {
					t := opTrace{stmtID: r.stmtSeq.Add(1), kindIdx: s.kindIdx, kind: s.kind,
						rootNS: t1.Sub(t0).Nanoseconds(), delta: r.dep.counters().sub(before),
						rec: r.recs[c]}
					t.record(s.kind, r.w.Name, "", t0, t1)
					// The digest check is inside the root span by definition
					// (latency runs until the reply is checked): measured, not
					// replayed.
					t.record("check", "benchmark", "root", drained, t1)
					t.stages = append(t.stages, stageTime{"check", t1.Sub(drained).Nanoseconds()})
					r.dep.replay(s, rep, &t)
					if t.err != nil {
						r.noteErr(t.err)
					}
					r.traces[c] = append(r.traces[c], t)
				}
			}
			out[c] = samples
		}(c)
	}
	wg.Wait()
	return out
}

// ---------------------------------------------------------------- report

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type kindReport struct {
	Kind     string  `json:"kind"`
	Samples  int     `json:"samples"`
	Failed   int     `json:"failed"`
	MedianMS float64 `json:"median_ms"`
	TailMS   float64 `json:"stmt_tail_ms,omitempty"`
	TailPct  float64 `json:"tail_pct,omitempty"`
}

type envReport struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Flush      string `json:"flush_policy"`
}

// workloadReport is everything one run of one workload prints.
type workloadReport struct {
	Workload  string    `json:"workload"`
	Params    *workload `json:"params"`
	Env       envReport `json:"env"`
	Traced    bool      `json:"traced"`
	WindowS   float64   `json:"window_s"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"ops_attempted"`
	Failed    int       `json:"ops_failed"`

	EndToEnd    map[string]metric `json:"end_to_end"`
	Raw         map[string]metric `json:"raw"`
	Machine     machineReport     `json:"machine"`
	SpreadShare float64           `json:"spread_share"`
	SetupRunsS  []float64         `json:"setup_runs_s"`
	OracleS     float64           `json:"oracle_s"`
	Kinds       []kindReport      `json:"kinds"`
	Checks      map[string]string `json:"checks"`
	DigestDrift int64             `json:"digest_drift"` // executions equal to the first within tolerance but not bit for bit
	Errors      []string          `json:"errors,omitempty"`

	PerLayer map[string]metric `json:"per_layer,omitempty"`
	Layers   []layerReport     `json:"layers,omitempty"`
	Spans    int               `json:"spans_recorded,omitempty"`

	Claim *string `json:"claim"`
}

func environment(seed int64) envReport {
	return envReport{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit(), Seed: seed, Flush: flushPolicy}
}

// commit reads the checked-out commit without running git; a checkout
// that is not a repository reports "unknown".
func commit() string {
	dir, _ := os.Getwd()
	for ; dir != "/" && dir != "."; dir = filepath.Dir(dir) {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err != nil {
			continue
		}
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(dir, ".git", name)); err == nil {
				ref = strings.TrimSpace(string(b))
			}
		}
		if len(ref) > 12 {
			ref = ref[:12]
		}
		return ref
	}
	return "unknown"
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// runWorkload runs one workload end to end and reports it.
func runWorkload(w *workload, cfg runConfig) (*workloadReport, error) {
	if cfg.sf > 0 {
		w.SF = cfg.sf
	}
	r := &runner{w: w, cfg: cfg}
	rep := &workloadReport{Workload: w.Name, Params: w, Env: environment(cfg.seed), Traced: cfg.traced,
		WindowS: cfg.window.Seconds(), Checks: map[string]string{}}

	for i := 0; i < cfg.setups; i++ {
		if r.dep != nil {
			if err := r.dep.close(); err != nil {
				return nil, err
			}
			r.dep, r.gen, r.firsts = nil, nil, nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		if err := r.setup(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.Name, err)
		}
		rep.SetupRunsS = append(rep.SetupRunsS, time.Since(t0).Seconds())
	}
	defer func() { r.dep.close() }()

	var walBefore, admBefore int64
	wd, served := r.dep.(*wireDeployment)
	if served && cfg.traced {
		walBefore = wd.walBytes()
		admBefore, _ = wd.admissionWaits()
	}
	for c := 0; c < w.Clients; c++ {
		r.yards = append(r.yards, newYardstick())
	}
	runtime.GC()
	samples := r.measure()
	rss := peakRSSMB()

	var extra layerExtras
	if served && cfg.traced {
		extra.walBytes = wd.walBytes() - walBefore
		adm, err := wd.admissionWaits()
		if err != nil {
			return nil, err
		}
		extra.admissionWaits = adm - admBefore
	}
	if cfg.traced && w.Name == "xt-analytic" {
		plain, err := plainGeomeanMS(r)
		if err != nil {
			return nil, err
		}
		extra.plainGeomeanMS = plain
	}
	for name, verdict := range r.dep.verify() {
		rep.Checks[name] = verdict
	}

	t0 := time.Now()
	bad, err := r.judge(rep)
	if err != nil {
		return nil, err
	}
	rep.OracleS = time.Since(t0).Seconds()

	r.summarize(rep, samples, bad, rss)
	if cfg.traced {
		r.layers(rep, samples, extra)
		if cfg.tracePath != "" {
			var all []span
			for _, rec := range r.recs {
				all = append(all, rec.spans...)
			}
			if err := writeSpans(cfg.tracePath, all); err != nil {
				return nil, err
			}
		}
	}
	rep.Errors = r.errs
	rep.Correct = rep.Failed == 0 && len(r.errs) == 0
	for _, v := range rep.Checks {
		if v != "ok" && v != "n/a" {
			rep.Correct = false
		}
	}
	return rep, nil
}

// judge runs every distinct statement once on the oracle and compares the
// system's first replies with it; it returns the ids whose replies are
// wrong. It runs after the window so that the oracle's memory is not in
// peak_rss_mb; a statement it rejects fails every op that sent it.
func (r *runner) judge(rep *workloadReport) (map[int32]bool, error) {
	bad := make(map[int32]bool)
	perKind, err := oraclePass(r.w, r.cfg.seed, r.gen.distinct(), func(s *stmt, want reply) {
		if !sameReply(r.firsts[s.id].reply, want, s.ordered) {
			bad[int32(s.id)] = true
		}
	})
	if err != nil {
		return nil, err
	}
	rep.Checks["oracle"] = "ok"
	if len(bad) > 0 {
		rep.Checks["oracle"] = fmt.Sprintf("%d of %d distinct statements differ from the oracle", len(bad), len(r.firsts))
	}
	rep.DigestDrift = r.drift.Load()
	rep.Checks["golden"] = checkGolden(r.w, r.cfg, perKind)
	return bad, nil
}

// summarize fills the end-to-end side of the report.
func (r *runner) summarize(rep *workloadReport, samples [][]sample, bad map[int32]bool, rss float64) {
	kinds := r.w.Kinds
	lat := make([][]float64, len(kinds))
	failed := make([]int, len(kinds))
	// A client's rate is its correct statements over the time it spent in
	// statements — in a closed loop that is its wall time less the
	// yardstick bursts, and the statement cut off by the window's end does
	// not quantise it. The workload's rate is the sum over clients.
	rate := 0.0
	for _, cs := range samples {
		okCount, busy := 0, int64(0)
		for _, s := range cs {
			if s.late {
				continue
			}
			rep.Attempted++
			busy += s.dur
			if !s.ok || bad[s.id] {
				rep.Failed++
				failed[s.kind]++
				continue
			}
			okCount++
			lat[s.kind] = append(lat[s.kind], float64(s.dur)/1e6)
		}
		if busy > 0 {
			rate += float64(okCount) / (float64(busy) / 1e9)
		}
	}
	medians := make([]float64, len(kinds))
	for k, name := range kinds {
		ls := sorted(lat[k])
		medians[k] = quantile(ls, 0.5)
		kr := kindReport{Kind: name, Samples: len(ls), Failed: failed[k], MedianMS: medians[k]}
		if pct, v, ok := tail(ls); ok {
			kr.TailPct, kr.TailMS = pct, v
		}
		rep.Kinds = append(rep.Kinds, kr)
	}
	rep.Machine = r.machine()
	rep.Raw = map[string]metric{
		"stmt_geomean_ms": {geomean(medians), "ms"},
		"stmts_per_s":     {rate, "1/s"},
	}
	rep.EndToEnd = map[string]metric{
		"stmt_geomean_ms": {geomean(medians) * rep.Machine.Speed, "ms"},
		"stmts_per_s":     {rate / rep.Machine.Speed, "1/s"},
		"setup_s":         {median(rep.SetupRunsS), "s"},
		"peak_rss_mb":     {rss, "MB"},
	}
	rep.SpreadShare = sliceSpread(samples, medians, r.cfg.window, r.w.Clients)
}

// machine reduces the clients' yardstick bursts to the run's machine speed.
func (r *runner) machine() machineReport {
	var alloc, alu []float64
	for _, y := range r.yards {
		alloc, alu = append(alloc, y.allocNS...), append(alu, y.aluNS...)
	}
	m := machineReport{Speed: 1, AllocShare: r.w.allocShare, Samples: len(alloc)}
	if len(alloc) == 0 {
		return m
	}
	a, u := median(alloc), median(alu)
	m.AllocUS, m.AluUS = a/1e3, u/1e3
	m.Speed = math.Pow(nominalAllocNS/a, r.w.allocShare) * math.Pow(nominalAluNS/u, 1-r.w.allocShare)
	return m
}

// sliceSpread cuts the window into ten equal slices and returns the
// interquartile range ÷ median of the per-slice statement rate. A slice's
// rate is normalised for its statement mix: every op contributes its
// kind's median latency, apportioned to slices by the time it spent in
// each, so a slice that happened to hold the slow kinds does not read as
// noise. 1.0 means the slice ran at the window's median speed.
func sliceSpread(samples [][]sample, medianMS []float64, window time.Duration, clients int) float64 {
	const slices = 10
	width := float64(window.Nanoseconds()) / slices
	work := make([]float64, slices)
	for _, cs := range samples {
		for _, s := range cs {
			if s.dur <= 0 || !s.ok {
				continue
			}
			lo, hi := float64(s.start), float64(s.start+s.dur)
			for j := int(lo / width); j < slices && float64(j)*width < hi; j++ {
				overlap := math.Min(hi, float64(j+1)*width) - math.Max(lo, float64(j)*width)
				work[j] += medianMS[s.kind] * 1e6 * overlap / float64(s.dur)
			}
		}
	}
	for j := range work {
		work[j] /= width * float64(clients)
	}
	return spreadShare(work)
}

// plainGeomeanMS times the workload's kinds on the plain TPC-H baseline
// (the same generated rows, no tenant machinery): the denominator of the
// paper's headline MT-versus-plain ratio.
func plainGeomeanMS(r *runner) (float64, error) {
	db, err := mth.LoadPlain(mth.Generate(r.w.config(r.cfg.seed)), r.w.config(r.cfg.seed).Mode)
	if err != nil {
		return 0, err
	}
	var medians []float64
	for _, s := range r.gen.distinct() {
		var ms []float64
		for i := 0; i < 6; i++ {
			t0 := time.Now()
			if _, err := db.QuerySQL(s.text); err != nil {
				return 0, fmt.Errorf("plain %s: %w", s.kind, err)
			}
			if i > 0 { // the first run lowers the plan
				ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
			}
		}
		medians = append(medians, median(ms))
	}
	return geomean(medians), nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
