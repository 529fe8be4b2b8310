package bench

// Mixed read/write throughput experiment: N reader connections run a
// conversion-heavy MT-H query in a closed loop while background writers
// commit inserts and updates to a side table, each commit publishing a
// fresh copy-on-write table snapshot under DB.mu. A cursor opened before
// the first write stays pinned to its snapshot the whole time and is
// drained at the end — the row count proves writers never perturbed an
// open reader. This is the concurrency story ADR-005 claims, measured:
// reads/sec with tail latencies, against the write commit rate that
// overlapped them.

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/mth"
	"mtbase/internal/optimizer"
)

// MixedSpec parameterizes the mixed read/write run (mtbench -mixed).
type MixedSpec struct {
	SF          float64
	Tenants     int
	Dist        mth.Distribution
	Mode        engine.Mode
	Level       optimizer.Level
	QueryID     int   // measured read query; default Q6
	Concurrency int   // concurrent reader connections; default 1
	Parallelism int   // intra-query workers per read; 0 = engine default
	Writers     int   // background writer goroutines; default 2
	Ops         int   // total measured reads across all readers; default 64
	MemLimit    int64 // per-statement memory cap in bytes; 0 = unlimited
}

// MixedResult holds the measured throughput numbers.
type MixedResult struct {
	Spec         MixedSpec
	Reads        int     // measured read executions
	Writes       int64   // write commits that overlapped them
	Elapsed      float64 // seconds
	QPS          float64 // reads per second
	P50          float64 // read latency median, milliseconds
	P99          float64 // read latency 99th percentile, milliseconds
	WritesPerSec float64
	CursorRows   int // rows the pre-write cursor drained (its pinned snapshot)
}

func (s *MixedSpec) defaults() {
	if s.QueryID == 0 {
		s.QueryID = 6
	}
	if s.Concurrency <= 0 {
		s.Concurrency = 1
	}
	if s.Writers < 0 {
		s.Writers = 0
	} else if s.Writers == 0 {
		s.Writers = 2
	}
	if s.Ops <= 0 {
		s.Ops = 64
	}
	// Level's zero value is Canonical — a valid choice, so it is not
	// defaulted here; mtbench defaults it to o4 at the flag layer.
	if s.Dist == "" {
		s.Dist = mth.Uniform
	}
}

// RunMixed builds the MT-H instance and drives the mixed workload.
func RunMixed(spec MixedSpec, progress io.Writer) (*MixedResult, error) {
	spec.defaults()
	cfg := mth.Config{SF: spec.SF, Tenants: spec.Tenants, Dist: spec.Dist, Seed: 42, Mode: spec.Mode}
	inst, err := mth.LoadMT(mth.Generate(cfg))
	if err != nil {
		return nil, err
	}
	if err := inst.GrantReadTo(1); err != nil {
		return nil, err
	}
	db := inst.Srv.DB()
	if spec.Parallelism > 0 {
		db.SetParallelism(spec.Parallelism)
	}
	if spec.MemLimit > 0 {
		db.SetMemoryLimit(spec.MemLimit)
	}
	if _, err := db.ExecSQL(`CREATE TABLE bench_audit (id INTEGER NOT NULL, v INTEGER NOT NULL)`); err != nil {
		return nil, err
	}
	q, err := mth.QueryByID(spec.SF, spec.QueryID)
	if err != nil {
		return nil, err
	}

	conns := make([]*middleware.Conn, spec.Concurrency)
	for i := range conns {
		if conns[i], err = inst.Connect(1, "IN ()"); err != nil {
			return nil, err
		}
		conns[i].SetOptLevel(spec.Level)
	}
	if _, err := mth.RunOnMT(conns[0], q); err != nil { // warm plan + UDF caches
		return nil, err
	}

	// Pin a cursor before the first write commits; it must drain exactly
	// the rows of its snapshot no matter how many commits happen meanwhile.
	pinned := db.Table("lineitem").RowCount()
	cursor, err := db.QueryRows(`SELECT l_orderkey FROM lineitem`)
	if err != nil {
		return nil, err
	}
	defer cursor.Close()

	stop := make(chan struct{})
	errc := make(chan error, spec.Writers+spec.Concurrency)
	var writes int64
	var wg sync.WaitGroup
	for w := 0; w < spec.Writers; w++ {
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
					errc <- err
					return
				}
				if i%8 == 0 {
					if _, err := db.ExecSQL(fmt.Sprintf(`UPDATE bench_audit SET v = v + 1 WHERE id %% 13 = %d`, i%13)); err != nil {
						errc <- err
						return
					}
				}
				atomic.AddInt64(&writes, 1)
			}
		}(w)
	}

	var opsTaken int64
	lats := make([][]time.Duration, spec.Concurrency)
	var rg sync.WaitGroup
	start := time.Now()
	for r := 0; r < spec.Concurrency; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			conn := conns[r]
			for atomic.AddInt64(&opsTaken, 1) <= int64(spec.Ops) {
				t0 := time.Now()
				if _, err := mth.RunOnMT(conn, q); err != nil {
					errc <- err
					return
				}
				lats[r] = append(lats[r], time.Since(t0))
			}
		}(r)
	}
	rg.Wait()
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		return nil, err
	default:
	}

	drained := 0
	for cursor.Next() {
		drained++
	}
	if err := cursor.Err(); err != nil {
		return nil, fmt.Errorf("pinned cursor failed after %d writes: %w", writes, err)
	}
	if drained != pinned {
		return nil, fmt.Errorf("pinned cursor saw %d rows, snapshot had %d — writers leaked into an open cursor", drained, pinned)
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) float64 {
		if len(all) == 0 {
			return 0
		}
		return float64(all[int(p*float64(len(all)-1))].Nanoseconds()) / 1e6
	}
	res := &MixedResult{
		Spec:         spec,
		Reads:        len(all),
		Writes:       writes,
		Elapsed:      elapsed.Seconds(),
		QPS:          float64(len(all)) / elapsed.Seconds(),
		P50:          pct(0.50),
		P99:          pct(0.99),
		WritesPerSec: float64(writes) / elapsed.Seconds(),
		CursorRows:   drained,
	}
	if progress != nil {
		fmt.Fprintf(progress, "mixed Q%d: %d reads / %d writes in %.2fs\n", spec.QueryID, res.Reads, res.Writes, res.Elapsed)
	}
	return res, nil
}

// WriteMixed renders the result as one human-readable block.
func (r *MixedResult) WriteMixed(w io.Writer) {
	fmt.Fprintf(w, "mixed read/write: Q%d at %s, sf=%g, T=%d, mode=%s, readers=%d, writers=%d, parallelism=%d\n",
		r.Spec.QueryID, r.Spec.Level, r.Spec.SF, r.Spec.Tenants, r.Spec.Mode,
		r.Spec.Concurrency, r.Spec.Writers, r.Spec.Parallelism)
	fmt.Fprintf(w, "  reads       %8d   (%.1f qps)\n", r.Reads, r.QPS)
	fmt.Fprintf(w, "  p50 / p99   %8.2f / %.2f ms\n", r.P50, r.P99)
	fmt.Fprintf(w, "  writes      %8d   (%.1f commits/sec, overlapping the reads)\n", r.Writes, r.WritesPerSec)
	fmt.Fprintf(w, "  cursor      %8d   rows drained from the pre-write snapshot (unperturbed)\n", r.CursorRows)
}
