package bench

// Wire-protocol throughput experiment: N client connections speak the
// mtserve protocol over a real TCP loopback (or to an externally running
// server), each running an MT-H query in a closed loop, one series per
// optimization level. Compared against the in-process numbers this puts a
// price on the network hop: framing, value codec, per-statement admission
// and the extra copy out of the engine's reused row buffers.

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mtbase/internal/client"
	"mtbase/internal/engine"
	"mtbase/internal/mth"
	"mtbase/internal/optimizer"
	"mtbase/internal/server"
)

// ServeSpec parameterizes the wire throughput run (mtbench -serve).
type ServeSpec struct {
	SF          float64
	Tenants     int
	Dist        mth.Distribution
	Mode        engine.Mode
	QueryID     int               // measured query; default Q6
	Concurrency int               // concurrent client connections; default 1
	Ops         int               // measured executions per level; default 64
	Levels      []optimizer.Level // default: every level
	Parallelism int               // intra-query workers (loopback server only)
	Addr        string            // non-empty: benchmark a running server instead
}

// ServeLevelResult is one optimization level's series.
type ServeLevelResult struct {
	Level   optimizer.Level
	Reads   int
	Elapsed float64 // seconds
	QPS     float64
	P50     float64 // milliseconds
	P99     float64
}

// ServeResult holds the per-level wire throughput numbers.
type ServeResult struct {
	Spec   ServeSpec
	Addr   string // the address actually benchmarked
	Levels []ServeLevelResult
}

func (s *ServeSpec) defaults() {
	if s.QueryID == 0 {
		s.QueryID = 6
	}
	if s.Concurrency <= 0 {
		s.Concurrency = 1
	}
	if s.Ops <= 0 {
		s.Ops = 64
	}
	if len(s.Levels) == 0 {
		s.Levels = append([]optimizer.Level(nil), optimizer.Levels...)
	}
	if s.Dist == "" {
		s.Dist = mth.Uniform
	}
}

// RunServe measures wire-protocol query throughput per optimization level.
// With spec.Addr empty it builds the MT-H instance and serves it on a TCP
// loopback; otherwise it connects to the server already running there
// (which must serve a dataset with spec.QueryID's tables).
func RunServe(spec ServeSpec, progress io.Writer) (*ServeResult, error) {
	spec.defaults()
	addr := spec.Addr
	if addr == "" {
		cfg := mth.Config{SF: spec.SF, Tenants: spec.Tenants, Dist: spec.Dist, Seed: 42, Mode: spec.Mode}
		inst, err := mth.LoadMT(mth.Generate(cfg))
		if err != nil {
			return nil, err
		}
		if err := inst.GrantReadTo(1); err != nil {
			return nil, err
		}
		if spec.Parallelism > 0 {
			inst.Srv.DB().SetParallelism(spec.Parallelism)
		}
		srv := server.New(inst.Srv, nil, server.Config{})
		bound, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer srv.Shutdown(context.Background())
		addr = bound.String()
	}
	q, err := mth.QueryByID(spec.SF, spec.QueryID)
	if err != nil {
		return nil, err
	}

	res := &ServeResult{Spec: spec, Addr: addr}
	for _, level := range spec.Levels {
		lr, err := runServeLevel(addr, level, q, spec)
		if err != nil {
			return nil, err
		}
		res.Levels = append(res.Levels, *lr)
		if progress != nil {
			fmt.Fprintf(progress, "serve Q%d %s: %d reads in %.2fs (%.1f qps)\n",
				spec.QueryID, level, lr.Reads, lr.Elapsed, lr.QPS)
		}
	}
	return res, nil
}

func runServeLevel(addr string, level optimizer.Level, q mth.Query, spec ServeSpec) (*ServeLevelResult, error) {
	conns := make([]*client.Conn, spec.Concurrency)
	for i := range conns {
		conn, err := client.Dial(addr, 1, level.String())
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		if _, err := conn.Exec(`SET SCOPE = "IN ()"`); err != nil {
			return nil, err
		}
		conns[i] = conn
	}
	runWireQuery := func(conn *client.Conn) error {
		_, err := q.Run(func(sql string) (*engine.Result, error) { return conn.Exec(sql) })
		return err
	}
	if err := runWireQuery(conns[0]); err != nil { // warm plan + UDF caches
		return nil, err
	}

	var taken int64
	errc := make(chan error, spec.Concurrency)
	lats := make([][]time.Duration, spec.Concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for r := 0; r < spec.Concurrency; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for atomic.AddInt64(&taken, 1) <= int64(spec.Ops) {
				t0 := time.Now()
				if err := runWireQuery(conns[r]); err != nil {
					errc <- err
					return
				}
				lats[r] = append(lats[r], time.Since(t0))
			}
		}(r)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errc:
		return nil, err
	default:
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
	return &ServeLevelResult{
		Level:   level,
		Reads:   len(all),
		Elapsed: elapsed.Seconds(),
		QPS:     float64(len(all)) / elapsed.Seconds(),
		P50:     pct(0.50),
		P99:     pct(0.99),
	}, nil
}

// WriteServe renders the per-level series as one human-readable table.
func (r *ServeResult) WriteServe(w io.Writer) {
	fmt.Fprintf(w, "wire throughput: Q%d over %s, sf=%g, T=%d, clients=%d, %d ops/level\n",
		r.Spec.QueryID, r.Addr, r.Spec.SF, r.Spec.Tenants, r.Spec.Concurrency, r.Spec.Ops)
	fmt.Fprintf(w, "  %-10s %10s %10s %10s\n", "level", "qps", "p50 ms", "p99 ms")
	for _, l := range r.Levels {
		fmt.Fprintf(w, "  %-10s %10.1f %10.2f %10.2f\n", l.Level, l.QPS, l.P50, l.P99)
	}
}
