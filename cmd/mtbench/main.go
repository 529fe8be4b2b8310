// Command mtbench regenerates the paper's evaluation artifacts: Tables
// 3–5 and 7–9 (response times of the 22 MT-H queries per optimization
// level) and Figures 5–6 (tenant scaling of Q1/Q6/Q22), at a configurable
// scale factor.
//
// Examples:
//
//	mtbench -table 3                 # one table at the default scale
//	mtbench -table 3,4,5 -sf 0.05    # the PostgreSQL-mode tables, bigger
//	mtbench -figure 5 -tenants 1,10,100,1000
//	mtbench -all                     # everything (takes a while)
//	mtbench -table 3 -parallelism 4  # intra-query parallel scans
//	mtbench -table 5 -shards 4       # tenant-partitioned scatter/gather
//	mtbench -table 3 -memlimit 64KB  # bounded memory: statements spill to disk
//	mtbench -table 5 -queries 18 -level o4 -cpuprofile q18.prof   # where does Q18 o4 go
//
// mtbench reproduces the paper; it judges no change. Whether a PR made
// anything faster or slower is benchmark/'s question (bash benchmark/run.sh,
// DESIGN.md ADR-019).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"mtbase/internal/bench"
	"mtbase/internal/engine"
	"mtbase/internal/mth"
	"mtbase/internal/optimizer"
)

func main() {
	var (
		tables      = flag.String("table", "", "comma-separated paper table numbers (3,4,5,7,8,9)")
		figures     = flag.String("figure", "", "comma-separated paper figure numbers (5,6)")
		all         = flag.Bool("all", false, "run every table and figure")
		sf          = flag.Float64("sf", 0.01, "TPC-H scale factor")
		tenants     = flag.Int("T", 10, "number of tenants for the tables")
		tcounts     = flag.String("tenants", "1,10,100,1000", "tenant counts for the figures")
		dist        = flag.String("dist", "", "override tenant share distribution (uniform|zipf)")
		repeats     = flag.Int("repeats", 2, "runs per query: the first warms the caches, the median of the rest is reported")
		queries     = flag.String("queries", "", "restrict to comma-separated query ids")
		progress    = flag.Bool("progress", false, "print per-measurement progress")
		parallelism = flag.Int("parallelism", 0, "intra-query worker count (0 = engine default GOMAXPROCS, 1 = serial); with -shards, the replica's, and each shard engine runs max(1, n/shards)")
		shards      = flag.Int("shards", 1, "tenant-partitioned engine shards for tables/figures (1 = unsharded)")
		memlimit    = flag.String("memlimit", "", "per-statement memory cap, e.g. 64KB, 1MB (empty = unlimited; capped statements spill to disk)")
		level       = flag.String("level", "", "with -table: the one optimization level the table runs (empty = all six)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		memprofile  = flag.String("memprofile", "", "write an allocation profile (every allocation sampled) to this file at exit")
	)
	flag.Parse()
	defer startProfiles(*cpuprofile, *memprofile)()

	var memBytes int64
	if *memlimit != "" {
		var err error
		if memBytes, err = engine.ParseMemLimit(*memlimit); err != nil {
			fatal(err)
		}
	}

	tableNums, err := parseInts(*tables)
	if err != nil {
		fatal(err)
	}
	figureNums, err := parseInts(*figures)
	if err != nil {
		fatal(err)
	}
	if *all {
		tableNums = []int{3, 4, 5, 7, 8, 9}
		figureNums = []int{5, 6}
	}
	if len(tableNums) == 0 && len(figureNums) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	queryIDs, err := parseInts(*queries)
	if err != nil {
		fatal(err)
	}
	tenantCounts, err := parseInts(*tcounts)
	if err != nil {
		fatal(err)
	}
	var progressW io.Writer
	if *progress {
		progressW = os.Stderr
	}

	var tableLevels []optimizer.Level
	if *level != "" {
		lv, err := optimizer.ParseLevel(*level)
		if err != nil {
			fatal(err)
		}
		tableLevels = []optimizer.Level{lv}
	}
	for _, n := range tableNums {
		spec, err := bench.TableSpec(n, *sf, *tenants)
		if err != nil {
			fatal(err)
		}
		spec.Levels = tableLevels
		spec.Repeats = *repeats
		spec.Queries = queryIDs
		spec.Parallelism = *parallelism
		spec.MemLimit = memBytes
		spec.Shards = *shards
		if *dist != "" {
			spec.Dist = mth.Distribution(*dist)
		}
		res, err := bench.RunOptLevels(spec, progressW)
		if err != nil {
			fatal(err)
		}
		res.WriteTable(os.Stdout)
		fmt.Println()
	}
	for _, n := range figureNums {
		spec, err := bench.FigureSpec(n, *sf, tenantCounts)
		if err != nil {
			fatal(err)
		}
		spec.Repeats = *repeats
		spec.Parallelism = *parallelism
		spec.MemLimit = memBytes
		spec.Shards = *shards
		if len(queryIDs) > 0 {
			spec.QueryIDs = queryIDs
		}
		if *dist != "" {
			spec.Dist = mth.Distribution(*dist)
		}
		res, err := bench.RunScaling(spec, progressW)
		if err != nil {
			fatal(err)
		}
		res.WriteFigure(os.Stdout)
		fmt.Println()
	}
}

// startProfiles starts the requested profiles and returns the function that
// finishes them. The allocation profile samples every allocation, so its
// alloc_space view adds up to what the run allocated.
func startProfiles(cpuPath, memPath string) (stop func()) {
	var cpuFile *os.File
	if cpuPath != "" {
		var err error
		if cpuFile, err = os.Create(cpuPath); err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			fatal(err)
		}
	}
	if memPath != "" {
		runtime.MemProfileRate = 1
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fatal(err)
			}
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // fold the last cycle's allocations into the profile
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

func parseInts(csv string) ([]int, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad number %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mtbench:", err)
	os.Exit(1)
}
