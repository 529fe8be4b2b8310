package engine

// This file implements the per-statement memory accountant behind
// DB.SetMemoryLimit: pipeline breakers (sort buffers, group hash tables,
// join builds, distinct sets) charge their retained state at batch
// granularity and consult over() to decide when to overflow to disk
// (spill.go). The default is unlimited: an exec created without a limit
// carries a nil accountant, every charge site is a nil-receiver no-op, and
// the hot path allocates nothing new.
//
// The accounting unit is the logical tuple footprint (rowBytes): the size a
// retained row would occupy if it owned its values outright. Rows shared
// with a table heap or a join chunk are over-counted by design — charging
// the shared reference at full width makes breakers spill earlier, never
// later, so the reported PeakMemBytes is a conservative ceiling on
// statement-retained state. Transient per-batch scratch (vector stack,
// ≤1024-row windows, sort permutations) is not charged; it is the "one
// batch of slack" the peak-bound tests allow.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"

	"mtbase/internal/sqltypes"
)

// memAccountant tracks the retained bytes of one statement's pipeline
// breakers against a fixed limit. All methods are safe on a nil receiver
// (the unlimited default) and safe for concurrent use: parallel workers
// share the statement's accountant, so per-worker charges fold into one
// budget.
type memAccountant struct {
	limit int64
	used  int64 // atomic
	db    *DB   // for the PeakMemBytes counter
}

// charge adds n bytes to the statement's footprint and folds the new total
// into Stats.PeakMemBytes.
func (a *memAccountant) charge(n int64) {
	if a == nil || n == 0 {
		return
	}
	used := atomic.AddInt64(&a.used, n)
	peakMem := &a.db.Stats.PeakMemBytes
	for {
		peak := peakMem.Load()
		if used <= peak || peakMem.CompareAndSwap(peak, used) {
			return
		}
	}
}

// release returns n bytes to the budget (state was spilled or dropped).
func (a *memAccountant) release(n int64) {
	if a == nil || n == 0 {
		return
	}
	atomic.AddInt64(&a.used, -n)
}

// over reports whether the statement's retained state exceeds the limit.
// Breakers poll it once per input batch, so an overshoot is bounded by one
// batch of rows before the spill path engages.
func (a *memAccountant) over() bool {
	return a != nil && atomic.LoadInt64(&a.used) > a.limit
}

// valueSize is the in-memory size of one sqltypes.Value struct (kind,
// int64, float64, string header on a 64-bit platform).
const valueSize = 40

// rowRefBytes is the footprint of retaining a reference to an existing row
// (slice header + pointer slot in the retaining structure).
const rowRefBytes = 24

// rowBytes is the logical footprint of one row: slice header plus the
// fixed-size Value structs plus owned string payloads. The structs are
// counted by capacity: a join-chain row owns its reserved tail whether or
// not it has been filled yet (DESIGN.md ADR-011). A projected row's ORDER BY
// keys ride at its end (ADR-040), so they are charged as its values are.
func rowBytes(row []sqltypes.Value) int64 {
	n := int64(rowRefBytes) + valueSize*int64(cap(row))
	for i := range row {
		n += int64(len(row[i].S))
	}
	return n
}

// groupEntryBytes is a resident group's overhead beyond its key, first row
// and accumulators: its entry in the key table and its first-row slot.
const groupEntryBytes = keyEntryBytes + rowRefBytes

// aggAccBytes is the size of one aggAcc: a resident group's state per site.
const aggAccBytes = 104

// SetMemoryLimit caps the memory one statement's pipeline breakers may
// retain before overflowing to temporary spill files. bytes <= 0 restores
// the default (unlimited, no accounting overhead). Results are identical at
// every setting — spilled runs merge back in the exact order the in-memory
// structures would have produced. See also SetSpillDir and the SpillRuns /
// SpillBytes / PeakMemBytes counters in Stats.
func (db *DB) SetMemoryLimit(bytes int64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if bytes < 0 {
		bytes = 0
	}
	db.memLimit = bytes
}

// SetSpillDir sets the directory spill files are created in. The empty
// default uses the system temp directory.
func (db *DB) SetSpillDir(dir string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.spillDir = dir
}

// ParseMemLimit parses a human-friendly memory limit: a plain byte count or
// a number with a KB/MB/GB suffix (decimal, case-insensitive), e.g. "64KB",
// "1MB", "1048576". It powers the MTBASE_TEST_MEMLIMIT environment override
// and the mtbench -memlimit flag.
func ParseMemLimit(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	if t == "" {
		return 0, fmt.Errorf("engine: empty memory limit")
	}
	mult := int64(1)
	switch {
	case strings.HasSuffix(t, "KB"):
		mult, t = 1<<10, t[:len(t)-2]
	case strings.HasSuffix(t, "MB"):
		mult, t = 1<<20, t[:len(t)-2]
	case strings.HasSuffix(t, "GB"):
		mult, t = 1<<30, t[:len(t)-2]
	case strings.HasSuffix(t, "B"):
		t = t[:len(t)-1]
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("engine: bad memory limit %q", s)
	}
	return n * mult, nil
}

// applyEnvMemLimit applies the MTBASE_TEST_MEMLIMIT override, letting the
// whole test suite run memory-capped without touching call sites. Invalid
// values are ignored: a typo must not silently change what a CI leg tests,
// so Open panics instead.
func (db *DB) applyEnvMemLimit() {
	s := os.Getenv("MTBASE_TEST_MEMLIMIT")
	if s == "" {
		return
	}
	n, err := ParseMemLimit(s)
	if err != nil {
		panic(err)
	}
	db.memLimit = n
}
