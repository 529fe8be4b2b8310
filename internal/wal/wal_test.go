package wal

// Durability invariants: reopen replays exactly what was appended, torn
// tails stop a segment cleanly, corruption never silently truncates more
// than the tail, group commit keeps the durable watermark monotone under
// concurrency, snapshots round-trip bit-exactly and prune to two
// generations, and an online backup of a live directory reopens to the
// same records.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mtbase/internal/sqltypes"
)

func rec(i int) *Record {
	return &Record{
		Kind:   Kind(1 + i%2),
		Tenant: int64(i % 5),
		Level:  uint8(i % 6),
		Scope:  fmt.Sprintf("SET SCOPE = \"IN (%d)\"", i%3),
		SQL:    fmt.Sprintf("INSERT INTO t VALUES (%d, ?)", i),
		Args:   []sqltypes.Value{sqltypes.NewFloat(float64(i) + 0.5), sqltypes.NewString("x")},
	}
}

func mustOpen(t *testing.T, dir string) (*Log, []Record) {
	t.Helper()
	l, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return l, recs
}

func TestAppendSyncReopen(t *testing.T) {
	dir := t.TempDir()
	l, recs := mustOpen(t, dir)
	if len(recs) != 0 {
		t.Fatalf("fresh dir has %d records", len(recs))
	}
	const n = 100
	for i := 0; i < n; i++ {
		lsn, err := l.Append(rec(i))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn %d, want %d", lsn, i+1)
		}
	}
	if err := l.Sync(uint64(n)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, recs := mustOpen(t, dir)
	defer l2.Close()
	if len(recs) != n {
		t.Fatalf("reopen: %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		want := rec(i)
		if r.SQL != want.SQL || r.Scope != want.Scope || r.Kind != want.Kind ||
			r.Tenant != want.Tenant || r.Level != want.Level || len(r.Args) != 2 ||
			math.Float64bits(r.Args[0].F) != math.Float64bits(want.Args[0].F) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}
	// The new segment starts after the old tail.
	lsn, err := l2.Append(rec(0))
	if err != nil || lsn != n+1 {
		t.Fatalf("append after reopen: lsn %d err %v", lsn, err)
	}
}

func TestTornTailStopsSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	for i := 0; i < 10; i++ {
		l.Append(rec(i))
	}
	l.Close()
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the last record's payload: a torn tail.
	if err := os.WriteFile(seg, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 9 {
		t.Fatalf("torn tail: %d records, want 9", len(recs))
	}
}

func TestCorruptRecordStopsSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	for i := 0; i < 10; i++ {
		l.Append(rec(i))
	}
	l.Close()
	seg := filepath.Join(dir, segName(1))
	data, _ := os.ReadFile(seg)
	data[len(data)-3] ^= 0xff // flip a bit in the last payload
	os.WriteFile(seg, data, 0o644)
	recs, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 9 {
		t.Fatalf("corrupt tail: %d records, want 9", len(recs))
	}
}

func TestMissingSegmentBreaksContinuity(t *testing.T) {
	dir := t.TempDir()
	for round := 0; round < 3; round++ {
		l, _ := mustOpen(t, dir)
		for i := 0; i < 5; i++ {
			l.Append(rec(i))
		}
		l.Close()
	}
	// Drop the middle segment (LSNs 6..10).
	if err := os.Remove(filepath.Join(dir, segName(6))); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(dir); err == nil {
		t.Fatal("gutted directory read back without error")
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	const writers, each = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				lsn, err := l.Append(rec(w*each + i))
				if err == nil {
					err = l.Sync(lsn)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != writers*each {
		t.Fatalf("%d records, want %d", len(recs), writers*each)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
}

// TestSyncSharesRoundInFlight: a writer that queued for the sync path while
// the round holding it made the writer's record durable returns on that
// round's fsync; it runs no round of its own, so a record appended since
// stays buffered and the segment file is not touched.
func TestSyncSharesRoundInFlight(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	defer l.Close()
	lsn, err := l.Append(rec(0))
	if err != nil {
		t.Fatal(err)
	}
	l.syncMu.Lock() // a round is in flight
	done := make(chan error)
	go func() { done <- l.Sync(lsn) }()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		buf := make([]byte, 1<<16)
		if strings.Contains(string(buf[:runtime.Stack(buf, true)]), "(*Log).syncOnce") {
			break // the writer is queued behind the round
		}
		if time.Now().After(deadline) {
			t.Fatal("the writer never reached the sync path")
		}
	}
	// The round in flight flushes and fsyncs through lsn.
	l.mu.Lock()
	if err := l.w.Flush(); err != nil {
		t.Fatal(err)
	}
	l.mu.Unlock()
	if err := l.f.Sync(); err != nil {
		t.Fatal(err)
	}
	l.durMu.Lock()
	l.durable = lsn
	l.durMu.Unlock()
	seg := filepath.Join(dir, segName(1))
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	l.syncMu.Unlock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	l.durMu.Lock()
	durable := l.durable
	l.durMu.Unlock()
	if durable != lsn {
		t.Errorf("durable through %d, want %d: the queued writer ran a round of its own", durable, lsn)
	}
	st2, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Size() != st.Size() {
		t.Errorf("segment is %d bytes after the shared round, want %d", st2.Size(), st.Size())
	}
}

func snapFor(lsn uint64) *Snapshot {
	return &Snapshot{LSN: lsn, Tables: []TableDump{
		{Name: "t", Rows: [][]sqltypes.Value{
			{sqltypes.NewInt(int64(lsn)), sqltypes.NewFloat(math.Inf(-1))},
			{sqltypes.NewString("s"), sqltypes.Null},
		}},
		{Name: "empty", Rows: nil},
	}}
}

func TestSnapshotRoundTripAndPrune(t *testing.T) {
	dir := t.TempDir()
	for _, lsn := range []uint64{10, 20, 30} {
		if _, err := WriteSnapshot(dir, snapFor(lsn)); err != nil {
			t.Fatal(err)
		}
	}
	lsns := snapshotLSNs(dir)
	if len(lsns) != keepSnapshots || lsns[0] != 20 || lsns[1] != 30 {
		t.Fatalf("pruned to %v", lsns)
	}
	s, err := ReadLatestSnapshot(dir)
	if err != nil || s == nil || s.LSN != 30 {
		t.Fatalf("latest: %+v %v", s, err)
	}
	if len(s.Tables) != 2 || s.Tables[0].Name != "t" || len(s.Tables[0].Rows) != 2 {
		t.Fatalf("tables: %+v", s.Tables)
	}
	if !math.IsInf(s.Tables[0].Rows[0][1].F, -1) {
		t.Fatal("float not bit-exact through snapshot")
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	WriteSnapshot(dir, snapFor(10))
	WriteSnapshot(dir, snapFor(20))
	path := filepath.Join(dir, snapName(20))
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xff
	os.WriteFile(path, data, 0o644)
	s, err := ReadLatestSnapshot(dir)
	if err != nil || s == nil || s.LSN != 10 {
		t.Fatalf("fallback: %+v %v", s, err)
	}
}

func TestBackupReopens(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir)
	for i := 0; i < 20; i++ {
		l.Append(rec(i))
	}
	l.Sync(20)
	WriteSnapshot(dir, snapFor(15))
	os.WriteFile(filepath.Join(dir, "MANIFEST.json"), []byte("{}\n"), 0o644)

	dst := filepath.Join(t.TempDir(), "backup")
	n, err := Backup(dir, dst)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 { // manifest + snapshot + one segment
		t.Fatalf("copied %d files, want 3", n)
	}
	l.Close()

	recs, err := ReadAll(dst)
	if err != nil || len(recs) != 20 {
		t.Fatalf("backup read: %d records, %v", len(recs), err)
	}
	s, err := ReadLatestSnapshot(dst)
	if err != nil || s == nil || s.LSN != 15 {
		t.Fatalf("backup snapshot: %+v %v", s, err)
	}
	if _, err := Backup(dir, dst); err == nil {
		t.Fatal("backup into non-empty destination accepted")
	}
}
