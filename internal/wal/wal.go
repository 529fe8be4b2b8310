// Package wal implements crash durability for mtserve: a write-ahead log
// of logical records (the mutating statements a server applied, with their
// session context), periodic snapshots of the engine's copy-on-write table
// heaps, and online backup of the whole durability directory.
//
// The log is logical, not physical: the engine's execution is deterministic
// (the differential suites pin results byte-identical across compile
// modes, parallelism settings and memory budgets), so re-executing the
// same statements from the same base state reproduces the same heaps
// byte-for-byte. A record therefore carries everything replay needs to
// reproduce the original execution exactly: the tenant the statement ran
// as (C), the optimization level, the SET SCOPE statement in effect, the
// statement text and the bind values (bit-exact, wire codec).
//
// Layout of a durability directory:
//
//	MANIFEST.json      how to rebuild the base state (written by the server)
//	wal-<lsn16>.log    append-only record segments; <lsn16> = first LSN
//	snap-<lsn16>.snap  heap snapshots; <lsn16> = last LSN the snapshot covers
//
// Durability contract. Append buffers a record and assigns its LSN; Sync
// makes everything up to an LSN durable with one fsync shared by every
// waiter that piled up meanwhile (group commit). The server acknowledges a
// write to the client only after Sync returns, so an acknowledged write is
// always recovered; an unacknowledged write may or may not be, but replay
// order always equals apply order.
//
// Torn tails. A crash can leave a half-written record at the end of the
// segment being appended. Records are length-prefixed and checksummed;
// readers stop a segment at the first record that fails to decode. Each
// Open starts a fresh segment, so a torn tail is always at the end of some
// segment and never followed by valid records in the same file; cross-
// segment LSN continuity is verified so a misordered or gutted directory
// is detected rather than silently replayed.
package wal

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// SegmentSize is the rotation threshold: once a segment exceeds it, the
// next sync boundary starts a new one.
const SegmentSize = 64 << 20

// Log is an open write-ahead log. Append/Sync are safe for concurrent use.
type Log struct {
	dir string

	mu       sync.Mutex // append path: file, writer, LSNs
	f        *os.File
	w        *bufio.Writer
	appended uint64 // last LSN written to the buffer
	segBytes int64

	syncMu  sync.Mutex // sync path: one fsync at a time
	durMu   sync.Mutex // durable, syncErr
	durable uint64     // last LSN known fsynced
	syncErr error      // sticky: the log is dead after a sync failure
}

func segName(firstLSN uint64) string { return fmt.Sprintf("wal-%016x.log", firstLSN) }
func snapName(lsn uint64) string     { return fmt.Sprintf("snap-%016x.snap", lsn) }
func parseSeq(name, pre, suf string) (uint64, bool) {
	if !strings.HasPrefix(name, pre) || !strings.HasSuffix(name, suf) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(pre):len(name)-len(suf)], 16, 64)
	return n, err == nil
}

// Open reads every record already in dir (in LSN order, stopping segments
// at torn tails) and returns them together with a Log ready to append; the
// first new record gets LSN last+1. The directory is created if missing.
func Open(dir string) (*Log, []Record, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	recs, err := ReadAll(dir)
	if err != nil {
		return nil, nil, err
	}
	next := uint64(1)
	if len(recs) > 0 {
		next = recs[len(recs)-1].LSN + 1
	}
	// segName(next) can already exist: a previous Open that never appended
	// (or appended only a torn record) leaves it behind. Such a file holds
	// zero decodable records by construction — otherwise next would be past
	// it — so truncating loses nothing acknowledged.
	f, err := os.OpenFile(filepath.Join(dir, segName(next)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open segment: %w", err)
	}
	if err := SyncDir(dir); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: sync directory: %w", err)
	}
	l := &Log{dir: dir, f: f, w: bufio.NewWriterSize(f, 256<<10), appended: next - 1, durable: next - 1}
	return l, recs, nil
}

// Append encodes rec, assigns it the next LSN and buffers it. The record
// is NOT durable until Sync(lsn) returns; the caller must apply records in
// Append order (hold one lock across Append+apply) so replay order equals
// apply order.
func (l *Log) Append(rec *Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.loadErr(); err != nil {
		return 0, err
	}
	rec.LSN = l.appended + 1
	buf := rec.encode(nil)
	if _, err := l.w.Write(buf); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.appended = rec.LSN
	l.segBytes += int64(len(buf))
	return rec.LSN, nil
}

// LastLSN reports the most recently appended LSN.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// Sync blocks until every record up to lsn is fsynced. Concurrent callers
// share fsyncs: whoever grabs the sync path flushes and syncs everything
// appended so far, and the rest observe the advanced watermark without
// touching the disk (group commit).
func (l *Log) Sync(lsn uint64) error {
	for {
		covered, err := l.durableTo(lsn)
		if err != nil || covered {
			return err
		}
		l.syncOnce(lsn)
	}
}

// durableTo reports whether every record up to lsn is fsynced, or the
// sticky error that ended the log.
func (l *Log) durableTo(lsn uint64) (bool, error) {
	l.durMu.Lock()
	defer l.durMu.Unlock()
	return l.durable >= lsn, l.syncErr
}

// syncOnce performs one flush+fsync round covering every record appended
// before it started, unless the round that held the sync path meanwhile
// already made lsn durable: then the caller shares that round's fsync.
func (l *Log) syncOnce(lsn uint64) {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if covered, err := l.durableTo(lsn); covered || err != nil {
		return
	}

	l.mu.Lock()
	target := l.appended
	err := l.w.Flush()
	f := l.f
	l.mu.Unlock()
	if err == nil {
		err = f.Sync()
	}

	l.durMu.Lock()
	if err != nil {
		l.syncErr = fmt.Errorf("wal: sync: %w", err)
	} else if target > l.durable {
		l.durable = target
	}
	l.durMu.Unlock()

	if err == nil {
		l.maybeRotate(target)
	}
}

// maybeRotate starts a new segment once the current one is oversized. It
// runs at a sync boundary (syncMu held, everything durable up to target),
// so the old segment closes complete and the new one starts at target+1 —
// with its directory entry durable before the sync that acknowledges a record
// in it can run.
func (l *Log) maybeRotate(target uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.segBytes < SegmentSize || l.appended != target {
		return
	}
	name := filepath.Join(l.dir, segName(target+1))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return // keep appending to the old segment; rotation is opportunistic
	}
	if err := SyncDir(l.dir); err != nil {
		f.Close()
		os.Remove(name)
		return
	}
	l.f.Close()
	l.f = f
	l.w = bufio.NewWriterSize(f, 256<<10)
	l.segBytes = 0
}

// SyncDir makes dir's entries durable. fsync(2) on a file does not persist the
// directory entry naming it: without this, a crash could lose a whole new
// segment of acknowledged records, or a renamed file.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (l *Log) loadErr() error {
	l.durMu.Lock()
	defer l.durMu.Unlock()
	return l.syncErr
}

// Close flushes, syncs and closes the log.
func (l *Log) Close() error {
	err := l.Sync(l.LastLSN())
	l.mu.Lock()
	defer l.mu.Unlock()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadAll decodes every record under dir in LSN order. Within a segment,
// reading stops at the first undecodable record (torn tail); across
// segments, LSN continuity is enforced.
func ReadAll(dir string) ([]Record, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	type seg struct {
		first uint64
		name  string
	}
	var segs []seg
	for _, e := range entries {
		if n, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			segs = append(segs, seg{first: n, name: e.Name()})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	var recs []Record
	next := uint64(0)
	for _, s := range segs {
		if next != 0 && s.first != next {
			return nil, fmt.Errorf("wal: segment %s breaks LSN continuity (want first LSN %d)", s.name, next)
		}
		if next == 0 {
			next = s.first
		}
		segRecs, err := readSegment(filepath.Join(dir, s.name))
		if err != nil {
			return nil, err
		}
		for i := range segRecs {
			if segRecs[i].LSN != next {
				return nil, fmt.Errorf("wal: %s: record LSN %d, want %d", s.name, segRecs[i].LSN, next)
			}
			next++
		}
		recs = append(recs, segRecs...)
	}
	return recs, nil
}

// readSegment decodes one segment, stopping cleanly at a torn tail.
func readSegment(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 256<<10)
	var recs []Record
	for {
		var rec Record
		ok, err := rec.decodeFrom(br)
		if err != nil || !ok {
			// A decode error here is a torn or corrupt tail: stop the
			// segment at the last valid record. Cross-segment continuity
			// checking in ReadAll catches the case where valid data was
			// supposed to follow.
			return recs, nil
		}
		recs = append(recs, rec)
	}
}
