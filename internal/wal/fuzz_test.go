package wal

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// fuzzRecords is how many records the fuzzed segment holds.
const fuzzRecords = 10

// replayBudget is what replaying a segment allocates besides the records:
// the segment reader's buffer, a payload's first chunk and the directory
// listing.
const replayBudget = 512 << 10

// FuzzReplay holds replay to its contract over a damaged segment: the
// segment of fuzzRecords appended records is cut to cut bytes (modulo its
// length + 1), and the byte at each (offset, mask) triple of flips — a
// little-endian 16-bit offset modulo the length, then the mask — has mask
// XORed into it. ReadAll must not panic, and must return a clean error or
// a prefix of the appended records, each equal to the one appended — never
// a record that was not. A length prefix the flips inflate must fail before
// it is allocated: replay allocates in proportion to the bytes there are.
// Seeded with every cut of the intact segment, the torn tail of
// TestTornTailStopsSegment, the flipped payload byte of
// TestCorruptRecordStopsSegment, and a first length prefix grown by 16 MB.
func FuzzReplay(f *testing.F) {
	want, seg := fuzzSegment(f)
	for cut := 0; cut <= len(seg); cut++ {
		f.Add(uint32(cut), []byte(nil))
	}
	f.Add(uint32(len(seg)-7), []byte(nil))
	f.Add(uint32(len(seg)), []byte{byte(len(seg) - 3), byte((len(seg) - 3) >> 8), 0xff})
	f.Add(uint32(len(seg)), []byte{3, 0, 0x01})
	f.Fuzz(func(t *testing.T, cut uint32, flips []byte) {
		data := append([]byte(nil), seg[:int(cut)%(len(seg)+1)]...)
		for ; len(flips) >= 3 && len(data) > 0; flips = flips[3:] {
			data[(int(flips[0])|int(flips[1])<<8)%len(data)] ^= flips[2]
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := ReadAll(dir)
		runtime.ReadMemStats(&after)
		if alloc, budget := after.TotalAlloc-before.TotalAlloc, uint64(replayBudget+64*len(seg)); alloc > budget {
			t.Fatalf("replaying %d bytes allocated %d, budget %d", len(data), alloc, budget)
		}
		if err != nil {
			return
		}
		if len(got) > len(want) {
			t.Fatalf("%d records replayed, %d appended", len(got), len(want))
		}
		for i := range got {
			if !sameRecord(&got[i], &want[i]) {
				t.Fatalf("record %d replayed as %+v, appended as %+v", i, got[i], want[i])
			}
		}
	})
}

// fuzzSegment appends fuzzRecords records to a fresh log and returns them,
// as replay reads them back, with the bytes of their one segment.
func fuzzSegment(f *testing.F) ([]Record, []byte) {
	dir := f.TempDir()
	l, _, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < fuzzRecords; i++ {
		if _, err := l.Append(rec(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	want, err := ReadAll(dir)
	if err != nil || len(want) != fuzzRecords {
		f.Fatalf("intact segment: %d records, %v", len(want), err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	return want, seg
}

// sameRecord compares two records field by field, floats by their bits.
func sameRecord(a, b *Record) bool {
	if a.LSN != b.LSN || a.Kind != b.Kind || a.Tenant != b.Tenant || a.Level != b.Level ||
		a.Scope != b.Scope || a.SQL != b.SQL || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		x, y := a.Args[i], b.Args[i]
		if math.Float64bits(x.F) != math.Float64bits(y.F) {
			return false
		}
		x.F, y.F = 0, 0
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}
