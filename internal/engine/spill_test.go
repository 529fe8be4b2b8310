package engine

// Tests for the bounded-memory overflow path: bit-exact codec roundtrips,
// the stability contract of the external merge (spilled runs must reassemble
// the exact order one global stable sort would produce), differential
// equivalence of capped vs unlimited execution across every breaker shape,
// and fault injection through the spillFS hook — a statement whose spill
// I/O fails must return an error (never panic), leave no temp files behind,
// and not poison subsequent statements.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"sync"
	"testing"

	"mtbase/internal/sqltypes"
)

// sameVal compares values bit-exactly: float payloads must round-trip to
// identical IEEE bits (NaN, -0.0 included), not merely compare ==.
func sameVal(a, b sqltypes.Value) bool {
	return a.K == b.K && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

func codecValues() []sqltypes.Value {
	return []sqltypes.Value{
		sqltypes.Null,
		sqltypes.NewInt(0),
		sqltypes.NewInt(-1),
		sqltypes.NewInt(math.MaxInt64),
		sqltypes.NewInt(math.MinInt64),
		{K: sqltypes.KindFloat, F: 0},
		{K: sqltypes.KindFloat, F: math.Copysign(0, -1)},
		{K: sqltypes.KindFloat, F: math.NaN()},
		{K: sqltypes.KindFloat, F: math.Inf(1)},
		{K: sqltypes.KindFloat, F: math.Inf(-1)},
		{K: sqltypes.KindFloat, F: math.MaxFloat64},
		{K: sqltypes.KindFloat, F: math.SmallestNonzeroFloat64},
		{K: sqltypes.KindFloat, F: 3.14159265358979},
		sqltypes.NewString(""),
		sqltypes.NewString("plain"),
		sqltypes.NewString("emb\x00edded|delim\nlines"),
		sqltypes.NewString(string(bytes.Repeat([]byte("x"), 1<<15))),
		{K: sqltypes.KindBool, I: 0},
		{K: sqltypes.KindBool, I: 1},
		{K: sqltypes.KindDate, I: 728659},
		{K: sqltypes.KindDate, I: -1},
		{K: sqltypes.KindInterval, I: 3, F: 2.5},
		{K: sqltypes.KindInterval, I: -12, F: math.Copysign(0, -1)},
	}
}

func TestSpillValueCodecRoundTrip(t *testing.T) {
	for i, v := range codecValues() {
		buf := sqltypes.AppendBinary(nil, v)
		got, rest, ok := sqltypes.ReadBinary(buf)
		if !ok {
			t.Fatalf("value %d does not decode", i)
		}
		if len(rest) != 0 {
			t.Fatalf("value %d: %d bytes left over", i, len(rest))
		}
		if !sameVal(v, got) {
			t.Errorf("value %d: %v:%v round-tripped to %v:%v", i, v.K, v, got.K, got)
		}
	}
}

// TestSpillRecRoundTrip streams records through the length-delimited file
// format, covering the nil-vs-empty row distinction (zero-width relations
// carry empty non-nil rows) and every seq/key edge.
func TestSpillRecRoundTrip(t *testing.T) {
	vals := codecValues()
	recs := []spillRec{
		{seq: 0, key: nil, row: nil},
		{seq: -1, key: []byte{}, row: []sqltypes.Value{}},
		{seq: math.MaxInt64, key: []byte("k"), row: vals},
		{seq: math.MinInt64, key: bytes.Repeat([]byte{0}, 300), row: vals[:1]},
		{seq: 42, key: []byte("dup"), row: []sqltypes.Value{sqltypes.NewString("a")}},
	}
	var buf []byte
	for i := range recs {
		buf = appendSpillRec(buf, &recs[i])
	}
	r := &spillReader{br: bufio.NewReader(bytes.NewReader(buf))}
	for i := range recs {
		var got spillRec
		ok, err := r.next(&got)
		if err != nil || !ok {
			t.Fatalf("rec %d: ok=%v err=%v", i, ok, err)
		}
		want := &recs[i]
		if got.seq != want.seq || !bytes.Equal(got.key, want.key) {
			t.Fatalf("rec %d: seq/key mismatch", i)
		}
		g, w := got.row, want.row
		if (g == nil) != (w == nil) || len(g) != len(w) {
			t.Fatalf("rec %d: nil-ness or length not preserved (got %d/%v want %d/%v)",
				i, len(g), g == nil, len(w), w == nil)
		}
		for j := range g {
			if !sameVal(g[j], w[j]) {
				t.Fatalf("rec %d val %d: %v != %v", i, j, g[j], w[j])
			}
		}
	}
	var end spillRec
	if ok, err := r.next(&end); ok || err != nil {
		t.Fatalf("expected clean EOF, got ok=%v err=%v", ok, err)
	}
	// A truncated stream must surface corruption, not garbage.
	r = &spillReader{br: bufio.NewReader(bytes.NewReader(buf[:len(buf)-3]))}
	var rec spillRec
	var err error
	for err == nil {
		var ok bool
		ok, err = r.next(&rec)
		if !ok && err == nil {
			t.Fatal("truncated stream decoded cleanly")
		}
	}
}

// testSpillExec builds a minimal exec for driving spill primitives directly.
func testSpillExec(db *DB, limit int64) *exec {
	return &exec{
		db:     db,
		acct:   &memAccountant{limit: limit, db: db},
		spills: &spillRegistry{},
	}
}

// TestSpillerStableExternalMerge checks the core ordering contract: many
// runs plus an in-memory remainder must merge to exactly what one global
// stable sort over all records in arrival order would produce — equal keys
// stay in arrival order, with file runs beating the newer remainder.
func TestSpillerStableExternalMerge(t *testing.T) {
	db := Open(ModePostgres)
	dir := t.TempDir()
	db.SetSpillDir(dir)
	ex := testSpillExec(db, 1)
	sp := newSpiller(ex, func(a, b *spillRec) bool { return bytes.Compare(a.key, b.key) < 0 })

	const n, runLen = 950, 100 // 9 full runs + a 50-record remainder
	for i := 0; i < n; i++ {
		rec := spillRec{
			seq: int64(i),
			key: []byte{byte(i % 7)},
			row: []sqltypes.Value{sqltypes.NewInt(int64(i))},
		}
		sp.add(rec, rowBytes(rec.row))
		if (i+1)%runLen == 0 {
			if err := sp.flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !sp.spilled() {
		t.Fatal("spiller wrote no runs")
	}
	m, err := sp.drain()
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	lastKey := -1
	lastSeq := int64(-1)
	for {
		rec, err := m.next()
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil {
			break
		}
		k := int(rec.key[0])
		if k < lastKey {
			t.Fatalf("keys out of order: %d after %d", k, lastKey)
		}
		if k > lastKey {
			lastKey, lastSeq = k, -1
		}
		if rec.seq <= lastSeq {
			t.Fatalf("key %d: arrival order broken (seq %d after %d)", k, rec.seq, lastSeq)
		}
		if int(rec.seq)%7 != k || rec.row[0].I != rec.seq {
			t.Fatalf("record payload corrupted: seq=%d key=%d row=%v", rec.seq, k, rec.row)
		}
		lastSeq = rec.seq
		seen++
	}
	if seen != n {
		t.Fatalf("merged %d records, want %d", seen, n)
	}
	if got := db.Stats.Snapshot().SpillRuns; got != n/runLen {
		t.Fatalf("SpillRuns = %d, want %d", got, n/runLen)
	}
	m.close()
	sp.close()
	assertDirEmpty(t, dir)
	if used := ex.acct.used; used != 0 {
		t.Fatalf("accountant leaks %d bytes after close", used)
	}
}

func assertDirEmpty(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("spill dir not cleaned up: %v", names)
	}
}

// hotKeyShapes join dim to a build side of seven keys, each holding more
// rows than any cap: the derived table keeps it off the index path, so a
// capped run spills it, and the merge holds one whole key group at a time.
var hotKeyShapes = []string{
	`SELECT d.name, f.id FROM dim d JOIN (SELECT id, k FROM fact WHERE id >= 0) f ON d.k = f.k`,
	`SELECT d.name, f.id FROM dim d LEFT JOIN (SELECT id, k FROM fact WHERE id >= 0) f ON d.k = f.k`,
}

// spillShapes engages every breaker's overflow path: external sort, group
// hash table (the thousand- and ten-thousand-group shapes: the few-group ones
// fold within every limit but the tightest, TestGroupFreezeAndSpill),
// DISTINCT — a grouping by the output columns (ADR-039) — hash join build and
// LEFT JOIN build, and the hot-key joins. The DISTINCT shapes cover a key per
// row, an ORDER BY key the select list does not hold (the first arrival's
// travels with its row), DISTINCT over a grouped block, once over one whose
// groups spill too, a repeated column name, LIMIT, INTEGER and DECIMAL images
// of one value (the first arrival's kind survives) and a NULL key.
var spillShapes = append([]string{
	`SELECT id, val FROM fact ORDER BY val, id`,
	`SELECT id, k FROM fact ORDER BY k DESC, id DESC LIMIT 37`,
	`SELECT grp, k, COUNT(*) AS n, SUM(val) AS s, AVG(val) AS a, MIN(id) AS mn, MAX(id) AS mx FROM fact GROUP BY grp, k ORDER BY grp, k`,
	`SELECT k, COUNT(DISTINCT grp) AS dg FROM fact GROUP BY k ORDER BY k`,
	`SELECT id % 1000 AS r, COUNT(*) AS n, SUM(val) AS s, MIN(id) AS mn FROM fact GROUP BY id % 1000`,
	`SELECT id, COUNT(*) AS c FROM fact GROUP BY id`,
	`SELECT DISTINCT val FROM fact`,
	`SELECT DISTINCT k, grp FROM fact ORDER BY k DESC, grp`,
	`SELECT DISTINCT id, val FROM fact`,
	`SELECT DISTINCT grp FROM fact ORDER BY id DESC`,
	`SELECT DISTINCT id % 3000 AS r FROM fact ORDER BY val DESC, r`,
	`SELECT DISTINCT COUNT(*) AS n FROM fact GROUP BY k`,
	`SELECT DISTINCT MIN(val) AS v FROM fact GROUP BY id % 2000 ORDER BY MAX(id) DESC`,
	`SELECT DISTINCT * FROM fact f, dim d WHERE f.k = d.k`,
	`SELECT DISTINCT k FROM fact ORDER BY 1 DESC LIMIT 3`,
	`SELECT DISTINCT CASE WHEN id % 2 = 0 THEN 3 ELSE 3.0 END AS c, CASE WHEN grp = 2 THEN NULL ELSE grp END AS g FROM fact`,
	`SELECT DISTINCT CASE WHEN id % 2 = 1 THEN 3 ELSE 3.0 END AS c, CASE WHEN grp = 2 THEN NULL ELSE grp END AS g FROM fact`,
	`SELECT f.id, d.name FROM fact f JOIN dim d ON f.k = d.k ORDER BY f.id LIMIT 100`,
	`SELECT f.id, o.tag FROM fact f LEFT JOIN other o ON f.id = o.id ORDER BY f.id`,
	`SELECT d.name, COUNT(*) AS n FROM fact f, dim d WHERE f.k = d.k GROUP BY d.name HAVING COUNT(*) > 10 ORDER BY n DESC, d.name`,
	`SELECT id FROM fact WHERE k IN (SELECT k FROM dim WHERE name <> 'd3') ORDER BY id LIMIT 50`,
	// Every sort buffers its rows, keys at their tail, in its spiller
	// (ADR-040): expression keys outside the select list, DISTINCT sorted by
	// keys it does not output, NULL and DESC mixes, and sorted derived tables
	// feeding a join and an aggregate, and read back with *.
	`SELECT id FROM fact ORDER BY val * 3 - grp DESC, id`,
	`SELECT k, COUNT(*) AS n FROM fact GROUP BY k ORDER BY SUM(val) DESC, MIN(id)`,
	`SELECT DISTINCT id % 1500 AS r, grp FROM fact ORDER BY grp DESC, val, r`,
	`SELECT id, CASE WHEN grp = 2 THEN NULL ELSE val END AS v FROM fact ORDER BY v DESC, id`,
	`SELECT f.id, o.tag FROM fact f LEFT JOIN other o ON f.id = o.id ORDER BY o.tag DESC, f.id DESC`,
	`SELECT d.name, COUNT(*) AS n, SUM(x.val) AS s FROM (SELECT id, k, val FROM fact ORDER BY val DESC, id) x JOIN dim d ON x.k = d.k GROUP BY d.name ORDER BY s DESC, d.name`,
	`SELECT * FROM (SELECT id FROM fact ORDER BY val DESC, id) x`,
}, hotKeyShapes...)

// TestSpillDifferentialShapes is the engine-level acceptance gate: every
// breaker shape, unlimited and at every memory limit down to 8KB, with
// compiled kernels and with the lifted interpreter, at parallelism 1 and 8,
// must be byte-identical to the reference executor (which never spills);
// tight limits must actually spill, the accounted peak must stay within one
// batch of the limit — a hot-key join's also within its largest build key
// group, which the merge holds whole — and every temp file must be gone.
func TestSpillDifferentialShapes(t *testing.T) {
	db := streamTestDB(t, 10000)
	dir := t.TempDir()
	db.SetSpillDir(dir)

	cfgReference.apply(db)
	db.SetMemoryLimit(0)
	base := make(map[string]string, len(spillShapes))
	for _, q := range spillShapes {
		base[q] = execKey(db.QuerySQL(q))
	}

	// One batch of slack: over() is polled per input batch, so the buffered
	// overshoot is bounded by one 1024-row batch of charged records (plus
	// parallel scan row references, which never spill).
	const slack = 512 << 10
	// A hot-key join's bound adds the charge of its largest build key group,
	// from the build side's own rows.
	build, err := db.QuerySQL(`SELECT id, k FROM fact WHERE id >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	groups := map[int64]int64{}
	var hotGroup int64
	for _, row := range build.Rows {
		groups[row[1].AsInt()] += rowBytes(row)
		hotGroup = max(hotGroup, groups[row[1].AsInt()])
	}
	bound := map[string]int64{}
	for _, q := range hotKeyShapes {
		bound[q] = hotGroup
	}
	for _, limit := range []int64{0, 1 << 20, 64 << 10, 8 << 10} {
		for _, cfg := range checkedConfigs {
			for _, par := range []int{1, 8} {
				cfg.apply(db)
				db.SetParallelism(par)
				db.SetMemoryLimit(limit)
				db.Stats = Stats{}
				for _, q := range spillShapes {
					db.Stats.PeakMemBytes.Store(0)
					if got := execKey(db.QuerySQL(q)); got != base[q] {
						t.Errorf("limit=%d %s par=%d %q: run differs from the reference",
							limit, cfg.name, par, q)
					}
					if peak := db.Stats.PeakMemBytes.Load(); limit > 0 && peak > limit+slack+bound[q] {
						t.Errorf("limit=%d %s par=%d %q: PeakMemBytes %d exceeds limit plus one batch of slack (plus %d held)",
							limit, cfg.name, par, q, peak, bound[q])
					}
				}
				st := db.Stats.Snapshot()
				if limit == 0 {
					if st.SpillRuns != 0 {
						t.Errorf("%s par=%d: unlimited run spilled", cfg.name, par)
					}
					continue
				}
				if limit <= 64<<10 && st.SpillRuns == 0 {
					t.Errorf("limit=%d %s par=%d: tight limit never spilled", limit, cfg.name, par)
				}
				if st.SpillRuns > 0 && st.SpillBytes == 0 {
					t.Errorf("limit=%d %s par=%d: runs without bytes", limit, cfg.name, par)
				}
			}
		}
	}
	assertDirEmpty(t, dir)
}

// ------------------------------------------------------------- fault hook

var errInjected = errors.New("injected spill fault")

// faultFS implements spillFS over the real filesystem with configurable
// failure points: the Nth create, the Nth write, finishing a run, opening a
// run for reading, or the Nth read. Counters are cumulative across files so
// a fault can land mid-statement, after real state is already on disk.
type faultFS struct {
	mu      sync.Mutex
	creates int
	filled  int // files written to at least once
	writes  int
	reads   int

	failCreateAt int // 1-based create index to fail at; 0 = never
	failWriteAt  int
	failReadAt   int
	failFinish   bool
	failOpen     bool
	flipKind     bool // overwrite the kind byte of the first value read back with one no kind has
}

func (fs *faultFS) create(dir string) (spillFile, error) {
	fs.mu.Lock()
	fs.creates++
	fail := fs.failCreateAt > 0 && fs.creates >= fs.failCreateAt
	fs.mu.Unlock()
	if fail {
		return nil, errInjected
	}
	f, err := osSpillFS{}.create(dir)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: fs, spillFile: f}, nil
}

type faultFile struct {
	fs *faultFS
	spillFile
	written bool
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	f.fs.writes++
	if !f.written {
		f.written = true
		f.fs.filled++
	}
	fail := f.fs.failWriteAt > 0 && f.fs.writes >= f.fs.failWriteAt
	f.fs.mu.Unlock()
	if fail {
		return 0, errInjected
	}
	return f.spillFile.Write(p)
}

func (f *faultFile) finish() error {
	if f.fs.failFinish {
		return errInjected
	}
	return f.spillFile.finish()
}

func (f *faultFile) open() (io.ReadCloser, error) {
	if f.fs.failOpen {
		return nil, errInjected
	}
	rc, err := f.spillFile.open()
	if err != nil {
		return nil, err
	}
	return &faultReader{fs: f.fs, rc: rc}, nil
}

type faultReader struct {
	fs *faultFS
	rc io.ReadCloser
}

func (r *faultReader) Read(p []byte) (int, error) {
	r.fs.mu.Lock()
	r.fs.reads++
	fail := r.fs.failReadAt > 0 && r.fs.reads >= r.fs.failReadAt
	r.fs.mu.Unlock()
	if fail {
		return 0, errInjected
	}
	n, err := r.rc.Read(p)
	if r.fs.flipKind && r.fs.reads == 1 {
		// A record is uvarint(len) varint(seq) uvarint(len(key)) key, then the
		// row: uvarint(len+1) and the first value's kind byte.
		_, a := binary.Uvarint(p[:n])
		_, b := binary.Varint(p[a:n])
		kl, c := binary.Uvarint(p[a+b : n])
		_, d := binary.Uvarint(p[a+b+c+int(kl) : n])
		p[a+b+c+int(kl)+d] = 0xEE
	}
	return n, err
}

func (r *faultReader) Close() error { return r.rc.Close() }

// TestSpillFaultInjection fails spill I/O at every lifecycle point of a
// spilling statement. The contract: the statement returns the injected
// error (no panic), the spill directory is empty afterwards, and once the
// fault clears the same statement spills successfully with identical
// results.
func TestSpillFaultInjection(t *testing.T) {
	cases := []struct {
		name  string
		query string
		fs    *faultFS
	}{
		{"create", `SELECT id, val FROM fact ORDER BY val, id`, &faultFS{failCreateAt: 1}},
		{"write", `SELECT id, val FROM fact ORDER BY val, id`, &faultFS{failWriteAt: 1}},
		{"late-write", `SELECT id, val FROM fact ORDER BY val, id`, &faultFS{failWriteAt: 3}},
		{"finish", `SELECT id, val FROM fact ORDER BY val, id`, &faultFS{failFinish: true}},
		{"open", `SELECT id, val FROM fact ORDER BY val, id`, &faultFS{failOpen: true}},
		{"read", `SELECT id, val FROM fact ORDER BY val, id`, &faultFS{failReadAt: 1}},
		{"group-write", `SELECT id, SUM(val) AS s FROM fact GROUP BY id`, &faultFS{failWriteAt: 1}},
		{"distinct-read", `SELECT DISTINCT id, val FROM fact`, &faultFS{failReadAt: 1}},
		// The build side is filtered: an unfiltered base table keyed on plain
		// columns is probed through its persistent index and never spills.
		{"join-write", `SELECT f.id, o.tag FROM fact f LEFT JOIN (SELECT id, tag FROM other WHERE id >= 0) o ON f.id = o.id`, &faultFS{failWriteAt: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := streamTestDB(t, 6000)
			db.SetParallelism(1)
			db.SetMemoryLimit(0)
			want := execKey(db.QuerySQL(tc.query))

			dir := t.TempDir()
			db.SetSpillDir(dir)
			db.SetMemoryLimit(16 << 10)
			db.spillfs = tc.fs
			res, err := db.QuerySQL(tc.query)
			if err == nil {
				t.Fatalf("statement succeeded with %d rows despite injected fault", len(res.Rows))
			}
			if !errors.Is(err, errInjected) {
				t.Fatalf("want injected fault, got: %v", err)
			}
			assertDirEmpty(t, dir)

			// The same statement through the cursor path: the error must
			// surface through Collect and Close must sweep the temp files.
			tc.fs.mu.Lock()
			tc.fs.creates, tc.fs.writes, tc.fs.reads = 0, 0, 0
			tc.fs.mu.Unlock()
			rows, err := db.QueryPlanContext(context.Background(), mustPrepare(db, tc.query))
			if err == nil {
				_, err = rows.Collect()
				rows.Close()
			}
			if !errors.Is(err, errInjected) {
				t.Fatalf("cursor path: want injected fault, got: %v", err)
			}
			assertDirEmpty(t, dir)

			// Fault cleared: the statement must recover, actually spill, and
			// match the unlimited oracle byte for byte — and write every file
			// it acquired: one it took and lost would be left to the
			// end-of-statement sweep.
			clean := &faultFS{}
			db.spillfs = clean
			db.Stats = Stats{}
			got, err := db.QuerySQL(tc.query)
			if err != nil {
				t.Fatalf("statement did not recover after fault cleared: %v", err)
			}
			if execKey(got, nil) != want {
				t.Fatal("recovered statement differs from unlimited oracle")
			}
			if db.Stats.Snapshot().SpillRuns == 0 {
				t.Fatal("recovered statement did not spill")
			}
			if clean.filled != clean.creates {
				t.Fatalf("%d of %d spill files acquired were never written", clean.creates-clean.filled, clean.creates)
			}
			assertDirEmpty(t, dir)
		})
	}
}

// TestSpillCorruptKindByte: a spill file whose bytes changed on disk is a
// decode error, not a row of made-up values — a kind byte no kind has fails
// the value image's decode, and the statement reports errSpillCorrupt and
// leaves no temp file behind.
func TestSpillCorruptKindByte(t *testing.T) {
	db := streamTestDB(t, 6000)
	db.SetParallelism(1)
	dir := t.TempDir()
	db.SetSpillDir(dir)
	db.SetMemoryLimit(16 << 10)
	db.spillfs = &faultFS{flipKind: true}
	res, err := db.QuerySQL(`SELECT id, val FROM fact ORDER BY val, id`)
	if !errors.Is(err, errSpillCorrupt) {
		t.Fatalf("err = %v (%v), want errSpillCorrupt", err, res)
	}
	assertDirEmpty(t, dir)
}

// TestSpillCursorCleanup interleaves a partially drained spilling cursor
// with early Close: temp files must be gone the moment Close returns, and
// Close must stay idempotent.
func TestSpillCursorCleanup(t *testing.T) {
	db := streamTestDB(t, 6000)
	db.SetParallelism(1)
	dir := t.TempDir()
	db.SetSpillDir(dir)
	db.SetMemoryLimit(16 << 10)
	rows, err := db.QueryPlanContext(context.Background(), mustPrepare(db, `SELECT id, val FROM fact ORDER BY val, id`))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && rows.Next(); i++ {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if db.Stats.Snapshot().SpillRuns == 0 {
		t.Fatal("sort did not spill at a 16KB limit")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	assertDirEmpty(t, dir)
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	assertDirEmpty(t, dir)
}
