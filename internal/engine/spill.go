package engine

// This file implements the disk overflow path pipeline breakers take when
// the statement memory accountant (accountant.go) reports the budget
// exceeded:
//
//   - a record codec (appendSpillRec / spillReader.next) around sqltypes'
//     bit-exact binary value image (float payloads travel as raw IEEE bits),
//   - run files behind an injectable filesystem hook (spillFS) so tests can
//     fail writes and reads mid-run,
//   - an exec-wide registry that guarantees every temp file is removed by
//     Rows.Close / statement end even when an operator errors before its
//     own Close runs, and
//   - spiller, the external stable merge sort and the one writer of a spill
//     file: records accumulate in memory, overflow as stably-sorted runs,
//     and drain through a k-way merge where the earlier run wins ties — so
//     run order preserves arrival order and the merged stream is
//     byte-identical to one global stable sort.
//
// Everything here is created lazily: a statement under the default
// unlimited budget never touches this file.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"

	"mtbase/internal/sqltypes"
)

// ---------------------------------------------------------------- spill FS

// spillFile is one temporary overflow file: written once front to back,
// then re-read any number of times, then removed.
type spillFile interface {
	io.Writer
	// finish flushes and closes the write side; the file becomes readable.
	finish() error
	// open returns a fresh reader over the finished file.
	open() (io.ReadCloser, error)
	// remove deletes the file; idempotent.
	remove() error
}

// spillFS creates spill files. The engine uses osSpillFS; fault-injection
// tests swap in an implementation that fails mid-run.
type spillFS interface {
	create(dir string) (spillFile, error)
}

type osSpillFS struct{}

type osSpillFile struct {
	f       *os.File
	path    string
	removed bool
}

func (osSpillFS) create(dir string) (spillFile, error) {
	f, err := os.CreateTemp(dir, "mtbase-spill-*")
	if err != nil {
		return nil, err
	}
	return &osSpillFile{f: f, path: f.Name()}, nil
}

func (s *osSpillFile) Write(p []byte) (int, error) { return s.f.Write(p) }

func (s *osSpillFile) finish() error {
	err := s.f.Close()
	s.f = nil
	return err
}

func (s *osSpillFile) open() (io.ReadCloser, error) { return os.Open(s.path) }

func (s *osSpillFile) remove() error {
	if s.removed {
		return nil
	}
	s.removed = true
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
	return os.Remove(s.path)
}

// ---------------------------------------------------------------- registry

// spillRegistry tracks every live spill file of one statement. Operators
// remove their files in Close, but error paths can abandon half-built
// subtrees before the tree exists (e.g. a build-side drain failing during
// tree construction) — releaseSpills at statement end / Rows.Close is the
// backstop that removes whatever is left.
type spillRegistry struct {
	mu    sync.Mutex
	files map[spillFile]struct{}
}

func (r *spillRegistry) register(f spillFile) {
	r.mu.Lock()
	if r.files == nil {
		r.files = make(map[spillFile]struct{})
	}
	r.files[f] = struct{}{}
	r.mu.Unlock()
}

func (r *spillRegistry) deregister(f spillFile) {
	r.mu.Lock()
	delete(r.files, f)
	r.mu.Unlock()
}

// removeAll deletes every still-registered file.
func (r *spillRegistry) removeAll() {
	r.mu.Lock()
	files := r.files
	r.files = nil
	r.mu.Unlock()
	for f := range files {
		f.remove()
	}
}

// newSpillFile creates a registered spill file using the DB's configured
// directory and filesystem hook, counting it in Stats.SpillRuns.
func (ex *exec) newSpillFile() (spillFile, error) {
	fs := ex.db.spillfs
	if fs == nil {
		fs = osSpillFS{}
	}
	f, err := fs.create(ex.db.spillDir)
	if err != nil {
		return nil, fmt.Errorf("engine: spill: %w", err)
	}
	ex.spills.register(f)
	ex.db.Stats.SpillRuns.Add(1)
	return f, nil
}

// dropSpillFile removes a file and forgets it.
func (ex *exec) dropSpillFile(f spillFile) {
	if f == nil {
		return
	}
	f.remove()
	ex.spills.deregister(f)
}

// releaseSpills ends the statement: it removes every spill file the
// statement still holds and hands its scratch stack and result caches, and
// each of its pool workers', on (putStack). Called from Rows.Close and at the
// end of ExecPlanContext, once nothing of the statement runs any more;
// idempotent.
func (ex *exec) releaseSpills() {
	if ex.spills != nil {
		ex.spills.removeAll()
	}
	ex.putStack()
	if ex.pool != nil {
		for _, w := range ex.pool.workers {
			if w != nil {
				w.putStack()
			}
		}
	}
}

// putStack hands the scratch stack to the next statement and each IMMUTABLE
// result cache, emptied, to the next execution of its plan.
func (ex *exec) putStack() {
	if ex.vs != nil {
		ex.vs.put()
		ex.vs = nil
	}
	for _, c := range ex.udfCalls {
		if c.cache != nil {
			c.plan.putResults(c.cache)
			c.cache = nil
		}
	}
}

// ---------------------------------------------------------------- codec

// spillRec is one spilled record: an ordering/partitioning key, an optional
// sequence number (arrival order, probe order, a group's first arrival —
// whatever the spilling operator sorts or regroups by) and the row itself,
// ORDER BY keys included where they ride at its tail (DESIGN.md ADR-040).
type spillRec struct {
	seq int64
	key []byte
	row []sqltypes.Value
}

var errSpillCorrupt = fmt.Errorf("engine: spill: corrupt record")

// appendSpillRec appends the length-delimited encoding of rec. Values travel
// as sqltypes' bit-exact binary image; a nil value list stays distinct from an
// empty one: zero-width relations (SELECT with no FROM) carry empty non-nil
// rows.
func appendSpillRec(buf []byte, rec *spillRec) []byte {
	var payload []byte
	payload = binary.AppendVarint(payload, rec.seq)
	payload = binary.AppendUvarint(payload, uint64(len(rec.key)))
	payload = append(payload, rec.key...)
	payload = sqltypes.AppendBinaryList(payload, rec.row)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	return append(buf, payload...)
}

// spillReadBuf is a run reader's buffer. A merge opens every run at once and
// holds one buffer per run, none of it charged: at 4 KB, 195 runs hold
// 0.8 MB.
const spillReadBuf = 4 << 10

// spillReader streams records back from a finished spill file.
type spillReader struct {
	rc  io.ReadCloser
	br  *bufio.Reader
	buf []byte
}

func openSpillReader(f spillFile) (*spillReader, error) {
	rc, err := f.open()
	if err != nil {
		return nil, fmt.Errorf("engine: spill: %w", err)
	}
	return &spillReader{rc: rc, br: bufio.NewReaderSize(rc, spillReadBuf)}, nil
}

// next decodes the next record into rec, reporting (false, nil) at EOF.
func (r *spillReader) next(rec *spillRec) (bool, error) {
	n, err := binary.ReadUvarint(r.br)
	if err == io.EOF {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("engine: spill: %w", err)
	}
	if uint64(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.br, r.buf); err != nil {
		return false, fmt.Errorf("engine: spill: %w", err)
	}
	buf := r.buf
	seq, w := binary.Varint(buf)
	if w <= 0 {
		return false, errSpillCorrupt
	}
	buf = buf[w:]
	kl, w := binary.Uvarint(buf)
	if w <= 0 || uint64(len(buf)-w) < kl {
		return false, errSpillCorrupt
	}
	key := append([]byte(nil), buf[w:w+int(kl)]...)
	buf = buf[w+int(kl):]
	// Every value takes a byte at least, so a record bounds its list.
	row, _, ok := sqltypes.ReadBinaryList(buf, n)
	if !ok {
		return false, errSpillCorrupt
	}
	rec.seq, rec.key, rec.row = seq, key, row
	return true, nil
}

func (r *spillReader) close() {
	if r.rc != nil {
		r.rc.Close()
		r.rc = nil
	}
}

// ---------------------------------------------------------------- spiller

// spiller is the external stable merge sort shared by the sort, group-by
// (DISTINCT included) and join overflow paths. Records accumulate in memory
// (charged by the caller); flush writes the buffer as one stably-sorted run;
// drain merges all runs plus the still-buffered remainder with
// earlier-run-wins tie breaking. Because each run is a contiguous arrival-order segment and
// the in-memory remainder is the newest segment, ties resolve to arrival
// order — exactly what one global stable sort over all records produces.
type spiller struct {
	ex   *exec
	less func(a, b *spillRec) bool
	recs []spillRec
	runs []spillFile

	charged int64 // accountant bytes held by recs
	buf     []byte
	bw      *bufio.Writer // every run's, one at a time
}

func newSpiller(ex *exec, less func(a, b *spillRec) bool) *spiller {
	return &spiller{ex: ex, less: less}
}

// add buffers rec and charges cost bytes against the statement budget.
func (s *spiller) add(rec spillRec, cost int64) {
	s.recs = append(s.recs, rec)
	s.charged += cost
	s.ex.acct.charge(cost)
}

// flush writes the buffered records as one sorted run and frees them.
func (s *spiller) flush() error {
	if len(s.recs) == 0 {
		return nil
	}
	idx := make([]int32, len(s.recs))
	for i := range idx {
		idx[i] = int32(i)
	}
	stableSortIdx(idx, func(a, b int32) bool { return s.less(&s.recs[a], &s.recs[b]) })
	f, err := s.ex.newSpillFile()
	if err != nil {
		return err
	}
	if s.bw == nil {
		s.bw = bufio.NewWriterSize(f, 64<<10)
	} else {
		s.bw.Reset(f)
	}
	written := int64(0)
	for _, i := range idx {
		s.buf = appendSpillRec(s.buf[:0], &s.recs[i])
		if _, err := s.bw.Write(s.buf); err != nil {
			return fmt.Errorf("engine: spill: %w", err)
		}
		written += int64(len(s.buf))
	}
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("engine: spill: %w", err)
	}
	if err := f.finish(); err != nil {
		return fmt.Errorf("engine: spill: %w", err)
	}
	s.ex.db.Stats.SpillBytes.Add(written)
	s.runs = append(s.runs, f)
	s.recs = s.recs[:0]
	s.ex.acct.release(s.charged)
	s.charged = 0
	return nil
}

// byKey orders records by encoded key — a join key, a group key — and
// bySeq by sequence; the spiller's stability keeps arrival order among equal
// ones.
func byKey(a, b *spillRec) bool { return bytes.Compare(a.key, b.key) < 0 }

func bySeq(a, b *spillRec) bool { return a.seq < b.seq }

// spilled reports whether any run has been written.
func (s *spiller) spilled() bool { return len(s.runs) > 0 }

// spillMinRun is the smallest buffer a per-record producer flushes as a
// run. When another operator holds the budget over on its own (a parallel
// scan's retained references, say), flushing after every add would burn
// one file per record without freeing anything; batching up to a minimum
// run keeps file counts proportional to data volume. The buffer stays
// within the one-batch slack the accounting model already allows.
const spillMinRun = 32 << 10

// maybeFlush flushes record-at-a-time producers: only once the budget is
// exceeded, and only once at least a minimum run (or a full batch of
// records) has accumulated.
func (s *spiller) maybeFlush() error {
	if !s.ex.acct.over() || (s.charged < spillMinRun && len(s.recs) < batchSize) {
		return nil
	}
	return s.flush()
}

// drain returns a merge iterator over all runs plus the in-memory
// remainder. The spiller must not be added to afterwards.
func (s *spiller) drain() (*mergeIter, error) {
	m := &mergeIter{less: s.less}
	for _, f := range s.runs {
		r, err := openSpillReader(f)
		if err != nil {
			m.close()
			return nil, err
		}
		src := &mergeSrc{r: r}
		ok, err := r.next(&src.rec)
		if err != nil {
			r.close()
			m.close()
			return nil, err
		}
		src.ok = ok
		m.srcs = append(m.srcs, src)
	}
	if len(s.recs) > 0 {
		// The remainder is the newest arrival segment: stably sorted like a
		// run and merged last so every file run wins ties against it.
		idx := make([]int32, len(s.recs))
		for i := range idx {
			idx[i] = int32(i)
		}
		stableSortIdx(idx, func(a, b int32) bool { return s.less(&s.recs[a], &s.recs[b]) })
		src := &mergeSrc{mem: s.recs, idx: idx}
		if len(idx) > 0 {
			src.rec = s.recs[idx[0]]
			src.pos, src.ok = 1, true
		}
		m.srcs = append(m.srcs, src)
	}
	return m, nil
}

// close removes every run file and releases the buffered charge.
func (s *spiller) close() {
	for _, f := range s.runs {
		s.ex.dropSpillFile(f)
	}
	s.runs = nil
	s.recs = nil
	s.ex.acct.release(s.charged)
	s.charged = 0
}

// mergeSrc is one input of the k-way merge: a run file or the in-memory
// remainder, with the current record buffered.
type mergeSrc struct {
	r   *spillReader
	mem []spillRec
	idx []int32
	pos int
	rec spillRec
	ok  bool
}

func (s *mergeSrc) advance() error {
	if s.r != nil {
		ok, err := s.r.next(&s.rec)
		s.ok = ok
		return err
	}
	if s.pos < len(s.idx) {
		s.rec = s.mem[s.idx[s.pos]]
		s.pos++
		return nil
	}
	s.ok = false
	return nil
}

// mergeIter yields records from all sources in sorted order, the earliest
// source winning ties. Sources are ordered oldest run first.
type mergeIter struct {
	less func(a, b *spillRec) bool
	srcs []*mergeSrc
	out  spillRec
}

// next returns the next record in merge order; (nil, nil) at exhaustion.
// The returned record stays valid until the next call.
func (m *mergeIter) next() (*spillRec, error) {
	best := -1
	for i, s := range m.srcs {
		if !s.ok {
			continue
		}
		// Strict less keeps the earlier source on ties.
		if best < 0 || m.less(&s.rec, &m.srcs[best].rec) {
			best = i
		}
	}
	if best < 0 {
		return nil, nil
	}
	s := m.srcs[best]
	m.out = s.rec
	if err := s.advance(); err != nil {
		return nil, err
	}
	return &m.out, nil
}

func (m *mergeIter) close() {
	for _, s := range m.srcs {
		if s.r != nil {
			s.r.close()
		}
	}
	m.srcs = nil
}
