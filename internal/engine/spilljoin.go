package engine

// This file is the hash join's overflow path (DESIGN.md ADR-036): when a
// statement memory limit is set and a join's build side exceeds the budget,
// build and probe rows go through the one spill primitive — two spillers
// ordered by the encoded join key — and a merge walks the two sorted
// streams, holding one build key group at a time and expanding every probe
// row of that key against it. The joined tuples merge back ordered by probe
// sequence number through a third spiller.
//
// Byte-identity with the in-memory join follows from three invariants:
//   - the spiller is a stable sort, so within one key the build rows come
//     back in arrival order — a key group is the in-memory bucket, row for
//     row, and all matches of one probe row are produced together;
//   - every output record carries its probe row's global sequence number,
//     assigned in probe-stream order, and the output spiller's stable sort
//     plus earlier-run-wins merge reassembles the exact in-memory emission
//     order;
//   - NULL keys behave as in memory: dropped for inner joins, immediately
//     null-extended (with their sequence number) for left outer joins.
//
// Inner and left outer joins share every step: addProbe reads outer where
// the in-memory join's probeBatch does, keeping NULL keys, and expand runs
// each probe record through the in-memory join's own fill (operator.go), so
// the residual ON conjuncts and the null extension are read in one place.
//
// Exclusions, by design: the pair-less join (cross product, LEFT JOIN
// without an equi conjunct) has one key group, the whole build side, so it
// stays in-memory (charged, never spilled); the index path (ADR-022) probes
// the table's persistent index and retains no transient build at all — until
// it falls back to the eager build, which is charged and may end up here with
// the probe stream already under way: the rows joined so far are out, and
// every probe batch from the one that tripped the budget is spilled.

import (
	"bytes"

	"mtbase/internal/sqltypes"
)

// joinBucketBytes approximates the per-row overhead of the build hash
// table's bucket lists.
const joinBucketBytes = 16

// spillJoin drives one spilled join: the build and probe spillers, the
// output spiller ordered by probe sequence, and the merge the operator
// drains at Next.
type spillJoin struct {
	j *joinOperator

	build, probe *spiller
	probeSeq     int64

	out    *spiller
	merge  *mergeIter
	one    [1][]sqltypes.Value // the probe row of expand's one-row window
	win    Batch
	ids    []int // 0, 1, …: a key group's one bucket
	rowBuf [][]sqltypes.Value
	ran    bool
}

// newSpillJoin spills j. Its rows come back through the out spiller, which
// keeps no reserved tail, so they are allocated at exactly j's width.
func newSpillJoin(ex *exec, j *joinOperator) *spillJoin {
	j.rowCap = j.orel.width
	return &spillJoin{
		j:     j,
		build: newSpiller(ex, byKey),
		probe: newSpiller(ex, byKey),
		out:   newSpiller(ex, bySeq),
	}
}

func (g *spillJoin) close() {
	if g.merge != nil {
		g.merge.close()
		g.merge = nil
	}
	g.build.close()
	g.probe.close()
	g.out.close()
}

// addBuild spills one batch of build rows, keys encoded exactly as the hash
// probe encodes them. A row whose key has a NULL component matches nothing
// and is dropped. Both sides poll the budget once per batch, as every
// breaker does: a run then holds a batch at least, even while another
// operator keeps the budget over (per record, a run would be cut at every
// spillMinRun).
func (g *spillJoin) addBuild(ex *exec, b *Batch, ks *vecKeySet) error {
	m := ex.vs.mark()
	defer ex.vs.release(m)
	sel := ks.compute(b, true)
	if err := b.firstErr(); err != nil {
		return err
	}
	ex.db.Stats.JoinBuildRows.Add(int64(len(sel)))
	for _, i := range sel {
		key := encodeKeyCols(nil, ks.cols, i)
		g.build.add(spillRec{key: key, row: b.rows[i]}, rowBytes(b.rows[i])+int64(len(key)))
	}
	return g.build.maybeFlush()
}

// addBuildRows spills already-materialized build rows (table heap or the
// rows drained before the budget overflowed).
func (g *spillJoin) addBuildRows(ex *exec, rows [][]sqltypes.Value, ks *vecKeySet) error {
	src := scanOp{rows: rows}
	var b Batch
	for src.next(&b) {
		if err := ex.cancelled(); err != nil {
			return err
		}
		if err := g.addBuild(ex, &b, ks); err != nil {
			return err
		}
	}
	return nil
}

// addProbe spills one batch of probe rows, assigning global sequence
// numbers in stream order. A NULL-key row — one of b.sel the key set
// dropped — cannot match: an inner join drops it, a left outer join expands
// it against no build row right away — null-extending it — under its
// sequence number, so it merges back into probe order. Rows an upstream
// filter dropped from b.sel never participate.
func (g *spillJoin) addProbe(ex *exec, b *Batch) error {
	m := ex.vs.mark()
	defer ex.vs.release(m)
	ks := g.j.lks
	keyed := ks.compute(b, true)
	if err := b.firstErr(); err != nil {
		return err
	}
	for _, i := range b.sel {
		seq := g.probeSeq
		g.probeSeq++
		if len(keyed) == 0 || keyed[0] != i {
			if g.j.outer { // outer (1)
				if err := g.expand(seq, b.rows[i], nil); err != nil {
					return err
				}
			}
			continue
		}
		keyed = keyed[1:]
		key := encodeKeyCols(nil, ks.cols, i)
		g.probe.add(spillRec{seq: seq, key: key, row: b.rows[i]}, rowBytes(b.rows[i])+int64(len(key)))
	}
	return g.probe.maybeFlush()
}

// emitOut appends one joined tuple to the output spiller, overflowing the
// buffered records to disk whenever the budget is exceeded.
func (g *spillJoin) emitOut(seq int64, combined []sqltypes.Value) error {
	g.out.add(spillRec{seq: seq, row: combined}, rowBytes(combined))
	return g.out.maybeFlush()
}

// run merges the sorted build and probe streams and opens the output merge.
// Each side's remainder is written as a run first, so the phase that
// follows has the whole budget.
func (g *spillJoin) run(ex *exec) error {
	if err := g.probe.flush(); err != nil {
		return err
	}
	bm, err := g.build.drain()
	if err != nil {
		return err
	}
	defer bm.close()
	pm, err := g.probe.drain()
	if err != nil {
		return err
	}
	defer pm.close()
	if err := g.join(ex, bm, pm); err != nil {
		return err
	}
	bm.close()
	pm.close()
	g.build.close()
	g.probe.close()
	g.merge, err = g.out.drain()
	return err
}

// join walks the probe records in key order. A new key skips the build
// records below it and holds the group equal to it, charged: one hot key's
// group may exceed the budget on its own, which no partitioning could split
// either.
func (g *spillJoin) join(ex *exec, bm, pm *mergeIter) error {
	var key []byte
	var group [][]sqltypes.Value
	var held int64
	defer func() { ex.acct.release(held) }()
	b, err := bm.next() // the first build record past the held group
	if err != nil {
		return err
	}
	for n := 0; ; n++ {
		p, err := pm.next()
		if err != nil || p == nil {
			return err
		}
		if n%batchSize == 0 {
			if err := ex.cancelled(); err != nil {
				return err
			}
		}
		if key == nil || !bytes.Equal(p.key, key) {
			ex.acct.release(held)
			key, group, held = p.key, group[:0], 0
			for ; b != nil && bytes.Compare(b.key, key) <= 0; b, err = bm.next() {
				if bytes.Equal(b.key, key) {
					group = append(group, b.row)
					held += rowBytes(b.row)
				}
			}
			if err != nil {
				return err
			}
			ex.acct.charge(held)
		}
		if err := g.expand(p.seq, p.row, group); err != nil {
			return err
		}
	}
}

// expand joins one probe row with its key group through the in-memory
// join's fill: the probe side is a one-row window, the group the build rows
// and 0..n-1 its one bucket. Each joined row is emitted at exactly the
// join's width, which a first match written into its probe row's reserved
// tail exceeds.
func (g *spillJoin) expand(seq int64, row []sqltypes.Value, group [][]sqltypes.Value) error {
	j, w := g.j, g.j.orel.width
	for len(g.ids) < len(group) {
		g.ids = append(g.ids, len(g.ids))
	}
	g.one[0] = row
	g.win.window(g.one[:])
	j.rightRows, j.buckets = group, append(j.buckets[:0], g.ids[:len(group)])
	j.pend(&g.win, g.win.sel)
	for j.selPos < len(j.sel) {
		if err := j.fillPending(); err != nil {
			return err
		}
		for _, r := range j.pending {
			if err := g.emitOut(seq, r[:w:w]); err != nil {
				return err
			}
		}
	}
	return nil
}

// emit streams the merged output in batch windows.
func (g *spillJoin) emit(ex *exec, out *Batch) (*Batch, error) {
	if err := ex.cancelled(); err != nil {
		return nil, err
	}
	g.rowBuf = g.rowBuf[:0]
	for len(g.rowBuf) < batchSize {
		rec, err := g.merge.next()
		if err != nil {
			return nil, err
		}
		if rec == nil {
			break
		}
		g.rowBuf = append(g.rowBuf, rec.row)
	}
	if len(g.rowBuf) == 0 {
		return nil, nil
	}
	out.window(g.rowBuf)
	ex.noteStream(len(g.rowBuf))
	return out, nil
}

// spilledNext drains the probe side into its spiller on first call, merges
// the two sides, and then streams the merged output.
func (j *joinOperator) spilledNext(ex *exec) (*Batch, error) {
	g := j.spilled
	if !g.ran {
		g.ran = true
		for {
			if err := ex.cancelled(); err != nil {
				return nil, err
			}
			b, err := j.left.Next(ex)
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			if err := g.addProbe(ex, b); err != nil {
				return nil, err
			}
		}
		if err := g.run(ex); err != nil {
			return nil, err
		}
	}
	return g.emit(ex, &j.out)
}
