package engine

// This file implements the Grace hash join overflow path: when a statement
// memory limit is set and a join's build side exceeds the budget, build and
// probe rows are partitioned to disk by a salted hash of their equi-join
// key, each partition is joined independently (recursing with a fresh salt
// when a build partition still doesn't fit), and the joined tuples merge
// back ordered by probe sequence number.
//
// Byte-identity with the in-memory join follows from three invariants:
//   - a key lands in exactly one partition, so all matches of one probe row
//     are produced together, in build-file order — and partition files
//     preserve original arrival order (sequential writes, sequential
//     re-reads, including through re-partitioning);
//   - every output record carries its probe row's global sequence number,
//     assigned in probe-stream order, and the output spiller's stable sort
//     plus earlier-run-wins merge reassembles the exact in-memory emission
//     order;
//   - NULL keys behave as in memory: dropped for inner joins, immediately
//     null-extended (with their sequence number) for left outer joins.
//
// Inner and left outer joins share every step; graceState reads outer at the
// same three points as the in-memory join (operator.go): the probe
// partitioner keeps NULL keys, and processPartition lets the residual ON
// conjuncts decide the matches of a probe row and null-extends one without.
//
// Exclusions, by design: the pair-less join (cross product, LEFT JOIN
// without an equi conjunct) degenerates to a single partition and stays
// in-memory (charged, never spilled); the index path (ADR-022) probes the
// table's persistent index and retains no transient build at all — until it
// falls back to the eager build, which is charged and may end up here with
// the probe stream already under way: the rows joined so far are out, and
// every probe batch from the one that tripped the budget is partitioned.

import (
	"mtbase/internal/sqltypes"
)

// graceParts is the partition fan-out per level.
const graceParts = 16

// maxGraceDepth bounds re-partitioning; a build partition that still
// exceeds the budget at the deepest level is joined in memory.
const maxGraceDepth = 3

// joinBucketBytes approximates the per-row overhead of the build hash
// table's bucket lists.
const joinBucketBytes = 16

// graceHash is the partitioning hash (FNV-1a over the encoded key, salted
// per recursion level so a skewed partition redistributes).
func graceHash(key []byte, salt int) uint32 {
	h := uint32(2166136261)
	h = (h ^ uint32(salt)) * 16777619
	for _, c := range key {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// graceState drives one spilled join: partition writers for both sides, the
// output spiller ordered by probe sequence, and the merge the operator
// drains at Next.
type graceState struct {
	pairs []equiPair
	width int

	// Left outer join: the residual ON conjuncts and the right-width null
	// extension, both the operator's.
	outer bool
	on    *onResidual
	nulls []sqltypes.Value

	buildParts []*partWriter
	probeParts []*partWriter
	probeSeq   int64

	out    *spiller
	merge  *mergeIter
	buf    []byte
	cands  [][]sqltypes.Value
	rowBuf [][]sqltypes.Value
	ran    bool
}

func newGraceState(ex *exec, j *joinOperator) *graceState {
	return &graceState{
		pairs: j.pairs,
		width: j.orel.width,
		outer: j.outer, on: j.on, nulls: j.nulls,
		out:        newSpiller(ex, func(a, b *spillRec) bool { return a.seq < b.seq }),
		buildParts: newPartSet(ex),
		probeParts: newPartSet(ex),
	}
}

func newPartSet(ex *exec) []*partWriter {
	ps := make([]*partWriter, graceParts)
	for i := range ps {
		ps[i] = &partWriter{ex: ex}
	}
	return ps
}

func finishParts(ps []*partWriter) error {
	for _, p := range ps {
		if err := p.finish(); err != nil {
			return err
		}
	}
	return nil
}

func (g *graceState) close() {
	for _, p := range g.buildParts {
		p.drop()
	}
	for _, p := range g.probeParts {
		p.drop()
	}
	if g.merge != nil {
		g.merge.close()
		g.merge = nil
	}
	if g.out != nil {
		g.out.close()
		g.out = nil
	}
}

// partitionBuildBatch routes one batch of build rows into the build
// partition files, keys encoded exactly as the hash probe encodes them. A
// row whose key has a NULL component matches nothing and is dropped.
func (g *graceState) partitionBuildBatch(ex *exec, b *Batch, ks *vecKeySet) error {
	m := ex.vs.mark()
	defer ex.vs.release(m)
	sel := ks.compute(b, true)
	if err := b.firstErr(); err != nil {
		return err
	}
	for _, i := range sel {
		g.buf = encodeKeyCols(g.buf[:0], ks.cols, i)
		p := g.buildParts[graceHash(g.buf, 0)%graceParts]
		if err := p.write(&spillRec{key: g.buf, row: b.rows[i]}); err != nil {
			return err
		}
	}
	return nil
}

// partitionBuildRows streams already-materialized build rows (table heap or
// the rows drained before the budget overflowed) through the partitioner.
func (g *graceState) partitionBuildRows(ex *exec, rows [][]sqltypes.Value, ks *vecKeySet) error {
	src := scanOp{rows: rows}
	var b Batch
	for src.next(&b) {
		if err := ex.cancelled(); err != nil {
			return err
		}
		if err := g.partitionBuildBatch(ex, &b, ks); err != nil {
			return err
		}
	}
	return nil
}

// partitionProbeBatch routes one batch of probe rows, assigning global
// sequence numbers in stream order. A NULL-key row — one of b.sel the key
// set dropped — cannot match: an inner join drops it, a left outer join
// null-extends it right away, under its sequence number so it merges back
// into probe order. Rows an upstream filter dropped from b.sel never
// participate.
func (g *graceState) partitionProbeBatch(ex *exec, b *Batch, ks *vecKeySet) error {
	m := ex.vs.mark()
	defer ex.vs.release(m)
	keyed := ks.compute(b, true)
	if err := b.firstErr(); err != nil {
		return err
	}
	var ck rowChunk
	if g.outer {
		ck = newRowChunk(len(b.sel)-len(keyed), g.width)
	}
	for _, i := range b.sel {
		seq := g.probeSeq
		g.probeSeq++
		if len(keyed) == 0 || keyed[0] != i {
			if g.outer { // outer (1)
				if err := g.emitOut(ex, seq, ck.concat(b.rows[i], g.nulls, g.width)); err != nil {
					return err
				}
			}
			continue
		}
		keyed = keyed[1:]
		g.buf = encodeKeyCols(g.buf[:0], ks.cols, i)
		p := g.probeParts[graceHash(g.buf, 0)%graceParts]
		if err := p.write(&spillRec{seq: seq, key: g.buf, row: b.rows[i]}); err != nil {
			return err
		}
	}
	return nil
}

// runPartitions joins every partition pair and opens the output merge.
func (g *graceState) runPartitions(ex *exec) error {
	if err := finishParts(g.buildParts); err != nil {
		return err
	}
	if err := finishParts(g.probeParts); err != nil {
		return err
	}
	for i := 0; i < graceParts; i++ {
		if err := ex.cancelled(); err != nil {
			return err
		}
		if err := g.processPartition(ex, g.buildParts[i], g.probeParts[i], 1, 1); err != nil {
			return err
		}
	}
	var err error
	g.merge, err = g.out.drain()
	return err
}

// emitOut appends one joined tuple to the output spiller, overflowing the
// buffered records to disk whenever the budget is exceeded.
func (g *graceState) emitOut(ex *exec, seq int64, combined []sqltypes.Value) error {
	g.out.add(spillRec{seq: seq, row: combined}, rowBytes(combined))
	return g.out.maybeFlush()
}

// processPartition loads one build partition into a hash table (file order
// = original build order, so bucket lists match the in-memory build) and
// streams the matching probe partition through it. A build partition that
// exceeds the budget re-partitions both sides with the next salt; at
// maxGraceDepth it is joined in memory regardless.
func (g *graceState) processPartition(ex *exec, bp, pp *partWriter, salt, depth int) error {
	defer bp.drop()
	defer pp.drop()
	if pp.file == nil {
		return nil // no probe rows: nothing can be emitted
	}
	if bp.file == nil && !g.outer {
		return nil // inner join with no build rows: no matches
	}
	var brows [][]sqltypes.Value
	var bkeys []string
	var charged int64
	defer func() { ex.acct.release(charged) }()
	if bp.file != nil {
		r, err := bp.open()
		if err != nil {
			return err
		}
		var rec spillRec
		var add int64
		n := 0
		for {
			ok, err := r.next(&rec)
			if err != nil {
				r.close()
				return err
			}
			if !ok {
				break
			}
			brows = append(brows, rec.row)
			bkeys = append(bkeys, string(rec.key))
			add += rowBytes(rec.row) + int64(len(rec.key)) + joinBucketBytes
			n++
			if n%batchSize == 0 {
				ex.acct.charge(add)
				charged += add
				add = 0
				if ex.acct.over() && depth < maxGraceDepth {
					r.close()
					ex.acct.release(charged)
					charged = 0
					return g.subPartition(ex, bp, pp, salt, depth)
				}
			}
		}
		r.close()
		ex.acct.charge(add)
		charged += add
	}
	ex.db.Stats.JoinBuildRows.Add(int64(len(brows)))
	build := make(map[string][]int, len(brows))
	for i, k := range bkeys {
		build[k] = append(build[k], i)
	}
	r, err := pp.open()
	if err != nil {
		return err
	}
	defer r.close()
	var rec spillRec
	for {
		ok, err := r.next(&rec)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		ids := build[string(rec.key)]
		nout := len(ids)
		if g.outer {
			nout++ // room for the null extension
		}
		ck := newRowChunk(nout, g.width)
		g.cands = g.cands[:0]
		for _, ri := range ids {
			g.cands = append(g.cands, ck.concat(rec.row, brows[ri], g.width))
		}
		if g.outer {
			// outer (2) and (3), as in joinOperator.fillPending.
			if g.cands, err = g.on.keep(g.cands); err != nil {
				return err
			}
			if len(g.cands) == 0 {
				g.cands = append(g.cands, ck.concat(rec.row, g.nulls, g.width))
			}
		}
		for _, row := range g.cands {
			if err := g.emitOut(ex, rec.seq, row); err != nil {
				return err
			}
		}
	}
}

// subPartition redistributes an oversized partition pair with the next
// salt and joins each sub-partition.
func (g *graceState) subPartition(ex *exec, bp, pp *partWriter, salt, depth int) error {
	subB := newPartSet(ex)
	subP := newPartSet(ex)
	redistribute := func(src *partWriter, dst []*partWriter) error {
		if src.file == nil {
			return nil
		}
		r, err := src.open()
		if err != nil {
			return err
		}
		defer r.close()
		var rec spillRec
		for {
			ok, err := r.next(&rec)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			if err := dst[graceHash(rec.key, salt)%graceParts].write(&rec); err != nil {
				return err
			}
		}
	}
	if err := redistribute(bp, subB); err != nil {
		return err
	}
	if err := redistribute(pp, subP); err != nil {
		return err
	}
	if err := finishParts(subB); err != nil {
		return err
	}
	if err := finishParts(subP); err != nil {
		return err
	}
	bp.drop()
	pp.drop()
	for i := 0; i < graceParts; i++ {
		if err := g.processPartition(ex, subB[i], subP[i], salt+1, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// emit streams the merged output in batch windows.
func (g *graceState) emit(ex *exec, out *Batch) (*Batch, error) {
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

// openChargedBuild is the memory-limited replacement for the equi join's
// hash build: it charges the build side at batch granularity and, when the
// budget overflows, releases the charges and partitions everything —
// already-drained rows first, then the rest of the build stream without
// ever materializing it.
func (j *joinOperator) openChargedBuild(ex *exec) error {
	j.acct = ex.acct
	rks := ex.vecKeys(pairExprs(j.pairs, true), j.rrel.bindings, j.rrel.scopeFor(j.parent))
	rows := j.rrel.rows
	streamed := rows == nil
	spill := false
	if streamed {
		if err := j.right.Open(ex); err != nil {
			return err
		}
		for !spill {
			b, err := j.right.Next(ex)
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			var add int64
			for _, i := range b.sel {
				rows = append(rows, b.rows[i])
				add += rowBytes(b.rows[i]) + joinBucketBytes
			}
			ex.acct.charge(add)
			j.charged += add
			if ex.acct.over() {
				spill = true
			}
		}
	} else {
		var add int64
		for i := range rows {
			add += rowBytes(rows[i]) + joinBucketBytes
			if (i+1)%batchSize == 0 {
				ex.acct.charge(add)
				j.charged += add
				add = 0
				if ex.acct.over() {
					spill = true
					break
				}
			}
		}
		if !spill {
			ex.acct.charge(add)
			j.charged += add
			spill = ex.acct.over()
		}
	}
	if !spill {
		j.rightRows = rows
		build, err := ex.vecJoinBuild(j.rrel, rows, j.pairs, j.parent)
		if err != nil {
			return err
		}
		j.build = build
		return nil
	}
	ex.acct.release(j.charged)
	j.charged = 0
	g := newGraceState(ex, j)
	j.grace = g
	if err := g.partitionBuildRows(ex, rows, rks); err != nil {
		return err
	}
	if streamed {
		for {
			if err := ex.cancelled(); err != nil {
				return err
			}
			b, err := j.right.Next(ex)
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			if err := g.partitionBuildBatch(ex, b, rks); err != nil {
				return err
			}
		}
	}
	return nil
}

// graceNext drains the probe side into partition files on first call, joins
// every partition, and then streams the merged output.
func (j *joinOperator) graceNext(ex *exec) (*Batch, error) {
	g := j.grace
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
			if err := g.partitionProbeBatch(ex, b, j.lks); err != nil {
				return nil, err
			}
		}
		if err := g.runPartitions(ex); err != nil {
			return nil, err
		}
	}
	return g.emit(ex, &j.out)
}
