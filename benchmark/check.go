package main

// Correctness: what a reply is, how it is digested, and the differential
// oracle every distinct statement is checked against.

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"

	"mtbase/internal/middleware"
	"mtbase/internal/mth"
	"mtbase/internal/optimizer"
	"mtbase/internal/sqltypes"
	"mtbase/internal/wire"
)

// reply is what one statement returned: rows for a read, an affected count
// for a write, the rewritten SQL text for an mtsql-compile op.
type reply struct {
	rows     [][]sqltypes.Value
	affected int
	text     string
}

// digest is the exact fingerprint a measured execution must reproduce:
// FNV-1a over the bit-exact wire encoding of every value. Order-aware when
// the statement orders its output; otherwise row hashes are sorted first.
func (r reply) digest(ordered bool) uint64 {
	if r.text != "" {
		return textDigest(r.text)
	}
	h := fnv.New64a()
	var buf []byte
	if ordered || len(r.rows) < 2 {
		for _, row := range r.rows {
			buf = wire.AppendValues(buf[:0], row)
			h.Write(buf)
		}
	} else {
		hashes := make([]uint64, len(r.rows))
		for i, row := range r.rows {
			rh := fnv.New64a()
			rh.Write(wire.AppendValues(buf[:0], row))
			hashes[i] = rh.Sum64()
		}
		sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
		for _, x := range hashes {
			buf = wire.AppendUvarint(buf[:0], x)
			h.Write(buf)
		}
	}
	buf = wire.AppendVarint(buf[:0], int64(r.affected))
	h.Write(buf)
	return h.Sum64()
}

// textDigest fingerprints a rewritten SQL text as the multiset of its
// blank- or comma-separated words. The o3 pass emits the select items of a
// distributed aggregate in map order, so the same MTSQL text rewrites to
// texts that differ only in item order from one call to the next (a
// finding of this benchmark, see README.md; not fixed here); the digest is
// the sum of the words' FNV-1a hashes and ignores that order.
func textDigest(text string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	var sum uint64
	h := uint64(offset)
	for i := 0; i < len(text); i++ {
		if text[i] == ' ' || text[i] == ',' {
			sum += h
			h = offset
			continue
		}
		h = (h ^ uint64(text[i])) * prime
	}
	return sum + h
}

// goldenDigest fingerprints an oracle reply for golden.json. Floats are
// rounded to nine significant digits so a reassociated sum in a later
// engine does not read as drift; the oracle configuration itself is
// bit-deterministic.
func (r reply) goldenDigest(ordered bool) string {
	if r.text != "" {
		return fmt.Sprintf("%016x", r.digest(true))
	}
	lines := make([]string, len(r.rows))
	for i, row := range r.rows {
		var line []byte
		for _, v := range row {
			if v.K == sqltypes.KindFloat {
				line = strconv.AppendFloat(line, v.F, 'g', 9, 64)
			} else {
				line = wire.AppendValue(line, v)
			}
			line = append(line, 0x1f)
		}
		lines[i] = string(line)
	}
	if !ordered {
		sort.Strings(lines)
	}
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{0x1e})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

const relTol = 1e-9

func sameValue(a, b sqltypes.Value) bool {
	if a.K == sqltypes.KindFloat || b.K == sqltypes.KindFloat {
		if !a.IsNumeric() || !b.IsNumeric() {
			return false
		}
		x, y := a.AsFloat(), b.AsFloat()
		return x == y || math.Abs(x-y) <= relTol*math.Max(math.Abs(x), math.Abs(y))
	}
	return a.K == b.K && a.I == b.I && a.S == b.S
}

// sameReply compares a reply with the oracle's. Optimization levels
// associate float arithmetic differently (o3 distributes aggregates over
// conversions), so floats compare within relTol; everything else exactly.
func sameReply(got, want reply, ordered bool) bool {
	if textDigest(got.text) != textDigest(want.text) || len(got.rows) != len(want.rows) {
		return false
	}
	g, w := got.rows, want.rows
	if !ordered && len(g) > 1 {
		g, w = sortedRows(g), sortedRows(w)
	}
	for i := range g {
		if len(g[i]) != len(w[i]) {
			return false
		}
		for j := range g[i] {
			if !sameValue(g[i][j], w[i][j]) {
				return false
			}
		}
	}
	return true
}

// sortedRows orders rows by their non-float columns (the float columns of
// an unordered MT-H result never decide row identity).
func sortedRows(rows [][]sqltypes.Value) [][]sqltypes.Value {
	key := func(row []sqltypes.Value) string {
		var k []byte
		for _, v := range row {
			if v.K != sqltypes.KindFloat {
				k = sqltypes.AppendKey(k, v)
			}
		}
		return string(k)
	}
	out := append([][]sqltypes.Value(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}

// session names one tenant-bound connection of a workload: the client
// tenant C and the SCOPE text ("" = default scope {C}).
type session struct {
	Tenant int64  `json:"tenant"`
	Scope  string `json:"scope"`
}

// oracle is the differential reference ROADMAP already trusts: a separate
// unsharded in-process instance at level canonical, tree-walking
// interpreter, parallelism 1. mtsql-compile executes nothing, so there the
// oracle is an independent instance with statement caching off at the
// workload's own level, and the rewritten text is what is compared.
type oracle struct {
	inst    *mth.Instance
	conns   []*middleware.Conn
	compile bool
}

func newOracle(cfg mth.Config, sessions []session, compile bool, level string) (*oracle, error) {
	inst, err := mth.BuildMT(cfg)
	if err != nil {
		return nil, err
	}
	db := inst.Srv.DB()
	db.SetCompileExprs(false)
	db.SetParallelism(1)
	if compile {
		inst.Srv.SetStatementCaching(false)
	} else {
		level = optimizer.Canonical.String()
	}
	o := &oracle{inst: inst, compile: compile}
	for _, s := range sessions {
		conn, err := connectMW(inst, s, level)
		if err != nil {
			return nil, err
		}
		o.conns = append(o.conns, conn)
	}
	return o, nil
}

func (o *oracle) run(s *stmt) (reply, error) {
	if o.compile {
		return compileOp(o.conns[s.sess], o.inst.Srv.DB(), s.text)
	}
	res, err := o.conns[s.sess].Query(s.text, s.args...)
	if err != nil {
		return reply{}, fmt.Errorf("oracle %s: %w", s.kind, err)
	}
	return reply{rows: res.Rows}, nil
}

// oraclePass stands the workload's oracle up, runs every statement once,
// hands each reply to visit, and returns the replies' golden digests per
// kind.
func oraclePass(w *workload, seed int64, stmts []*stmt, visit func(s *stmt, want reply)) (map[string][]string, error) {
	o, err := newOracle(w.config(seed), w.Sessions, w.Name == "mtsql-compile", w.Level)
	if err != nil {
		return nil, err
	}
	perKind := make(map[string][]string)
	for _, s := range stmts {
		want, err := o.run(s)
		if err != nil {
			return nil, err
		}
		visit(s, want)
		perKind[s.kind] = append(perKind[s.kind], want.goldenDigest(s.ordered))
	}
	return perKind, nil
}
