package middleware

import (
	"sort"
	"strconv"

	"mtbase/internal/optimizer"
)

// stmtCacheCap bounds the statement cache — the texts it holds and,
// separately, their forms; on overflow the least-recently-used half of the
// texts is dropped, the engine plan cache's rule.
const stmtCacheCap = 512

// stmtCache is the one statement cache of a Server (DESIGN.md ADR-020),
// guarded by Server.mu: client text → entry, entry → compiled form per session
// context. The entry holds the text's Statement, so a repeated text is neither
// parsed nor table-scanned again; a form is what the statement compiles to
// under one formKey, so scope, privilege, tenant and schema changes land in a
// different slot instead of invalidating.
type stmtCache struct {
	entries      map[string]*cacheEntry
	forms        int // held by all entries together
	clock        uint64
	hits, misses int64
	off          bool
}

type cacheEntry struct {
	stmt    *Statement
	forms   map[formKey]*compiled
	lastUse uint64
}

// formKey is everything besides the statement that compile depends on.
type formKey struct {
	c     int64
	level optimizer.Level
	gen   uint64
	d     string // D′ in rewrite order
	all   bool   // D′ is every tenant: the rewrite drops the D-filters
}

func datasetKey(d []int64) string {
	buf := make([]byte, 0, 4*len(d))
	for _, t := range d {
		buf = append(strconv.AppendInt(buf, t, 10), ',')
	}
	return string(buf)
}

func (sc *stmtCache) reset() { sc.entries, sc.forms = nil, 0 }

// lookup serves text's form under key, counting the hit or miss.
func (sc *stmtCache) lookup(text string, key formKey) *compiled {
	if sc.off {
		return nil
	}
	if e := sc.entries[text]; e != nil && e.forms[key] != nil {
		sc.hits++
		return sc.touch(e).forms[key]
	}
	sc.misses++
	return nil
}

func (sc *stmtCache) touch(e *cacheEntry) *cacheEntry {
	sc.clock++
	e.lastUse = sc.clock
	return e
}

// entry returns the entry of st's text, made around st when the text is new;
// nil with caching off.
func (sc *stmtCache) entry(st *Statement) *cacheEntry {
	if sc.off {
		return nil
	}
	e := sc.entries[st.text]
	if e == nil {
		if len(sc.entries) >= stmtCacheCap {
			sc.evict()
		}
		if sc.entries == nil {
			sc.entries = make(map[string]*cacheEntry)
		}
		e = &cacheEntry{stmt: st, forms: make(map[formKey]*compiled)}
		sc.entries[st.text] = e
	}
	return sc.touch(e)
}

// store keeps f as st's form under key.
func (sc *stmtCache) store(st *Statement, key formKey, f *compiled) {
	if sc.forms >= stmtCacheCap {
		sc.evict()
	}
	if e := sc.entry(st); e != nil {
		if e.forms[key] == nil {
			sc.forms++
		}
		e.forms[key] = f
	}
}

// evict drops the least-recently-used half of the entries with their forms.
func (sc *stmtCache) evict() {
	uses := make([]uint64, 0, len(sc.entries))
	for _, e := range sc.entries {
		uses = append(uses, e.lastUse)
	}
	sort.Slice(uses, func(i, j int) bool { return uses[i] < uses[j] })
	cutoff := uses[len(uses)/2]
	for text, e := range sc.entries {
		if e.lastUse <= cutoff {
			sc.forms -= len(e.forms)
			delete(sc.entries, text)
		}
	}
}

// statement resolves a client text to its Statement: the cached one when the
// text has an entry, a fresh Parse otherwise. A SELECT text gets its entry
// here, before anything is compiled for it, so a tier that compiles elsewhere
// (the shard coordinator's replica) still parses a repeated text once.
func (s *Server) statement(sql string) (*Statement, error) {
	s.mu.Lock()
	e := s.cache.entries[sql]
	if e != nil {
		s.cache.touch(e)
	}
	s.mu.Unlock()
	if e != nil {
		return e.stmt, nil
	}
	st, err := Parse(sql)
	if err != nil || !st.IsQuery() {
		return st, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.cache.entry(st); e != nil {
		st = e.stmt // another session's parse of the same text may have won
	}
	return st, nil
}
