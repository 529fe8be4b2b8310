package main

import (
	"fmt"
	"strings"
	"testing"
)

// stream renders the first n statements of every client as bytes.
func stream(g generator, clients, n int) string {
	var sb strings.Builder
	for c := 0; c < clients; c++ {
		for i := 0; i < n; i++ {
			s := g.next(c, i)
			fmt.Fprintf(&sb, "%d|%s|%d|%s|%v\n", c, s.kind, s.sess, s.text, s.args)
		}
	}
	return sb.String()
}

func testKeys() (cust, orders [][]int64) {
	for c := 0; c < 2; c++ {
		var ck, ok []int64
		for i := 0; i < 300; i++ {
			ck = append(ck, int64(1000*c+i))
			ok = append(ok, int64(5000*c+i))
		}
		cust, orders = append(cust, ck), append(orders, ok)
	}
	return cust, orders
}

func TestSameSeedSameStream(t *testing.T) {
	cust, orders := testKeys()
	make3 := func(seed int64) []string {
		cg, err := newCompileGen(0.001, seed)
		if err != nil {
			t.Fatal(err)
		}
		yg, err := newCycleGen(0.001, seed, analyticKinds)
		if err != nil {
			t.Fatal(err)
		}
		return []string{stream(cg, 1, 3000), stream(yg, 1, 600), stream(newOltpGen(seed, cust, orders), 2, 5000)}
	}
	a, b, other := make3(7), make3(7), make3(8)
	for i, name := range []string{"compile pool", "cycle", "wire-oltp mix"} {
		if a[i] != b[i] {
			t.Errorf("%s: the same seed produced two different statement streams", name)
		}
		if a[i] == other[i] {
			t.Errorf("%s: seeds 7 and 8 produced the same statement stream", name)
		}
	}
}

func TestCompilePoolDistinct(t *testing.T) {
	g, err := newCompileGen(0.001, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	kinds := make(map[string]int)
	for _, s := range g.distinct() {
		seen[s.text] = true
		kinds[s.kind]++
	}
	if len(seen) < 2048 {
		t.Errorf("compile pool has %d distinct texts, want >= 2048 (4x the 512-entry caches)", len(seen))
	}
	if len(kinds) != 22 {
		t.Errorf("compile pool covers %d templates, want 22", len(kinds))
	}
	// Any 22 consecutive statements cover all 22 kinds.
	window := make(map[string]bool)
	for i := 100; i < 122; i++ {
		window[g.next(0, i).kind] = true
	}
	if len(window) != 22 {
		t.Errorf("22 consecutive statements cover %d kinds, want 22", len(window))
	}
}

func TestOltpMixAndTally(t *testing.T) {
	cust, orders := testKeys()
	g := newOltpGen(3, cust, orders)
	writes, n := 0, 20000
	var count int64
	live := map[int64]float64{}
	for i := 0; i < n; i++ {
		s := g.next(0, i)
		if !s.write {
			if s.id < 0 || g.distinct()[s.id] != s {
				t.Fatalf("read %d is not in the distinct table", i)
			}
			continue
		}
		writes++
		switch s.kind {
		case "event_insert":
			count++
			live[s.args[0].(int64)] = s.args[2].(float64)
		case "event_update":
			if _, ok := live[s.args[1].(int64)]; !ok {
				t.Fatalf("update of event %v before its insert", s.args[1])
			}
			live[s.args[1].(int64)] = s.args[0].(float64)
		}
	}
	if share := float64(writes) / float64(n); share < 0.18 || share > 0.22 {
		t.Errorf("write share %.3f, want 0.20", share)
	}
	var sum float64
	for _, v := range live {
		sum += v
	}
	if c, s := g.tally(0); c != count || s != sum {
		t.Errorf("generator tally (%d, %v) != replayed stream (%d, %v)", c, s, count, sum)
	}
}

// TestCachesMissAndHit pins, from outside, that mtsql-compile misses the
// plan cache on every op and that xt-analytic hits every statement cache.
func TestCachesMissAndHit(t *testing.T) {
	run := func(name string, ops int) (counters, *runner) {
		w := workloadByName(name)
		w.SF = 0.001
		r := &runner{w: w, cfg: runConfig{seed: 1, dir: t.TempDir()}}
		if err := r.setup(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.dep.close() })
		before := r.dep.counters()
		for i := 0; i < ops; i++ {
			s := r.gen.next(0, i)
			rep, err := r.dep.exec(s)
			if !r.check(s, rep, err) {
				t.Fatalf("%s op %d (%s) failed: %v", name, i, s.kind, err)
			}
		}
		return r.dep.counters().sub(before), r
	}
	const ops = 3000
	d, _ := run("mtsql-compile", ops)
	if d.planMisses != ops || d.planHits != 0 {
		t.Errorf("mtsql-compile: %d plan misses and %d hits over %d ops, want every op to miss", d.planMisses, d.planHits, ops)
	}
	d, _ = run("xt-analytic", 60)
	if d.planMisses != 0 || d.planHits != 60 || d.rwMisses != 0 || d.rwHits != 60 {
		t.Errorf("xt-analytic: plan %d hits/%d misses, rewrite %d hits/%d misses over 60 ops, want every op to hit",
			d.planHits, d.planMisses, d.rwHits, d.rwMisses)
	}
}

func TestTextDigestIgnoresItemOrder(t *testing.T) {
	a := "SELECT SUM(x) AS a1, COUNT(y) AS a2 FROM t WHERE z IN (1, 2)"
	b := "SELECT COUNT(y) AS a2, SUM(x) AS a1 FROM t WHERE z IN (1, 2)"
	c := "SELECT COUNT(y) AS a2, SUM(x) AS a1 FROM t WHERE z IN (1, 3)"
	if textDigest(a) != textDigest(b) {
		t.Error("select-item order changed the text digest")
	}
	if textDigest(a) == textDigest(c) {
		t.Error("a different literal left the text digest unchanged")
	}
}
