package main

// One script through the shell on every tier it can reach: in process, on two
// shards, and over the wire to a loopback mtserve. The shell holds nothing but
// a middleware.Session, so the three transcripts must be byte-identical —
// except for what \stats and \shards report, which is each tier's own.

import (
	"context"
	"strings"
	"testing"

	"mtbase/internal/mth"
	"mtbase/internal/server"
)

var script = []string{
	`\level o3`,
	`\explain SELECT c_name, c_acctbal FROM customer WHERE c_custkey < 5`,
	`SET SCOPE = "IN ()";`,
	`SELECT c_custkey, c_name, c_acctbal FROM customer ORDER BY c_custkey;`,
	`SELECT c_mktsegment, COUNT(*) AS n, SUM(c_acctbal) AS bal FROM customer GROUP BY c_mktsegment ORDER BY c_mktsegment;`,
	`\prepare byKey SELECT c_name, c_acctbal FROM customer WHERE c_custkey = ?`,
	`\exec byKey 7`,
	`\prepare touch UPDATE customer SET c_comment = ? WHERE c_custkey < ?`,
	`\exec touch 'mtsh' 10`,
	`DELETE FROM orders WHERE o_orderkey < 100;`,
	`SELECT COUNT(*) AS n FROM orders;`,
	`\stats`,
	`\shards`,
	`\c 2`,
	`\exec byKey 7`,
	`SELECT COUNT(*) AS n FROM customer;`,
	`\q`,
}

func TestShellTranscriptAcrossTiers(t *testing.T) {
	cfg := demoConfig(0.002, 3, "postgres")
	tiers := []struct {
		name  string
		shell func() (*shell, error)
	}{
		{"in process", func() (*shell, error) { return buildInProcess(cfg, 1) }},
		{"two shards", func() (*shell, error) { return buildInProcess(cfg, 2) }},
		{"wire", func() (*shell, error) {
			inst, err := mth.BuildMT(cfg)
			if err != nil {
				return nil, err
			}
			for c := int64(1); c <= int64(cfg.Tenants); c++ {
				if err := inst.GrantReadTo(c); err != nil {
					return nil, err
				}
			}
			srv := server.New(inst.Srv, nil, server.Config{})
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			t.Cleanup(func() { srv.Shutdown(context.Background()) })
			return dialRemote(addr.String()), nil
		}},
	}
	var first string
	for _, tier := range tiers {
		sh, err := tier.shell()
		if err == nil {
			sh.conn, err = sh.connect(1)
		}
		if err != nil {
			t.Fatalf("%s: %v", tier.name, err)
		}
		var out strings.Builder
		sh.run(strings.NewReader(strings.Join(script, "\n")+"\n"), &out)
		got := comparable(t, out.String())
		if first == "" {
			first = got
			for _, want := range []string{
				"optimization level: o3", "ttid", "... (", "rows total)", `prepared "byKey" (1 parameters)`,
				"ok (", "rows affected)", "prepared statements cleared", "mtsql(C=2)> ", `no prepared statement "byKey"`,
			} {
				if !strings.Contains(got, want) {
					t.Errorf("%s transcript lacks %q:\n%s", tier.name, want, got)
				}
			}
			if strings.Contains(got, "error") {
				t.Errorf("%s transcript has an error:\n%s", tier.name, got)
			}
			continue
		}
		if got != first {
			t.Errorf("%s transcript differs from %s's:\n%s\n--- %s:\n%s", tier.name, tiers[0].name, got, tiers[0].name, first)
		}
	}
}

// comparable masks what \stats and \shards printed: the output of the script
// line before the prompt that follows it.
func comparable(t *testing.T, out string) string {
	t.Helper()
	segs := strings.Split(out, "mtsql(C=")
	if len(segs) != len(script)+1 {
		t.Fatalf("%d prompts for %d script lines:\n%s", len(segs)-1, len(script), out)
	}
	for i, line := range script[:len(script)-1] {
		if line == `\stats` || line == `\shards` {
			segs[i+1] = segs[i+1][:strings.Index(segs[i+1], " ")+1] + "(" + line + ")\n"
		}
	}
	return strings.Join(segs, "mtsql(C=")
}
