// Command mtsh is a minimal MTSQL shell. By default it loads an in-process
// MTBase instance with the MT-H dataset; with -connect it speaks the mtserve
// wire protocol to a running server instead. Either way it holds one
// middleware.Session and demonstrates the full client experience of the paper: connect as a tenant (C comes from the
// connection), steer the dataset with SET SCOPE, and run plain SQL that the
// middleware rewrites behind the scenes. Query output streams through the
// cursor API — rows print as batches arrive, so large cross-tenant scans are
// usable interactively.
//
// Meta commands:
//
//	\c <ttid>            reconnect as another tenant
//	\level <name>        set optimization level (canonical,o1,o2,o3,o4,inl-only)
//	\explain <sql>       print the rewritten+optimized SQL without executing
//	\prepare name <sql>  prepare a statement with ? / $n placeholders
//	\exec name [args]    execute a prepared statement with bind values
//	                     (numbers, 'strings', dates as 'YYYY-MM-DD', null)
//	\stats               print engine/middleware/server counters
//	\shards              print the tenant placement map and per-shard row counts
//	\q                   quit
//
// Example sessions:
//
//	mtsh -sf 0.005 -tenants 5
//	mtsh -shards 4 -tenants 16
//	mtsh -connect localhost:7687 -c 2
//	mtsql(C=1)> SET SCOPE = "IN ()";
//	mtsql(C=1)> SELECT COUNT(*) FROM customer;
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"mtbase/internal/client"
	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/mth"
	"mtbase/internal/optimizer"
	"mtbase/internal/shard"
	"mtbase/internal/sqltypes"
)

func main() {
	var (
		connect = flag.String("connect", "", "host:port of a running mtserve (empty = in-process instance)")
		sf      = flag.Float64("sf", 0.002, "TPC-H scale factor for the in-process demo data")
		tenants = flag.Int("tenants", 5, "number of tenants (in-process)")
		ttid    = flag.Int64("c", 1, "client tenant C")
		mode    = flag.String("mode", "postgres", "engine mode (postgres|system-c, in-process)")
		shards  = flag.Int("shards", 1, "tenant-partitioned engine shards (in-process, 1 = unsharded)")
	)
	flag.Parse()

	var (
		sh  *shell
		err error
	)
	switch {
	case *connect != "":
		sh = dialRemote(*connect)
	default:
		sh, err = buildInProcess(demoConfig(*sf, *tenants, *mode), *shards)
	}
	if err == nil {
		sh.conn, err = sh.connect(*ttid)
	}
	if err != nil {
		fatal(err)
	}
	sh.run(os.Stdin, os.Stdout)
}

// shell runs the statements and meta commands of one mtsh session over any
// middleware.Session: the tiers differ only in how a session is opened, which
// counters they report and whether there is a shard placement to print.
type shell struct {
	connect func(ttid int64) (middleware.Session, error)
	stats   func() ([]middleware.Stat, error)
	shards  *shard.Server // nil unless in-process and sharded

	conn     middleware.Session
	prepared map[string]*middleware.Stmt
	out      io.Writer
}

// run reads statements (terminated by ';') and meta commands (one line each,
// starting with a backslash) from in until EOF or \q, writing results to out.
func (sh *shell) run(in io.Reader, out io.Writer) {
	sh.out, sh.prepared = out, make(map[string]*middleware.Stmt)
	scan := bufio.NewScanner(in)
	scan.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := func() { fmt.Fprintf(out, "mtsql(C=%d)> ", sh.conn.C()) }
	prompt()
	for scan.Scan() {
		line := scan.Text()
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "\\") {
			if done := sh.metaCommand(trimmed); done {
				return
			}
			prompt()
			continue
		}
		pending.WriteString(line)
		pending.WriteByte('\n')
		if !strings.Contains(line, ";") {
			continue
		}
		stmt := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(pending.String()), ";"))
		pending.Reset()
		if stmt != "" {
			sh.execute(stmt)
		}
		prompt()
	}
}

// demoConfig is the MT-H data set mtsh loads in process.
func demoConfig(sf float64, tenants int, mode string) mth.Config {
	cfg := mth.Config{SF: sf, Tenants: tenants, Dist: mth.Uniform, Seed: 42, Mode: engine.ModePostgres}
	if mode == "system-c" {
		cfg.Mode = engine.ModeSystemC
	}
	return cfg
}

// buildInProcess loads cfg into an in-process instance, unsharded or
// tenant-partitioned.
func buildInProcess(cfg mth.Config, nshards int) (*shell, error) {
	fmt.Fprintf(os.Stderr, "loading MT-H sf=%g T=%d over %d shard(s) ...\n", cfg.SF, cfg.Tenants, nshards)
	sh := &shell{}
	var grantRead func(client int64) error
	if nshards > 1 {
		inst, err := mth.BuildMTSharded(cfg, nshards)
		if err != nil {
			return nil, err
		}
		sh.connect, sh.stats, sh.shards = middleware.Connector(inst.Srv.Connect), statLines(inst.Srv.StatLines), inst.Srv
		grantRead = inst.GrantReadTo
	} else {
		inst, err := mth.BuildMT(cfg)
		if err != nil {
			return nil, err
		}
		sh.connect, sh.stats = middleware.Connector(inst.Srv.Connect), statLines(inst.Srv.StatLines)
		grantRead = inst.GrantReadTo
	}
	// Demo convenience: everyone may read everyone (the paper's healthcare
	// scenario would use explicit GRANTs instead).
	for t := int64(1); t <= int64(cfg.Tenants); t++ {
		if err := grantRead(t); err != nil {
			return nil, err
		}
	}
	return sh, nil
}

func statLines(lines func() []middleware.Stat) func() ([]middleware.Stat, error) {
	return func() ([]middleware.Stat, error) { return lines(), nil }
}

// dialRemote speaks the mtserve wire protocol to addr; the counters are the
// server's, fetched over the current session.
func dialRemote(addr string) *shell {
	var cur *client.Conn
	return &shell{
		connect: func(ttid int64) (middleware.Session, error) {
			c, err := client.Dial(addr, ttid, "")
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "connected to %s (%s, session %d)\n", addr, c.Server(), c.SessionID())
			if cur != nil {
				cur.Close()
			}
			cur = c
			return c, nil
		},
		stats: func() ([]middleware.Stat, error) { return cur.Stats() },
	}
}

var errNotSharded = errors.New("not a sharded session (start mtsh with -shards N)")

func (sh *shell) metaCommand(cmd string) bool {
	out := sh.out
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q":
		return true
	case "\\c":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: \\c <ttid>")
			return false
		}
		ttid, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			fmt.Fprintln(out, "bad tenant id:", fields[1])
			return false
		}
		conn, err := sh.connect(ttid)
		if err != nil {
			fmt.Fprintln(out, err)
			return false
		}
		level := sh.conn.OptLevel()
		sh.conn = conn
		// Prepared statements capture the session's C; drop them.
		for name, st := range sh.prepared {
			st.Close()
			delete(sh.prepared, name)
		}
		fmt.Fprintln(out, "prepared statements cleared")
		if err := conn.SetOptLevel(level); err != nil {
			fmt.Fprintln(out, err)
		}
	case "\\prepare":
		rest := strings.TrimSpace(strings.TrimPrefix(cmd, "\\prepare"))
		name, sql, ok := strings.Cut(rest, " ")
		if !ok || name == "" || strings.TrimSpace(sql) == "" {
			fmt.Fprintln(out, "usage: \\prepare name <sql with ? or $n placeholders>")
			return false
		}
		st, err := sh.conn.Prepare(strings.TrimSuffix(strings.TrimSpace(sql), ";"))
		if err != nil {
			fmt.Fprintln(out, err)
			return false
		}
		sh.prepared[name] = st
		fmt.Fprintf(out, "prepared %q (%d parameters)\n", name, st.NumParams())
	case "\\exec":
		if len(fields) < 2 {
			fmt.Fprintln(out, "usage: \\exec name [args...]")
			return false
		}
		st, ok := sh.prepared[fields[1]]
		if !ok {
			fmt.Fprintf(out, "no prepared statement %q\n", fields[1])
			return false
		}
		rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(strings.TrimPrefix(cmd, "\\exec")), fields[1]))
		args, err := parseBindArgs(rest)
		if err != nil {
			fmt.Fprintln(out, err)
			return false
		}
		if len(args) != st.NumParams() {
			fmt.Fprintf(out, "statement %q takes %d parameters, got %d\n", fields[1], st.NumParams(), len(args))
			return false
		}
		res, err := st.Exec(args...)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return false
		}
		sh.printResult(res)
	case "\\level":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: \\level <canonical|o1|o2|o3|o4|inl-only>")
			return false
		}
		level, err := optimizer.ParseLevel(fields[1])
		if err == nil {
			err = sh.conn.SetOptLevel(level)
		}
		if err != nil {
			fmt.Fprintln(out, err)
			return false
		}
		fmt.Fprintln(out, "optimization level:", level)
	case "\\explain":
		sql := strings.TrimSpace(strings.TrimPrefix(cmd, "\\explain"))
		rewritten, err := sh.conn.RewriteSQL(strings.TrimSuffix(sql, ";"))
		if err != nil {
			fmt.Fprintln(out, err)
			return false
		}
		fmt.Fprintln(out, rewritten.String())
	case "\\stats":
		stats, err := sh.stats()
		if err != nil {
			fmt.Fprintln(out, err)
			return false
		}
		for _, st := range stats {
			fmt.Fprintf(out, "%s %d\n", st.Name, st.Value)
		}
	case "\\shards":
		if sh.shards == nil {
			fmt.Fprintln(out, errNotSharded)
			return false
		}
		fmt.Fprintf(out, "shards %d (placement: tenant -> shard)\n", sh.shards.NumShards())
		for _, ts := range sh.shards.PlacementMap() {
			fmt.Fprintf(out, "tenant %d -> shard %d\n", ts.Tenant, ts.Shard)
		}
		for rank, n := range sh.shards.RowCounts() {
			fmt.Fprintf(out, "shard %d: %d tenant rows\n", rank, n)
		}
	default:
		fmt.Fprintln(out, "unknown command:", fields[0])
	}
	return false
}

// execute runs one statement. Queries stream through the cursor API: rows
// print as batches arrive from the operator tree (or the wire), so a large
// cross-tenant scan shows output immediately instead of materializing the
// whole result first. DML/DDL and session statements run to their outcome.
func (sh *shell) execute(sql string) {
	st, err := sh.conn.Statement(sql)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	if st.IsQuery() {
		sh.streamQuery(st)
		return
	}
	res, err := sh.conn.ExecStmt(context.Background(), st, nil)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	sh.printResult(res)
}

// maxShow is how many rows of a result mtsh prints; the rest are counted.
const maxShow = 50

// streamQuery prints the first maxShow rows as they are delivered and
// counts the rest.
func (sh *shell) streamQuery(st *middleware.Statement) {
	rows, err := sh.conn.QueryStmt(context.Background(), st, nil)
	if err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	defer rows.Close()
	fmt.Fprintln(sh.out, strings.Join(rows.Columns(), " | "))
	n := 0
	for rows.Next() {
		if n++; n <= maxShow {
			fmt.Fprintln(sh.out, rowLine(rows.Row()))
		}
	}
	if err := rows.Err(); err != nil {
		fmt.Fprintln(sh.out, "error:", err)
		return
	}
	if n > maxShow {
		fmt.Fprintf(sh.out, "... (%d rows total)\n", n)
	}
}

func rowLine(row []sqltypes.Value) string {
	parts := make([]string, len(row))
	for j, v := range row {
		parts[j] = v.String()
	}
	return strings.Join(parts, " | ")
}

func (sh *shell) printResult(res *engine.Result) {
	if len(res.Cols) == 0 {
		fmt.Fprintf(sh.out, "ok (%d rows affected)\n", res.Affected)
		return
	}
	fmt.Fprintln(sh.out, strings.Join(res.Cols, " | "))
	for i, row := range res.Rows {
		if i >= maxShow {
			fmt.Fprintf(sh.out, "... (%d rows total)\n", len(res.Rows))
			break
		}
		fmt.Fprintln(sh.out, rowLine(row))
	}
}

// parseBindArgs tokenizes a \exec argument string: single-quoted strings
// (with ” escapes), numbers, true/false, null, and DATE-shaped quoted
// values pass as strings (plan-time slot hints coerce them to dates).
func parseBindArgs(s string) ([]any, error) {
	var args []any
	i := 0
	for i < len(s) {
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i >= len(s) {
			break
		}
		if s[i] == '\'' {
			var sb strings.Builder
			i++
			for {
				if i >= len(s) {
					return nil, fmt.Errorf("unterminated string in bind arguments")
				}
				if s[i] == '\'' {
					if i+1 < len(s) && s[i+1] == '\'' {
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteByte(s[i])
				i++
			}
			args = append(args, sb.String())
			continue
		}
		start := i
		for i < len(s) && s[i] != ' ' && s[i] != '\t' {
			i++
		}
		word := s[start:i]
		switch strings.ToLower(word) {
		case "null":
			args = append(args, nil)
			continue
		case "true":
			args = append(args, true)
			continue
		case "false":
			args = append(args, false)
			continue
		}
		if n, err := strconv.ParseInt(word, 10, 64); err == nil {
			args = append(args, n)
			continue
		}
		if f, err := strconv.ParseFloat(word, 64); err == nil {
			args = append(args, f)
			continue
		}
		return nil, fmt.Errorf("bad bind argument %q (quote strings with '...')", word)
	}
	return args, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mtsh:", err)
	os.Exit(1)
}
