// Command mtsh is a minimal MTSQL shell. By default it loads an in-process
// MTBase instance with the MT-H dataset; with -connect it speaks the mtserve
// wire protocol to a running server instead. Either way it demonstrates the
// full client experience of the paper: connect as a tenant (C comes from the
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
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"mtbase/internal/client"
	"mtbase/internal/engine"
	"mtbase/internal/middleware"
	"mtbase/internal/mth"
	"mtbase/internal/optimizer"
	"mtbase/internal/shard"
	"mtbase/internal/sqlast"
	"mtbase/internal/sqlparse"
	"mtbase/internal/sqltypes"
)

// preparedStmt is one \prepare'd statement: what \exec needs of it, whichever
// transport holds the handle.
type preparedStmt struct {
	nParams int
	run     func(args ...any) (*engine.Result, error)
	close   func() error
}

// backend abstracts the transport statements travel over: function calls
// into an in-process tier (any middleware.Session), or the mtserve wire
// protocol, whose cursors and statement handles are the client package's
// own types.
type backend interface {
	C() int64
	Exec(sql string) (*engine.Result, error)
	// Stream runs a query, handing the column names and then each row (valid
	// only during the call) to the callbacks as batches arrive.
	Stream(sql string, header func(cols []string), row func([]sqltypes.Value)) error
	Prepare(sql string) (*preparedStmt, error)
	SetLevel(l optimizer.Level) error
	Explain(sql string) (string, error)
	Reconnect(ttid int64) (backend, error)
	Stats() ([]string, error)
	ShardInfo() ([]string, error)
}

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
		be  backend
		err error
	)
	switch {
	case *connect != "":
		be, err = dialRemote(*connect, *ttid, optimizer.O4)
	default:
		be, err = buildInProcess(*sf, *tenants, *mode, *shards, *ttid)
	}
	if err != nil {
		fatal(err)
	}

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prepared := make(map[string]*preparedStmt)
	prompt := func() { fmt.Printf("mtsql(C=%d)> ", be.C()) }
	prompt()
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "\\") {
			if done := metaCommand(&be, prepared, trimmed); done {
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
			execute(be, stmt)
		}
		prompt()
	}
}

// inProcess runs statements on an in-process instance, unsharded or
// tenant-partitioned: the two tiers differ only in how a session is opened
// and which counters they report.
type inProcess struct {
	connect func(ttid int64) (middleware.Session, error)
	stats   func() []middleware.Stat
	shards  *shard.Server // nil when unsharded
	conn    middleware.Session
}

func buildInProcess(sf float64, tenants int, mode string, nshards int, ttid int64) (backend, error) {
	cfg := mth.Config{SF: sf, Tenants: tenants, Dist: mth.Uniform, Seed: 42, Mode: engine.ModePostgres}
	if mode == "system-c" {
		cfg.Mode = engine.ModeSystemC
	}
	fmt.Fprintf(os.Stderr, "loading MT-H sf=%g T=%d over %d shard(s) ...\n", sf, tenants, nshards)
	b := &inProcess{}
	var grantRead func(client int64) error
	if nshards > 1 {
		inst, err := mth.BuildMTSharded(cfg, nshards)
		if err != nil {
			return nil, err
		}
		b.connect, b.stats, b.shards = middleware.Connector(inst.Srv.Connect), inst.Srv.StatLines, inst.Srv
		grantRead = inst.GrantReadTo
	} else {
		inst, err := mth.BuildMT(cfg)
		if err != nil {
			return nil, err
		}
		b.connect, b.stats = middleware.Connector(inst.Srv.Connect), inst.Srv.StatLines
		grantRead = inst.GrantReadTo
	}
	// Demo convenience: everyone may read everyone (the paper's healthcare
	// scenario would use explicit GRANTs instead).
	for t := int64(1); t <= int64(tenants); t++ {
		if err := grantRead(t); err != nil {
			return nil, err
		}
	}
	var err error
	if b.conn, err = b.connect(ttid); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *inProcess) C() int64                                { return b.conn.C() }
func (b *inProcess) Exec(sql string) (*engine.Result, error) { return b.conn.Exec(sql) }
func (b *inProcess) SetLevel(l optimizer.Level) error        { b.conn.SetOptLevel(l); return nil }

func (b *inProcess) Stream(sql string, header func([]string), row func([]sqltypes.Value)) error {
	rows, err := b.conn.QueryRows(sql)
	if err != nil {
		return err
	}
	defer rows.Close()
	header(rows.Columns())
	for rows.Next() {
		row(rows.Row())
	}
	return rows.Err()
}

func (b *inProcess) Prepare(sql string) (*preparedStmt, error) {
	st, err := b.conn.Prepare(sql)
	if err != nil {
		return nil, err
	}
	run := st.Exec
	if st.IsQuery() {
		run = st.QueryResult
	}
	return &preparedStmt{nParams: st.NumParams(), run: run, close: st.Close}, nil
}

func (b *inProcess) Explain(sql string) (string, error) {
	rewritten, err := b.conn.RewriteSQL(sql)
	if err != nil {
		return "", err
	}
	return rewritten.String(), nil
}

func (b *inProcess) Reconnect(ttid int64) (backend, error) {
	conn, err := b.connect(ttid)
	if err != nil {
		return nil, err
	}
	conn.SetOptLevel(b.conn.OptLevel())
	next := *b
	next.conn = conn
	return &next, nil
}

func (b *inProcess) Stats() ([]string, error) {
	stats := b.stats()
	lines := make([]string, len(stats))
	for i, st := range stats {
		lines[i] = fmt.Sprintf("%s %d", st.Name, st.Value)
	}
	return lines, nil
}

func (b *inProcess) ShardInfo() ([]string, error) {
	if b.shards == nil {
		return nil, errNotSharded
	}
	lines := []string{fmt.Sprintf("shards %d (placement: tenant -> shard)", b.shards.NumShards())}
	for _, ts := range b.shards.PlacementMap() {
		lines = append(lines, fmt.Sprintf("tenant %d -> shard %d", ts.Tenant, ts.Shard))
	}
	for rank, n := range b.shards.RowCounts() {
		lines = append(lines, fmt.Sprintf("shard %d: %d tenant rows", rank, n))
	}
	return lines, nil
}

var errNotSharded = errors.New("not a sharded session (start mtsh with -shards N)")

// remoteBackend runs statements over the mtserve wire protocol.
type remoteBackend struct {
	addr  string
	conn  *client.Conn
	level optimizer.Level
}

func dialRemote(addr string, ttid int64, level optimizer.Level) (backend, error) {
	conn, err := client.Dial(addr, ttid, level.String())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "connected to %s (%s, session %d)\n", addr, conn.Server(), conn.SessionID())
	return &remoteBackend{addr: addr, conn: conn, level: level}, nil
}

func (b *remoteBackend) C() int64                                { return b.conn.C() }
func (b *remoteBackend) Exec(sql string) (*engine.Result, error) { return b.conn.Exec(sql) }
func (b *remoteBackend) Explain(sql string) (string, error)      { return b.conn.Explain(sql) }
func (b *remoteBackend) ShardInfo() ([]string, error)            { return nil, errNotSharded }

func (b *remoteBackend) Stream(sql string, header func([]string), row func([]sqltypes.Value)) error {
	rows, err := b.conn.QueryRows(sql)
	if err != nil {
		return err
	}
	defer rows.Close()
	header(rows.Columns())
	for rows.Next() {
		row(rows.Row())
	}
	return rows.Err()
}

func (b *remoteBackend) Prepare(sql string) (*preparedStmt, error) {
	st, err := b.conn.Prepare(sql)
	if err != nil {
		return nil, err
	}
	run := st.Exec
	if st.IsQuery() {
		run = st.QueryResult
	}
	return &preparedStmt{nParams: st.NumParams(), run: run, close: st.Close}, nil
}

func (b *remoteBackend) SetLevel(l optimizer.Level) error {
	if err := b.conn.SetOptLevel(l); err != nil {
		return err
	}
	b.level = l
	return nil
}

func (b *remoteBackend) Reconnect(ttid int64) (backend, error) {
	next, err := dialRemote(b.addr, ttid, b.level)
	if err != nil {
		return nil, err
	}
	b.conn.Close()
	return next, nil
}

func (b *remoteBackend) Stats() ([]string, error) {
	pairs, err := b.conn.Stats()
	if err != nil {
		return nil, err
	}
	lines := make([]string, len(pairs))
	for i, p := range pairs {
		lines[i] = fmt.Sprintf("%s %d", p.Name, p.Value)
	}
	return lines, nil
}

func metaCommand(be *backend, prepared map[string]*preparedStmt, cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q":
		return true
	case "\\c":
		if len(fields) != 2 {
			fmt.Println("usage: \\c <ttid>")
			return false
		}
		ttid, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			fmt.Println("bad tenant id:", fields[1])
			return false
		}
		next, err := (*be).Reconnect(ttid)
		if err != nil {
			fmt.Println(err)
			return false
		}
		*be = next
		// Prepared statements capture the session's C; drop them.
		for name, st := range prepared {
			st.close()
			delete(prepared, name)
		}
		fmt.Println("prepared statements cleared")
	case "\\prepare":
		rest := strings.TrimSpace(strings.TrimPrefix(cmd, "\\prepare"))
		name, sql, ok := strings.Cut(rest, " ")
		if !ok || name == "" || strings.TrimSpace(sql) == "" {
			fmt.Println("usage: \\prepare name <sql with ? or $n placeholders>")
			return false
		}
		st, err := (*be).Prepare(strings.TrimSuffix(strings.TrimSpace(sql), ";"))
		if err != nil {
			fmt.Println(err)
			return false
		}
		prepared[name] = st
		fmt.Printf("prepared %q (%d parameters)\n", name, st.nParams)
	case "\\exec":
		if len(fields) < 2 {
			fmt.Println("usage: \\exec name [args...]")
			return false
		}
		st, ok := prepared[fields[1]]
		if !ok {
			fmt.Printf("no prepared statement %q\n", fields[1])
			return false
		}
		rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(strings.TrimPrefix(cmd, "\\exec")), fields[1]))
		args, err := parseBindArgs(rest)
		if err != nil {
			fmt.Println(err)
			return false
		}
		if len(args) != st.nParams {
			fmt.Printf("statement %q takes %d parameters, got %d\n", fields[1], st.nParams, len(args))
			return false
		}
		res, err := st.run(args...)
		if err != nil {
			fmt.Println("error:", err)
			return false
		}
		printResult(res)
	case "\\level":
		if len(fields) != 2 {
			fmt.Println("usage: \\level <canonical|o1|o2|o3|o4|inl-only>")
			return false
		}
		level, err := optimizer.ParseLevel(fields[1])
		if err != nil {
			fmt.Println(err)
			return false
		}
		if err := (*be).SetLevel(level); err != nil {
			fmt.Println(err)
			return false
		}
		fmt.Println("optimization level:", level)
	case "\\explain":
		sql := strings.TrimSpace(strings.TrimPrefix(cmd, "\\explain"))
		rewritten, err := (*be).Explain(strings.TrimSuffix(sql, ";"))
		if err != nil {
			fmt.Println(err)
			return false
		}
		fmt.Println(rewritten)
	case "\\stats":
		lines, err := (*be).Stats()
		if err != nil {
			fmt.Println(err)
			return false
		}
		for _, l := range lines {
			fmt.Println(l)
		}
	case "\\shards":
		lines, err := (*be).ShardInfo()
		if err != nil {
			fmt.Println(err)
			return false
		}
		for _, l := range lines {
			fmt.Println(l)
		}
	default:
		fmt.Println("unknown command:", fields[0])
	}
	return false
}

func execute(be backend, sql string) {
	// Queries stream through the cursor API: rows print as batches arrive
	// from the operator tree (or the wire), so a large cross-tenant scan
	// shows output immediately instead of materializing the whole result
	// first. DML/DDL and session statements go through Exec.
	if stmt, err := sqlparse.ParseStatement(sql); err == nil {
		if _, ok := stmt.(*sqlast.Select); ok {
			streamQuery(be, sql)
			return
		}
	}
	res, err := be.Exec(sql)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	printResult(res)
}

// streamQuery prints the first maxShow rows as they are delivered and
// counts the rest.
func streamQuery(be backend, sql string) {
	const maxShow = 50
	n := 0
	err := be.Stream(sql,
		func(cols []string) { fmt.Println(strings.Join(cols, " | ")) },
		func(row []sqltypes.Value) {
			if n++; n <= maxShow {
				fmt.Println(rowLine(row))
			}
		})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if n > maxShow {
		fmt.Printf("... (%d rows total)\n", n)
	}
}

func rowLine(row []sqltypes.Value) string {
	parts := make([]string, len(row))
	for j, v := range row {
		parts[j] = v.String()
	}
	return strings.Join(parts, " | ")
}

func printResult(res *engine.Result) {
	if len(res.Cols) == 0 {
		fmt.Printf("ok (%d rows affected)\n", res.Affected)
		return
	}
	fmt.Println(strings.Join(res.Cols, " | "))
	for i, row := range res.Rows {
		if i >= 50 {
			fmt.Printf("... (%d rows total)\n", len(res.Rows))
			break
		}
		fmt.Println(rowLine(row))
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
