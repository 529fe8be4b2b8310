// Package mtbase is a from-scratch Go reproduction of "MTBase: Optimizing
// Cross-Tenant Database Queries" (Braun, Marroquín, Tsay, Kossmann —
// EDBT 2018, arXiv:1703.04290).
//
// The system lives in internal/ packages:
//
//   - sqltypes, sqllex, sqlast, sqlparse — the SQL/MTSQL frontend;
//     sqlast/walk.go is the one place that knows where a statement holds
//     expressions and query blocks, and names the tables a statement
//     writes and reads (ADR-017 in DESIGN.md)
//   - engine — the substrate in-memory DBMS (PostgreSQL / "System C" roles).
//     Queries execute as a tree of pull-based physical operators
//     (engine/operator.go) — scan, filter, project, hash join, group,
//     sort, distinct, limit — exchanging fixed-size batches with selection
//     vectors (engine/batch.go); only the pipeline breakers (join builds,
//     group buckets, sort buffers) materialize state, so memory is bounded
//     by batch size plus breaker state rather than intermediate result
//     size (ADR-004 in DESIGN.md). A FROM list joins as one chain that
//     materializes each output row once, and closed subquery conjuncts
//     filter their source below it (ADR-011). Expressions are lowered
//     into vectorized kernels looping over those vectors
//     (engine/vector.go) — function calls and their arguments included,
//     with the interpreter lifted over the batch as the only fallback
//     (ADR-016) — ORDER BY sorts over precomputed key columns,
//     conversion-UDF bodies are planned once per statement plan with
//     their tenant-keyed meta-table lookups cached per table snapshot
//     (engine/udf.go), and pure conversion results are cached per
//     statement; a statement plan is a value its caller holds and stays
//     valid until the schema changes — a write re-lowers nothing
//     (engine/plan.go, ADR-024, ADR-027). Two oracles sit beside
//     production (ADR-010): the
//     evaluator check (DB.SetCompileExprs(false)) runs the same operators
//     with every expression lifted onto the tree-walking interpreter; the
//     reference executor (DB.SetStreamExec(false)) materializes, interprets
//     row-at-a-time, serially. The statement API is PrepareStatement (an
//     AST) or PreparePlan (text) → QueryPlanContext(args...) → Rows
//     (engine/plan.go, engine/rows.go): statements carry ? / $n bind
//     parameters resolved per execution (one plan serves every binding),
//     a panic in one statement is that
//     statement's error (DB.Recover, ADR-020), Rows pulls the operator tree
//     batch-at-a-time
//     for every query shape — joins, grouping, ordering, DISTINCT,
//     subqueries — and the execute entries take a Context polled for
//     cancellation inside every operator (ADR-003/ADR-004 in DESIGN.md).
//     Statements read immutable copy-on-write snapshots pinned at exec
//     creation — writers publish new snapshots under DB.mu, so readers,
//     open cursors and writers overlap without blocking — and large
//     scans+filters and grouped aggregate columns fan out morsel-parallel
//     across a worker pool (DB.SetParallelism, GOMAXPROCS by default; a
//     shard engine's default is its share, max(1, GOMAXPROCS/shards), so a
//     scatter's parts together fit the CPUs; results are byte-identical at
//     every setting and every share, parallelism 1 being the serial
//     differential oracle; ADR-005, ADR-029, ADR-030 in DESIGN.md).
//     DB.SetMemoryLimit caps per-statement working memory (0 = unlimited
//     default): over budget,
//     sorts run as external merge sorts, group-bys fall back to sort-based
//     grouping, DISTINCT spills its key set and hash joins Grace-partition
//     — all to temp files under DB.SetSpillDir, removed at statement end
//     even on error — with results byte-identical to the unlimited path
//     and Stats.SpillRuns/SpillBytes/PeakMemBytes reporting what spilled
//     (MTBASE_TEST_MEMLIMIT applies the cap process-wide in tests; ADR-006
//     in DESIGN.md).
//   - mtsql — MTSQL semantics: generality, comparability, conversion algebra
//   - rewrite — the canonical MTSQL→SQL rewrite algorithm (§3); it owns how
//     an MTSQL column reference resolves and which predicates tie two
//     bindings by ttid (Resolver, Resolver.Links; ADR-018)
//   - optimizer — the o1–o4 / inl-only optimization passes (§4); split.go
//     owns how an aggregating block splits into a partial block and a
//     combine, for o3 and for the shard coordinator (ADR-018)
//   - middleware — MTBase proper: sessions, scopes, privileges (Figure 4):
//     a statement runs over D′, the scope pruned by every table it touches
//     in any slot and statement kind (ADR-017);
//     Conn.Prepare gives prepared MTSQL statements whose compiled form is
//     cached against the parameterized text and shared across bindings. A
//     client statement is one value, middleware.Statement (AST, text, table
//     set and bind arity, made once by Parse), compiled in one place
//     (Conn.compile: scope → D′ → rewrite → optimize → engine plan, lowered
//     from the rewritten statement, whose text is pure SQL but is not
//     parsed again) under one statement cache whose forms hold the plans
//     (ADR-020, ADR-027 in DESIGN.md). The session shape is declared
//     once, in middleware/session.go (ADR-013, ADR-028): a tier implements
//     a six-method core over that value — QueryStmt(ctx, *Statement, args),
//     ExecStmt(ctx, *Statement, args) — and Exec/Query/Prepare and the
//     prepared Stmt are written once over it (Text), so middleware.Conn,
//     shard.Conn and the wire client's client.Conn are each a
//     middleware.Session and return the same *Stmt and *engine.Rows
//   - mth — the MT-H benchmark: dbgen, 22 queries, validation (§5)
//   - bench — the experiment driver behind cmd/mtbench: every table and
//     figure of §6, with the UDF-call ablation
//   - shard — tenant-partitioned scale-out (ADR-009, ADR-012, ADR-015 and
//     ADR-018 in DESIGN.md): N independent engine+middleware shards plus a
//     coordinator replica behind the same middleware.Session surface
//     (shard.Conn implements only the routing core; what the rewrite ties
//     by ttid and how an aggregate splits it asks of rewrite and optimizer).
//     The rewrite's privilege-pruned tenant set D′ routes every
//     statement: one shard for single-tenant work, deterministic
//     scatter/gather for cross-tenant work (ordered k-way merge under
//     ORDER BY, partial-aggregation pushdown with a coordinator fold,
//     staged routing — a closed scalar subquery over tenant data runs
//     first, as a routed statement of its own, and comes back as a bind
//     parameter — and a repartition fallback for what the pinned-query
//     classifier still cannot prove exact), byte-identical to the unsharded instance at every
//     optimization level. The coordinator is stateless between
//     statements: fold and fallback read the shards' rows as
//     statement-local relations (engine.DB.QueryWith) that never enter
//     the replica's catalog, and a shard session under a sub-scope is a
//     value copy (middleware.Conn.Scoped). cmd/mtserve -shards N serves a
//     sharded instance; cmd/mtsh -shards N explores one (\shards, \stats).
//   - wire, server, wal, client — the network service (ADR-008 in
//     DESIGN.md): cmd/mtserve serves an instance over TCP with
//     per-tenant sessions bound in the protocol handshake, streaming row
//     batches, per-tenant admission control, graceful drain, and — with
//     -data — a logical write-ahead log with group commit, copy-on-write
//     heap snapshots and online backup that recovers the exact
//     acknowledged state after a crash (execution determinism makes
//     statement replay byte-exact). internal/client's Conn is a
//     middleware.Session over the wire (ADR-028): its cursor is an
//     engine.Rows, its prepared statement the one middleware.Stmt;
//     cmd/mtsh -connect runs the shell against a running server.
//
// Quickstart (in-process):
//
//	inst, _ := mth.BuildMT(mth.Config{SF: 0.01, Tenants: 5, Dist: mth.Uniform, Seed: 42})
//	conn, _ := inst.Srv.Connect(1)          // session bound to tenant 1
//	conn.Exec(`SET SCOPE = "IN ()"`)        // own data only
//	res, _ := conn.Query(`SELECT COUNT(*) FROM customer`)
//
// Quickstart (served): `go run ./cmd/mtserve -sf 0.01 -tenants 5`, then
//
//	conn, _ := client.Dial("localhost:7687", 1, "o4")
//	conn.Exec(`SET SCOPE = "IN ()"`)
//	res, _ := conn.Query(`SELECT COUNT(*) FROM customer`)
//
// See README.md for a quickstart, DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results. cmd/mtbench regenerates
// each table and figure at laptop scale; whether a change made anything
// faster or slower is judged by benchmark/ (bash benchmark/run.sh), a module
// of its own (ADR-019 in DESIGN.md).
package mtbase
