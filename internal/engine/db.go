// Package engine is the substrate DBMS that MTBase runs on: an embedded,
// in-memory SQL engine with a pull-based batch operator executor, hash
// joins, grouped aggregation, correlated subqueries, views and SQL-defined
// scalar functions (UDFs). It stands in for PostgreSQL / "System C" in the
// paper's evaluation; the Mode knob reproduces the one behavioural
// difference the paper leans on — whether results of IMMUTABLE UDFs are
// cached.
//
// Every query shape executes as a tree of physical operators (operator.go)
// exchanging 1024-row batches: scans, filters and join probes stream, and
// only the pipeline breakers — hash-join builds, group-by buckets, sort
// buffers — materialize state, so memory is bounded by batch size plus
// breaker state rather than intermediate result size. Result and the
// ExecPlan* entry points drain the tree eagerly; the Rows cursor pulls it
// batch-at-a-time.
//
// Execution is compile-then-execute: before iterating rows, every
// expression site (WHERE conjuncts, projections, join/group-by/sort keys,
// aggregate arguments, DML predicates) is lowered by vector.go into a batch
// program over the operator's selection vector, with column references
// resolved to flat row offsets; a construct without a kernel is lifted — a
// loop over the tree-walking interpreter in eval.go — inside the same
// program. Simple UDF bodies — the paper's conversion functions — are
// additionally planned once per statement plan (udf.go): the tenant-keyed
// FROM/WHERE relation is cached per distinct parameter tuple and the
// projection lowered against it, so a conversion call costs a hash probe
// plus one program run. A statement plan is a value its caller holds, valid
// until the next schema change (plan.go), so a caller that keeps one — the
// middleware's compiled forms — skips lowering entirely on every later
// execution, whatever is written between them.
// DB.SetCompileExprs(false) lifts the interpreter over every expression; the
// differential property test relies on both evaluators producing identical
// results.
package engine

import (
	"context"
	"errors"
	"fmt"
	"log"
	"maps"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mtbase/internal/sqlast"
	"mtbase/internal/sqlparse"
	"mtbase/internal/sqltypes"
)

// Mode selects the backing-DBMS behaviour being emulated.
type Mode uint8

// Engine modes.
const (
	// ModePostgres caches results of IMMUTABLE UDFs per (function, args)
	// during a statement, like PostgreSQL does for the paper's conversion
	// functions (§6.2).
	ModePostgres Mode = iota
	// ModeSystemC never caches UDF results: the commercial system of
	// Appendix C "does not allow UDFs to be defined as deterministic and
	// hence cannot cache conversion results".
	ModeSystemC
)

func (m Mode) String() string {
	if m == ModeSystemC {
		return "system-c"
	}
	return "postgres"
}

// Column describes one table column.
type Column struct {
	Name    string
	Type    sqltypes.Kind
	NotNull bool
}

// tableData is one immutable snapshot of a table: the rows, held in pages of
// batchSize rows, plus the hash indexes that serve it. Writers never mutate
// what a published tableData can see — they build a new one and swap the
// table's data pointer — so any reader holding a tableData sees a frozen,
// internally consistent snapshot for as long as it keeps the pointer.
//
// Pages are the unit of copy-on-write (DESIGN.md ADR-032). Every page but the
// last holds batchSize rows. INSERT appends into the last page's spare
// capacity — slots past a snapshot's length that no published snapshot sees —
// and UPDATE copies the page spine and the pages it changes, never the rows of
// the pages it leaves alone.
type tableData struct {
	pages [][][]sqltypes.Value
	n     int

	// flat is the one-slice view readers that scan get (rows): made at most
	// once, on first use, unless the snapshot was built from one slice
	// (flatData) and its pages are windows of it. The write path never
	// builds it.
	flatOnce sync.Once
	flat     [][]sqltypes.Value

	// indexes serve this snapshot: built over it, or carried from the
	// snapshot a write derived it from and covering a prefix of its rows
	// (index.go). idxMu serializes builds so concurrent readers of one
	// snapshot construct each index once.
	idxMu   sync.Mutex
	indexes map[string]*hashIndex // keyed by lower-case comma-joined cols
}

// Table is an in-memory table whose row heap lives behind an atomically
// swapped snapshot pointer (copy-on-write): readers pin the current
// tableData and scan it without holding DB.mu, writers build a replacement
// under DB.mu and publish it at statement end.
type Table struct {
	Name   string
	Cols   []Column
	PK     []string // primary key column names (may be empty)
	colIdx map[string]int
	data   atomic.Pointer[tableData]
	db     *DB // owning DB, so AppendRow/BulkLoad can self-serialize

	// names and lower are Cols' names and their lower-case forms, made once
	// with the table: every binding of it shares them (bind).
	names, lower []string

	Constraints []sqlast.Constraint // FK / CHECK retained for validation
}

// flatData wraps rows as a fresh snapshot with no indexes: its pages are
// windows of rows, which is also its flat view.
func flatData(rows [][]sqltypes.Value) *tableData {
	d := &tableData{n: len(rows), flat: rows}
	for lo := 0; lo < len(rows); lo += batchSize {
		hi := min(lo+batchSize, len(rows))
		d.pages = append(d.pages, rows[lo:hi:hi])
	}
	return d
}

// rows returns the snapshot as one slice, building it on first use.
func (d *tableData) rows() [][]sqltypes.Value {
	d.flatOnce.Do(func() {
		switch {
		case d.flat != nil || d.n == 0:
		case len(d.pages) == 1:
			d.flat = d.pages[0]
		default:
			d.flat = make([][]sqltypes.Value, 0, d.n)
			for _, p := range d.pages {
				d.flat = append(d.flat, p...)
			}
		}
	})
	return d.flat
}

// row returns the row with ordinal id.
func (d *tableData) row(id int) []sqltypes.Value { return d.pages[id/batchSize][id%batchSize] }

// appended returns the snapshot of d with rows added at its end. It copies the
// page spine and fills the last page's spare capacity before opening a new
// page, so a row is never copied; d's indexes follow it, covering a prefix.
func (d *tableData) appended(rows [][]sqltypes.Value) *tableData {
	n := d.n + len(rows)
	pages := make([][][]sqltypes.Value, len(d.pages), len(d.pages)+1+len(rows)/batchSize)
	copy(pages, d.pages)
	for len(rows) > 0 {
		last := len(pages) - 1
		if last < 0 || len(pages[last]) == batchSize {
			pages = append(pages, nil)
			last++
		}
		p := pages[last]
		k := min(batchSize-len(p), len(rows))
		if cap(p)-len(p) < k { // grow the page, doubling up to batchSize rows
			np := make([][]sqltypes.Value, len(p), min(batchSize, max(2*cap(p), len(p)+k)))
			copy(np, p)
			p = np
		}
		pages[last] = append(p, rows[:k]...)
		rows = rows[k:]
	}
	return &tableData{pages: pages, n: n, indexes: d.carry(nil)}
}

// Heap returns the table's current immutable row snapshot as one slice, built
// once per snapshot for a table that writes have paged. The returned slice
// must not be modified; it stays valid (and frozen) across concurrent writes,
// which publish new snapshots instead of mutating it.
func (t *Table) Heap() [][]sqltypes.Value { return t.data.Load().rows() }

// RowCount returns the number of rows in the current snapshot.
func (t *Table) RowCount() int { return t.data.Load().n }

// ColIndex returns the ordinal of a column (case-insensitive), or -1.
func (t *Table) ColIndex(name string) int {
	if i, ok := t.colIdx[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// bind returns a binding of the table's columns under alias.
func (t *Table) bind(alias string) *binding {
	return &binding{name: strings.ToLower(alias), cols: t.names, lower: t.lower}
}

// publish installs d as the table's new current snapshot. Callers must hold
// DB.mu — writers are serialized; only readers run lock-free.
func (t *Table) publish(d *tableData) { t.data.Store(d) }

// Function is a SQL-bodied scalar function.
type Function struct {
	Name      string
	NumParams int
	Body      *sqlast.Select
	Immutable bool
}

// Result is the outcome of a statement.
type Result struct {
	Cols     []string
	Rows     [][]sqltypes.Value
	Affected int
}

// catalog is one immutable snapshot of the schema: tables, views and
// functions. DDL clones the maps under DB.mu and swaps the DB's catalog
// pointer, so an executing statement keeps resolving names against the
// catalog it captured at creation even while DDL runs concurrently.
type catalog struct {
	tables map[string]*Table
	views  map[string]*sqlast.Select
	funcs  map[string]*Function

	// private marks one statement's own clone (QueryWith): never the DB's
	// catalog, so a plan lowered against it is not revalidated.
	private bool
}

func (c *catalog) table(name string) *Table       { return c.tables[strings.ToLower(name)] }
func (c *catalog) function(name string) *Function { return c.funcs[strings.ToLower(name)] }

// clone returns a shallow copy of the catalog with fresh maps, the
// starting point for every DDL mutation.
func (c *catalog) clone() *catalog {
	nc := &catalog{
		tables: make(map[string]*Table, len(c.tables)+1),
		views:  make(map[string]*sqlast.Select, len(c.views)+1),
		funcs:  make(map[string]*Function, len(c.funcs)+1),
	}
	for k, v := range c.tables {
		nc.tables[k] = v
	}
	for k, v := range c.views {
		nc.views[k] = v
	}
	for k, v := range c.funcs {
		nc.funcs[k] = v
	}
	return nc
}

// DB is an embedded SQL database.
type DB struct {
	mu   sync.Mutex
	mode Mode
	cat  atomic.Pointer[catalog] // current schema snapshot; DDL swaps it

	// par is the degree of intra-query parallelism (SetParallelism);
	// 0 means GOMAXPROCS. Read under mu at exec creation.
	par int

	// The execution configuration (DESIGN.md ADR-010), set by
	// SetCompileExprs and SetStreamExec and pinned per statement by newExec —
	// nothing else reads these two fields.
	noCompile, streamOff bool

	// memLimit caps the bytes one statement's pipeline breakers may retain
	// before spilling to disk (SetMemoryLimit); 0 means unlimited. spillDir
	// is where overflow files go ("" = system temp). spillfs is the
	// injectable spill filesystem hook package tests use to fail I/O
	// mid-run; nil selects the real one.
	memLimit int64
	spillDir string
	spillfs  spillFS

	// Stats accumulates counters across statements; benchmarks reset it.
	Stats Stats
}

// SetCompileExprs toggles the compiled expression kernels (on by default).
// Turning them off is the evaluator check: the same operator tree runs, but
// every expression is the tree-walking interpreter lifted over the batch.
// Results must be byte-identical either way.
func (db *DB) SetCompileExprs(on bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.noCompile = !on
}

// SetStreamExec toggles the pull-based operator executor (on by default).
// Turning it off selects the reference configuration the differential tests
// compare against: the materializing executor of exec.go, serial and
// row-at-a-time through the interpreter whatever SetCompileExprs and
// SetParallelism say. Results must be byte-identical either way.
func (db *DB) SetStreamExec(on bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.streamOff = !on
}

// SetParallelism sets the degree of intra-query parallelism for the two
// morsel-parallel sections (ADR-005, ADR-029): the fused scan+filter and the
// grouped projection's key and argument windows. n <= 0 restores
// the default (GOMAXPROCS); 1 keeps the serial execution path, which the
// differential tests use as the oracle. The default is per engine: a
// sharded deployment runs its parts' engines side by side, so shard.New
// gives each shard engine its share instead (ADR-030). Results are
// identical at every setting — parallel operators emit morsels in heap
// order and fold aggregates in row order, so even float sums match the
// serial path byte for byte.
func (db *DB) SetParallelism(n int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if n < 0 {
		n = 0
	}
	db.par = n
}

// Parallelism reports the worker count a statement starting now would use:
// SetParallelism's n, or GOMAXPROCS when that is the default.
func (db *DB) Parallelism() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.parallelism()
}

// parallelism resolves the effective worker count; callers hold db.mu.
func (db *DB) parallelism() int {
	if db.par > 0 {
		return db.par
	}
	return runtime.GOMAXPROCS(0)
}

// Stats counts interesting engine events. Parallel workers and concurrent
// statements update the counters, so each is an atomic.Int64: arithmetic on
// one does not compile, and copying one or the live struct is `go vet`'s
// copylocks finding. Read them through Snapshot; tests reset with
// db.Stats = Stats{}.
type Stats struct {
	UDFCalls     atomic.Int64 // UDF body executions (cache misses in ModePostgres)
	UDFCacheHits atomic.Int64

	// Plan counters (DESIGN.md ADR-027), named as benchmark/ and the wire
	// Stats order read them: misses count lowerings through PreparePlan and
	// PrepareStatement, hits the executions of a plan that has run before,
	// invalidations the executions that found their plan lowered against a
	// catalog some DDL has replaced since and re-lowered it — each also a miss.
	// A DML write invalidates nothing; Exec and QueryWith count nothing.
	PlanCacheHits          atomic.Int64
	PlanCacheMisses        atomic.Int64
	PlanCacheInvalidations atomic.Int64

	// Streaming executor counters: RowsStreamed totals the rows emitted by
	// physical operators (every operator counts its own emissions, so one
	// row flowing through a scan, a join and a projection counts three
	// times), PeakBatch is the largest single batch emitted. Benchmarks
	// report them per operation to catch accidental materialization.
	RowsStreamed atomic.Int64
	PeakBatch    atomic.Int64

	// Spill counters (SetMemoryLimit): SpillRuns counts overflow files
	// created (every one a sorted run), SpillBytes the
	// bytes written to them, and PeakMemBytes the highest accounted
	// pipeline-breaker footprint any single statement reached. All stay
	// zero under the default unlimited budget.
	SpillRuns    atomic.Int64
	SpillBytes   atomic.Int64
	PeakMemBytes atomic.Int64

	// Hash join counters (DESIGN.md ADR-022): JoinBuildRows counts the rows
	// inserted into transient join tables, JoinIndexProbes the joins that
	// probed a base table's persistent index instead of building one, and
	// JoinEagerFallbacks those of them that built one after all, mid-stream.
	JoinBuildRows      atomic.Int64
	JoinIndexProbes    atomic.Int64
	JoinEagerFallbacks atomic.Int64

	// ExistsProbes counts the outer rows an EXISTS answered by probing the
	// inner table's persistent index (the index semi-join, DESIGN.md
	// ADR-033) instead of running its subquery; the reference executor and
	// the evaluator check answer none this way.
	ExistsProbes atomic.Int64

	// DimensionBuilds counts the dimension joins built (DESIGN.md ADR-034):
	// join chains whose trailing run of small base tables was pre-joined into
	// one build side the stream probed once per row. A pre-join that outgrew
	// its batch and left the chain per member is not counted.
	DimensionBuilds atomic.Int64

	// Shared subexpressions (DESIGN.md ADR-023): ExprSlots counts the slots
	// lowered — one per shared node, operator instance, execution and
	// parallel worker — and ExprSlotReuses the row evaluations they saved:
	// rows an occurrence read from its slot instead of computing.
	ExprSlots      atomic.Int64
	ExprSlotReuses atomic.Int64

	// Panics counts statements that failed with ErrInternal (DB.Recover).
	Panics atomic.Int64

	// Base-table reads (DESIGN.md ADR-026): ScanRows counts the rows
	// base-table sources hand on before any filter — the heap for a scan, the
	// candidates for an index scan (one window of the row cursor at a time,
	// ADR-042), a join probing an index or an EXISTS probe; the operator tree
	// and the write path count them, the reference executor does not. ScanRanges counts
	// the sources a `col IN (list)` conjunct was served for by the union of
	// the list's index buckets, in both executors.
	ScanRows   atomic.Int64
	ScanRanges atomic.Int64
}

// StatsSnapshot is a point-in-time copy of Stats, field for field.
type StatsSnapshot struct {
	UDFCalls, UDFCacheHits                                 int64
	PlanCacheHits, PlanCacheMisses, PlanCacheInvalidations int64
	RowsStreamed, PeakBatch                                int64
	SpillRuns, SpillBytes, PeakMemBytes                    int64
	JoinBuildRows, JoinIndexProbes, JoinEagerFallbacks     int64
	ExistsProbes, DimensionBuilds                          int64
	ExprSlots, ExprSlotReuses                              int64
	Panics                                                 int64
	ScanRows, ScanRanges                                   int64
}

// Snapshot reads every counter, safe while parallel queries update them.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		UDFCalls:               s.UDFCalls.Load(),
		UDFCacheHits:           s.UDFCacheHits.Load(),
		PlanCacheHits:          s.PlanCacheHits.Load(),
		PlanCacheMisses:        s.PlanCacheMisses.Load(),
		PlanCacheInvalidations: s.PlanCacheInvalidations.Load(),
		RowsStreamed:           s.RowsStreamed.Load(),
		PeakBatch:              s.PeakBatch.Load(),
		SpillRuns:              s.SpillRuns.Load(),
		SpillBytes:             s.SpillBytes.Load(),
		PeakMemBytes:           s.PeakMemBytes.Load(),
		JoinBuildRows:          s.JoinBuildRows.Load(),
		JoinIndexProbes:        s.JoinIndexProbes.Load(),
		JoinEagerFallbacks:     s.JoinEagerFallbacks.Load(),
		ExistsProbes:           s.ExistsProbes.Load(),
		DimensionBuilds:        s.DimensionBuilds.Load(),
		ExprSlots:              s.ExprSlots.Load(),
		ExprSlotReuses:         s.ExprSlotReuses.Load(),
		Panics:                 s.Panics.Load(),
		ScanRows:               s.ScanRows.Load(),
		ScanRanges:             s.ScanRanges.Load(),
	}
}

// ErrInternal marks a statement that failed because its code panicked: a bug,
// reported as that one statement's error instead of ending the process for
// every tenant.
var ErrInternal = errors.New("engine: internal error")

// Recover turns a panic into the error of the statement that raised it. It is
// deferred (`defer db.Recover(&err)`) where statement code runs: the execute
// entries, every cursor pull and Close, each parallelFor worker — a panic on a
// goroutine of its own would end the process whatever the caller defers — and
// the middleware's compile. The stack is logged here, once; the statement's
// spill files go with its exec (releaseSpills). db may be nil (a cursor over a
// RowSource, which runs no statement code): the panic is then only not
// counted.
func (db *DB) Recover(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if db != nil {
		db.Stats.Panics.Add(1)
	}
	stack := debug.Stack()
	if wp, ok := r.(*workerPanic); ok {
		r, stack = wp.val, wp.stack
	}
	log.Printf("%v: %v\n%s", ErrInternal, r, stack)
	*err = fmt.Errorf("%w: %v", ErrInternal, r)
}

// Open returns an empty database in the given mode.
func Open(mode Mode) *DB {
	db := &DB{mode: mode}
	db.applyEnvMemLimit()
	db.cat.Store(&catalog{
		tables: make(map[string]*Table),
		views:  make(map[string]*sqlast.Select),
		funcs:  make(map[string]*Function),
	})
	return db
}

// catalogNow returns the current schema snapshot.
func (db *DB) catalogNow() *catalog { return db.cat.Load() }

// Table returns a table by name (case-insensitive) or nil.
func (db *DB) Table(name string) *Table { return db.catalogNow().table(name) }

// TableNames returns all table names, sorted.
func (db *DB) TableNames() []string {
	cat := db.catalogNow()
	names := make([]string, 0, len(cat.tables))
	for _, t := range cat.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// ExecSQL prepares and executes a single statement: set-up DDL and loads,
// which run once. A caller that repeats a statement holds its plan instead
// (PreparePlan, ExecPlanContext).
func (db *DB) ExecSQL(sql string) (*Result, error) {
	p, err := db.PreparePlan(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecPlanContext(context.Background(), p)
}

// ExecScript executes a ;-separated script, returning the last result.
func (db *DB) ExecScript(sql string) (*Result, error) {
	stmts, err := sqlparse.ParseStatements(sql)
	if err != nil {
		return nil, err
	}
	var res *Result
	for _, s := range stmts {
		res, err = db.Exec(s)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Exec executes a parsed statement through a plan lowered for this one
// execution, which counts nothing.
func (db *DB) Exec(stmt sqlast.Statement) (*Result, error) {
	p, err := db.lower(db.catalogNow(), stmt)
	if err != nil {
		return nil, err
	}
	return db.ExecPlanContext(context.Background(), p)
}

// newExecArgs builds the per-statement execution state with validated,
// hint-coerced bind values and the caller's cancellation context.
func (db *DB) newExecArgs(ctx context.Context, p *Plan, args []sqltypes.Value) (*exec, error) {
	bound, err := p.bindArgs(args)
	if err != nil {
		return nil, err
	}
	ex := db.newExec(p)
	ex.ctx = ctx
	ex.binds = bound
	return ex, nil
}

// pinExec is the locked region of a SELECT: under db.mu the plan is
// revalidated and the execution state is built: validated bind values, the
// pinned catalog and table snapshots. The lock is released whatever happens.
func (db *DB) pinExec(ctx context.Context, p *Plan, args []sqltypes.Value) (*exec, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	p = db.revalidatePlanLocked(p)
	if p.arityErr != nil {
		return nil, p.arityErr
	}
	return db.newExecArgs(ctx, p, args)
}

// execPlanLocked dispatches one write or DDL statement under db.mu.
func (db *DB) execPlanLocked(ctx context.Context, p *Plan, args []sqltypes.Value) (*Result, error) {
	if p.arityErr != nil {
		return nil, p.arityErr
	}
	switch p.stmt.(type) {
	case *sqlast.Insert, *sqlast.Update, *sqlast.Delete:
		ex, err := db.newExecArgs(ctx, p, args)
		if err != nil {
			return nil, err
		}
		defer ex.releaseSpills()
		switch s := p.stmt.(type) {
		case *sqlast.Insert:
			return db.insert(ex, s)
		case *sqlast.Update:
			return db.update(ex, s)
		default:
			return db.delete(ex, s.(*sqlast.Delete))
		}
	}
	if len(args) > 0 {
		return nil, fmt.Errorf("engine: statement takes no bind parameters, got %d", len(args))
	}
	switch s := p.stmt.(type) {
	case *sqlast.CreateTable:
		return db.createTable(s)
	case *sqlast.CreateView:
		return db.createView(s)
	case *sqlast.CreateFunction:
		return db.createFunction(s)
	case *sqlast.DropTable:
		key := strings.ToLower(s.Name)
		cat := db.catalogNow()
		if _, ok := cat.tables[key]; !ok {
			return nil, fmt.Errorf("engine: no such table %s", s.Name)
		}
		nc := cat.clone()
		delete(nc.tables, key)
		db.cat.Store(nc)
		return &Result{}, nil
	case *sqlast.DropView:
		key := strings.ToLower(s.Name)
		cat := db.catalogNow()
		if _, ok := cat.views[key]; !ok {
			return nil, fmt.Errorf("engine: no such view %s", s.Name)
		}
		nc := cat.clone()
		delete(nc.views, key)
		db.cat.Store(nc)
		return &Result{}, nil
	}
	return nil, fmt.Errorf("engine: unsupported statement %T", p.stmt)
}

// QuerySQL prepares and executes a SELECT, returning the fully materialized
// Result. The execution runs against the table snapshots current when the
// call started, so the result is atomic with respect to concurrent writers
// without holding DB.mu for the scan.
func (db *DB) QuerySQL(sql string) (*Result, error) {
	p, err := db.PreparePlan(sql)
	if err != nil {
		return nil, err
	}
	if _, isSel := p.stmt.(*sqlast.Select); !isSel {
		// Not a query: reparse through ParseQuery for its precise error.
		if _, qerr := sqlparse.ParseQuery(sql); qerr != nil {
			return nil, qerr
		}
		return nil, fmt.Errorf("engine: not a query: %s", sql)
	}
	return db.ExecPlanContext(context.Background(), p)
}

// Relation is a named in-memory row set that one statement reads as a table
// (QueryWith). Rows are not copied and must not be modified afterwards.
type Relation struct {
	Name string
	Cols []Column           // ignored when Name is a catalog table: its schema stays
	Rows [][]sqltypes.Value // one value per column of that schema
}

// QueryWith executes sel with rels visible to this execution only: a name
// the catalog already holds as a table is shadowed (same schema, these rows,
// fresh indexes), a new name is added. Both live in a private clone of the
// catalog the statement pins, so the DB's catalog, the tables' heaps and
// every other statement are untouched, and the cursor keeps its relations for
// as long as it is open. The plan is lowered for this one execution and counts
// nothing: whatever it derives from the relations dies with it.
func (db *DB) QueryWith(ctx context.Context, sel *sqlast.Select, args []sqltypes.Value, rels ...Relation) (*Rows, error) {
	cat, err := db.catalogNow().with(rels)
	if err != nil {
		return nil, err
	}
	p, err := db.lower(cat, sel)
	if err != nil {
		return nil, err
	}
	return db.queryRows(ctx, p, args)
}

// with returns a private clone of c in which rels are tables.
func (c *catalog) with(rels []Relation) (*catalog, error) {
	cat := c.clone()
	cat.private = true
	for _, r := range rels {
		key := strings.ToLower(r.Name)
		if cat.views[key] != nil {
			return nil, fmt.Errorf("engine: relation %s would shadow a view", r.Name)
		}
		t := newTable(r.Name, r.Cols, r.Rows)
		if base := cat.tables[key]; base != nil {
			t.Name, t.Cols, t.PK, t.colIdx, t.Constraints = base.Name, base.Cols, base.PK, base.colIdx, base.Constraints
			t.names, t.lower = base.names, base.lower
		}
		cat.tables[key] = t
	}
	return cat, nil
}

// ---------------------------------------------------------------- DDL

func kindOfType(t sqlast.TypeName) (sqltypes.Kind, error) {
	switch t.Name {
	case "INTEGER", "INT", "BIGINT":
		return sqltypes.KindInt, nil
	case "DECIMAL", "NUMERIC":
		return sqltypes.KindFloat, nil
	case "VARCHAR", "CHAR", "TEXT":
		return sqltypes.KindString, nil
	case "DATE":
		return sqltypes.KindDate, nil
	case "BOOLEAN":
		return sqltypes.KindBool, nil
	}
	return sqltypes.KindNull, fmt.Errorf("engine: unsupported type %s", t.Name)
}

func (db *DB) createTable(ct *sqlast.CreateTable) (*Result, error) {
	key := strings.ToLower(ct.Name)
	cat := db.catalogNow()
	if _, exists := cat.tables[key]; exists {
		return nil, fmt.Errorf("engine: table %s already exists", ct.Name)
	}
	var cols []Column
	for _, cd := range ct.Columns {
		kind, err := kindOfType(cd.Type)
		if err != nil {
			return nil, fmt.Errorf("column %s: %w", cd.Name, err)
		}
		lower := strings.ToLower(cd.Name)
		if slices.ContainsFunc(cols, func(c Column) bool { return strings.ToLower(c.Name) == lower }) {
			return nil, fmt.Errorf("engine: duplicate column %s", cd.Name)
		}
		cols = append(cols, Column{Name: cd.Name, Type: kind, NotNull: cd.NotNull})
	}
	t := newTable(ct.Name, cols, nil)
	t.db = db
	for _, con := range ct.Constraints {
		switch con.Kind {
		case sqlast.ConstraintPrimaryKey:
			t.PK = con.Columns
		default:
			t.Constraints = append(t.Constraints, con)
		}
	}
	nc := cat.clone()
	nc.tables[key] = t
	db.cat.Store(nc)
	return &Result{}, nil
}

// CreateTableDirect registers a table without going through SQL, used by
// generators that build large tables programmatically.
func (db *DB) CreateTableDirect(name string, cols []Column, pk []string) *Table {
	db.mu.Lock()
	defer db.mu.Unlock()
	t := newTable(name, cols, nil)
	t.PK, t.db = pk, db
	nc := db.catalogNow().clone()
	nc.tables[strings.ToLower(name)] = t
	db.cat.Store(nc)
	return t
}

// newTable builds a table over rows that no catalog knows yet.
func newTable(name string, cols []Column, rows [][]sqltypes.Value) *Table {
	t := &Table{Name: name, Cols: cols, colIdx: make(map[string]int, len(cols))}
	t.data.Store(flatData(rows))
	t.names, t.lower = make([]string, len(cols)), make([]string, len(cols))
	for i, c := range cols {
		t.names[i], t.lower[i] = c.Name, strings.ToLower(c.Name)
		t.colIdx[t.lower[i]] = i
	}
	return t
}

// AppendRow adds a row to a table without per-statement overhead. The row
// is not copied; callers must not retain it. The append is serialized
// against other writers under DB.mu and published as a new snapshot, so
// concurrent readers keep scanning the heap they pinned.
func (t *Table) AppendRow(row []sqltypes.Value) {
	t.BulkLoad([][]sqltypes.Value{row})
}

// BulkLoad appends many rows and publishes one new snapshot. Loading an empty
// table adopts a copy of rows as its one slice, so readers that scan it build
// no view; loading more appends like INSERT.
func (t *Table) BulkLoad(rows [][]sqltypes.Value) {
	if t.db != nil {
		t.db.mu.Lock()
		defer t.db.mu.Unlock()
	}
	if d := t.data.Load(); d.n > 0 {
		t.publish(d.appended(rows))
		return
	}
	t.publish(flatData(slices.Clone(rows)))
}

// ReplaceRows publishes rows as the table's entire new heap, the
// copy-on-write replacement for in-place heap surgery by external callers
// (the middleware's revoke path compacts tenant tables this way). Row
// ordinals move, so no index carries over.
func (t *Table) ReplaceRows(rows [][]sqltypes.Value) {
	if t.db != nil {
		t.db.mu.Lock()
		defer t.db.mu.Unlock()
	}
	t.publish(flatData(rows))
}

func (db *DB) createView(cv *sqlast.CreateView) (*Result, error) {
	key := strings.ToLower(cv.Name)
	cat := db.catalogNow()
	if _, exists := cat.views[key]; exists {
		return nil, fmt.Errorf("engine: view %s already exists", cv.Name)
	}
	if _, exists := cat.tables[key]; exists {
		return nil, fmt.Errorf("engine: %s already names a table", cv.Name)
	}
	nc := cat.clone()
	nc.views[key] = cv.Sub
	db.cat.Store(nc)
	return &Result{}, nil
}

func (db *DB) createFunction(cf *sqlast.CreateFunction) (*Result, error) {
	key := strings.ToLower(cf.Name)
	cat := db.catalogNow()
	if _, exists := cat.funcs[key]; exists {
		return nil, fmt.Errorf("engine: function %s already exists", cf.Name)
	}
	nc := cat.clone()
	nc.funcs[key] = &Function{
		Name:      cf.Name,
		NumParams: len(cf.ParamTypes),
		Body:      cf.Body,
		Immutable: cf.Immutable,
	}
	db.cat.Store(nc)
	return &Result{}, nil
}

// ---------------------------------------------------------------- DML

func (db *DB) insert(ex *exec, ins *sqlast.Insert) (*Result, error) {
	t := db.catalogNow().table(ins.Table)
	if t == nil {
		return nil, fmt.Errorf("engine: no such table %s", ins.Table)
	}
	colOrder := make([]int, 0, len(t.Cols))
	if len(ins.Columns) == 0 {
		for i := range t.Cols {
			colOrder = append(colOrder, i)
		}
	} else {
		for _, c := range ins.Columns {
			idx := t.ColIndex(c)
			if idx < 0 {
				return nil, fmt.Errorf("engine: no column %s in %s", c, t.Name)
			}
			colOrder = append(colOrder, idx)
		}
	}

	var srcRows [][]sqltypes.Value
	if ins.Sub != nil {
		res, err := ex.runQuery(ins.Sub, rootScope())
		if err != nil {
			return nil, err
		}
		srcRows = res.Rows
	} else {
		for _, exprRow := range ins.Rows {
			row := make([]sqltypes.Value, len(exprRow))
			for i, e := range exprRow {
				v, err := ex.eval(e, rootScope())
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			srcRows = append(srcRows, row)
		}
	}

	// Stage coerced rows first and publish once at the end: an error leaves
	// the table untouched, and concurrent readers never observe a partial
	// insert — the new snapshot appears atomically.
	staged := make([][]sqltypes.Value, 0, len(srcRows))
	for _, src := range srcRows {
		if len(src) != len(colOrder) {
			return nil, fmt.Errorf("engine: INSERT into %s: %d values for %d columns", t.Name, len(src), len(colOrder))
		}
		row := make([]sqltypes.Value, len(t.Cols))
		for i, idx := range colOrder {
			v, err := coerce(src[i], t.Cols[idx].Type)
			if err != nil {
				return nil, fmt.Errorf("engine: INSERT into %s.%s: %w", t.Name, t.Cols[idx].Name, err)
			}
			row[idx] = v
		}
		if err := t.checkNotNull(row); err != nil {
			return nil, err
		}
		staged = append(staged, row)
	}
	t.publish(ex.snap.pin(t).appended(staged))
	return &Result{Affected: len(srcRows)}, nil
}

// checkNotNull is the one NOT NULL check INSERT and UPDATE stage each new
// row through; a violation aborts the statement before anything publishes.
func (t *Table) checkNotNull(row []sqltypes.Value) error {
	for i, c := range t.Cols {
		if c.NotNull && row[i].IsNull() {
			return fmt.Errorf("engine: NULL in NOT NULL column %s.%s", t.Name, c.Name)
		}
	}
	return nil
}

// coerce converts v to the declared column kind where lossless.
func coerce(v sqltypes.Value, kind sqltypes.Kind) (sqltypes.Value, error) {
	if v.IsNull() || v.K == kind {
		return v, nil
	}
	switch {
	case kind == sqltypes.KindFloat && v.K == sqltypes.KindInt:
		return sqltypes.NewFloat(float64(v.I)), nil
	case kind == sqltypes.KindInt && v.K == sqltypes.KindFloat && v.F == float64(int64(v.F)):
		return sqltypes.NewInt(int64(v.F)), nil
	case kind == sqltypes.KindDate && v.K == sqltypes.KindString:
		return sqltypes.ParseDate(v.S)
	case kind == sqltypes.KindString:
		return sqltypes.NewString(v.AsString()), nil
	}
	return sqltypes.Null, fmt.Errorf("cannot store %s as %s", v.K, kind)
}

// writeRows runs fn over the rows a DML statement's WHERE selects, a batch at
// a time in heap order: the candidates indexSource selects — the one decision
// every base-table source takes — or, when it serves nothing, every row of
// d, page by page, refined by the read path's filter over the conjuncts
// indexSource leaves (newFilterOp, DESIGN.md ADR-043). So a write and a read
// with one WHERE evaluate the same conjuncts over the same rows in the same
// order. fn gets the batch with b.sel holding the rows that passed and
// b.errs the rows the filter poisoned, for its walk in row order; the row at
// batch position i has heap ordinal ids[i], or b.base+i when ids is nil.
// It walks d's pages itself rather than through the row cursor (ADR-042):
// the cursor reads a snapshot's flat view, which the write path never
// builds, and a point UPDATE would otherwise flatten the table every write.
func (ex *exec) writeRows(t *Table, d *tableData, where sqlast.Expr, fn func(b *Batch, ids []int) error) error {
	rel := &relation{bindings: []*binding{t.bind(t.Name)}, width: len(t.Cols), base: t}
	var conjs []*conjunct
	for _, e := range splitConjuncts(where) {
		conjs = append(conjs, &conjunct{expr: e})
	}
	rng, served, rest := ex.indexSource(rel, conjs, rootScope())
	f := ex.newFilterOp(rest, rel, rootScope())
	var b Batch
	visit := func(ids []int) error {
		ex.db.Stats.ScanRows.Add(int64(len(b.rows)))
		f.apply(&b)
		return fn(&b, ids)
	}
	if !served {
		for pi, page := range d.pages {
			if err := ex.cancelled(); err != nil {
				return err
			}
			b.window(page)
			b.base = pi * batchSize
			if err := visit(nil); err != nil {
				return err
			}
		}
		return nil
	}
	if rng.err != nil {
		return rng.err
	}
	buf := make([][]sqltypes.Value, 0, min(len(rng.ids), batchSize))
	for lo := 0; lo < len(rng.ids); lo += batchSize {
		if err := ex.cancelled(); err != nil {
			return err
		}
		ids := rng.ids[lo:min(lo+batchSize, len(rng.ids))]
		buf = buf[:0]
		for _, id := range ids {
			buf = append(buf, d.row(id))
		}
		b.window(buf)
		if err := visit(ids); err != nil {
			return err
		}
	}
	return nil
}

// update is copy-on-write, like delete: the WHERE reads the pristine
// snapshot, updated rows are cloned into copies of the pages they live in
// under a copy of the page spine, and the new snapshot is published only
// after the last row succeeds. Predicates and assignments — subqueries and
// UDF bodies reading the table included — therefore observe pre-update state
// for every row however far ahead of the staging they are evaluated, and an
// error publishes nothing. So they run column-wise per batch; the staging
// walk then follows row order and aborts at the first poisoned row, exactly
// where a row loop would have stopped. The new snapshot keeps every index
// keyed on no assigned column: its rows stay where they were.
func (db *DB) update(ex *exec, up *sqlast.Update) (*Result, error) {
	t := db.catalogNow().table(up.Table)
	if t == nil {
		return nil, fmt.Errorf("engine: no such table %s", up.Table)
	}
	d := ex.snap.pin(t)
	sc := &scope{bindings: []*binding{t.bind(t.Name)}}
	vsets := make([]vecExpr, len(up.Sets))
	colIdx := make([]int, len(up.Sets))
	for i, a := range up.Sets {
		vsets[i] = ex.vecCompile(a.Expr, sc.bindings, sc)
		// Resolution is hoisted; the "no column" error stays at apply time so
		// a non-matching UPDATE succeeds.
		colIdx[i] = t.ColIndex(a.Column)
	}
	newVals := make([]sqltypes.Value, len(up.Sets))
	affected := 0
	var pages [][][]sqltypes.Value // d's page spine, copied at the first change
	owned := -1                    // the page copied last: rows come in heap order
	err := ex.writeRows(t, d, up.Where, func(b *Batch, ids []int) error {
		n := len(b.rows)
		m := ex.vs.mark()
		defer ex.vs.release(m)
		sel := b.sel
		setCols := make([][]sqltypes.Value, len(vsets))
		selBuf := ex.vs.takeSel(len(sel))
		for j, vs := range vsets {
			setCols[j] = ex.vs.takeVals(n)
			vs(b, sel, setCols[j])
			sel = b.compactSel(selBuf, sel)
		}
		// Stage in row order; a poisoned row aborts with nothing published.
		si := 0
		for i := 0; i < n; i++ {
			if b.errs[i] != nil {
				return b.errs[i]
			}
			if si >= len(sel) || sel[si] != int32(i) {
				continue
			}
			si++
			for j, a := range up.Sets {
				if colIdx[j] < 0 {
					return fmt.Errorf("engine: no column %s in %s", a.Column, t.Name)
				}
				cv, err := coerce(setCols[j][i], t.Cols[colIdx[j]].Type)
				if err != nil {
					return err
				}
				newVals[j] = cv
			}
			nr := slices.Clone(b.rows[i])
			for j := range up.Sets {
				nr[colIdx[j]] = newVals[j]
			}
			if err := t.checkNotNull(nr); err != nil {
				return err
			}
			id := b.base + i
			if ids != nil {
				id = ids[i]
			}
			if pages == nil {
				pages = slices.Clone(d.pages)
			}
			if p := id / batchSize; p != owned {
				pages[p], owned = slices.Clone(pages[p]), p
			}
			pages[id/batchSize][id%batchSize] = nr
			affected++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if affected > 0 {
		t.publish(&tableData{pages: pages, n: d.n, indexes: d.carry(colIdx)})
	}
	return &Result{Affected: affected}, nil
}

func (db *DB) delete(ex *exec, del *sqlast.Delete) (*Result, error) {
	t := db.catalogNow().table(del.Table)
	if t == nil {
		return nil, fmt.Errorf("engine: no such table %s", del.Table)
	}
	d := ex.snap.pin(t)
	if del.Where == nil {
		if d.n > 0 {
			t.publish(flatData(nil))
		}
		return &Result{Affected: d.n}, nil
	}
	// The deleted ordinals are collected and the kept rows published once at
	// the end: the snapshot is pristine for the whole scan — a predicate with
	// subqueries over the same table observes the state a row loop would,
	// an erroring predicate publishes nothing, and concurrent readers keep
	// their pinned heap. The first poisoned row aborts, as a row loop would.
	var gone []int // in heap order
	err := ex.writeRows(t, d, del.Where, func(b *Batch, ids []int) error {
		if err := b.firstErr(); err != nil {
			return err
		}
		for _, i := range b.sel {
			if ids != nil {
				gone = append(gone, ids[i])
			} else {
				gone = append(gone, b.base+int(i))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	affected := len(gone)
	if affected > 0 {
		// Ordinals move, so the kept rows become one slice and carry no index.
		kept := make([][]sqltypes.Value, 0, d.n-len(gone))
		id := 0
		for _, page := range d.pages {
			for _, row := range page {
				if len(gone) > 0 && gone[0] == id {
					gone = gone[1:]
				} else {
					kept = append(kept, row)
				}
				id++
			}
		}
		t.publish(flatData(kept))
	}
	return &Result{Affected: affected}, nil
}

// ---------------------------------------------------------------- constraints

// ValidateConstraints checks every FOREIGN KEY and CHECK constraint of every
// table, returning the first violation found. The MTSQL layer rewrites
// tenant-specific referential integrity into CHECK constraints (Appendix A);
// this is the hook that enforces both kinds.
func (db *DB) ValidateConstraints() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	cat := db.catalogNow()
	for _, name := range slices.Sorted(maps.Keys(cat.tables)) {
		t := cat.tables[name]
		for _, con := range t.Constraints {
			if err := db.validateConstraint(cat, t, con); err != nil {
				return err
			}
		}
	}
	return nil
}

func (db *DB) validateConstraint(cat *catalog, t *Table, con sqlast.Constraint) error {
	switch con.Kind {
	case sqlast.ConstraintForeignKey:
		ref := cat.table(con.RefTable)
		if ref == nil {
			return fmt.Errorf("engine: constraint %s references missing table %s", con.Name, con.RefTable)
		}
		idx, err := ref.index(con.RefColumns)
		if err != nil {
			return err
		}
		srcIdx := make([]int, len(con.Columns))
		for i, c := range con.Columns {
			srcIdx[i] = t.ColIndex(c)
			if srcIdx[i] < 0 {
				return fmt.Errorf("engine: constraint %s: no column %s", con.Name, c)
			}
		}
		var key []byte
		for _, row := range t.Heap() {
			key = key[:0]
			null := false
			for _, i := range srcIdx {
				if row[i].IsNull() {
					null = true
					break
				}
				key = sqltypes.AppendKey(key, row[i])
			}
			if null {
				continue // NULL FK values vacuously satisfy the constraint
			}
			if len(idx.bucket(key)) == 0 {
				return fmt.Errorf("engine: FK violation %s on %s: no match in %s", con.Name, t.Name, con.RefTable)
			}
		}
	case sqlast.ConstraintCheck:
		ex := db.newExec(buildPlan(cat, nil))
		v, err := ex.eval(con.Check, rootScope())
		if err != nil {
			return fmt.Errorf("engine: CHECK %s: %w", con.Name, err)
		}
		if truth, known := sqltypes.Truthy(v); known && !truth {
			return fmt.Errorf("engine: CHECK constraint %s violated on %s", con.Name, t.Name)
		}
	}
	return nil
}
