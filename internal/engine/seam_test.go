package engine

// TestModeSeam pins the shape DESIGN.md ADR-010 describes, by reading the
// package's own source: the execution configuration is decided in one place
// per layer and nowhere else, the reference executor shares no batch
// program or parallel section with the operator tree it is the oracle for,
// and (ADR-016) the batch kernels are the only compiled form of an
// expression, with the interpreter their only fallback. TestLockedRegionsPullNothing,
// TestOperatorNextPolls and TestSpillFileSeam hold, on the same source walk,
// the three structural invariants of ADR-025: no batch pull under db.mu, a
// cancellation poll in every operator's Next, spill files from one seam.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// seamFuncs maps every identifier that carries the execution configuration
// to the only functions allowed to mention it: the DB fields to their
// setters and the pin, the pinned exec fields to the pin, the expression
// seam and the executor dispatch.
var seamFuncs = map[string][]string{
	"noCompile": {"DB.SetCompileExprs", "DB.newExec"},
	"streamOff": {"DB.SetStreamExec", "DB.newExec"},
	"interp":    {"DB.newExec", "exec.workerClone", "exec.vecCompileAll", "exec.planUDF"},
	"reference": {"DB.newExec", "exec.runQuery", "DB.queryRows"},
}

// kernelLowering lowers a filter's conjuncts into selection programs
// (ADR-046). It reads no configuration: vecCompileAll, the expression seam,
// is the only caller of the kernel lowering and hands an interpreting
// execution the lifted interpreter instead.
var kernelLowering = []string{"exec.selCompileAll", "venv.selKernel", "truthSel"}

// No function of operator.go calls the interpreter (ex.eval) itself: whatever
// an operator evaluates per row or per group is a batch program
// (vecCompileAll), whose lowering decides where the interpreter is lifted, and
// the planning-time checks of an expression that reads no row
// (operandNeverRaises, the FROM-less source) are exec.go's, shared by both
// executors (ADR-043).

// writeEntries lower no WHERE of their own: they hand it to writeRows, which
// filters it as a read does (ADR-043).
var writeEntries = []string{"DB.update", "DB.delete"}

// spillSeamFuncs: spill files (ADR-006) come from one seam. Only the
// osSpillFS seam creates a temp file, only newSpillFile, which registers it
// for cleanup, calls the seam, and only spiller.flush writes one (ADR-036):
// every spill file is a sorted run.
var spillSeamFuncs = map[string][]string{
	"CreateTemp":   {"osSpillFS.create"},
	"create":       {"osSpillFS.create", "exec.newSpillFile"},
	"newSpillFile": {"exec.newSpillFile", "spiller.flush"},
}

// lockedEntries are the functions that take db.mu. Each holds it from the
// Lock to its return — `defer ….mu.Unlock()` is the next statement, one
// locked region per entry (ADR-024) — and mentions no Next, pull* or Collect:
// a batch pull runs lock-free against pinned snapshots (ADR-004), so a
// writer never waits on a cursor.
var lockedEntries = []string{
	"DB.CreateTableDirect", "DB.ExecPlanContext", "DB.Parallelism", "DB.SetCompileExprs",
	"DB.SetMemoryLimit", "DB.SetParallelism", "DB.SetSpillDir", "DB.SetStreamExec",
	"DB.ValidateConstraints", "DB.pinExec", "Table.BulkLoad", "Table.ReplaceRows",
}

// referenceForbidden lists what no function of exec.go may mention: the
// batch and kernel vocabulary of the production path.
var referenceForbidden = []string{
	"Batch", "vecExpr", "vecKeySet", "vecCompile", "vecCompileAll", "vecKeys", "groupProgs", "aggInput",
	"sharedExprs", "exprSlots",
	"compile", "filterOp", "scanOp", "rowChunk", "newRowChunk",
	"parallelFor",
}

// deletedTwins are the interpreter (and compiled-reference) twins this
// design removed, the left outer join's copy of the hash join ADR-014
// merged into joinOperator, the row-closure compiler ADR-016 deleted
// (its type, its environment, and the function names only that tier used —
// venv keeps its own compileBinary, compileCase, …), and the parallel join-key
// encoder and sort ADR-029 deleted, which no workload entered, the Grace
// partitioner ADR-036 replaced with sorted runs, and the per-call projection
// of a planned UDF body ADR-037 replaced with the batch call (its argument
// frame, per-entry lowerings, batch free list and per-call entry points),
// and the result cache's two maps ADR-038 replaced with one table (the key
// that chose between them, and the word a fixed result was stored as), and
// that table's own slots, fixed-width key and size hint ADR-045 replaced with
// the key table, and
// the DISTINCT operator and the frozen group table's rank directory ADR-039
// folded into the group operator's sorted runs, and the ORDER BY key columns
// and the sort's second buffer ADR-040 replaced with keys at the row's tail
// and the spiller, and the reference's outer join loop, the second charged
// build drain and the outer residual's own filter type ADR-041 merged into
// one hash join per executor, and the index scan's own operator and the
// dimension's bounded drain ADR-042 folded into the one row cursor and the
// one drain, and the index path's all-safe test ADR-043 replaced with the
// count orderConjuncts returns, and the closedness walk ADR-044 made the
// outer-reference walk; they must not come back under the same names.
var deletedTwins = []string{
	"applyInterp", "projectInterp", "projectRowsBatched",
	"leftOuterOperator", "newLeftOuterPipe", "gracePartitionProbe", "louter",
	"compiledExpr", "cenv", "compileArith", "compileOneArg", "compileArgs", "udfSite",
	"parallelSortIdx", "parallelJoinKeys",
	"graceState", "graceHash", "partWriter", "processPartition", "subPartition",
	"frame", "udfProjection", "udfProj", "projBatches", "projectPlannedUDF",
	"runPlannedUDF", "execUDFBody", "execUDFMemo", "memoFor", "udfCache",
	"udfKey", "keyOf", "callWord", "wordOf",
	"callKey", "fixedKey", "callSlot", "cacheSlots",
	"distinctOperator", "distinctEntryBytes", "rankEntryBytes",
	"resetKeyCols", "keyRow", "recCost", "engageSpill",
	"leftOuterJoin", "openChargedBuild", "onResidual",
	"indexScanOperator", "drainAtMost",
	"neverRaise",
	"selectClosed", "allClosed",
}

// referenceJoin is the reference executor's one hash join (ADR-041): it
// hashes its build side per statement and reads no persistent index, so the
// oracle shares no index with the operator tree's index path.
var referenceJoin = []string{"exec.hashJoin", "exec.buildJoinHash"}

// referenceNaive are the reference's hash join and grouping, DISTINCT
// included: they keep every column of a joined row and key Go maps by
// string, so the oracle shares neither the narrowed rows nor the key table
// of the operator tree (ADR-044).
var referenceNaive = append([]string{"exec.projectGrouped", "execResult.dedupe"}, referenceJoin...)

func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// sourceFile is one parsed non-test file of the package.
type sourceFile struct {
	name string
	src  []byte
	f    *ast.File
}

func parsePackage(t *testing.T) []sourceFile {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var out []sourceFile
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sourceFile{name, src, f})
	}
	return out
}

// sourceFunc is one function declaration with every identifier it mentions.
type sourceFunc struct {
	file string
	name string
	fd   *ast.FuncDecl
	used map[string]bool
}

func packageFuncs(t *testing.T) []sourceFunc {
	t.Helper()
	var out []sourceFunc
	for _, sf := range parsePackage(t) {
		for _, decl := range sf.f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				out = append(out, sourceFunc{sf.name, funcName(fd), fd, identsUsed(fd)})
			}
		}
	}
	return out
}

func identsUsed(n ast.Node) map[string]bool {
	used := map[string]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			used[id.Name] = true
		}
		return true
	})
	return used
}

// checkSeam fails for each identifier of seam that sf mentions without being
// one of the functions allowed to.
func checkSeam(t *testing.T, seam map[string][]string, sf sourceFunc) {
	t.Helper()
	for id, allowed := range seam {
		if sf.used[id] && !slices.Contains(allowed, sf.name) {
			t.Errorf("%s: %s mentions %s; only %v may", sf.file, sf.name, id, allowed)
		}
	}
}

func TestModeSeam(t *testing.T) {
	modeLines, refJoins, naive, writes, lowerings := 0, 0, 0, 0, 0
	var spillOwners, liftCallers, kernelCallers []string
	fallsBackToInterp := false
	for _, sf := range parsePackage(t) {
		name := sf.name
		for _, line := range strings.Split(string(sf.src), "\n") {
			if strings.Contains(line, "noCompile") || strings.Contains(line, "streamOff") {
				modeLines++
			}
		}
		for _, decl := range sf.f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				// Type declarations: filterOp must not regrow its expression
				// twin, and one operator owns the spilled hash join.
				ast.Inspect(decl, func(n ast.Node) bool {
					ts, ok := n.(*ast.TypeSpec)
					if !ok {
						return true
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						return false
					}
					for _, fld := range st.Fields.List {
						for _, id := range fld.Names {
							if ts.Name.Name == "filterOp" && id.Name == "exprs" {
								t.Errorf("%s: filterOp.exprs is back", name)
							}
							if ts.Name.Name == "filterOp" && id.Name == "progs" {
								if at, ok := fld.Type.(*ast.ArrayType); !ok || types.ExprString(at.Elt) != "selExpr" {
									t.Errorf("%s: filterOp.progs is %s; a filter runs one selection program per conjunct", name, types.ExprString(fld.Type))
								}
							}
							if id.Name == "spilled" {
								spillOwners = append(spillOwners, ts.Name.Name)
							}
						}
					}
					return false
				})
				continue
			}
			fn, used := funcName(fd), identsUsed(fd)
			checkSeam(t, seamFuncs, sourceFunc{name, fn, fd, used})
			for _, id := range deletedTwins {
				if used[id] {
					t.Errorf("%s: %s mentions deleted twin %s", name, fn, id)
				}
			}
			if name == "operator.go" && callsEval(fd) {
				t.Errorf("operator.go: %s calls ex.eval; the operator tree evaluates through batch programs", fn)
			}
			if slices.Contains(writeEntries, fn) {
				writes++
				if callee := whereCallee(fd); callee != "" {
					t.Errorf("%s: %s hands its WHERE to %s; only writeRows filters a write", name, fn, callee)
				}
			}
			if used["liftInterp"] && fn != "liftInterp" {
				liftCallers = append(liftCallers, fn)
			}
			if used["selKernel"] && fn != "venv.selKernel" {
				kernelCallers = append(kernelCallers, fn)
			}
			if slices.Contains(kernelLowering, fn) {
				lowerings++
				for _, id := range []string{"interp", "reference", "noCompile", "streamOff"} {
					if used[id] {
						t.Errorf("%s: %s mentions %s; the kernel lowering reads no configuration", name, fn, id)
					}
				}
			}
			if fn == "exec.evalFunc" || fn == "venv.compileFunc" {
				// A builtin either evaluator resolves by name must be one
				// plan dependency analysis knows, or statements calling it
				// silently stop being cached.
				ast.Inspect(fd, func(n ast.Node) bool {
					cc, ok := n.(*ast.CaseClause)
					if !ok {
						return true
					}
					for _, e := range cc.List {
						if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							if builtin, _ := strconv.Unquote(lit.Value); !isScalarBuiltin(builtin) {
								t.Errorf("%s: %s resolves builtin %s, which isScalarBuiltin does not report", name, fn, builtin)
							}
						}
					}
					return true
				})
			}
			if fn == "venv.lower" {
				// Whatever no case of the lowering switch returned a kernel
				// for goes to the interpreter: the function's last statement.
				if ret, ok := fd.Body.List[len(fd.Body.List)-1].(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
					if call, ok := ret.Results[0].(*ast.CallExpr); ok {
						id, _ := call.Fun.(*ast.Ident)
						fallsBackToInterp = id != nil && id.Name == "liftInterp"
					}
				}
			}
			if slices.Contains(referenceJoin, fn) {
				refJoins++
				for _, id := range []string{"tableIndex", "indexableBuild"} {
					if used[id] {
						t.Errorf("%s: %s mentions %s; the reference's join probes no persistent index", name, fn, id)
					}
				}
			}
			if slices.Contains(referenceNaive, fn) {
				naive++
				for _, id := range []string{"keyTable", "newKeyTable", "chainReads", "cut", "pick", "lcols", "rcols"} {
					if used[id] {
						t.Errorf("%s: %s mentions %s; the reference's joins and groupings keep whole rows in Go maps", name, fn, id)
					}
				}
			}
			if name == "exec.go" {
				for _, id := range referenceForbidden {
					if used[id] {
						t.Errorf("exec.go: %s mentions %s; the reference executor must stay off the production path", fn, id)
					}
				}
			} else if used["concatRows"] {
				t.Errorf("%s: %s uses concatRows, the reference executor's row concatenation", name, fn)
			}
		}
	}
	// Two tiers: the interpreter is lifted over a batch for an interpreting
	// execution (vecCompileAll) and for what has no kernel (venv.lower), and
	// lowering has no other fallback.
	slices.Sort(liftCallers)
	if want := []string{"exec.vecCompileAll", "venv.lower"}; !slices.Equal(liftCallers, want) {
		t.Errorf("liftInterp is called from %v, want %v", liftCallers, want)
	}
	if lowerings != len(kernelLowering) {
		t.Errorf("found %d of the kernel lowering's functions %v", lowerings, kernelLowering)
	}
	if !slices.Equal(kernelCallers, []string{"exec.vecCompileAll"}) {
		t.Errorf("selKernel is called from %v, want only exec.vecCompileAll, the seam that decides an interpreting execution", kernelCallers)
	}
	if !fallsBackToInterp {
		t.Error("venv.lower does not end in `return liftInterp(...)`: lowering is a kernel or the lifted interpreter, nothing in between")
	}
	if writes != len(writeEntries) {
		t.Errorf("found %d of the write entries %v", writes, writeEntries)
	}
	if refJoins != len(referenceJoin) || naive != len(referenceNaive) {
		t.Errorf("found %d of the reference's join functions %v and %d of %v", refJoins, referenceJoin, naive, referenceNaive)
	}
	if len(spillOwners) != 1 {
		t.Errorf("types with a spilled field: %v; exactly one operator implements the hash join", spillOwners)
	}
	if modeLines > 12 {
		t.Errorf("%d source lines mention noCompile/streamOff; the seam allows 12", modeLines)
	}
}

// TestLockedRegionsPullNothing: the functions taking db.mu are exactly
// lockedEntries, each defers its Unlock right after the Lock, and none
// mentions a batch pull.
func TestLockedRegionsPullNothing(t *testing.T) {
	var lockers []string
	for _, sf := range packageFuncs(t) {
		if !takesDBMu(t, sf.fd) {
			continue
		}
		lockers = append(lockers, sf.name)
		for id := range sf.used {
			if id == "Next" || id == "Collect" || strings.HasPrefix(id, "pull") {
				t.Errorf("%s: %s holds db.mu and mentions %s", sf.file, sf.name, id)
			}
		}
	}
	slices.Sort(lockers)
	if !slices.Equal(lockers, lockedEntries) {
		t.Errorf("functions taking db.mu: %v, want %v", lockers, lockedEntries)
	}
}

// TestOperatorNextPolls: every operator's Next polls ex.cancelled() or pulls
// a child's Next, so a cancelled statement stops within one batch.
func TestOperatorNextPolls(t *testing.T) {
	nexts := 0
	for _, sf := range packageFuncs(t) {
		if !isOperatorNext(sf.fd) {
			continue
		}
		nexts++
		if !sf.used["cancelled"] && !callsNext(sf.fd.Body) {
			t.Errorf("%s: %s neither polls ex.cancelled() nor pulls a child's Next", sf.file, sf.name)
		}
	}
	if nexts == 0 {
		t.Error("no Operator.Next(ex *exec) found")
	}
}

// TestSpillFileSeam: spill temp files are created only through the
// registered seam (spillSeamFuncs).
func TestSpillFileSeam(t *testing.T) {
	for _, sf := range packageFuncs(t) {
		checkSeam(t, spillSeamFuncs, sf)
	}
}

// takesDBMu reports whether fd locks db.mu (or t.db.mu, ex.db.mu), failing
// the test unless the statement right after the Lock defers its Unlock.
func takesDBMu(t *testing.T, fd *ast.FuncDecl) bool {
	locks := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		blk, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, st := range blk.List {
			es, _ := st.(*ast.ExprStmt)
			if es == nil || !strings.HasSuffix(types.ExprString(es.X), "db.mu.Lock()") {
				continue
			}
			locks = true
			unlock := strings.TrimSuffix(types.ExprString(es.X), "Lock()") + "Unlock()"
			var next ast.Stmt
			if i+1 < len(blk.List) {
				next = blk.List[i+1]
			}
			if d, ok := next.(*ast.DeferStmt); !ok || types.ExprString(d.Call) != unlock {
				t.Errorf("%s: %s is not followed by defer %s", funcName(fd), types.ExprString(es.X), unlock)
			}
		}
		return true
	})
	return locks
}

// isOperatorNext reports whether fd is an Operator's Next(ex *exec).
func isOperatorNext(fd *ast.FuncDecl) bool {
	p := fd.Type.Params.List
	return fd.Recv != nil && fd.Name.Name == "Next" && len(p) == 1 && types.ExprString(p[0].Type) == "*exec"
}

// callsEval reports whether fd calls a method named eval: the interpreter.
func callsEval(fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "eval" {
				found = true
			}
		}
		return !found
	})
	return found
}

// whereCallee names the first function fd passes a statement's WHERE (a
// .Where selector in an argument) to other than writeRows, or "".
func whereCallee(fd *ast.FuncDecl) string {
	callee := ""
	ast.Inspect(fd, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || callee != "" {
			return callee == ""
		}
		name := types.ExprString(call.Fun)
		for _, arg := range call.Args {
			ast.Inspect(arg, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Where" && !strings.HasSuffix(name, ".writeRows") {
					callee = name
				}
				return callee == ""
			})
		}
		return callee == ""
	})
	return callee
}

func callsNext(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Next" {
			found = true
		}
		return !found
	})
	return found
}
