package engine

// TestModeSeam pins the shape DESIGN.md ADR-010 describes, by reading the
// package's own source: the execution configuration is decided in one place
// per layer and nowhere else, the reference executor shares no batch
// program or parallel section with the operator tree it is the oracle for,
// and (ADR-016) the batch kernels are the only compiled form of an
// expression, with the interpreter their only fallback.

import (
	"go/ast"
	"go/parser"
	"go/token"
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

// referenceForbidden lists what no function of exec.go may mention: the
// batch and kernel vocabulary of the production path.
var referenceForbidden = []string{
	"Batch", "vecExpr", "vecKeySet", "vecCompile", "vecCompileAll", "vecKeys", "groupProgs", "aggInput",
	"sharedExprs", "exprSlots",
	"compile", "filterOp", "scanOp", "rowChunk", "newRowChunk",
	"parallelFor", "parallelSortIdx", "parallelJoinKeys",
}

// deletedTwins are the interpreter (and compiled-reference) twins this
// design removed, the left outer join's copy of the hash join ADR-014
// merged into joinOperator, and the row-closure compiler ADR-016 deleted
// (its type, its environment, and the function names only that tier used —
// venv keeps its own compileBinary, compileCase, …); they must not come back
// under the same names. (The reference's local residual closure in
// leftOuterJoin is not a twin.)
var deletedTwins = []string{
	"applyInterp", "projectInterp", "projectRowsBatched",
	"leftOuterOperator", "newLeftOuterPipe", "gracePartitionProbe", "louter",
	"compiledExpr", "cenv", "compileArith", "compileOneArg", "compileArgs", "udfSite",
}

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

func TestModeSeam(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	modeLines := 0
	var graceOwners, liftCallers []string
	fallsBackToInterp := false
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(src), "\n") {
			if strings.Contains(line, "noCompile") || strings.Contains(line, "streamOff") {
				modeLines++
			}
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				// Type declarations: filterOp must not regrow its expression
				// twin, and one operator owns the Grace hash join.
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
							if id.Name == "grace" {
								graceOwners = append(graceOwners, ts.Name.Name)
							}
						}
					}
					return false
				})
				continue
			}
			fn := funcName(fd)
			used := map[string]bool{}
			ast.Inspect(fd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					used[id.Name] = true
				}
				return true
			})
			for id, allowed := range seamFuncs {
				if used[id] && !slices.Contains(allowed, fn) {
					t.Errorf("%s: %s mentions %s; only %v may", name, fn, id, allowed)
				}
			}
			for _, id := range deletedTwins {
				if used[id] {
					t.Errorf("%s: %s mentions deleted twin %s", name, fn, id)
				}
			}
			if used["liftInterp"] && fn != "liftInterp" {
				liftCallers = append(liftCallers, fn)
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
	if !fallsBackToInterp {
		t.Error("venv.lower does not end in `return liftInterp(...)`: lowering is a kernel or the lifted interpreter, nothing in between")
	}
	if len(graceOwners) != 1 {
		t.Errorf("types with a grace field: %v; exactly one operator implements the hash join", graceOwners)
	}
	if modeLines > 12 {
		t.Errorf("%d source lines mention noCompile/streamOff; the seam allows 12", modeLines)
	}
}
