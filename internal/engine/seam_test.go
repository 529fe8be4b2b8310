package engine

// TestModeSeam pins the shape DESIGN.md ADR-010 describes, by reading the
// package's own source: the execution configuration is decided in one place
// per layer and nowhere else, and the reference executor shares no batch
// program, compiled closure or parallel section with the operator tree it is
// the oracle for.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
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
	"interp":    {"DB.newExec", "exec.workerClone", "exec.vecCompile", "exec.planUDF"},
	"reference": {"DB.newExec", "exec.runQuery", "DB.queryRowsUnlock"},
}

// referenceForbidden lists what no function of exec.go may mention: the
// batch and kernel vocabulary of the production path.
var referenceForbidden = []string{
	"Batch", "vecExpr", "vecKeySet", "vecCompile", "vecKeys", "vecAggArgs",
	"compiledExpr", "compile", "filterOp", "scanOp", "rowChunk", "newRowChunk",
	"parallelFor", "parallelSortIdx", "parallelJoinKeys", "parallelAggColumn",
}

// deletedTwins are the interpreter (and compiled-reference) twins this
// design removed, and the left outer join's copy of the hash join ADR-014
// merged into joinOperator; they must not come back under the same names.
// (The reference's local residual closure in leftOuterJoin is not a twin.)
var deletedTwins = []string{
	"applyInterp", "projectInterp", "projectRowsBatched",
	"leftOuterOperator", "newLeftOuterPipe", "gracePartitionProbe", "louter",
}

// closureFree are the files that hold expressions only as batch programs:
// the row-closure compiler (cenv.compile, compiledExpr) is reached through
// vecCompile's lift and the UDF body projection, never from an operator or
// a DML statement.
var closureFree = []string{"operator.go", "gracejoin.go", "db.go"}

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
	var graceOwners []string
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
			if slices.Contains(closureFree, name) && (used["compiledExpr"] || used["compile"]) {
				t.Errorf("%s: %s mentions the row-closure compiler; operators and DML hold batch programs only", name, fn)
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
	if len(graceOwners) != 1 {
		t.Errorf("types with a grace field: %v; exactly one operator implements the hash join", graceOwners)
	}
	if modeLines > 12 {
		t.Errorf("%d source lines mention noCompile/streamOff; the seam allows 12", modeLines)
	}
}
