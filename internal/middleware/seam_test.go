package middleware

// TestSessionSeam pins the shape DESIGN.md ADR-013 and ADR-020 describe, by
// reading the repository's own source (benchmark/ and test files excluded):
// the session shape is declared once, the prepared statement is implemented
// once per transport, the packages that merely use sessions declare no
// session-shaped interface of their own — and a statement is one value,
// parsed in one place, compiled in one place, cached in one place, and handed
// to the DBMS as the statement the rewrite built (ADR-027).

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// stmtMethods is the prepared statement's method set.
var stmtMethods = []string{
	"NumParams", "SQL", "IsQuery", "Close",
	"Query", "QueryContext", "QueryResult", "Exec", "ExecContext",
}

// sessionUsers are the packages that run statements on a session without
// being a tier; only mtsh's transport-level backend may declare an
// interface with Exec there.
var sessionUsers = []string{"internal/server", "internal/mth", "internal/bench", "cmd/mtsh"}

// eachSourceFile parses every non-test Go file of the repository outside
// benchmark/, testdata and dot directories, and hands it over with its
// slash-separated path relative to the root.
func eachSourceFile(t *testing.T, visit func(rel string, f *ast.File)) {
	t.Helper()
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if d.IsDir() {
			if rel == "benchmark" || d.Name() == "testdata" || (strings.HasPrefix(d.Name(), ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		visit(rel, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// statementTiers are the packages a client statement travels through as a
// *middleware.Statement.
var statementTiers = []string{"internal/middleware", "internal/shard", "internal/server"}

// qualified returns "pkg.Name" for the selector expression pkg.Name, else "".
func qualified(e ast.Expr) string {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if pkg, ok := sel.X.(*ast.Ident); ok {
			return pkg.Name + "." + sel.Sel.Name
		}
	}
	return ""
}

func TestSessionSeam(t *testing.T) {
	var sessionFiles []string        // files declaring an interface with Prepare and QueryContext
	methods := map[string][]string{} // "dir.Type" -> method names
	calls := map[string][]string{}   // "dir pkg.Func" -> enclosing functions, per call site
	cacheFields := 0                 // statement-cache fields of middleware.Server
	var textPlans []string           // statement-tier functions handing the engine text
	eachSourceFile(t, func(rel string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(rel))
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Recv != nil {
				recv := fd.Recv.List[0].Type
				if st, ok := recv.(*ast.StarExpr); ok {
					recv = st.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					methods[dir+"."+id.Name] = append(methods[dir+"."+id.Name], fd.Name.Name)
				}
			}
			if !slices.Contains(statementTiers, dir) {
				continue
			}
			// The one invariant of a statement — this text is the text of this
			// AST — is held by middleware.Statement, whose constructor alone
			// sees the two side by side.
			var hasAST, hasText bool
			for _, p := range fd.Type.Params.List {
				hasAST = hasAST || qualified(p.Type) == "sqlast.Statement" || sqlastType(p.Type) == "Select"
				if id, ok := p.Type.(*ast.Ident); ok && id.Name == "string" {
					hasText = true
				}
			}
			if hasAST && hasText && !(dir == "internal/middleware" && fd.Name.Name == "newStatement") {
				t.Errorf("%s: %s takes a parsed statement and a string; carry the pair as a *middleware.Statement", rel, fd.Name.Name)
			}
			if fd.Body != nil {
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						if q := qualified(call.Fun); q != "" {
							calls[dir+" "+q] = append(calls[dir+" "+q], fd.Name.Name)
						}
						if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "PreparePlan" {
							textPlans = append(textPlans, rel+": "+fd.Name.Name)
						}
					}
					return true
				})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			if st, ok := ts.Type.(*ast.StructType); ok && dir == "internal/middleware" && ts.Name.Name == "Server" {
				for _, fld := range st.Fields.List {
					if id, ok := fld.Type.(*ast.Ident); ok && id.Name == "stmtCache" {
						cacheFields += len(fld.Names)
						continue
					}
					for _, name := range fld.Names {
						if strings.Contains(strings.ToLower(name.Name), "cache") {
							t.Errorf("%s: Server.%s is a second statement cache", rel, name.Name)
						}
					}
				}
			}
			it, ok := ts.Type.(*ast.InterfaceType)
			if !ok {
				return true
			}
			var names []string
			for _, m := range it.Methods.List {
				for _, id := range m.Names {
					names = append(names, id.Name)
				}
			}
			if slices.Contains(names, "Prepare") && slices.Contains(names, "QueryContext") {
				sessionFiles = append(sessionFiles, rel)
			}
			hasExec := slices.Contains(names, "Exec") || slices.Contains(names, "ExecContext")
			if hasExec && slices.Contains(sessionUsers, dir) && !(dir == "cmd/mtsh" && ts.Name.Name == "backend") {
				t.Errorf("%s: interface %s declares Exec/ExecContext; use middleware.Session", rel, ts.Name.Name)
			}
			return true
		})
	})
	if want := []string{"internal/middleware/session.go"}; !slices.Equal(sessionFiles, want) {
		t.Errorf("interfaces with Prepare and QueryContext are declared in %v; the session shape belongs to %v alone", sessionFiles, want)
	}
	for typ, names := range methods {
		full := true
		for _, m := range stmtMethods {
			full = full && slices.Contains(names, m)
		}
		if full && typ != "internal/middleware.Stmt" && typ != "internal/client.Stmt" {
			t.Errorf("%s has the prepared-statement method set; only middleware.Stmt (in process) and client.Stmt (wire) implement it", typ)
		}
	}
	for _, typ := range []string{"internal/middleware.Stmt", "internal/client.Stmt"} {
		for _, m := range stmtMethods {
			if !slices.Contains(methods[typ], m) {
				t.Errorf("%s lost %s: the two prepared statements must keep one method set", typ, m)
			}
		}
	}

	// One compile: the rewrite step is the only way into the rewrite's and the
	// optimizer's statement entry points.
	for _, fn := range []string{"rewrite.Query", "rewrite.Insert", "rewrite.Update", "rewrite.Delete", "optimizer.Optimize"} {
		if sites := calls["internal/middleware "+fn]; !slices.Equal(sites, []string{"rewritten"}) {
			t.Errorf("internal/middleware calls %s from %v; the rewrite step (rewritten) is its one caller", fn, sites)
		}
	}
	// One parse: text becomes a statement in middleware.Parse. Neither the
	// server nor the coordinator holds a parser, and nothing reparses what the
	// rewrite built: the DBMS is handed the statement (PrepareStatement,
	// QueryWith), whose text parses back to it (mth.TestRewriteDeterministic).
	parsers := map[string][]string{}
	for key, sites := range calls {
		dir, fn, _ := strings.Cut(key, " ")
		if strings.HasPrefix(fn, "sqlparse.Parse") && slices.Contains(statementTiers, dir) {
			parsers[dir] = append(parsers[dir], sites...)
		}
	}
	want := map[string][]string{"internal/middleware": {"Parse"}}
	for _, dir := range statementTiers {
		if !slices.Equal(parsers[dir], want[dir]) {
			t.Errorf("%s parses SQL text in %v, want %v", dir, parsers[dir], want[dir])
		}
	}
	if len(textPlans) > 0 {
		t.Errorf("statement tiers hand the engine text to parse again: %v", textPlans)
	}
	if cacheFields != 1 {
		t.Errorf("middleware.Server has %d stmtCache fields, want the one statement cache", cacheFields)
	}
}

// TestWalkerSeam pins DESIGN.md ADR-017 the same way: where a statement
// holds expressions and blocks is written in internal/sqlast/walk.go alone.
// The hand-written traversals that used to repeat it are gone by name, and
// the table set privilege pruning and shard routing go by is computed by the
// walker, not by a type switch of this package's own.
func TestWalkerSeam(t *testing.T) {
	gone := []string{"selectLevelExprs", "visitExprSubs", "visitSelDeps", "visitTEDeps", "statementSelects", "eachSelect", "visitOns", "visitTE"}
	sawTables := false
	eachSourceFile(t, func(rel string, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && slices.Contains(gone, id.Name) {
				t.Errorf("%s: %s is back; enumerate slots and blocks through internal/sqlast/walk.go", rel, id.Name)
			}
			fd, ok := n.(*ast.FuncDecl)
			if !ok || !strings.EqualFold(fd.Name.Name, "tenantSpecificTables") {
				return true
			}
			sawTables = true
			ast.Inspect(fd.Body, func(m ast.Node) bool {
				if _, isSwitch := m.(*ast.TypeSwitchStmt); isSwitch {
					t.Errorf("%s: %s walks the statement itself; it must take sqlast.Tables' answer", rel, fd.Name.Name)
				}
				return true
			})
			return true
		})
	})
	if !sawTables {
		t.Error("middleware.TenantSpecificTables is gone; benchmark/ compiles against it")
	}
}

// knowsNodes: the packages that may enumerate AST node types — the AST's own
// package and the engine, which evaluates every node.
func knowsNodes(rel string) bool {
	return strings.HasPrefix(rel, "internal/sqlast/") || strings.HasPrefix(rel, "internal/engine/")
}

// sqlastType returns X for the type expression *sqlast.X, else "".
func sqlastType(e ast.Expr) string {
	if st, ok := e.(*ast.StarExpr); ok {
		if sel, ok := st.X.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "sqlast" {
				return sel.Sel.Name
			}
		}
	}
	return ""
}

// TestSplitSeam pins DESIGN.md ADR-018: how an MTSQL column reference
// resolves and which predicates tie bindings by ttid is internal/rewrite's
// (Resolver, Links), how an aggregating block splits into a partial and a
// combine is internal/optimizer's (split.go), and the shard coordinator, which
// needs both, holds a copy of neither.
func TestSplitSeam(t *testing.T) {
	gone := map[string][]string{
		"internal/shard":     {"rtScope", "rtBinding", "rebuildScope", "outputColumnSet", "substituteExpr", "specificBinding", "outputNames", "outputNameOf"},
		"internal/optimizer": {"topDownReplace", "isAggregateName", "outputExprs"},
		"internal/rewrite":   {"buildResolver", "outputColumns"},
		"internal/engine":    {"aggregateNames", "appendSpillValue", "readSpillValue"},
	}
	var folds []string // functions spelling COUNT's or AVG's conversion-free fold
	eachSourceFile(t, func(rel string, f *ast.File) {
		dir := filepath.ToSlash(filepath.Dir(rel))
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || dir != "internal/shard" {
						continue
					}
					if name := strings.ToLower(ts.Name.Name); strings.Contains(name, "scope") || strings.Contains(name, "binding") || strings.Contains(name, "resolver") {
						t.Errorf("%s declares type %s; a column reference resolves through rewrite.Resolver", rel, ts.Name.Name)
					}
				}
			case *ast.FuncDecl:
				if dir == "internal/shard" && strings.EqualFold(d.Name.Name, "resolve") {
					t.Errorf("%s declares %s; a column reference resolves through rewrite.Resolver", rel, d.Name.Name)
				}
				if dir == "internal/rewrite" && slices.Contains([]string{"Links", "inLink", "extendTenantSpecificIn"}, d.Name.Name) {
					checkReadOnlyLinks(t, rel, d)
				}
				if slices.Contains([]string{"NewResolver", "Links", "SplitAggregates", "collectAggregates", "build"}, d.Name.Name) &&
					(dir == "internal/rewrite" || dir == "internal/optimizer") {
					for _, p := range d.Type.Params.List {
						if id, ok := p.Type.(*ast.Ident); ok && id.Name == "bool" {
							t.Errorf("%s: %s takes a flag; a caller's difference is a function or value it passes", rel, d.Name.Name)
						}
					}
				}
				if d.Body != nil && !knowsNodes(rel) && dir != "internal/sqlparse" {
					ast.Inspect(d.Body, func(n ast.Node) bool {
						if lit, ok := n.(*ast.BasicLit); ok && (lit.Value == `"COALESCE"` || lit.Value == `"CAST_DECIMAL"`) {
							if name := dir + "." + d.Name.Name; !slices.Contains(folds, name) {
								folds = append(folds, name)
							}
						}
						return true
					})
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && slices.Contains(gone[dir], id.Name) {
				t.Errorf("%s: %s is back (ADR-018)", rel, id.Name)
			}
			// A switch over expression node types that names SubstringExpr is a
			// hand-enumerated expression walk: those are WalkExpr,
			// TransformExpr and ReplaceExpr.
			if cc, ok := n.(*ast.CaseClause); ok && !knowsNodes(rel) {
				for _, e := range cc.List {
					if sqlastType(e) == "SubstringExpr" {
						t.Errorf("%s enumerates expression node types by hand; walk expressions through internal/sqlast/walk.go", rel)
					}
				}
			}
			return true
		})
	})
	if want := []string{"internal/optimizer.plainFold"}; !slices.Equal(folds, want) {
		t.Errorf("the conversion-free COUNT/AVG fold is spelled in %v, want %v alone", folds, want)
	}
}

// checkReadOnlyLinks: resolving an IN-subquery's item must not rewrite what is
// under it — the scope it builds hands derived tables to nobody, and nothing
// here names the rewrite's entry points.
func checkReadOnlyLinks(t *testing.T, rel string, d *ast.FuncDecl) {
	ast.Inspect(d.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if slices.Contains([]string{"rewriteQuery", "rewriteSubqueriesIn", "rewriteBoolExpr", "Query"}, x.Name) {
				t.Errorf("%s: %s reaches %s; the link analysis is read-only", rel, d.Name.Name, x.Name)
			}
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "NewResolver" {
				if last, ok := x.Args[len(x.Args)-1].(*ast.Ident); !ok || last.Name != "nil" {
					t.Errorf("%s: %s builds a scope that visits derived tables; pass nil", rel, d.Name.Name)
				}
			}
		}
		return true
	})
}
