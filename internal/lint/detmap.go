package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetMap guards the byte-identity guarantee: inside the engine (any
// package that declares the Operator interface — the engine itself and the
// test fixtures) and inside every package whose output is SQL text or
// result order (detMapPackages), iterating a map in an order-sensitive way
// is forbidden, because Go randomizes map iteration order and the
// differential suites (ADR-005/006) require byte-identical output across
// runs, execution configurations, parallelism settings and memory budgets —
// and a rewrite that serializes differently per call defeats the engine's
// plan cache. A `range m` loop is flagged
// when its body leaks iteration order into state that survives the loop:
// appending to an outer slice, folding into an outer float or string
// accumulator (float addition is not associative; string concat is not
// commutative), writing to an io writer, or sending on a channel. Loops
// that only delete, count, fold integers, or populate another map are
// order-insensitive and pass. Sites that sort the collected keys
// afterwards are still flagged — the sortedness lives outside the loop
// where the analyzer cannot see it — and carry a //mtlint:ignore with the
// justification, which is exactly the review trail ADR-007 wants.
var DetMap = &Analyzer{
	Name: "detmap",
	Doc: "report order-sensitive `range` over a map in engine, rewrite and routing code; map " +
		"order is randomized and would break byte-identical differential guarantees",
	Run: runDetMap,
}

// detMapPackages names the packages outside the engine that produce SQL
// text (sqlast, rewrite, optimizer, middleware) or merged result order
// (shard).
var detMapPackages = map[string]bool{
	"sqlast": true, "rewrite": true, "optimizer": true, "middleware": true, "shard": true,
}

func runDetMap(pass *Pass) error {
	if namedInterface(pass.Pkg, "Operator") == nil && !detMapPackages[pass.Pkg.Name()] {
		return nil
	}
	funcDecls(pass, func(fn *ast.FuncDecl) {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.Info.Types[rng.X].Type
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if sink := orderSink(pass, rng); sink != "" {
				pass.Reportf(rng.Pos(),
					"range over map leaks iteration order (%s); map order is randomized — iterate a sorted key slice or make the fold order-insensitive",
					sink)
			}
			return true
		})
	})
	return nil
}

// orderSink returns a description of the first order-sensitive sink in the
// loop body, or "" when the body is order-insensitive.
func orderSink(pass *Pass, rng *ast.RangeStmt) string {
	sink := ""
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sink != "" {
			return false
		}
		switch st := n.(type) {
		case *ast.SendStmt:
			sink = "channel send"
		case *ast.AssignStmt:
			for i, rhs := range st.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinAppend(pass, call) {
					continue
				}
				lhs := st.Lhs[0]
				if i < len(st.Lhs) {
					lhs = st.Lhs[i]
				}
				if outerTarget(pass, rng, lhs) {
					sink = "append to outer slice"
					return false
				}
			}
			// Compound folds: x += v with float/string element types.
			if len(st.Lhs) == 1 && st.Tok != token.ASSIGN && st.Tok != token.DEFINE && outerTarget(pass, rng, st.Lhs[0]) {
				if t := pass.Info.Types[st.Lhs[0]].Type; t != nil {
					b, isBasic := t.Underlying().(*types.Basic)
					if isBasic && b.Info()&(types.IsFloat|types.IsComplex|types.IsString) != 0 {
						sink = "order-dependent fold into " + types.ExprString(st.Lhs[0])
						return false
					}
				}
			}
		case *ast.CallExpr:
			if _, name := methodCall(st); name == "Write" || name == "WriteString" || name == "WriteByte" || name == "write" {
				sink = "write to an output stream"
				return false
			}
		}
		return true
	})
	return sink
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	_, isBuiltin := pass.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// outerTarget reports whether the assignment target's root variable is
// declared outside the range body — mutation of it survives the loop.
func outerTarget(pass *Pass, rng *ast.RangeStmt, lhs ast.Expr) bool {
	id := rootIdent(lhs)
	if id == nil {
		return false
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		obj = pass.Info.Defs[id]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() < rng.Body.Pos() || obj.Pos() > rng.Body.End()
}
