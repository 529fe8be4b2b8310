package sqlparse_test

// FuzzParse is the native fuzzer of the SQL text boundary (ROADMAP item 1(a)).
// Two properties, both load-bearing because text is what enters the engine
// (DESIGN.md ADR-020: middleware.compile serializes, engine.PreparePlan
// parses) and what the shard fallback reparses:
//
//   - ParseStatement never panics, whatever the bytes;
//   - whatever parses prints to a text that parses again to the same
//     statement as an AST (sqlast.EqualStatement) — so the statement the engine
//     lowers is the statement the optimizer produced, not merely one that
//     prints like it.
//
// The corpus is every string literal of parser_test.go, MT-H Q1–Q22 and their
// rewritten text at all six optimization levels.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"mtbase/internal/engine"
	"mtbase/internal/mth"
	"mtbase/internal/optimizer"
	"mtbase/internal/sqlast"
	"mtbase/internal/sqlparse"
)

func FuzzParse(f *testing.F) {
	src, err := parser.ParseFile(token.NewFileSet(), "parser_test.go", nil, 0)
	if err != nil {
		f.Fatal(err)
	}
	ast.Inspect(src, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil {
				f.Add(s)
			}
		}
		return true
	})
	inst, err := mth.BuildMT(mth.Config{SF: 0.001, Tenants: 3, Dist: mth.Uniform, Seed: 1, Mode: engine.ModePostgres})
	if err != nil {
		f.Fatal(err)
	}
	conn, err := inst.Connect(1, "IN (1, 2)")
	if err != nil {
		f.Fatal(err)
	}
	for _, q := range mth.Queries(0.001) {
		for _, text := range append(append([]string{q.SQL}, q.Setup...), q.Teardown...) {
			f.Add(text)
		}
		for _, level := range optimizer.Levels {
			conn.SetOptLevel(level)
			for _, ddl := range q.Setup {
				if _, err := conn.Exec(ddl); err != nil {
					f.Fatalf("Q%d setup at %s: %v", q.ID, level, err)
				}
			}
			rewritten, err := conn.RewriteSQL(q.SQL)
			if err != nil {
				f.Fatalf("Q%d at %s: %v", q.ID, level, err)
			}
			f.Add(rewritten.String())
			for _, ddl := range q.Teardown {
				if _, err := conn.Exec(ddl); err != nil {
					f.Fatalf("Q%d teardown at %s: %v", q.ID, level, err)
				}
			}
		}
	}
	// What earlier findings looked like: quoted function names, names holding
	// a quote, string literals inside a CREATE FUNCTION body.
	for _, s := range []string{
		`SELECT "my fn"(1), "select"(x) FROM t`,
		`SELECT "a""b" AS "c""d" FROM "e""f"`,
		`CREATE FUNCTION f (VARCHAR(8)) RETURNS VARCHAR(8) AS 'SELECT CONCAT(''it''''s'', $1)' LANGUAGE SQL IMMUTABLE`,
	} {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, text string) {
		stmt, err := sqlparse.ParseStatement(text)
		if err != nil {
			return
		}
		s1 := stmt.String()
		again, err := sqlparse.ParseStatement(s1)
		if err != nil {
			t.Fatalf("%q parses, but what it prints does not: %v\n%s", text, err, s1)
		}
		if !sqlast.EqualStatement(stmt, again) {
			t.Fatalf("%q prints a text that parses to a different statement:\n first: %s\nsecond: %s", text, s1, again)
		}
	})
}
