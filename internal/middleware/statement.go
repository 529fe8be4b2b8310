package middleware

import (
	"fmt"

	"mtbase/internal/sqlast"
	"mtbase/internal/sqlparse"
)

// Statement is one MTSQL statement as every tier carries it (DESIGN.md
// ADR-020): the parsed AST together with its text, its table set and its bind
// arity, each computed once. Only Parse and NewStatement make one, so the
// text is always the text of this AST — it is what keys the statement cache,
// what the WAL logs and what a prepared handle reports. A Statement is
// immutable and shared: the cache hands one value to every session that sends
// the same text, and no tier modifies the AST.
type Statement struct {
	ast      sqlast.Statement
	text     string
	tables   sqlast.TableSet
	nParams  int
	prepared bool // made by Prepare: its compiled forms are worth keeping
}

// Parse parses one client statement.
func Parse(text string) (*Statement, error) {
	ast, err := sqlparse.ParseStatement(text)
	if err != nil {
		return nil, err
	}
	return newStatement(ast, text), nil
}

// NewStatement wraps a statement a tier built itself (a shard partial, a
// staged outer statement); its text is what the AST serializes to.
func NewStatement(ast sqlast.Statement) *Statement { return newStatement(ast, ast.String()) }

func newStatement(ast sqlast.Statement, text string) *Statement {
	return &Statement{ast: ast, text: text, tables: sqlast.Tables(ast), nParams: sqlast.MaxParam(ast)}
}

// AST returns the parsed statement. It is shared and must not be modified.
func (s *Statement) AST() sqlast.Statement { return s.ast }

// Text returns the statement's SQL text.
func (s *Statement) Text() string { return s.text }

// Tables returns the statement's table set (sqlast.Tables), which privilege
// pruning and shard routing go by.
func (s *Statement) Tables() sqlast.TableSet { return s.tables }

// NumParams returns the number of bind parameters the statement expects.
func (s *Statement) NumParams() int { return s.nParams }

// IsQuery reports whether the statement is a SELECT.
func (s *Statement) IsQuery() bool {
	_, ok := s.ast.(*sqlast.Select)
	return ok
}

// Select returns the statement as a query, rejecting everything else.
func (s *Statement) Select() (*sqlast.Select, error) {
	sel, ok := s.ast.(*sqlast.Select)
	if !ok {
		return nil, fmt.Errorf("middleware: not a query: %T (use Exec for DML/DDL)", s.ast)
	}
	return sel, nil
}

// Prepared reports whether the statement was made by Prepare: a tier keeps
// what it compiles or registers for it, since it will run again.
func (s *Statement) Prepared() bool { return s.prepared }

// asPrepared returns the statement marked as prepared — a copy, because the
// receiver may already be shared through the cache.
func (s *Statement) asPrepared() *Statement {
	if s.prepared {
		return s
	}
	cp := *s
	cp.prepared = true
	return &cp
}
