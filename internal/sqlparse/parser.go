// Package sqlparse parses the SQL dialect used by MTBase into sqlast trees.
// It covers everything the 22 TPC-H / MT-H queries need (joins, derived
// tables, correlated subqueries, CASE, LIKE, EXTRACT, SUBSTRING, INTERVAL
// arithmetic, aggregates with DISTINCT, GROUP BY/HAVING/ORDER BY/LIMIT)
// plus the MTSQL extensions: CREATE TABLE with generality/comparability,
// conversion-function annotations, CREATE FUNCTION, SET SCOPE and the
// MT-aware GRANT/REVOKE.
package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"mtbase/internal/sqlast"
	"mtbase/internal/sqllex"
	"mtbase/internal/sqltypes"
)

// Parser consumes a token stream.
type Parser struct {
	toks []sqllex.Token
	pos  int
	// nextOrdinal numbers anonymous `?` placeholders left to right; they
	// share the $n parameter space (don't mix the two spellings in one
	// statement unless the $n indices deliberately alias `?` slots).
	nextOrdinal int
}

// New returns a parser over src.
func New(src string) (*Parser, error) {
	toks, err := sqllex.Tokenize(src)
	if err != nil {
		return nil, err
	}
	return &Parser{toks: toks}, nil
}

// ParseStatement parses a single statement from src.
func ParseStatement(src string) (sqlast.Statement, error) {
	p, err := New(src)
	if err != nil {
		return nil, err
	}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.eatOp(";")
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %s", p.peek())
	}
	return stmt, nil
}

// ParseStatements parses a ;-separated script.
func ParseStatements(src string) ([]sqlast.Statement, error) {
	p, err := New(src)
	if err != nil {
		return nil, err
	}
	var stmts []sqlast.Statement
	for !p.atEOF() {
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if !p.eatOp(";") && !p.atEOF() {
			return nil, p.errorf("expected ';' between statements, got %s", p.peek())
		}
	}
	return stmts, nil
}

// ParseQuery parses a single SELECT.
func ParseQuery(src string) (*sqlast.Select, error) {
	stmt, err := ParseStatement(src)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlast.Select)
	if !ok {
		return nil, fmt.Errorf("sqlparse: not a query: %T", stmt)
	}
	return sel, nil
}

// ParseExpr parses a standalone expression (used in tests and for CHECK
// constraint bodies stored as text).
func ParseExpr(src string) (sqlast.Expr, error) {
	p, err := New(src)
	if err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.atEOF() {
		return nil, p.errorf("unexpected trailing input %s", p.peek())
	}
	return e, nil
}

// ---------------------------------------------------------------- helpers

func (p *Parser) peek() sqllex.Token { return p.toks[p.pos] }
func (p *Parser) next() sqllex.Token { t := p.toks[p.pos]; p.pos++; return t }
func (p *Parser) atEOF() bool        { return p.peek().Kind == sqllex.TokEOF }
func (p *Parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sqlparse: "+format, args...)
}

func (p *Parser) isKeyword(words ...string) bool {
	t := p.peek()
	if t.Kind != sqllex.TokKeyword {
		return false
	}
	for _, w := range words {
		if t.Text == w {
			return true
		}
	}
	return false
}

func (p *Parser) eatKeyword(word string) bool {
	if p.isKeyword(word) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectKeyword(word string) error {
	if !p.eatKeyword(word) {
		return p.errorf("expected %s, got %s", word, p.peek())
	}
	return nil
}

func (p *Parser) isOp(op string) bool {
	t := p.peek()
	return t.Kind == sqllex.TokOp && t.Text == op
}

func (p *Parser) eatOp(op string) bool {
	if p.isOp(op) {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) expectOp(op string) error {
	if !p.eatOp(op) {
		return p.errorf("expected %q, got %s", op, p.peek())
	}
	return nil
}

func (p *Parser) expectIdent() (string, error) {
	t := p.peek()
	if t.Kind != sqllex.TokIdent {
		return "", p.errorf("expected identifier, got %s", t)
	}
	p.pos++
	return t.Text, nil
}

// identLike accepts identifiers and non-reserved-looking keywords used as
// names (e.g. a column named "year" would lex as keyword YEAR).
func (p *Parser) identLike() (string, bool) {
	t := p.peek()
	if t.Kind == sqllex.TokIdent {
		p.pos++
		return t.Text, true
	}
	return "", false
}

// ---------------------------------------------------------------- statements

func (p *Parser) parseStatement() (sqlast.Statement, error) {
	p.nextOrdinal = 0 // `?` slots are numbered per statement
	switch {
	case p.isKeyword("SELECT"):
		return p.parseSelect()
	case p.isKeyword("CREATE"):
		return p.parseCreate()
	case p.isKeyword("DROP"):
		return p.parseDrop()
	case p.isKeyword("INSERT"):
		return p.parseInsert()
	case p.isKeyword("UPDATE"):
		return p.parseUpdate()
	case p.isKeyword("DELETE"):
		return p.parseDelete()
	case p.isKeyword("GRANT"):
		return p.parseGrant()
	case p.isKeyword("REVOKE"):
		return p.parseRevoke()
	case p.isKeyword("SET"):
		return p.parseSetScope()
	}
	return nil, p.errorf("unexpected start of statement: %s", p.peek())
}

// ---------------------------------------------------------------- SELECT

func (p *Parser) parseSelect() (*sqlast.Select, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := sqlast.NewSelect()
	if p.eatKeyword("DISTINCT") {
		sel.Distinct = true
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.eatOp(",") {
			break
		}
	}
	if p.eatKeyword("FROM") {
		for {
			t, err := p.parseTableExpr()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, t)
			if !p.eatOp(",") {
				break
			}
		}
	}
	if p.eatKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.eatKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, g)
			if !p.eatOp(",") {
				break
			}
		}
	}
	if p.eatKeyword("HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	if p.eatKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := sqlast.OrderItem{Expr: e}
			if p.eatKeyword("DESC") {
				item.Desc = true
			} else {
				p.eatKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.eatOp(",") {
				break
			}
		}
	}
	if p.eatKeyword("LIMIT") {
		t := p.peek()
		if t.Kind != sqllex.TokNumber {
			return nil, p.errorf("expected LIMIT count, got %s", t)
		}
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad LIMIT %q", t.Text)
		}
		p.pos++
		sel.Limit = n
	}
	return sel, nil
}

func (p *Parser) parseSelectItem() (sqlast.SelectItem, error) {
	if p.eatOp("*") {
		return sqlast.SelectItem{Star: true}, nil
	}
	// t.* form: ident '.' '*'
	if p.peek().Kind == sqllex.TokIdent && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].Kind == sqllex.TokOp && p.toks[p.pos+1].Text == "." &&
		p.toks[p.pos+2].Kind == sqllex.TokOp && p.toks[p.pos+2].Text == "*" {
		name := p.next().Text
		p.pos += 2
		return sqlast.SelectItem{Star: true, StarTable: name}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return sqlast.SelectItem{}, err
	}
	item := sqlast.SelectItem{Expr: e}
	if p.eatKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return item, err
		}
		item.Alias = a
	} else if a, ok := p.identLike(); ok {
		item.Alias = a
	}
	return item, nil
}

// ---------------------------------------------------------------- FROM

func (p *Parser) parseTableExpr() (sqlast.TableExpr, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var kind sqlast.JoinKind
		switch {
		case p.isKeyword("JOIN"):
			p.pos++
			kind = sqlast.JoinInner
		case p.isKeyword("INNER"):
			p.pos++
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = sqlast.JoinInner
		case p.isKeyword("LEFT"):
			p.pos++
			p.eatKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = sqlast.JoinLeftOuter
		case p.isKeyword("CROSS"):
			p.pos++
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			kind = sqlast.JoinCross
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		join := &sqlast.JoinExpr{Kind: kind, L: left, R: right}
		if kind != sqlast.JoinCross {
			if err := p.expectKeyword("ON"); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			join.On = cond
		}
		left = join
	}
}

func (p *Parser) parseTablePrimary() (sqlast.TableExpr, error) {
	if p.eatOp("(") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		p.eatKeyword("AS")
		alias, err := p.expectIdent()
		if err != nil {
			return nil, fmt.Errorf("derived table requires an alias: %w", err)
		}
		return &sqlast.DerivedTable{Sub: sub, Alias: alias}, nil
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	t := &sqlast.TableName{Name: name}
	if p.eatKeyword("AS") {
		a, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		t.Alias = a
	} else if a, ok := p.identLike(); ok {
		t.Alias = a
	}
	return t, nil
}

// ---------------------------------------------------------------- expressions

// parseExpr parses with precedence: OR < AND < NOT < predicate < additive
// (+ - ||) < multiplicative (* / %) < unary < primary.
func (p *Parser) parseExpr() (sqlast.Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (sqlast.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.eatKeyword("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &sqlast.BinaryExpr{Op: "OR", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseAnd() (sqlast.Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.eatKeyword("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &sqlast.BinaryExpr{Op: "AND", L: left, R: right}
	}
	return left, nil
}

func (p *Parser) parseNot() (sqlast.Expr, error) {
	if p.isKeyword("NOT") && !p.nextIsExistsAfterNot() {
		p.pos++
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &sqlast.UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parsePredicate()
}

// nextIsExistsAfterNot lets NOT EXISTS be handled by parsePrimary so the
// AST carries ExistsExpr{Not:true}.
func (p *Parser) nextIsExistsAfterNot() bool {
	t := p.toks[p.pos+1]
	return t.Kind == sqllex.TokKeyword && t.Text == "EXISTS"
}

var comparisonOps = map[string]bool{"=": true, "<>": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true}

func (p *Parser) parsePredicate() (sqlast.Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// comparison
	if t := p.peek(); t.Kind == sqllex.TokOp && comparisonOps[t.Text] {
		op := t.Text
		if op == "!=" {
			op = "<>"
		}
		p.pos++
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &sqlast.BinaryExpr{Op: op, L: left, R: right}, nil
	}
	not := false
	if p.isKeyword("NOT") {
		// lookahead for NOT IN / NOT BETWEEN / NOT LIKE
		nt := p.toks[p.pos+1]
		if nt.Kind == sqllex.TokKeyword && (nt.Text == "IN" || nt.Text == "BETWEEN" || nt.Text == "LIKE") {
			p.pos++
			not = true
		}
	}
	switch {
	case p.eatKeyword("IN"):
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		if p.isKeyword("SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return &sqlast.InExpr{X: left, Not: not, Sub: sub}, nil
		}
		var list []sqlast.Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.eatOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &sqlast.InExpr{X: left, Not: not, List: list}, nil
	case p.eatKeyword("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &sqlast.BetweenExpr{X: left, Lo: lo, Hi: hi, Not: not}, nil
	case p.eatKeyword("LIKE"):
		pat, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &sqlast.LikeExpr{X: left, Pattern: pat, Not: not}, nil
	case p.eatKeyword("IS"):
		isNot := p.eatKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &sqlast.IsNullExpr{X: left, Not: isNot}, nil
	}
	return left, nil
}

func (p *Parser) parseAdditive() (sqlast.Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.isOp("+"):
			op = "+"
		case p.isOp("-"):
			op = "-"
		case p.isOp("||"):
			op = "||"
		default:
			return left, nil
		}
		p.pos++
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &sqlast.BinaryExpr{Op: op, L: left, R: right}
	}
}

func (p *Parser) parseMultiplicative() (sqlast.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.isOp("*"):
			op = "*"
		case p.isOp("/"):
			op = "/"
		case p.isOp("%"):
			op = "%"
		default:
			return left, nil
		}
		p.pos++
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &sqlast.BinaryExpr{Op: op, L: left, R: right}
	}
}

func (p *Parser) parseUnary() (sqlast.Expr, error) {
	if p.eatOp("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &sqlast.UnaryExpr{Op: "-", X: x}, nil
	}
	p.eatOp("+")
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (sqlast.Expr, error) {
	t := p.peek()
	switch t.Kind {
	case sqllex.TokNumber:
		p.pos++
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.Text)
			}
			return &sqlast.Literal{Val: sqltypes.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.Text)
		}
		return &sqlast.Literal{Val: sqltypes.NewInt(i)}, nil
	case sqllex.TokString:
		p.pos++
		return &sqlast.Literal{Val: sqltypes.NewString(t.Text)}, nil
	case sqllex.TokParam:
		p.pos++
		if t.Text == "" { // `?` placeholder: auto-numbered
			p.nextOrdinal++
			return &sqlast.Param{N: p.nextOrdinal}, nil
		}
		n, err := strconv.Atoi(t.Text)
		if err != nil || n < 1 {
			return nil, p.errorf("bad parameter $%s", t.Text)
		}
		return &sqlast.Param{N: n}, nil
	case sqllex.TokIdent:
		return p.parseIdentExpr()
	case sqllex.TokKeyword:
		return p.parseKeywordExpr()
	case sqllex.TokOp:
		if t.Text == "(" {
			p.pos++
			if p.isKeyword("SELECT") {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return &sqlast.SubqueryExpr{Sub: sub}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.isOp(",") { // row value constructor: (a, b, ...)
				row := &sqlast.RowExpr{Exprs: []sqlast.Expr{e}}
				for p.eatOp(",") {
					item, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					row.Exprs = append(row.Exprs, item)
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return row, nil
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token %s in expression", t)
}

func (p *Parser) parseIdentExpr() (sqlast.Expr, error) {
	name := p.next().Text
	// function call?
	if p.isOp("(") {
		return p.parseFuncCall(name)
	}
	// qualified column?
	if p.eatOp(".") {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &sqlast.ColumnRef{Table: name, Name: col}, nil
	}
	return &sqlast.ColumnRef{Name: name}, nil
}

func (p *Parser) parseFuncCall(name string) (sqlast.Expr, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	fc := &sqlast.FuncCall{Name: strings.ToUpper(name)}
	if !isBuiltinName(fc.Name) {
		fc.Name = name // preserve user-function spelling
	}
	if p.eatOp("*") {
		fc.Star = true
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if p.eatKeyword("DISTINCT") {
		fc.Distinct = true
	}
	if !p.isOp(")") {
		for {
			a, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fc.Args = append(fc.Args, a)
			if !p.eatOp(",") {
				break
			}
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return fc, nil
}

func isBuiltinName(upper string) bool {
	switch upper {
	case "CONCAT", "CHAR_LENGTH", "ABS", "ROUND", "COALESCE":
		return true
	}
	return sqlast.IsAggregate(upper)
}

func (p *Parser) parseKeywordExpr() (sqlast.Expr, error) {
	t := p.peek()
	if sqlast.IsAggregate(t.Text) {
		p.pos++
		return p.parseFuncCall(t.Text)
	}
	switch t.Text {
	case "NULL":
		p.pos++
		return &sqlast.Literal{Val: sqltypes.Null}, nil
	case "TRUE":
		p.pos++
		return &sqlast.Literal{Val: sqltypes.NewBool(true)}, nil
	case "FALSE":
		p.pos++
		return &sqlast.Literal{Val: sqltypes.NewBool(false)}, nil
	case "DATE":
		p.pos++
		lit := p.peek()
		if lit.Kind != sqllex.TokString {
			return nil, p.errorf("expected date literal after DATE, got %s", lit)
		}
		p.pos++
		v, err := sqltypes.ParseDate(lit.Text)
		if err != nil {
			return nil, err
		}
		return &sqlast.Literal{Val: v}, nil
	case "INTERVAL":
		p.pos++
		lit := p.peek()
		if lit.Kind != sqllex.TokString && lit.Kind != sqllex.TokNumber {
			return nil, p.errorf("expected interval quantity, got %s", lit)
		}
		p.pos++
		n, err := strconv.ParseInt(lit.Text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad interval quantity %q", lit.Text)
		}
		unit := p.peek()
		if unit.Kind != sqllex.TokKeyword || (unit.Text != "DAY" && unit.Text != "MONTH" && unit.Text != "YEAR") {
			return nil, p.errorf("expected DAY/MONTH/YEAR, got %s", unit)
		}
		p.pos++
		return &sqlast.IntervalExpr{N: n, Unit: unit.Text}, nil
	case "CASE":
		return p.parseCase()
	case "EXISTS":
		p.pos++
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &sqlast.ExistsExpr{Sub: sub}, nil
	case "NOT":
		// NOT EXISTS
		p.pos++
		if err := p.expectKeyword("EXISTS"); err != nil {
			return nil, err
		}
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &sqlast.ExistsExpr{Not: true, Sub: sub}, nil
	case "EXTRACT":
		p.pos++
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		field := p.peek()
		if field.Kind != sqllex.TokKeyword || (field.Text != "YEAR" && field.Text != "MONTH" && field.Text != "DAY") {
			return nil, p.errorf("expected YEAR/MONTH/DAY in EXTRACT, got %s", field)
		}
		p.pos++
		if err := p.expectKeyword("FROM"); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &sqlast.ExtractExpr{Field: field.Text, X: x}, nil
	case "SUBSTRING":
		p.pos++
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		var from, length sqlast.Expr
		if p.eatKeyword("FROM") {
			from, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.eatKeyword("FOR") {
				length, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
			}
		} else if p.eatOp(",") { // SUBSTRING(x, from [, for]) spelling
			from, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
			if p.eatOp(",") {
				length, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
			}
		} else {
			return nil, p.errorf("expected FROM in SUBSTRING, got %s", p.peek())
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return &sqlast.SubstringExpr{X: x, From: from, For: length}, nil
	case "CAST":
		p.pos++
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AS"); err != nil {
			return nil, err
		}
		tn, err := p.parseTypeName()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		// CAST is represented as a builtin function call CAST_<TYPE>.
		return &sqlast.FuncCall{Name: "CAST_" + tn.Name, Args: []sqlast.Expr{x}}, nil
	}
	return nil, p.errorf("unexpected keyword %s in expression", t)
}

func (p *Parser) parseCase() (sqlast.Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	c := &sqlast.CaseExpr{}
	if !p.isKeyword("WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.eatKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, sqlast.CaseWhen{Cond: cond, Then: then})
	}
	if p.eatKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE without WHEN arms")
	}
	return c, nil
}
