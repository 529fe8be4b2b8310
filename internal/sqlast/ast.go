// Package sqlast defines the abstract syntax tree for the SQL dialect used
// throughout MTBase, including the MTSQL extensions from the paper (table
// generality, attribute comparability, conversion-function annotations,
// SET SCOPE, and GRANT/REVOKE with C/D semantics). Every node renders back
// to SQL text via String(): the middleware communicates with the backing
// DBMS "by the means of pure SQL" (§3), so rewritten ASTs must serialize.
package sqlast

import (
	"fmt"
	"strconv"
	"strings"

	"mtbase/internal/sqllex"
	"mtbase/internal/sqltypes"
)

// Node is any AST node.
type Node interface{ String() string }

// Expr is an expression node.
type Expr interface {
	Node
	exprNode()
}

// Statement is a top-level statement.
type Statement interface {
	Node
	stmtNode()
}

// TableExpr is a FROM-clause item.
type TableExpr interface {
	Node
	tableExprNode()
}

// ---------------------------------------------------------------- exprs

// ColumnRef references a column, optionally qualified by table or alias.
type ColumnRef struct {
	Table string // optional qualifier
	Name  string
}

func (*ColumnRef) exprNode() {}

func (c *ColumnRef) String() string {
	if c.Table != "" {
		return quoteIdent(c.Table) + "." + quoteIdent(c.Name)
	}
	return quoteIdent(c.Name)
}

// quoteIdent spells a name (column, qualifier, table, alias, DDL name) so
// that the text parses back to it: bare when the lexer would read the bare
// spelling as that one identifier, quoted otherwise (a keyword, a space, a
// leading digit). The rewritten SQL handed to the engine is this text, so a
// name printed bare that does not lex back is a different statement there.
func quoteIdent(name string) string {
	if sqllex.BareIdent(name) {
		return name
	}
	return `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
}

func quoteIdents(names []string) string {
	var sb strings.Builder
	for i, n := range names {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(quoteIdent(n))
	}
	return sb.String()
}

// Literal is a constant value.
type Literal struct{ Val sqltypes.Value }

func (*Literal) exprNode() {}

func (l *Literal) String() string { return l.Val.SQLLiteral() }

// NewIntLit is shorthand for an integer literal.
func NewIntLit(i int64) *Literal { return &Literal{Val: sqltypes.NewInt(i)} }

// NewStringLit is shorthand for a string literal.
func NewStringLit(s string) *Literal { return &Literal{Val: sqltypes.NewString(s)} }

// Param is a positional parameter $n. Inside a SQL-defined function body it
// names the n-th function argument; in a client statement it is a bind-
// parameter slot filled per execution (`?` placeholders parse to Params
// numbered left to right). The innermost UDF parameter frame wins when both
// interpretations are possible, exactly like the interpreter's scope walk.
type Param struct{ N int }

func (*Param) exprNode() {}

func (p *Param) String() string { return "$" + strconv.Itoa(p.N) }

// BinaryExpr applies a binary operator. Op is one of
// + - * / % = <> < <= > >= AND OR ||.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

func (*BinaryExpr) exprNode() {}

func (b *BinaryExpr) String() string {
	return "(" + b.L.String() + " " + b.Op + " " + b.R.String() + ")"
}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op string // "NOT" or "-"
	X  Expr
}

func (*UnaryExpr) exprNode() {}

func (u *UnaryExpr) String() string {
	if u.Op == "NOT" {
		return "(NOT " + u.X.String() + ")"
	}
	return "(" + u.Op + u.X.String() + ")"
}

// FuncCall is a scalar, aggregate or conversion-function call.
// COUNT(*) is encoded with Star=true and empty Args.
type FuncCall struct {
	Name     string
	Distinct bool
	Star     bool
	Args     []Expr
}

func (*FuncCall) exprNode() {}

func (f *FuncCall) String() string {
	var sb strings.Builder
	if sqllex.BareIdent(f.Name) || IsAggregate(f.Name) {
		sb.WriteString(f.Name) // the aggregates are reserved words the parser reads as calls
	} else {
		sb.WriteString(quoteIdent(f.Name))
	}
	sb.WriteByte('(')
	if f.Distinct {
		sb.WriteString("DISTINCT ")
	}
	if f.Star {
		sb.WriteByte('*')
	}
	for i, a := range f.Args {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.String())
	}
	sb.WriteByte(')')
	return sb.String()
}

// IsAggregate reports whether name is one of the aggregate functions: the
// one table the parser, the engine, the optimizer and the shard coordinator
// all go by.
func IsAggregate(name string) bool {
	switch strings.ToUpper(name) {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// CaseExpr is a searched or simple CASE.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []CaseWhen
	Else    Expr // may be nil
}

// CaseWhen is one WHEN ... THEN ... arm.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

func (*CaseExpr) exprNode() {}

func (c *CaseExpr) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	if c.Operand != nil {
		sb.WriteByte(' ')
		sb.WriteString(c.Operand.String())
	}
	for _, w := range c.Whens {
		sb.WriteString(" WHEN ")
		sb.WriteString(w.Cond.String())
		sb.WriteString(" THEN ")
		sb.WriteString(w.Then.String())
	}
	if c.Else != nil {
		sb.WriteString(" ELSE ")
		sb.WriteString(c.Else.String())
	}
	sb.WriteString(" END")
	return sb.String()
}

// RowExpr is a row value constructor (a, b, ...), usable as the left side
// of IN — the rewriter produces (key, ttid) IN (SELECT key, ttid ...) for
// tenant-specific membership predicates.
type RowExpr struct{ Exprs []Expr }

func (*RowExpr) exprNode() {}

func (r *RowExpr) String() string {
	parts := make([]string, len(r.Exprs))
	for i, e := range r.Exprs {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// InExpr is X [NOT] IN (list) or X [NOT] IN (subquery).
type InExpr struct {
	X    Expr
	Not  bool
	List []Expr  // nil when Sub is set
	Sub  *Select // nil when List is set
}

func (*InExpr) exprNode() {}

func (in *InExpr) String() string {
	var sb strings.Builder
	sb.WriteString(in.X.String())
	if in.Not {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" IN (")
	if in.Sub != nil {
		sb.WriteString(in.Sub.String())
	} else {
		for i, e := range in.List {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.String())
		}
	}
	sb.WriteByte(')')
	return sb.String()
}

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Not bool
	Sub *Select
}

func (*ExistsExpr) exprNode() {}

func (e *ExistsExpr) String() string {
	if e.Not {
		return "NOT EXISTS (" + e.Sub.String() + ")"
	}
	return "EXISTS (" + e.Sub.String() + ")"
}

// BetweenExpr is X [NOT] BETWEEN Lo AND Hi.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

func (*BetweenExpr) exprNode() {}

func (b *BetweenExpr) String() string {
	not := ""
	if b.Not {
		not = " NOT"
	}
	return "(" + b.X.String() + not + " BETWEEN " + b.Lo.String() + " AND " + b.Hi.String() + ")"
}

// LikeExpr is X [NOT] LIKE pattern.
type LikeExpr struct {
	X, Pattern Expr
	Not        bool
}

func (*LikeExpr) exprNode() {}

func (l *LikeExpr) String() string {
	not := ""
	if l.Not {
		not = " NOT"
	}
	return "(" + l.X.String() + not + " LIKE " + l.Pattern.String() + ")"
}

// IsNullExpr is X IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

func (*IsNullExpr) exprNode() {}

func (i *IsNullExpr) String() string {
	if i.Not {
		return "(" + i.X.String() + " IS NOT NULL)"
	}
	return "(" + i.X.String() + " IS NULL)"
}

// SubqueryExpr is a scalar subquery.
type SubqueryExpr struct{ Sub *Select }

func (*SubqueryExpr) exprNode() {}

func (s *SubqueryExpr) String() string { return "(" + s.Sub.String() + ")" }

// ExtractExpr is EXTRACT(field FROM x); field is YEAR, MONTH or DAY.
type ExtractExpr struct {
	Field string
	X     Expr
}

func (*ExtractExpr) exprNode() {}

func (e *ExtractExpr) String() string {
	return "EXTRACT(" + e.Field + " FROM " + e.X.String() + ")"
}

// SubstringExpr is SUBSTRING(x FROM start [FOR length]); start is 1-based.
type SubstringExpr struct {
	X, From, For Expr // For may be nil
}

func (*SubstringExpr) exprNode() {}

func (s *SubstringExpr) String() string {
	out := "SUBSTRING(" + s.X.String() + " FROM " + s.From.String()
	if s.For != nil {
		out += " FOR " + s.For.String()
	}
	return out + ")"
}

// IntervalExpr is INTERVAL 'n' unit.
type IntervalExpr struct {
	N    int64
	Unit string // DAY, MONTH, YEAR
}

func (*IntervalExpr) exprNode() {}

func (iv *IntervalExpr) String() string {
	return fmt.Sprintf("INTERVAL '%d' %s", iv.N, iv.Unit)
}

// ---------------------------------------------------------------- select

// SelectItem is one projection in the SELECT list.
type SelectItem struct {
	Star      bool   // SELECT * or t.*
	StarTable string // qualifier for t.*
	Expr      Expr
	Alias     string
}

func (it SelectItem) String() string {
	if it.Star {
		if it.StarTable != "" {
			return quoteIdent(it.StarTable) + ".*"
		}
		return "*"
	}
	if it.Alias != "" {
		return it.Expr.String() + " AS " + quoteIdent(it.Alias)
	}
	return it.Expr.String()
}

// OutputName is the name of the result column a non-star item produces, and
// of the column a derived table or view exposes for it: the alias, else the
// bare column's name, else the expression's text.
func (it SelectItem) OutputName() string {
	if it.Alias != "" {
		return it.Alias
	}
	if cr, ok := it.Expr.(*ColumnRef); ok {
		return cr.Name
	}
	return it.Expr.String()
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Ordinal reports the 1-based output position an ORDER BY key names when it
// is an integer literal (`ORDER BY 2`): SQL's ordinal, not a constant. The
// engine, the rewrite and the shard merge all ask here, so they agree.
func (o OrderItem) Ordinal() (int64, bool) {
	lit, ok := o.Expr.(*Literal)
	if !ok || lit.Val.K != sqltypes.KindInt {
		return 0, false
	}
	return lit.Val.I, true
}

func (o OrderItem) String() string {
	if o.Desc {
		return o.Expr.String() + " DESC"
	}
	return o.Expr.String()
}

// Select is a (sub)query.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableExpr
	Where    Expr // may be nil
	GroupBy  []Expr
	Having   Expr // may be nil
	OrderBy  []OrderItem
	Limit    int64 // -1 when absent
}

func (*Select) exprNode() {} // usable as a subquery operand where needed
func (*Select) stmtNode() {}

func (s *Select) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.String())
	}
	if len(s.From) > 0 {
		sb.WriteString(" FROM ")
		for i, t := range s.From {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(t.String())
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		sb.WriteString(s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING ")
		sb.WriteString(s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.String())
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
	}
	return sb.String()
}

// NewSelect returns an empty Select with no LIMIT.
func NewSelect() *Select { return &Select{Limit: -1} }

// TableName references a base table or view in FROM.
type TableName struct {
	Name  string
	Alias string
}

func (*TableName) tableExprNode() {}

func (t *TableName) String() string {
	if t.Alias != "" {
		return quoteIdent(t.Name) + " " + quoteIdent(t.Alias)
	}
	return quoteIdent(t.Name)
}

// Binding returns the name this table is referred to by (alias or name).
func (t *TableName) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// DerivedTable is a subquery in FROM with a mandatory alias.
type DerivedTable struct {
	Sub   *Select
	Alias string
}

func (*DerivedTable) tableExprNode() {}

func (d *DerivedTable) String() string {
	return "(" + d.Sub.String() + ") AS " + quoteIdent(d.Alias)
}

// JoinKind distinguishes join types.
type JoinKind uint8

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeftOuter
	JoinCross
)

func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "JOIN"
	case JoinLeftOuter:
		return "LEFT OUTER JOIN"
	case JoinCross:
		return "CROSS JOIN"
	}
	return "JOIN"
}

// JoinExpr is an explicit join in FROM.
type JoinExpr struct {
	Kind JoinKind
	L, R TableExpr
	On   Expr // nil for CROSS JOIN
}

func (*JoinExpr) tableExprNode() {}

func (j *JoinExpr) String() string {
	s := j.L.String() + " " + j.Kind.String() + " " + j.R.String()
	if j.On != nil {
		s += " ON " + j.On.String()
	}
	return s
}
