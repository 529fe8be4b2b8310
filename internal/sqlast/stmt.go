package sqlast

import (
	"fmt"
	"strings"
)

// ---------------------------------------------------------------- DDL

// Generality is MTSQL table generality (§2.2): global tables hold common
// knowledge shared by all tenants; tenant-specific tables hold per-tenant
// rows distinguished by the invisible ttid meta column.
type Generality uint8

// Table generalities. Tables default to global.
const (
	Global Generality = iota
	TenantSpecific
)

func (g Generality) String() string {
	if g == TenantSpecific {
		return "SPECIFIC"
	}
	return "GLOBAL"
}

// Comparability is MTSQL attribute comparability (§2.2, Table 1).
type Comparability uint8

// Attribute comparabilities.
const (
	// Comparable attributes compare directly across tenants.
	Comparable Comparability = iota
	// Convertible attributes need a conversion-function pair first.
	Convertible
	// Specific attributes must never be compared across tenants.
	Specific
)

func (c Comparability) String() string {
	switch c {
	case Comparable:
		return "COMPARABLE"
	case Convertible:
		return "CONVERTIBLE"
	case Specific:
		return "SPECIFIC"
	}
	return "COMPARABLE"
}

// TypeName is a column type with optional size arguments,
// e.g. VARCHAR(25) or DECIMAL(15,2).
type TypeName struct {
	Name string // upper-case base name
	Args []int
}

func (t TypeName) String() string {
	if len(t.Args) == 0 {
		return t.Name
	}
	parts := make([]string, len(t.Args))
	for i, a := range t.Args {
		parts[i] = fmt.Sprintf("%d", a)
	}
	return t.Name + "(" + strings.Join(parts, ",") + ")"
}

// ColumnDef is one column in CREATE TABLE, carrying the MTSQL
// comparability and, for convertible attributes, the conversion pair names.
type ColumnDef struct {
	Name          string
	Type          TypeName
	NotNull       bool
	Comparability Comparability
	ToUniversal   string // conversion function names, set iff Convertible
	FromUniversal string
}

func (c ColumnDef) String() string {
	var sb strings.Builder
	sb.WriteString(quoteIdent(c.Name))
	sb.WriteByte(' ')
	sb.WriteString(c.Type.String())
	if c.NotNull {
		sb.WriteString(" NOT NULL")
	}
	sb.WriteByte(' ')
	sb.WriteString(c.Comparability.String())
	if c.Comparability == Convertible {
		sb.WriteString(" @" + c.ToUniversal + " @" + c.FromUniversal)
	}
	return sb.String()
}

// ConstraintKind distinguishes table constraints.
type ConstraintKind uint8

// Constraint kinds.
const (
	ConstraintPrimaryKey ConstraintKind = iota
	ConstraintForeignKey
	ConstraintCheck
)

// Constraint is a table constraint.
type Constraint struct {
	Kind       ConstraintKind
	Name       string
	Columns    []string // PK or FK columns
	RefTable   string   // FK target
	RefColumns []string
	Check      Expr // CHECK expression
}

func (c Constraint) String() string {
	name := ""
	if c.Name != "" {
		name = "CONSTRAINT " + quoteIdent(c.Name) + " "
	}
	switch c.Kind {
	case ConstraintPrimaryKey:
		return fmt.Sprintf("%sPRIMARY KEY (%s)", name, quoteIdents(c.Columns))
	case ConstraintForeignKey:
		return fmt.Sprintf("%sFOREIGN KEY (%s) REFERENCES %s (%s)",
			name, quoteIdents(c.Columns), quoteIdent(c.RefTable), quoteIdents(c.RefColumns))
	case ConstraintCheck:
		return fmt.Sprintf("%sCHECK (%s)", name, c.Check.String())
	}
	return ""
}

// CreateTable is CREATE TABLE with MTSQL generality/comparability.
type CreateTable struct {
	Name        string
	Generality  Generality
	Columns     []ColumnDef
	Constraints []Constraint
}

func (*CreateTable) stmtNode() {}

func (c *CreateTable) String() string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE ")
	sb.WriteString(quoteIdent(c.Name))
	if c.Generality == TenantSpecific {
		sb.WriteString(" SPECIFIC")
	}
	sb.WriteString(" (")
	for i, col := range c.Columns {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(col.String())
	}
	for _, con := range c.Constraints {
		sb.WriteString(", ")
		sb.WriteString(con.String())
	}
	sb.WriteString(")")
	return sb.String()
}

// CreateView is CREATE VIEW name AS select.
type CreateView struct {
	Name string
	Sub  *Select
}

func (*CreateView) stmtNode() {}

func (c *CreateView) String() string {
	return "CREATE VIEW " + quoteIdent(c.Name) + " AS " + c.Sub.String()
}

// CreateFunction is a SQL-bodied scalar function (the paper's conversion
// UDFs, Listings 4–7). The body is a single SELECT with $n parameters.
type CreateFunction struct {
	Name       string
	ParamTypes []TypeName
	ReturnType TypeName
	Body       *Select
	Immutable  bool
}

func (*CreateFunction) stmtNode() {}

func (c *CreateFunction) String() string {
	params := make([]string, len(c.ParamTypes))
	for i, p := range c.ParamTypes {
		params[i] = p.String()
	}
	s := fmt.Sprintf("CREATE FUNCTION %s (%s) RETURNS %s AS '%s' LANGUAGE SQL",
		quoteIdent(c.Name), strings.Join(params, ", "), c.ReturnType.String(), strings.ReplaceAll(c.Body.String(), "'", "''"))
	if c.Immutable {
		s += " IMMUTABLE"
	}
	return s
}

// DropTable / DropView drop schema objects.
type DropTable struct{ Name string }

func (*DropTable) stmtNode() {}

func (d *DropTable) String() string { return "DROP TABLE " + quoteIdent(d.Name) }

// DropView drops a view.
type DropView struct{ Name string }

func (*DropView) stmtNode() {}

func (d *DropView) String() string { return "DROP VIEW " + quoteIdent(d.Name) }

// ---------------------------------------------------------------- DML

// Insert is INSERT INTO t [(cols)] VALUES (...),... or INSERT ... SELECT.
type Insert struct {
	Table   string
	Columns []string
	Rows    [][]Expr
	Sub     *Select // nil unless INSERT ... SELECT
}

func (*Insert) stmtNode() {}

func (i *Insert) String() string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO ")
	sb.WriteString(quoteIdent(i.Table))
	if len(i.Columns) > 0 {
		sb.WriteString(" (" + quoteIdents(i.Columns) + ")")
	}
	if i.Sub != nil {
		sb.WriteString(" " + i.Sub.String())
		return sb.String()
	}
	sb.WriteString(" VALUES ")
	for r, row := range i.Rows {
		if r > 0 {
			sb.WriteString(", ")
		}
		sb.WriteByte('(')
		for c, e := range row {
			if c > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.String())
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

// Assignment is one SET col = expr in UPDATE.
type Assignment struct {
	Column string
	Expr   Expr
}

// Update is UPDATE t SET ... [WHERE ...].
type Update struct {
	Table string
	Sets  []Assignment
	Where Expr
}

func (*Update) stmtNode() {}

func (u *Update) String() string {
	var sb strings.Builder
	sb.WriteString("UPDATE ")
	sb.WriteString(quoteIdent(u.Table))
	sb.WriteString(" SET ")
	for i, a := range u.Sets {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(quoteIdent(a.Column) + " = " + a.Expr.String())
	}
	if u.Where != nil {
		sb.WriteString(" WHERE " + u.Where.String())
	}
	return sb.String()
}

// Delete is DELETE FROM t [WHERE ...].
type Delete struct {
	Table string
	Where Expr
}

func (*Delete) stmtNode() {}

func (d *Delete) String() string {
	s := "DELETE FROM " + quoteIdent(d.Table)
	if d.Where != nil {
		s += " WHERE " + d.Where.String()
	}
	return s
}

// ---------------------------------------------------------------- DCL

// Privilege is an MTSQL access privilege (§2.3).
type Privilege string

// Privileges.
const (
	PrivRead   Privilege = "READ"
	PrivInsert Privilege = "INSERT"
	PrivUpdate Privilege = "UPDATE"
	PrivDelete Privilege = "DELETE"
)

// Grant is the MTSQL GRANT statement: privileges on a table (or the whole
// database when Table is empty) granted to a tenant, interpreted w.r.t. C.
// GranteeAll means GRANT ... TO ALL, interpreted w.r.t. D.
type Grant struct {
	Privileges []Privilege
	Table      string // empty = database
	Grantee    int64  // ttid
	GranteeAll bool
}

func (*Grant) stmtNode() {}

func (g *Grant) String() string {
	privs := make([]string, len(g.Privileges))
	for i, p := range g.Privileges {
		privs[i] = string(p)
	}
	on := "DATABASE"
	if g.Table != "" {
		on = quoteIdent(g.Table)
	}
	to := fmt.Sprintf("%d", g.Grantee)
	if g.GranteeAll {
		to = "ALL"
	}
	return fmt.Sprintf("GRANT %s ON %s TO %s", strings.Join(privs, ", "), on, to)
}

// Revoke is the MTSQL REVOKE statement.
type Revoke struct {
	Privileges []Privilege
	Table      string
	Grantee    int64
	GranteeAll bool
}

func (*Revoke) stmtNode() {}

func (r *Revoke) String() string {
	privs := make([]string, len(r.Privileges))
	for i, p := range r.Privileges {
		privs[i] = string(p)
	}
	on := "DATABASE"
	if r.Table != "" {
		on = quoteIdent(r.Table)
	}
	to := fmt.Sprintf("%d", r.Grantee)
	if r.GranteeAll {
		to = "ALL"
	}
	return fmt.Sprintf("REVOKE %s ON %s FROM %s", strings.Join(privs, ", "), on, to)
}

// ---------------------------------------------------------------- MTSQL

// SetScope is the MTSQL SET SCOPE statement (§2.1). Exactly one of the
// fields describes the scope:
//   - Simple with All=false: SET SCOPE = "IN (1,3,42)"
//   - Simple with All=true (empty IN list): all tenants in the database
//   - Complex: SET SCOPE = "FROM ... WHERE ..." — every tenant owning at
//     least one qualifying record is in D.
type SetScope struct {
	Simple  []int64
	All     bool
	Complex *ScopeQuery
}

// ScopeQuery is the FROM/WHERE of a complex scope.
type ScopeQuery struct {
	From  []TableExpr
	Where Expr // may be nil
}

func (*SetScope) stmtNode() {}

func (s *SetScope) String() string {
	if s.Complex != nil {
		froms := make([]string, len(s.Complex.From))
		for i, f := range s.Complex.From {
			froms[i] = f.String()
		}
		out := "SET SCOPE = \"FROM " + strings.Join(froms, ", ")
		if s.Complex.Where != nil {
			out += " WHERE " + s.Complex.Where.String()
		}
		return out + "\""
	}
	if s.All {
		return "SET SCOPE = \"IN ()\""
	}
	ids := make([]string, len(s.Simple))
	for i, id := range s.Simple {
		ids[i] = fmt.Sprintf("%d", id)
	}
	return "SET SCOPE = \"IN (" + strings.Join(ids, ", ") + ")\""
}
