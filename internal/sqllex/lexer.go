// Package sqllex tokenizes the SQL dialect understood by the engine,
// including the MTSQL keywords (GLOBAL, SPECIFIC, COMPARABLE, CONVERTIBLE,
// SCOPE) and conversion-function annotations (@name).
package sqllex

import (
	"fmt"
	"strings"
)

// TokenKind classifies a lexical token.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString // contents without quotes
	TokOp     // punctuation / operators, Text holds the symbol
	TokAt     // @name conversion-function annotation, Text holds name
	TokParam  // $1, $2 positional parameter (Text holds digits) or ? (Text empty)
)

func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "EOF"
	case TokIdent:
		return "identifier"
	case TokKeyword:
		return "keyword"
	case TokNumber:
		return "number"
	case TokString:
		return "string"
	case TokOp:
		return "operator"
	case TokAt:
		return "@annotation"
	case TokParam:
		return "$parameter"
	}
	return "token"
}

// Token is a single lexical token. Keywords are upper-cased in Text;
// identifiers keep their original spelling.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int // byte offset in the input
}

func (t Token) String() string {
	if t.Kind == TokEOF {
		return "end of input"
	}
	if t.Kind == TokParam {
		if t.Text == "" {
			return `"?"`
		}
		return fmt.Sprintf("%q", "$"+t.Text)
	}
	return fmt.Sprintf("%q", t.Text)
}

// keywords is the reserved-word set. MTSQL additions are marked.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"HAVING": true, "ORDER": true, "ASC": true, "DESC": true, "LIMIT": true,
	"AS": true, "AND": true, "OR": true, "NOT": true, "IN": true,
	"EXISTS": true, "BETWEEN": true, "LIKE": true, "IS": true, "NULL": true,
	"TRUE": true, "FALSE": true, "CASE": true, "WHEN": true, "THEN": true,
	"ELSE": true, "END": true, "JOIN": true, "INNER": true, "LEFT": true,
	"RIGHT": true, "OUTER": true, "ON": true, "CROSS": true, "DISTINCT": true,
	"ALL": true, "ANY": true, "SOME": true, "UNION": true, "EXCEPT": true,
	"INTERSECT": true, "CREATE": true, "TABLE": true, "VIEW": true,
	"FUNCTION": true, "RETURNS": true, "LANGUAGE": true, "IMMUTABLE": true,
	"SQL": true, "DROP": true, "ALTER": true, "INSERT": true, "INTO": true,
	"VALUES": true, "UPDATE": true, "SET": true, "DELETE": true,
	"GRANT": true, "REVOKE": true, "TO": true, "READ": true,
	"PRIMARY": true, "KEY": true, "FOREIGN": true, "REFERENCES": true,
	"CONSTRAINT": true, "CHECK": true, "UNIQUE": true, "DEFAULT": true,
	"INTEGER": true, "INT": true, "BIGINT": true, "DECIMAL": true,
	"NUMERIC": true, "VARCHAR": true, "CHAR": true, "TEXT": true,
	"DATE": true, "BOOLEAN": true, "INTERVAL": true, "YEAR": true,
	"MONTH": true, "DAY": true, "EXTRACT": true, "SUBSTRING": true,
	"FOR": true, "CAST": true, "COUNT": true, "SUM": true, "AVG": true,
	"MIN": true, "MAX": true,
	// MTSQL extensions (§2.2):
	"GLOBAL": true, "SPECIFIC": true, "COMPARABLE": true,
	"CONVERTIBLE": true, "SCOPE": true,
}

// maxKeywordLen bounds the words keyword has to fold.
const maxKeywordLen = len("CONVERTIBLE")

// keyword returns the reserved word w spells in any case (w itself when it is
// already upper-case: the common spelling costs no allocation), or "".
func keyword(w string) string {
	if len(w) > maxKeywordLen {
		return ""
	}
	var buf [maxKeywordLen]byte
	for i := 0; i < len(w); i++ {
		c := w[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	up := buf[:len(w)]
	switch {
	case !keywords[string(up)]:
		return ""
	case string(up) == w:
		return w
	}
	return string(up)
}

// BareIdent reports whether s, written without quotes, lexes back to the
// single identifier token s: a word of identifier characters that is not
// reserved. Every other name has to be written as a quoted identifier.
func BareIdent(s string) bool {
	if s == "" || !isIdentStart(s[0]) {
		return false
	}
	for i := 1; i < len(s); i++ {
		if !isIdentPart(s[i]) {
			return false
		}
	}
	return keyword(s) == ""
}

// Lexer scans SQL text into tokens.
type Lexer struct {
	src string
	pos int
}

// New returns a Lexer over src.
func New(src string) *Lexer { return &Lexer{src: src} }

// Tokenize scans the entire input, returning all tokens up to EOF.
func Tokenize(src string) ([]Token, error) {
	lx := New(src)
	var toks []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

// Next returns the next token.
func (lx *Lexer) Next() (Token, error) {
	lx.skipSpaceAndComments()
	start := lx.pos
	if lx.pos >= len(lx.src) {
		return Token{Kind: TokEOF, Pos: start}, nil
	}
	c := lx.src[lx.pos]
	switch {
	case isIdentStart(c):
		return lx.lexWord(start), nil
	case c >= '0' && c <= '9':
		return lx.lexNumber(start)
	case c == '\'':
		return lx.lexString(start)
	case c == '"':
		return lx.lexQuotedIdent(start)
	case c == '@':
		lx.pos++
		w := lx.takeWhile(isIdentPart)
		if w == "" {
			return Token{}, fmt.Errorf("sqllex: bare '@' at offset %d", start)
		}
		return Token{Kind: TokAt, Text: w, Pos: start}, nil
	case c == '$':
		lx.pos++
		w := lx.takeWhile(func(b byte) bool { return b >= '0' && b <= '9' })
		if w == "" {
			return Token{}, fmt.Errorf("sqllex: bare '$' at offset %d", start)
		}
		return Token{Kind: TokParam, Text: w, Pos: start}, nil
	case c == '?':
		// Anonymous bind-parameter placeholder; the parser numbers these
		// left to right.
		lx.pos++
		return Token{Kind: TokParam, Text: "", Pos: start}, nil
	}
	return lx.lexOp(start)
}

func (lx *Lexer) skipSpaceAndComments() {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			lx.pos++
		case c == '-' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '-':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
			end := strings.Index(lx.src[lx.pos+2:], "*/")
			if end < 0 {
				lx.pos = len(lx.src)
			} else {
				lx.pos += 2 + end + 2
			}
		default:
			return
		}
	}
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

func (lx *Lexer) takeWhile(pred func(byte) bool) string {
	start := lx.pos
	for lx.pos < len(lx.src) && pred(lx.src[lx.pos]) {
		lx.pos++
	}
	return lx.src[start:lx.pos]
}

func (lx *Lexer) lexWord(start int) Token {
	w := lx.takeWhile(isIdentPart)
	if kw := keyword(w); kw != "" {
		return Token{Kind: TokKeyword, Text: kw, Pos: start}
	}
	return Token{Kind: TokIdent, Text: w, Pos: start}
}

func (lx *Lexer) lexNumber(start int) (Token, error) {
	lx.takeWhile(func(b byte) bool { return b >= '0' && b <= '9' })
	if lx.pos < len(lx.src) && lx.src[lx.pos] == '.' {
		lx.pos++
		lx.takeWhile(func(b byte) bool { return b >= '0' && b <= '9' })
	}
	if lx.pos < len(lx.src) && (lx.src[lx.pos] == 'e' || lx.src[lx.pos] == 'E') {
		save := lx.pos
		lx.pos++
		if lx.pos < len(lx.src) && (lx.src[lx.pos] == '+' || lx.src[lx.pos] == '-') {
			lx.pos++
		}
		if d := lx.takeWhile(func(b byte) bool { return b >= '0' && b <= '9' }); d == "" {
			lx.pos = save // not an exponent; leave 'e' for the next token
		}
	}
	return Token{Kind: TokNumber, Text: lx.src[start:lx.pos], Pos: start}, nil
}

func (lx *Lexer) lexString(start int) (Token, error) {
	lx.pos++ // opening quote
	var sb strings.Builder
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == '\'' {
			if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '\'' {
				sb.WriteByte('\'')
				lx.pos += 2
				continue
			}
			lx.pos++
			return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil
		}
		sb.WriteByte(c)
		lx.pos++
	}
	return Token{}, fmt.Errorf("sqllex: unterminated string at offset %d", start)
}

// lexQuotedIdent scans "name"; a doubled quote inside stands for one.
func (lx *Lexer) lexQuotedIdent(start int) (Token, error) {
	lx.pos++ // opening quote
	var sb strings.Builder
	for {
		end := strings.IndexByte(lx.src[lx.pos:], '"')
		if end < 0 {
			return Token{}, fmt.Errorf("sqllex: unterminated quoted identifier at offset %d", start)
		}
		sb.WriteString(lx.src[lx.pos : lx.pos+end])
		lx.pos += end + 1
		if lx.pos >= len(lx.src) || lx.src[lx.pos] != '"' {
			return Token{Kind: TokIdent, Text: sb.String(), Pos: start}, nil
		}
		sb.WriteByte('"')
		lx.pos++
	}
}

var twoCharOps = map[string]bool{
	"<=": true, ">=": true, "<>": true, "!=": true, "||": true,
}

func (lx *Lexer) lexOp(start int) (Token, error) {
	if lx.pos+1 < len(lx.src) && twoCharOps[lx.src[lx.pos:lx.pos+2]] {
		t := Token{Kind: TokOp, Text: lx.src[lx.pos : lx.pos+2], Pos: start}
		lx.pos += 2
		return t, nil
	}
	c := lx.src[lx.pos]
	switch c {
	case '(', ')', ',', ';', '.', '*', '+', '-', '/', '%', '<', '>', '=', '[', ']', '{', '}':
		lx.pos++
		return Token{Kind: TokOp, Text: string(c), Pos: start}, nil
	}
	return Token{}, fmt.Errorf("sqllex: unexpected character %q at offset %d", c, start)
}
