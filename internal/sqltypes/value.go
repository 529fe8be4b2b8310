// Package sqltypes implements the SQL value system shared by the parser,
// the execution engine and the MTSQL layer: typed values with three-valued
// logic, numeric coercion, date/interval arithmetic and hash keys.
package sqltypes

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"time"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// The SQL types supported by the engine. Decimal columns are represented as
// Float (binary float64); the MT-H workload tolerates this because result
// validation compares with a relative epsilon (see internal/mth).
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindDate     // days since 1970-01-01 (UTC)
	KindInterval // I = days, F = months; either part may be zero
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "DECIMAL"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	case KindDate:
		return "DATE"
	case KindInterval:
		return "INTERVAL"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Value is a single SQL value. The zero Value is SQL NULL.
type Value struct {
	K Kind
	I int64
	F float64
	S string
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an INTEGER value.
func NewInt(i int64) Value { return Value{K: KindInt, I: i} }

// NewFloat returns a DECIMAL value.
func NewFloat(f float64) Value { return Value{K: KindFloat, F: f} }

// NewString returns a VARCHAR value.
func NewString(s string) Value { return Value{K: KindString, S: s} }

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	if b {
		return Value{K: KindBool, I: 1}
	}
	return Value{K: KindBool}
}

// NewDate returns a DATE value holding days since the Unix epoch.
func NewDate(days int64) Value { return Value{K: KindDate, I: days} }

// NewInterval returns an INTERVAL of the given days and months.
func NewInterval(days, months int64) Value {
	return Value{K: KindInterval, I: days, F: float64(months)}
}

// ParseDate parses a YYYY-MM-DD literal into a DATE value.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Null, fmt.Errorf("sqltypes: invalid date %q: %w", s, err)
	}
	return NewDate(t.Unix() / 86400), nil
}

// MustDate is ParseDate for literals known to be valid; it panics on error.
func MustDate(s string) Value {
	v, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return v
}

// DateToTime converts a DATE value to a UTC time.Time at midnight.
func DateToTime(v Value) time.Time {
	return time.Unix(v.I*86400, 0).UTC()
}

// TimeToDate converts a time.Time to a DATE value (UTC calendar day).
func TimeToDate(t time.Time) Value {
	y, m, d := t.UTC().Date()
	u := time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
	return NewDate(u.Unix() / 86400)
}

// BindValue converts a Go value supplied as a bind argument into a SQL
// value. nil maps to NULL, time.Time to DATE (UTC calendar day); a Value
// passes through unchanged. Strings stay strings — plan-time type hints
// coerce them (e.g. to DATE) per statement slot.
func BindValue(v any) (Value, error) {
	switch x := v.(type) {
	case nil:
		return Null, nil
	case Value:
		return x, nil
	case int:
		return NewInt(int64(x)), nil
	case int32:
		return NewInt(int64(x)), nil
	case int64:
		return NewInt(x), nil
	case float32:
		return NewFloat(float64(x)), nil
	case float64:
		return NewFloat(x), nil
	case string:
		return NewString(x), nil
	case bool:
		return NewBool(x), nil
	case time.Time:
		return TimeToDate(x), nil
	}
	return Null, fmt.Errorf("sqltypes: unsupported bind type %T", v)
}

// BindValues converts a client's bind arguments with BindValue; the error
// names the failing parameter by its 1-based position.
func BindValues(args []any) ([]Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	out := make([]Value, len(args))
	for i, a := range args {
		v, err := BindValue(a)
		if err != nil {
			return nil, fmt.Errorf("bind $%d: %w", i+1, err)
		}
		out[i] = v
	}
	return out, nil
}

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Bool reports the truth value of a BOOLEAN; NULL and non-booleans are false.
func (v Value) Bool() bool { return v.K == KindBool && v.I != 0 }

// AsInt returns the value as int64 (INTEGER, DECIMAL truncated, DATE days).
func (v Value) AsInt() int64 {
	switch v.K {
	case KindInt, KindDate, KindBool:
		return v.I
	case KindFloat:
		return int64(v.F)
	}
	return 0
}

// AsFloat returns the value as float64.
func (v Value) AsFloat() float64 {
	switch v.K {
	case KindInt, KindDate:
		return float64(v.I)
	case KindFloat:
		return v.F
	case KindBool:
		return float64(v.I)
	}
	return 0
}

// AsString returns the value as its SQL text form without quotes.
func (v Value) AsString() string {
	switch v.K {
	case KindString:
		return v.S
	default:
		return v.String()
	}
}

// IsNumeric reports whether v is INTEGER or DECIMAL.
func (v Value) IsNumeric() bool { return v.K == KindInt || v.K == KindFloat }

// String renders the value the way the engine prints result cells.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'f', 2, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindDate:
		return DateToTime(v).Format("2006-01-02")
	case KindInterval:
		var parts []string
		if int64(v.F) != 0 {
			parts = append(parts, fmt.Sprintf("%d months", int64(v.F)))
		}
		if v.I != 0 || len(parts) == 0 {
			parts = append(parts, fmt.Sprintf("%d days", v.I))
		}
		return strings.Join(parts, " ")
	}
	return "?"
}

// SQLLiteral renders the value as a SQL literal that parses back to it. A
// DECIMAL keeps the two fractional digits results are displayed with where
// they hold the value exactly, and takes as many as it needs where they do
// not: 0.001 used to print, and so reach the engine, as 0.00.
func (v Value) SQLLiteral() string {
	switch v.K {
	case KindString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case KindDate:
		return "DATE '" + v.String() + "'"
	case KindFloat:
		s := v.String()
		if f, err := strconv.ParseFloat(s, 64); err != nil || f != v.F {
			s = strconv.FormatFloat(v.F, 'g', -1, 64)
		}
		return s
	default:
		return v.String()
	}
}

// Compare orders two values. ok is false when either side is NULL or the
// kinds are incomparable; then the comparison result is SQL unknown.
func Compare(a, b Value) (cmp int, ok bool) {
	// Fast path for the dominant case in join keys and filters; KindInt
	// implies non-NULL.
	if a.K == KindInt && b.K == KindInt {
		return cmpInt(a.I, b.I), true
	}
	if a.IsNull() || b.IsNull() {
		return 0, false
	}
	switch {
	case a.IsNumeric() && b.IsNumeric():
		// int-int was handled by the fast path above.
		return cmpFloat(a.AsFloat(), b.AsFloat()), true
	case a.K == KindString && b.K == KindString:
		return strings.Compare(a.S, b.S), true
	case a.K == KindDate && b.K == KindDate:
		return cmpInt(a.I, b.I), true
	case a.K == KindBool && b.K == KindBool:
		return cmpInt(a.I, b.I), true
	}
	return 0, false
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Equal reports SQL equality (NULL = anything is unknown → false, ok=false).
func Equal(a, b Value) (eq bool, ok bool) {
	c, ok := Compare(a, b)
	return c == 0, ok
}

// Arithmetic errors. ErrIntRange is what INTEGER +, -, *, unary minus and SUM raise where
// two's complement would wrap.
var (
	errBadOperand = fmt.Errorf("sqltypes: invalid operand types")
	ErrIntRange   = fmt.Errorf("sqltypes: integer out of range")
)

// AddInt is a + b, or ErrIntRange; exported, as SubInt and MulInt are, for the engine.
func AddInt(a, b int64) (int64, error) {
	c := a + b
	if (a^c)&(b^c) < 0 { // the operands agree in sign and the sum does not
		return 0, ErrIntRange
	}
	return c, nil
}

// SubInt is a - b, or ErrIntRange.
func SubInt(a, b int64) (int64, error) {
	c := a - b
	if (a^b)&(a^c) < 0 { // the operands differ in sign and the difference left a's
		return 0, ErrIntRange
	}
	return c, nil
}

// MulInt is a * b, or ErrIntRange.
func MulInt(a, b int64) (int64, error) {
	neg := (a < 0) != (b < 0)
	hi, lo := bits.Mul64(magnitude(a), magnitude(b))
	limit := uint64(math.MaxInt64)
	if neg {
		limit++ // |MinInt64|
	}
	if hi != 0 || lo > limit {
		return 0, ErrIntRange
	}
	if neg {
		return -int64(lo), nil // lo = 1<<63 negates to MinInt64
	}
	return int64(lo), nil
}

func magnitude(a int64) uint64 {
	if a < 0 {
		return -uint64(a)
	}
	return uint64(a)
}

// intResult wraps a checked integer result as a Value.
func intResult(i int64, err error) (Value, error) {
	if err != nil {
		return Null, err
	}
	return NewInt(i), nil
}

// Add evaluates a + b with numeric coercion and DATE+INTERVAL support.
func Add(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	switch {
	case a.K == KindInt && b.K == KindInt:
		return intResult(AddInt(a.I, b.I))
	case a.IsNumeric() && b.IsNumeric():
		return NewFloat(a.AsFloat() + b.AsFloat()), nil
	case a.K == KindDate && b.K == KindInterval:
		return shiftDate(a, b, 1), nil
	case a.K == KindInterval && b.K == KindDate:
		return shiftDate(b, a, 1), nil
	}
	return Null, fmt.Errorf("%w: %s + %s", errBadOperand, a.K, b.K)
}

// Sub evaluates a - b.
func Sub(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	switch {
	case a.K == KindInt && b.K == KindInt:
		return intResult(SubInt(a.I, b.I))
	case a.IsNumeric() && b.IsNumeric():
		return NewFloat(a.AsFloat() - b.AsFloat()), nil
	case a.K == KindDate && b.K == KindInterval:
		return shiftDate(a, b, -1), nil
	case a.K == KindDate && b.K == KindDate:
		return NewInt(a.I - b.I), nil
	}
	return Null, fmt.Errorf("%w: %s - %s", errBadOperand, a.K, b.K)
}

func shiftDate(d, iv Value, sign int) Value {
	t := DateToTime(d)
	months := int(iv.F) * sign
	days := int(iv.I) * sign
	t = t.AddDate(0, months, days)
	return TimeToDate(t)
}

// Mul evaluates a * b.
func Mul(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if a.K == KindInt && b.K == KindInt {
		return intResult(MulInt(a.I, b.I))
	}
	if a.IsNumeric() && b.IsNumeric() {
		return NewFloat(a.AsFloat() * b.AsFloat()), nil
	}
	return Null, fmt.Errorf("%w: %s * %s", errBadOperand, a.K, b.K)
}

// Div evaluates a / b; SQL division by zero is an error, NULL propagates.
// INTEGER / INTEGER truncates toward zero (PostgreSQL semantics); any
// DECIMAL operand yields DECIMAL.
func Div(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if !a.IsNumeric() || !b.IsNumeric() {
		return Null, fmt.Errorf("%w: %s / %s", errBadOperand, a.K, b.K)
	}
	if a.K == KindInt && b.K == KindInt {
		if b.I == 0 {
			return Null, fmt.Errorf("sqltypes: division by zero")
		}
		return NewInt(a.I / b.I), nil
	}
	d := b.AsFloat()
	if d == 0 {
		return Null, fmt.Errorf("sqltypes: division by zero")
	}
	return NewFloat(a.AsFloat() / d), nil
}

// Neg evaluates -a. The smallest INTEGER has no negation: ErrIntRange, like
// the overflow of +, - and *.
func Neg(a Value) (Value, error) {
	switch a.K {
	case KindNull:
		return Null, nil
	case KindInt:
		if a.I == math.MinInt64 {
			return Null, ErrIntRange
		}
		return NewInt(-a.I), nil
	case KindFloat:
		return NewFloat(-a.F), nil
	}
	return Null, fmt.Errorf("%w: -%s", errBadOperand, a.K)
}

// AppendKey appends a canonical, collision-free encoding of v to key, used
// for hash-join and group-by keys. Numeric values that compare equal encode
// identically: an INTEGER that float64 represents exactly takes the float
// encoding, so 1 and 1.0 meet in every hash structure. One that it does not
// — beyond 2^53, where neighbouring integers round to one float — is equal to
// no DECIMAL the engine can hold exactly and takes an exact encoding of its
// own, which keeps 2^62 and 2^62+1 apart.
func AppendKey(key []byte, v Value) []byte {
	switch v.K {
	case KindNull:
		return append(key, 'n')
	case KindInt:
		// f < 2^63 guards the conversion back: int64(2^63) is not defined.
		if f := float64(v.I); f < 1<<63 && int64(f) == v.I {
			return appendFloatKey(append(key, 'f'), f)
		}
		return binary.LittleEndian.AppendUint64(append(key, 'i'), uint64(v.I))
	case KindFloat:
		return appendFloatKey(append(key, 'f'), v.F)
	case KindString:
		// A uvarint length is prefix-free: no key is a prefix of another.
		return append(binary.AppendUvarint(append(key, 's'), uint64(len(v.S))), v.S...)
	case KindBool:
		if v.I != 0 {
			return append(key, 't')
		}
		return append(key, 'F')
	case KindDate:
		key = append(key, 'd')
		return strconv.AppendInt(key, v.I, 10)
	}
	return append(key, '?')
}

func appendFloatKey(key []byte, f float64) []byte {
	bits := math.Float64bits(f)
	if f == 0 { // normalize -0 and +0
		bits = 0
	}
	// Single append keeps this inlinable in the key-building hot loops.
	return append(key,
		byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
		byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
}

// Truthy converts a value used in a WHERE/HAVING context to (true, known).
func Truthy(v Value) (truth, known bool) {
	if v.IsNull() {
		return false, false
	}
	if v.K == KindBool {
		return v.I != 0, true
	}
	return false, true
}
