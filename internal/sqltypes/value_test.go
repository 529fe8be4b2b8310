package sqltypes

import (
	"errors"
	"math"
	"math/big"
	"strconv"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull: "NULL", KindInt: "INTEGER", KindFloat: "DECIMAL",
		KindString: "VARCHAR", KindBool: "BOOLEAN", KindDate: "DATE",
		KindInterval: "INTERVAL",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestParseDateRoundTrip(t *testing.T) {
	for _, s := range []string{"1970-01-01", "1992-02-29", "1998-12-01", "2026-06-10"} {
		v, err := ParseDate(s)
		if err != nil {
			t.Fatalf("ParseDate(%q): %v", s, err)
		}
		if got := v.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Error("ParseDate accepted garbage")
	}
}

func TestDateEpoch(t *testing.T) {
	v := MustDate("1970-01-01")
	if v.I != 0 {
		t.Errorf("epoch day = %d, want 0", v.I)
	}
	v = MustDate("1970-01-02")
	if v.I != 1 {
		t.Errorf("epoch+1 day = %d, want 1", v.I)
	}
}

func TestCompareNumericCoercion(t *testing.T) {
	c, ok := Compare(NewInt(3), NewFloat(3.0))
	if !ok || c != 0 {
		t.Errorf("3 vs 3.0: cmp=%d ok=%v", c, ok)
	}
	c, ok = Compare(NewFloat(2.5), NewInt(3))
	if !ok || c != -1 {
		t.Errorf("2.5 vs 3: cmp=%d ok=%v", c, ok)
	}
}

func TestCompareNulls(t *testing.T) {
	if _, ok := Compare(Null, NewInt(1)); ok {
		t.Error("NULL comparison must be unknown")
	}
	if _, ok := Compare(NewString("a"), NewInt(1)); ok {
		t.Error("cross-kind comparison must be unknown")
	}
}

func TestArithmetic(t *testing.T) {
	check := func(got Value, err error, want Value) {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if eq, ok := Equal(got, want); !ok || !eq {
			t.Errorf("got %v want %v", got, want)
		}
	}
	v, err := Add(NewInt(2), NewInt(3))
	check(v, err, NewInt(5))
	v, err = Sub(NewFloat(2.5), NewInt(1))
	check(v, err, NewFloat(1.5))
	v, err = Mul(NewInt(4), NewFloat(0.5))
	check(v, err, NewFloat(2))
	v, err = Div(NewInt(7), NewInt(2))
	check(v, err, NewInt(3)) // integer division truncates (PostgreSQL)
	v, err = Div(NewFloat(7), NewInt(2))
	check(v, err, NewFloat(3.5))
	if _, err := Div(NewInt(1), NewInt(0)); err == nil {
		t.Error("division by zero not reported")
	}
	if _, err := Div(NewFloat(1), NewFloat(0)); err == nil {
		t.Error("float division by zero not reported")
	}
}

func TestArithmeticNullPropagation(t *testing.T) {
	for _, op := range []func(Value, Value) (Value, error){Add, Sub, Mul, Div} {
		v, err := op(Null, NewInt(1))
		if err != nil || !v.IsNull() {
			t.Errorf("op(NULL, 1) = %v, %v; want NULL", v, err)
		}
	}
}

func TestDateIntervalArithmetic(t *testing.T) {
	d := MustDate("1998-12-01")
	minus90, err := Sub(d, NewInterval(90, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := minus90.String(); got != "1998-09-02" {
		t.Errorf("1998-12-01 - 90 days = %s, want 1998-09-02", got)
	}
	plus3m, err := Add(MustDate("1995-01-01"), NewInterval(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got := plus3m.String(); got != "1995-04-01" {
		t.Errorf("1995-01-01 + 3 months = %s", got)
	}
	plus1y, err := Add(MustDate("1995-01-01"), NewInterval(0, 12))
	if err != nil {
		t.Fatal(err)
	}
	if got := plus1y.String(); got != "1996-01-01" {
		t.Errorf("1995-01-01 + 1 year = %s", got)
	}
	diff, err := Sub(MustDate("1970-01-10"), MustDate("1970-01-01"))
	if err != nil || diff.AsInt() != 9 {
		t.Errorf("date diff = %v, %v", diff, err)
	}
}

func TestSQLLiteral(t *testing.T) {
	if got := NewString("O'Brien").SQLLiteral(); got != "'O''Brien'" {
		t.Errorf("string literal = %s", got)
	}
	if got := MustDate("1994-01-01").SQLLiteral(); got != "DATE '1994-01-01'" {
		t.Errorf("date literal = %s", got)
	}
	if got := NewInt(42).SQLLiteral(); got != "42" {
		t.Errorf("int literal = %s", got)
	}
	// A DECIMAL reads back as the value it is: two fractional digits where
	// they are exact, more where they are not (FuzzParse: 0.001 printed 0.00).
	for f, want := range map[float64]string{1: "1.00", 0.05: "0.05", 0.001: "0.001", 1e-7: "1e-07", 1e25: "10000000000000000905969664.00", 1234.5678: "1234.5678"} {
		got := NewFloat(f).SQLLiteral()
		if back, err := strconv.ParseFloat(got, 64); got != want || err != nil || back != f {
			t.Errorf("decimal literal of %v = %s, want %s (reads back %v, %v)", f, got, want, back, err)
		}
	}
}

func TestAppendKeyIntFloatAgreement(t *testing.T) {
	// 1 and 1.0 must produce identical keys so they land in one group.
	a := AppendKey(nil, NewInt(1))
	b := AppendKey(nil, NewFloat(1.0))
	if string(a) != string(b) {
		t.Errorf("keys differ: %q vs %q", a, b)
	}
}

// TestAppendKeyKeepsLargeIntsApart: an INTEGER key is exact at any magnitude —
// neighbours beyond 2^53 round to one float64 and used to share its key —
// while every INTEGER that a DECIMAL can equal still shares that DECIMAL's.
func TestAppendKeyKeepsLargeIntsApart(t *testing.T) {
	key := func(v Value) string { return string(AppendKey(nil, v)) }
	edges := []int64{0, 1, -1, 1 << 53, 1<<53 + 1, 1<<53 + 2, -(1 << 53) - 1, 1 << 62, 1<<62 + 1,
		math.MaxInt64 - 1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
	for i, a := range edges {
		for _, b := range edges[i+1:] {
			if key(NewInt(a)) == key(NewInt(b)) {
				t.Errorf("INTEGER %d and %d share a key", a, b)
			}
		}
		if f := float64(a); f < 1<<63 && int64(f) == a && key(NewInt(a)) != key(NewFloat(f)) {
			t.Errorf("INTEGER %d and the DECIMAL equal to it have different keys", a)
		}
	}
	distinct := func(a, b int64) bool { return a == b || key(NewInt(a)) != key(NewInt(b)) }
	if err := quick.Check(distinct, nil); err != nil {
		t.Error(err)
	}
}

func TestAppendKeyInjective(t *testing.T) {
	// Property: distinct (string, string) pairs never collide because of the
	// length-prefixed encoding.
	f := func(a, b, c, d string) bool {
		k1 := AppendKey(AppendKey(nil, NewString(a)), NewString(b))
		k2 := AppendKey(AppendKey(nil, NewString(c)), NewString(d))
		if a == c && b == d {
			return string(k1) == string(k2)
		}
		return string(k1) != string(k2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		c1, ok1 := Compare(NewInt(a), NewInt(b))
		c2, ok2 := Compare(NewInt(b), NewInt(a))
		return ok1 && ok2 && c1 == -c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddSubInverse(t *testing.T) {
	f := func(a, b int32) bool {
		sum, err := Add(NewInt(int64(a)), NewInt(int64(b)))
		if err != nil {
			return false
		}
		back, err := Sub(sum, NewInt(int64(b)))
		if err != nil {
			return false
		}
		return back.I == int64(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestIntegerRange holds INTEGER +, -, * and unary minus (of the left operand)
// to arbitrary-precision results:
// the exact value when it fits in 64 bits, ErrIntRange when it does not —
// at the edges, where the sign tricks live, and over random operands.
func TestIntegerRange(t *testing.T) {
	ops := []struct {
		name string
		op   func(Value, Value) (Value, error)
		big  func(z, a, b *big.Int) *big.Int
	}{
		{"+", Add, (*big.Int).Add},
		{"-", Sub, (*big.Int).Sub},
		{"*", Mul, (*big.Int).Mul},
		{"neg", func(a, _ Value) (Value, error) { return Neg(a) }, func(z, a, _ *big.Int) *big.Int { return z.Neg(a) }},
	}
	check := func(a, b int64) bool {
		ok := true
		for _, o := range ops {
			want := o.big(new(big.Int), big.NewInt(a), big.NewInt(b))
			got, err := o.op(NewInt(a), NewInt(b))
			switch {
			case want.IsInt64() && (err != nil || got.K != KindInt || got.I != want.Int64()):
				t.Errorf("%d %s %d = %v, %v; want %s", a, o.name, b, got, err, want)
				ok = false
			case !want.IsInt64() && !errors.Is(err, ErrIntRange):
				t.Errorf("%d %s %d = %v, %v; want ErrIntRange (%s)", a, o.name, b, got, err, want)
				ok = false
			}
		}
		return ok
	}
	edges := []int64{0, 1, -1, 2, -2, math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
		1 << 62, -(1 << 62), 1 << 31, -(1 << 31), 1 << 32, 3037000499, 3037000500, -3037000500}
	for _, a := range edges {
		for _, b := range edges {
			check(a, b)
		}
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestTruthy(t *testing.T) {
	if tr, known := Truthy(NewBool(true)); !tr || !known {
		t.Error("true must be truthy/known")
	}
	if tr, known := Truthy(NewBool(false)); tr || !known {
		t.Error("false must be falsy/known")
	}
	if _, known := Truthy(Null); known {
		t.Error("NULL must be unknown")
	}
}
