package sqlast

import (
	"math"
	"reflect"
)

// This file is structural equality over the AST. Two nodes are equal when
// they have the same type and every field is equal — names and operators
// byte for byte, floats bit for bit, a nil slice like an empty one — which
// is "the same statement" as the parser would build it: what the text round
// trip has to preserve (sqlparse.FuzzParse) and what lets an evaluator run
// one of two subtrees in place of both (the engine's shared subexpressions).
// Both functions walk the node types by reflection, so a field added to a
// node is compared and hashed the day it is added.

// Equal reports whether a and b are the same expression as ASTs; nil equals
// only nil. Subqueries are entered.
func Equal(a, b Expr) bool { return equalValue(reflect.ValueOf(a), reflect.ValueOf(b)) }

// EqualStatement is Equal for whole statements.
func EqualStatement(a, b Statement) bool {
	return equalValue(reflect.ValueOf(a), reflect.ValueOf(b))
}

func equalValue(a, b reflect.Value) bool {
	if !a.IsValid() || !b.IsValid() { // a nil interface
		return a.IsValid() == b.IsValid()
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return equalValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !equalValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equalValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint8:
		return a.Uint() == b.Uint()
	}
	panic("sqlast: Equal: unhandled field kind " + a.Kind().String())
}

// Hash is a structural hash consistent with Equal: equal expressions hash
// alike. It is the key a caller buckets candidate nodes by before confirming
// with Equal.
func Hash(e Expr) uint64 { return hashValue(fnvOffset, reflect.ValueOf(e)) }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = mix(h, uint64(s[i]))
	}
	return mix(h, uint64(len(s)))
}

func hashValue(h uint64, v reflect.Value) uint64 {
	if !v.IsValid() {
		return mix(h, 0)
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return mix(h, 0)
		}
		return hashValue(h, v.Elem())
	case reflect.Struct:
		h = hashString(h, v.Type().Name())
		for i := 0; i < v.NumField(); i++ {
			h = hashValue(h, v.Field(i))
		}
		return h
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			h = hashValue(h, v.Index(i))
		}
		return mix(h, uint64(v.Len()))
	case reflect.String:
		return hashString(h, v.String())
	case reflect.Bool:
		if v.Bool() {
			return mix(h, 1)
		}
		return mix(h, 2)
	case reflect.Float64:
		return mix(h, math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int64:
		return mix(h, uint64(v.Int()))
	case reflect.Uint8:
		return mix(h, v.Uint())
	}
	panic("sqlast: Hash: unhandled field kind " + v.Kind().String())
}
