package sqltypes

import (
	"encoding/binary"
	"math"
)

// The binary value image: a kind byte plus a kind-specific payload. It is
// bit-exact — float payloads are raw IEEE-754 bits, so a decoded value is
// identical to the encoded one — and it is written here once: the wire
// protocol's payload codec and the engine's spill files both carry it, each
// wrapping a failed decode in its own error.

// AppendBinary appends the binary image of v.
func AppendBinary(buf []byte, v Value) []byte {
	buf = append(buf, byte(v.K))
	switch v.K {
	case KindInt, KindDate:
		buf = binary.AppendVarint(buf, v.I)
	case KindFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
	case KindString:
		buf = binary.AppendUvarint(buf, uint64(len(v.S)))
		buf = append(buf, v.S...)
	case KindBool:
		b := byte(0)
		if v.I != 0 {
			b = 1
		}
		buf = append(buf, b)
	case KindInterval:
		buf = binary.AppendVarint(buf, v.I)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.F))
	}
	return buf
}

// ReadBinary decodes one value image from the front of buf and returns the
// remainder; ok is false when the image is truncated or its kind byte names no
// kind.
func ReadBinary(buf []byte) (v Value, rest []byte, ok bool) {
	if len(buf) == 0 {
		return Null, nil, false
	}
	v.K, buf = Kind(buf[0]), buf[1:]
	switch v.K {
	case KindNull:
	case KindInt, KindDate:
		i, n := binary.Varint(buf)
		if n <= 0 {
			return Null, nil, false
		}
		v.I, buf = i, buf[n:]
	case KindFloat:
		if len(buf) < 8 {
			return Null, nil, false
		}
		v.F, buf = math.Float64frombits(binary.LittleEndian.Uint64(buf)), buf[8:]
	case KindString:
		l, n := binary.Uvarint(buf)
		if n <= 0 || uint64(len(buf)-n) < l {
			return Null, nil, false
		}
		v.S, buf = string(buf[n:n+int(l)]), buf[n+int(l):]
	case KindBool:
		if len(buf) < 1 {
			return Null, nil, false
		}
		if buf[0] != 0 {
			v.I = 1
		}
		buf = buf[1:]
	case KindInterval:
		i, n := binary.Varint(buf)
		if n <= 0 || len(buf)-n < 8 {
			return Null, nil, false
		}
		v.I = i
		v.F = math.Float64frombits(binary.LittleEndian.Uint64(buf[n:]))
		buf = buf[n+8:]
	default:
		return Null, nil, false
	}
	return v, buf, true
}

// AppendBinaryList appends a value list; the length encodes len+1 so a nil
// slice (0) stays distinct from an empty one (1).
func AppendBinaryList(buf []byte, vals []Value) []byte {
	if vals == nil {
		return binary.AppendUvarint(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(vals))+1)
	for _, v := range vals {
		buf = AppendBinary(buf, v)
	}
	return buf
}

// ReadBinaryList decodes a value list (nil for the 0 sentinel). A length above
// max — the caller's bound on what a sound encoder can have written — or
// above the bytes left fails before anything is allocated for it.
func ReadBinaryList(buf []byte, max uint64) (vals []Value, rest []byte, ok bool) {
	n, w := binary.Uvarint(buf)
	if w <= 0 {
		return nil, nil, false
	}
	buf = buf[w:]
	if n == 0 {
		return nil, buf, true
	}
	if n-1 > max || n-1 > uint64(len(buf)) { // every value image takes its kind byte at least
		return nil, nil, false
	}
	vals = make([]Value, n-1)
	for i := range vals {
		if vals[i], buf, ok = ReadBinary(buf); !ok {
			return nil, nil, false
		}
	}
	return vals, buf, true
}
