package wire

// Payload codec: append-style writers over a []byte and a cursor-style
// Reader. Values travel as the bit-exact binary image sqltypes defines (the
// one the engine's spill files carry too); value lists encode length+1 so
// nil stays distinct from empty.

import (
	"encoding/binary"
	"fmt"

	"mtbase/internal/sqltypes"
)

// ErrCorrupt reports an undecodable payload.
var ErrCorrupt = fmt.Errorf("wire: corrupt payload")

// maxWireList bounds decoded list lengths (values, rows, columns) so a
// corrupt length prefix cannot drive an allocation of arbitrary size.
const maxWireList = 1 << 22

// AppendUvarint appends v in unsigned varint encoding.
func AppendUvarint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

// AppendVarint appends v in zig-zag varint encoding.
func AppendVarint(buf []byte, v int64) []byte { return binary.AppendVarint(buf, v) }

// AppendString appends a length-prefixed string.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBool appends a single 0/1 byte.
func AppendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendValue appends the exact binary image of v: kind byte plus payload.
func AppendValue(buf []byte, v sqltypes.Value) []byte { return sqltypes.AppendBinary(buf, v) }

// AppendValues appends a value list; a nil slice stays distinct from an
// empty one.
func AppendValues(buf []byte, vals []sqltypes.Value) []byte {
	return sqltypes.AppendBinaryList(buf, vals)
}

// Reader is a cursor over a payload. Decoding methods return ErrCorrupt
// (wrapped with context) on malformed input; the zero Reader over the
// payload slice is ready to use.
type Reader struct {
	buf []byte
}

// NewReader returns a Reader over payload.
func NewReader(payload []byte) *Reader { return &Reader{buf: payload} }

// Uvarint decodes an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		return 0, ErrCorrupt
	}
	r.buf = r.buf[n:]
	return v, nil
}

// Varint decodes a zig-zag varint.
func (r *Reader) Varint() (int64, error) {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		return 0, ErrCorrupt
	}
	r.buf = r.buf[n:]
	return v, nil
}

// String decodes a length-prefixed string.
func (r *Reader) String() (string, error) {
	l, err := r.Uvarint()
	if err != nil || uint64(len(r.buf)) < l {
		return "", ErrCorrupt
	}
	s := string(r.buf[:l])
	r.buf = r.buf[l:]
	return s, nil
}

// count decodes the length of a list whose every element takes at least one
// byte: a length above maxWireList or above the bytes left is corrupt, and
// fails before the list is allocated.
func (r *Reader) count() (int, error) {
	n, err := r.Uvarint()
	if err != nil || n > maxWireList || n > uint64(len(r.buf)) {
		return 0, ErrCorrupt
	}
	return int(n), nil
}

// Bool decodes a 0/1 byte.
func (r *Reader) Bool() (bool, error) {
	b, err := r.Byte()
	return b != 0, err
}

// Byte decodes one raw byte.
func (r *Reader) Byte() (byte, error) {
	if len(r.buf) < 1 {
		return 0, ErrCorrupt
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b, nil
}

// Value decodes one value.
func (r *Reader) Value() (sqltypes.Value, error) {
	v, rest, ok := sqltypes.ReadBinary(r.buf)
	if !ok {
		return sqltypes.Null, ErrCorrupt
	}
	r.buf = rest
	return v, nil
}

// Values decodes a value list (nil for the 0 sentinel).
func (r *Reader) Values() ([]sqltypes.Value, error) {
	vals, rest, ok := sqltypes.ReadBinaryList(r.buf, maxWireList)
	if !ok {
		return nil, ErrCorrupt
	}
	r.buf = rest
	return vals, nil
}
