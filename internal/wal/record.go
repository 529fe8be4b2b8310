package wal

// Record layout (on disk, little-endian where fixed-width):
//
//	[u32 len][u32 crc32c(payload)][payload]
//
//	payload = uvarint LSN
//	        | byte   kind
//	        | varint tenant (C)
//	        | byte   optimization level
//	        | string scope  (the SET SCOPE statement in effect; "" = default)
//	        | string sql    (the client statement text, placeholders intact)
//	        | values args   (bind values, wire codec, bit-exact)
//
// The CRC covers the payload only; the length prefix is validated by
// bounds checking. A record that fails either check stops its segment.

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"

	"mtbase/internal/sqltypes"
	"mtbase/internal/wire"
)

// Kind classifies a record for snapshot-aware replay.
type Kind uint8

const (
	// KindData marks DML (INSERT/UPDATE/DELETE): its heap effects are
	// captured by any later snapshot, so replay skips it when recovering
	// from one.
	KindData Kind = 1
	// KindSchema marks DDL, GRANT and REVOKE: it shapes catalog and
	// privilege state that lives outside the snapshotted heaps, so replay
	// applies it even under a snapshot.
	KindSchema Kind = 2
)

// Record is one logged mutating statement with its session context.
type Record struct {
	LSN    uint64
	Kind   Kind
	Tenant int64
	Level  uint8
	Scope  string
	SQL    string
	Args   []sqltypes.Value
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encode appends the on-disk image of r to buf.
func (r *Record) encode(buf []byte) []byte {
	var payload []byte
	payload = wire.AppendUvarint(payload, r.LSN)
	payload = append(payload, byte(r.Kind))
	payload = wire.AppendVarint(payload, r.Tenant)
	payload = append(payload, r.Level)
	payload = wire.AppendString(payload, r.Scope)
	payload = wire.AppendString(payload, r.SQL)
	payload = wire.AppendValues(payload, r.Args)

	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// maxRecord bounds one record's payload; larger length prefixes are
// treated as corruption rather than allocation requests.
const maxRecord = 64 << 20

// decodeFrom reads one record, reporting (false, nil) at a clean EOF and
// an error for a torn or corrupt record.
func (r *Record) decodeFrom(br *bufio.Reader) (bool, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return false, nil
		}
		return false, err // torn header
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if n == 0 || n > maxRecord {
		return false, wire.ErrCorrupt
	}
	payload, err := wire.ReadPayload(br, int(n))
	if err != nil {
		return false, err // torn payload, or a length the segment does not back
	}
	if crc32.Checksum(payload, crcTable) != crc {
		return false, wire.ErrCorrupt
	}
	rd := wire.NewReader(payload)
	lsn, err := rd.Uvarint()
	if err != nil {
		return false, err
	}
	r.LSN = lsn
	kb, err := rd.Byte()
	if err != nil {
		return false, err
	}
	r.Kind = Kind(kb)
	if r.Tenant, err = rd.Varint(); err != nil {
		return false, err
	}
	if r.Level, err = rd.Byte(); err != nil {
		return false, err
	}
	if r.Scope, err = rd.String(); err != nil {
		return false, err
	}
	if r.SQL, err = rd.String(); err != nil {
		return false, err
	}
	if r.Args, err = rd.Values(); err != nil {
		return false, err
	}
	return true, nil
}
