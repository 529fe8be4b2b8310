package wire

// Message payload encodings. Each message type has an Encode func building
// the payload and a Decode func parsing it; framing (wire.go) carries the
// type byte, so payloads hold only the message fields.

import (
	"fmt"

	"mtbase/internal/sqltypes"
)

// Hello opens the handshake: protocol magic, the highest version the
// client speaks, the tenant the connection binds to (C), and the initial
// optimization level by name ("" = server default).
type Hello struct {
	Version uint32
	Tenant  int64
	Level   string
}

// EncodeHello builds a Hello payload.
func EncodeHello(h Hello) []byte {
	buf := append([]byte(nil), Magic...)
	buf = AppendUvarint(buf, uint64(h.Version))
	buf = AppendVarint(buf, h.Tenant)
	return AppendString(buf, h.Level)
}

// DecodeHello parses a Hello payload.
func DecodeHello(payload []byte) (Hello, error) {
	var h Hello
	if len(payload) < len(Magic) || string(payload[:len(Magic)]) != Magic {
		return h, fmt.Errorf("wire: bad magic")
	}
	r := NewReader(payload[len(Magic):])
	v, err := r.Uvarint()
	if err != nil {
		return h, err
	}
	h.Version = uint32(v)
	if h.Tenant, err = r.Varint(); err != nil {
		return h, err
	}
	h.Level, err = r.String()
	return h, err
}

// HelloOK completes the handshake with the negotiated version.
type HelloOK struct {
	Version   uint32
	Server    string
	SessionID uint64
}

// EncodeHelloOK builds a HelloOK payload.
func EncodeHelloOK(h HelloOK) []byte {
	buf := AppendUvarint(nil, uint64(h.Version))
	buf = AppendString(buf, h.Server)
	return AppendUvarint(buf, h.SessionID)
}

// DecodeHelloOK parses a HelloOK payload.
func DecodeHelloOK(payload []byte) (HelloOK, error) {
	var h HelloOK
	r := NewReader(payload)
	v, err := r.Uvarint()
	if err != nil {
		return h, err
	}
	h.Version = uint32(v)
	if h.Server, err = r.String(); err != nil {
		return h, err
	}
	sid, err := r.Uvarint()
	h.SessionID = sid
	return h, err
}

// Query is the simple protocol: one SQL statement (any kind — SELECT
// streams rows, DML/DDL/SET SCOPE answer Done) with optional bind values.
type Query struct {
	SQL  string
	Args []sqltypes.Value
}

// EncodeQuery builds a Query payload.
func EncodeQuery(q Query) []byte {
	buf := AppendString(nil, q.SQL)
	return AppendValues(buf, q.Args)
}

// DecodeQuery parses a Query payload.
func DecodeQuery(payload []byte) (Query, error) {
	var q Query
	r := NewReader(payload)
	var err error
	if q.SQL, err = r.String(); err != nil {
		return q, err
	}
	q.Args, err = r.Values()
	return q, err
}

// Prepare registers a statement under a client-chosen id.
type Prepare struct {
	StmtID uint32
	SQL    string
}

// EncodePrepare builds a Prepare payload.
func EncodePrepare(p Prepare) []byte {
	buf := AppendUvarint(nil, uint64(p.StmtID))
	return AppendString(buf, p.SQL)
}

// DecodePrepare parses a Prepare payload.
func DecodePrepare(payload []byte) (Prepare, error) {
	var p Prepare
	r := NewReader(payload)
	id, err := r.Uvarint()
	if err != nil {
		return p, err
	}
	p.StmtID = uint32(id)
	p.SQL, err = r.String()
	return p, err
}

// PrepareOK acknowledges a Prepare.
type PrepareOK struct {
	StmtID    uint32
	NumParams uint32
	IsQuery   bool
}

// EncodePrepareOK builds a PrepareOK payload.
func EncodePrepareOK(p PrepareOK) []byte {
	buf := AppendUvarint(nil, uint64(p.StmtID))
	buf = AppendUvarint(buf, uint64(p.NumParams))
	return AppendBool(buf, p.IsQuery)
}

// DecodePrepareOK parses a PrepareOK payload.
func DecodePrepareOK(payload []byte) (PrepareOK, error) {
	var p PrepareOK
	r := NewReader(payload)
	id, err := r.Uvarint()
	if err != nil {
		return p, err
	}
	p.StmtID = uint32(id)
	n, err := r.Uvarint()
	if err != nil {
		return p, err
	}
	p.NumParams = uint32(n)
	p.IsQuery, err = r.Bool()
	return p, err
}

// Bind attaches argument values to a prepared statement's portal.
type Bind struct {
	StmtID uint32
	Args   []sqltypes.Value
}

// EncodeBind builds a Bind payload.
func EncodeBind(b Bind) []byte {
	buf := AppendUvarint(nil, uint64(b.StmtID))
	return AppendValues(buf, b.Args)
}

// DecodeBind parses a Bind payload.
func DecodeBind(payload []byte) (Bind, error) {
	var b Bind
	r := NewReader(payload)
	id, err := r.Uvarint()
	if err != nil {
		return b, err
	}
	b.StmtID = uint32(id)
	b.Args, err = r.Values()
	return b, err
}

// Execute runs the bound portal. WantRows distinguishes the client's
// Query path (errors on DML, mirroring middleware.Stmt.Query) from Exec.
type Execute struct {
	StmtID   uint32
	WantRows bool
}

// EncodeExecute builds an Execute payload.
func EncodeExecute(e Execute) []byte {
	buf := AppendUvarint(nil, uint64(e.StmtID))
	return AppendBool(buf, e.WantRows)
}

// DecodeExecute parses an Execute payload.
func DecodeExecute(payload []byte) (Execute, error) {
	var e Execute
	r := NewReader(payload)
	id, err := r.Uvarint()
	if err != nil {
		return e, err
	}
	e.StmtID = uint32(id)
	e.WantRows, err = r.Bool()
	return e, err
}

// EncodeStmtID builds the payload of the one-field statement messages
// (CloseStmt, CloseOK).
func EncodeStmtID(id uint32) []byte { return AppendUvarint(nil, uint64(id)) }

// DecodeStmtID parses a one-field statement payload.
func DecodeStmtID(payload []byte) (uint32, error) {
	id, err := NewReader(payload).Uvarint()
	return uint32(id), err
}

// RowHeader opens a row stream with the output column names.
type RowHeader struct {
	Cols []string
}

// EncodeRowHeader builds a RowHeader payload.
func EncodeRowHeader(h RowHeader) []byte {
	buf := AppendUvarint(nil, uint64(len(h.Cols)))
	for _, c := range h.Cols {
		buf = AppendString(buf, c)
	}
	return buf
}

// DecodeRowHeader parses a RowHeader payload.
func DecodeRowHeader(payload []byte) (RowHeader, error) {
	var h RowHeader
	r := NewReader(payload)
	n, err := r.count()
	if err != nil {
		return h, err
	}
	h.Cols = make([]string, n)
	for i := range h.Cols {
		if h.Cols[i], err = r.String(); err != nil {
			return h, err
		}
	}
	return h, nil
}

// RowBatch carries a bounded chunk of a row stream.
type RowBatch struct {
	Rows [][]sqltypes.Value
}

// EncodeRowBatch builds a RowBatch payload.
func EncodeRowBatch(b RowBatch) []byte {
	buf := AppendUvarint(nil, uint64(len(b.Rows)))
	for _, row := range b.Rows {
		buf = AppendValues(buf, row)
	}
	return buf
}

// DecodeRowBatch parses a RowBatch payload.
func DecodeRowBatch(payload []byte) (RowBatch, error) {
	var b RowBatch
	r := NewReader(payload)
	n, err := r.count()
	if err != nil {
		return b, err
	}
	b.Rows = make([][]sqltypes.Value, n)
	for i := range b.Rows {
		if b.Rows[i], err = r.Values(); err != nil {
			return b, err
		}
	}
	return b, nil
}

// Done terminates a successful statement: rows streamed for queries,
// affected count for DML.
type Done struct {
	Rows     int64
	Affected int64
}

// EncodeDone builds a Done payload.
func EncodeDone(d Done) []byte {
	buf := AppendVarint(nil, d.Rows)
	return AppendVarint(buf, d.Affected)
}

// DecodeDone parses a Done payload.
func DecodeDone(payload []byte) (Done, error) {
	var d Done
	r := NewReader(payload)
	var err error
	if d.Rows, err = r.Varint(); err != nil {
		return d, err
	}
	d.Affected, err = r.Varint()
	return d, err
}

// EncodeError builds an Error payload from a typed error.
func EncodeError(e *Err) []byte {
	buf := AppendString(nil, e.Code)
	return AppendString(buf, e.Message)
}

// DecodeError parses an Error payload.
func DecodeError(payload []byte) (*Err, error) {
	r := NewReader(payload)
	code, err := r.String()
	if err != nil {
		return nil, err
	}
	msg, err := r.String()
	if err != nil {
		return nil, err
	}
	return &Err{Code: code, Message: msg}, nil
}

// StatPair is one named counter in a StatsOK reply.
type StatPair struct {
	Name  string
	Value int64
}

// StatsOK reports engine and server counters in a stable order.
type StatsOK struct {
	Pairs []StatPair
}

// EncodeStatsOK builds a StatsOK payload.
func EncodeStatsOK(s StatsOK) []byte {
	buf := AppendUvarint(nil, uint64(len(s.Pairs)))
	for _, p := range s.Pairs {
		buf = AppendString(buf, p.Name)
		buf = AppendVarint(buf, p.Value)
	}
	return buf
}

// DecodeStatsOK parses a StatsOK payload.
func DecodeStatsOK(payload []byte) (StatsOK, error) {
	var s StatsOK
	r := NewReader(payload)
	n, err := r.count()
	if err != nil {
		return s, err
	}
	s.Pairs = make([]StatPair, n)
	for i := range s.Pairs {
		if s.Pairs[i].Name, err = r.String(); err != nil {
			return s, err
		}
		if s.Pairs[i].Value, err = r.Varint(); err != nil {
			return s, err
		}
	}
	return s, nil
}

// Set is the session/admin option message: Set("level", "o3") switches the
// optimization level, Set("explain", sql) returns the rewritten SQL,
// Set("backup", dir) runs an online backup, Set("snapshot", "") forces a
// durability snapshot. SetOK answers with the resulting value.
type Set struct {
	Name  string
	Value string
}

// EncodeSet builds a Set payload.
func EncodeSet(s Set) []byte {
	buf := AppendString(nil, s.Name)
	return AppendString(buf, s.Value)
}

// DecodeSet parses a Set payload.
func DecodeSet(payload []byte) (Set, error) {
	var s Set
	r := NewReader(payload)
	var err error
	if s.Name, err = r.String(); err != nil {
		return s, err
	}
	s.Value, err = r.String()
	return s, err
}

// EncodeSetOK builds a SetOK payload.
func EncodeSetOK(value string) []byte { return AppendString(nil, value) }

// DecodeSetOK parses a SetOK payload.
func DecodeSetOK(payload []byte) (string, error) { return NewReader(payload).String() }
