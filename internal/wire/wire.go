// Package wire defines mtserve's client/server protocol: length-prefixed
// binary frames over a byte stream (TCP in production, net.Pipe in tests).
//
// Framing. Every message travels as one frame:
//
//	[u32 big-endian length][1 byte message type][payload]
//
// where length counts the type byte plus the payload. Frames larger than
// MaxFrame are a protocol error on both sides — row streams are chunked
// into batches well under the cap, so an oversized frame can only mean a
// desynchronized or hostile peer.
//
// Handshake. The client opens with Hello carrying the magic, the highest
// protocol version it speaks, the tenant it connects as (C is a property
// of the connection, exactly as in the paper §2.1) and an optimization
// level name. The server answers HelloOK with the negotiated version
// (min(client, server)) or Error and closes. Everything after the
// handshake is version-gated on that negotiated number.
//
// Statement flow. The protocol is synchronous per connection — one
// statement at a time — but requests may be pipelined (the client can send
// Bind+Execute in one write); every request receives exactly one
// terminating reply (the matching *OK / Done, or Error), so both sides
// stay in lockstep. Queries stream: RowHeader, zero or more RowBatch
// frames (each bounded by the engine's execution batch size), then Done.
// Cancel is the one asynchronous message: the client may send it while a
// stream is in flight and the server aborts the running statement at the
// next batch boundary, terminating the stream with an Error of code
// CodeCancelled.
//
// Values. Bind arguments and row values use the same bit-exact encoding
// discipline as the engine's spill files (engine/spill.go): a kind byte
// followed by a kind-specific payload, floats as raw IEEE-754 bits so a
// value round-trips the wire bit-identical, and value lists encoding
// length+1 so a nil slice stays distinct from an empty one. This is what
// lets the server-mode acceptance tests demand byte-identical results to
// the in-process path rather than "close enough".
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Magic opens every Hello payload.
const Magic = "MTWP"

// MaxVersion is the highest protocol version this build speaks.
const MaxVersion uint32 = 1

// MaxFrame bounds a single frame (type byte + payload).
const MaxFrame = 16 << 20

// frameChunk is the most ReadFrame allocates for a payload before its bytes
// arrive; a frame up to it is read into one exact allocation.
const frameChunk = 64 << 10

// DefaultPort is the conventional mtserve listen port.
const DefaultPort = 7687

// MsgType identifies a frame's message.
type MsgType byte

// Message types. Client→server unless noted.
const (
	MsgInvalid   MsgType = 0x00
	MsgHello     MsgType = 0x01
	MsgHelloOK   MsgType = 0x02 // server→client
	MsgQuery     MsgType = 0x03 // simple protocol: one SQL statement + args
	MsgPrepare   MsgType = 0x04
	MsgPrepareOK MsgType = 0x05 // server→client
	MsgBind      MsgType = 0x06
	MsgBindOK    MsgType = 0x07 // server→client
	MsgExecute   MsgType = 0x08
	MsgCloseStmt MsgType = 0x09
	MsgCloseOK   MsgType = 0x0a // server→client
	MsgRowHeader MsgType = 0x0b // server→client
	MsgRowBatch  MsgType = 0x0c // server→client
	MsgDone      MsgType = 0x0d // server→client
	MsgError     MsgType = 0x0e // server→client
	MsgStats     MsgType = 0x0f
	MsgStatsOK   MsgType = 0x10 // server→client
	MsgSet       MsgType = 0x11
	MsgSetOK     MsgType = 0x12 // server→client
	MsgCancel    MsgType = 0x13 // asynchronous
	MsgGoodbye   MsgType = 0x14
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "Hello"
	case MsgHelloOK:
		return "HelloOK"
	case MsgQuery:
		return "Query"
	case MsgPrepare:
		return "Prepare"
	case MsgPrepareOK:
		return "PrepareOK"
	case MsgBind:
		return "Bind"
	case MsgBindOK:
		return "BindOK"
	case MsgExecute:
		return "Execute"
	case MsgCloseStmt:
		return "CloseStmt"
	case MsgCloseOK:
		return "CloseOK"
	case MsgRowHeader:
		return "RowHeader"
	case MsgRowBatch:
		return "RowBatch"
	case MsgDone:
		return "Done"
	case MsgError:
		return "Error"
	case MsgStats:
		return "Stats"
	case MsgStatsOK:
		return "StatsOK"
	case MsgSet:
		return "Set"
	case MsgSetOK:
		return "SetOK"
	case MsgCancel:
		return "Cancel"
	case MsgGoodbye:
		return "Goodbye"
	}
	return fmt.Sprintf("MsgType(0x%02x)", byte(t))
}

// Error codes carried by MsgError. Codes are part of the protocol: clients
// branch on them (admission rejections are retryable, parse errors are
// not), so they are stable strings rather than numeric enums that would
// drift across versions.
const (
	CodeParse        = "parse"          // statement failed to parse
	CodeBind         = "bind"           // bad bind arguments (arity, type)
	CodeExec         = "exec"           // runtime execution failure
	CodeAuth         = "auth"           // unknown tenant at handshake
	CodeProtocol     = "protocol"       // framing/sequence violation
	CodeUnknownStmt  = "unknown_stmt"   // Bind/Execute/Close of an unknown id
	CodeNotQuery     = "not_query"      // Execute wanted rows from DML
	CodeCancelled    = "cancelled"      // statement aborted (Cancel/disconnect)
	CodeRateLimited  = "rate_limited"   // per-tenant token bucket exhausted
	CodeQuota        = "quota"          // per-tenant in-flight statement quota
	CodeTooManyConns = "too_many_conns" // connection limit (global or tenant)
	CodeDraining     = "draining"       // server shutting down, no new work
	CodeUnsupported  = "unsupported"    // unknown Set option / message
	CodeInternal     = "internal"       // anything else server-side
)

// Err is a typed protocol error: the terminating Error frame of a failed
// request, surfaced by clients as a Go error.
type Err struct {
	Code    string
	Message string
}

func (e *Err) Error() string { return fmt.Sprintf("mtserve: %s: %s", e.Code, e.Message) }

// ErrCode extracts the protocol error code from err, or "" when err is not
// a wire error.
func ErrCode(err error) string {
	if e, ok := err.(*Err); ok {
		return e.Code
	}
	return ""
}

// ---------------------------------------------------------------- framing

// WriteFrame writes one frame. The caller batches frames behind a buffered
// writer and flushes at reply boundaries.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	n := 1 + len(payload)
	if n > MaxFrame {
		return fmt.Errorf("wire: frame too large (%d bytes)", n)
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(n))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame, enforcing MaxFrame.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return MsgInvalid, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n == 0 || n > MaxFrame {
		return MsgInvalid, nil, fmt.Errorf("wire: bad frame length %d", n)
	}
	payload, err := ReadPayload(r, int(n-1))
	if err != nil {
		return MsgInvalid, nil, err
	}
	return MsgType(hdr[4]), payload, nil
}

// ReadPayload reads the size bytes a length prefix announced. The payload
// grows with the bytes that arrive: a length the stream does not back fails
// having allocated at most twice what arrived, or one frameChunk, not the
// size it claims.
func ReadPayload(r io.Reader, size int) ([]byte, error) {
	payload := make([]byte, min(size, frameChunk))
	for have := 0; ; {
		if _, err := io.ReadFull(r, payload[have:]); err != nil {
			return nil, err
		}
		if have = len(payload); have == size {
			return payload, nil
		}
		next := min(size, 2*have)
		payload = slices.Grow(payload, next-have)[:next]
	}
}
