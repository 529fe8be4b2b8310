package wire

import (
	"bytes"
	"runtime"
	"testing"

	"mtbase/internal/sqltypes"
)

// decodeAll runs every payload decoder over one payload.
func decodeAll(payload []byte) {
	_, _ = DecodeHello(payload)
	_, _ = DecodeHelloOK(payload)
	_, _ = DecodeQuery(payload)
	_, _ = DecodePrepare(payload)
	_, _ = DecodePrepareOK(payload)
	_, _ = DecodeBind(payload)
	_, _ = DecodeExecute(payload)
	_, _ = DecodeStmtID(payload)
	_, _ = DecodeRowHeader(payload)
	_, _ = DecodeRowBatch(payload)
	_, _ = DecodeDone(payload)
	_, _ = DecodeError(payload)
	_, _ = DecodeStatsOK(payload)
	_, _ = DecodeSet(payload)
	_, _ = DecodeSetOK(payload)
}

// decodeBudget is what decoding n bytes may allocate: the frames' payloads
// (a payload grows with its bytes, from one frameChunk) and every decoder's
// result over them — a decoded value, row or column costs a few dozen bytes
// a byte of input — but never what a length prefix claims beyond the bytes
// there are.
func decodeBudget(n int) uint64 { return uint64(4*frameChunk + 1024*(n+64)) }

// FuzzDecode holds the decoding side of the protocol to two rules, whatever
// a peer sends: nothing panics, and a length prefix — of a frame, a string,
// a list — larger than the bytes that remain fails before it is allocated.
// The input is read as a stream of frames whose payloads go through every
// decoder, and is handed to every decoder as one payload besides. Seeded
// from TestCorruptPayloadsError's cases and TestMessageRoundTrips' messages.
func FuzzDecode(f *testing.F) {
	frame := func(t MsgType, payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, t, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, buf := range corruptPayloads() {
		f.Add(buf)
		f.Add(frame(MsgRowBatch, buf))
	}
	for _, m := range []struct {
		t       MsgType
		payload []byte
	}{
		{MsgHello, EncodeHello(sampleHello)},
		{MsgQuery, EncodeQuery(sampleQuery)},
		{MsgPrepareOK, EncodePrepareOK(samplePrepareOK)},
		{MsgRowHeader, EncodeRowHeader(RowHeader{Cols: []string{"c_custkey", "revenue"}})},
		{MsgRowBatch, EncodeRowBatch(sampleRowBatch)},
		{MsgDone, EncodeDone(sampleDone)},
		{MsgError, EncodeError(sampleErr)},
		{MsgStatsOK, EncodeStatsOK(sampleStats)},
		{MsgBind, EncodeBind(Bind{StmtID: 3, Args: []sqltypes.Value{sqltypes.NewString("x"), sqltypes.Null}})},
	} {
		f.Add(m.payload)
		f.Add(frame(m.t, m.payload))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, byte(MsgQuery)}) // a frame past MaxFrame
	f.Add([]byte{0x00, 0xff, 0xff, 0xff, byte(MsgQuery)}) // a frame under it, 3 bytes of 16 MB there
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decodeAll(data)
		for r := bytes.NewReader(data); ; {
			_, payload, err := ReadFrame(r)
			if err != nil {
				break
			}
			decodeAll(payload)
		}
		runtime.ReadMemStats(&after)
		if got, budget := after.TotalAlloc-before.TotalAlloc, decodeBudget(len(data)); got > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(data), got, budget)
		}
	})
}
