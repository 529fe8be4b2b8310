package wire

// Codec invariants: value round-trips must be bit-exact (NaN payloads,
// negative zero, infinities — the same discipline the engine spill codec
// is tested to), nil and empty lists must stay distinct, corrupt payloads
// must error rather than panic or misdecode, and framing must reject
// oversized frames.

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mtbase/internal/sqltypes"
)

func bitsEqual(a, b sqltypes.Value) bool {
	return a.K == b.K && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

func TestValueRoundTripBitExact(t *testing.T) {
	vals := []sqltypes.Value{
		sqltypes.Null,
		sqltypes.NewInt(0),
		sqltypes.NewInt(-1),
		sqltypes.NewInt(math.MaxInt64),
		sqltypes.NewInt(math.MinInt64),
		sqltypes.NewFloat(0),
		sqltypes.NewFloat(math.Copysign(0, -1)),
		sqltypes.NewFloat(math.NaN()),
		sqltypes.NewFloat(math.Float64frombits(0x7ff8000000000123)), // NaN payload
		sqltypes.NewFloat(math.Inf(1)),
		sqltypes.NewFloat(math.Inf(-1)),
		sqltypes.NewFloat(1.0000000000000002),
		sqltypes.NewString(""),
		sqltypes.NewString("café \x00 binary"),
		sqltypes.NewBool(true),
		sqltypes.NewBool(false),
		{K: sqltypes.KindDate, I: 9140},
		{K: sqltypes.KindInterval, I: 3, F: 2.5},
	}
	buf := AppendValues(nil, vals)
	got, err := NewReader(buf).Values()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("got %d values, want %d", len(got), len(vals))
	}
	for i := range vals {
		if !bitsEqual(vals[i], got[i]) {
			t.Errorf("value %d: got %+v, want %+v", i, got[i], vals[i])
		}
	}
}

func TestNilVsEmptyValueList(t *testing.T) {
	if got, _ := NewReader(AppendValues(nil, nil)).Values(); got != nil {
		t.Fatalf("nil list decoded as %v", got)
	}
	got, err := NewReader(AppendValues(nil, []sqltypes.Value{})).Values()
	if err != nil || got == nil || len(got) != 0 {
		t.Fatalf("empty list decoded as %v (err %v)", got, err)
	}
}

// corruptPayloads are value images and lists no decoder may accept.
func corruptPayloads() map[string][]byte {
	good := AppendValue(nil, sqltypes.NewString("hello"))
	return map[string][]byte{
		"empty":          {},
		"bad kind":       {0xee},
		"truncated str":  good[:len(good)-2],
		"huge strlen":    {byte(sqltypes.KindString), 0xff, 0xff, 0xff, 0xff, 0x7f},
		"truncated f64":  AppendValue(nil, sqltypes.NewFloat(1))[:5],
		"huge list":      AppendUvarint(nil, uint64(maxWireList)+10),
		"truncated list": AppendUvarint(nil, 5),
		"long list":      AppendUvarint(nil, uint64(maxWireList)),
	}
}

func TestCorruptPayloadsError(t *testing.T) {
	for name, buf := range corruptPayloads() {
		r := NewReader(buf)
		if strings.HasSuffix(name, " list") {
			if _, err := r.Values(); err == nil {
				t.Errorf("%s: no error", name)
			}
			continue
		}
		if _, err := r.Value(); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestFrameRoundTripAndLimits(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("payload bytes")
	if err := WriteFrame(&buf, MsgQuery, payload); err != nil {
		t.Fatal(err)
	}
	tp, got, err := ReadFrame(&buf)
	if err != nil || tp != MsgQuery || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %v %s %q", err, tp, got)
	}
	// Oversized length prefix must be rejected without allocating.
	huge := []byte{0xff, 0xff, 0xff, 0xff, byte(MsgQuery)}
	if _, _, err := ReadFrame(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if err := WriteFrame(&buf, MsgQuery, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversized write accepted")
	}
	// A payload past frameChunk arrives in growing pieces, byte for byte; cut
	// short, it is an error.
	big := bytes.Repeat([]byte("0123456789abcdef"), 3*frameChunk/16+5)
	buf.Reset()
	if err := WriteFrame(&buf, MsgRowBatch, big); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-1]
	if tp, got, err := ReadFrame(&buf); err != nil || tp != MsgRowBatch || !bytes.Equal(got, big) {
		t.Fatalf("%d-byte frame: %v %s, %d bytes back", len(big), err, tp, len(got))
	}
	if _, _, err := ReadFrame(bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// The messages TestMessageRoundTrips round-trips, one of each payload shape;
// FuzzDecode seeds from their encodings.
var (
	sampleHello     = Hello{Version: 1, Tenant: 42, Level: "o3"}
	sampleQuery     = Query{SQL: "SELECT 1", Args: []sqltypes.Value{sqltypes.NewInt(7)}}
	samplePrepareOK = PrepareOK{StmtID: 9, NumParams: 2, IsQuery: true}
	sampleRowBatch  = RowBatch{Rows: [][]sqltypes.Value{{sqltypes.NewInt(1)}, nil, {}}}
	sampleDone      = Done{Rows: -3, Affected: 12}
	sampleErr       = &Err{Code: CodeRateLimited, Message: "slow down"}
	sampleStats     = StatsOK{Pairs: []StatPair{{Name: "a", Value: 1}, {Name: "b", Value: -2}}}
)

func TestMessageRoundTrips(t *testing.T) {
	hello := sampleHello
	h2, err := DecodeHello(EncodeHello(hello))
	if err != nil || h2 != hello {
		t.Fatalf("hello: %+v %v", h2, err)
	}
	if _, err := DecodeHello([]byte("XXWP\x01")); err == nil {
		t.Fatal("bad magic accepted")
	}
	q := sampleQuery
	q2, err := DecodeQuery(EncodeQuery(q))
	if err != nil || q2.SQL != q.SQL || len(q2.Args) != 1 || q2.Args[0].I != 7 {
		t.Fatalf("query: %+v %v", q2, err)
	}
	p := samplePrepareOK
	p2, err := DecodePrepareOK(EncodePrepareOK(p))
	if err != nil || p2 != p {
		t.Fatalf("prepareok: %+v %v", p2, err)
	}
	b := sampleRowBatch
	b2, err := DecodeRowBatch(EncodeRowBatch(b))
	if err != nil || len(b2.Rows) != 3 || b2.Rows[1] != nil || b2.Rows[2] == nil {
		t.Fatalf("rowbatch: %+v %v", b2, err)
	}
	d := sampleDone
	if d2, err := DecodeDone(EncodeDone(d)); err != nil || d2 != d {
		t.Fatalf("done: %+v %v", d2, err)
	}
	we := sampleErr
	we2, err := DecodeError(EncodeError(we))
	if err != nil || *we2 != *we {
		t.Fatalf("error: %+v %v", we2, err)
	}
	if !strings.Contains(we2.Error(), CodeRateLimited) {
		t.Fatalf("error text: %s", we2.Error())
	}
	s := sampleStats
	s2, err := DecodeStatsOK(EncodeStatsOK(s))
	if err != nil || len(s2.Pairs) != 2 || s2.Pairs[1] != s.Pairs[1] {
		t.Fatalf("stats: %+v %v", s2, err)
	}
}
