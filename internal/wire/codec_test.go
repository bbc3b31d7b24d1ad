package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/selection"
	"dfsqos/internal/trace"
	"dfsqos/internal/units"
)

// writeRawFrame forges a frame with an arbitrary codec tag and body,
// bypassing the encoder (hostile-input plumbing for decoder tests).
func writeRawFrame(buf *bytes.Buffer, codec Codec, body []byte) {
	var hdr [headerSize]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)))
	hdr[4] = byte(codec)
	buf.Write(hdr[:])
	buf.Write(body)
}

// binaryBody assembles a binary-v1 body: kind field plus raw payload bytes.
func binaryBody(kind Kind, payload []byte) []byte {
	b := binary.BigEndian.AppendUint16(nil, uint16(kind))
	return append(b, payload...)
}

func TestFastPathFramesCarryBinaryTag(t *testing.T) {
	// Every eligible kind must leave a fast-path connection with the
	// binary codec tag and round-trip intact.
	cases := []struct {
		kind Kind
		body any
	}{
		{KindFileEnd, FileEnd{Size: 1 << 40, Checksum: 0xfeedface}},
		{KindReadFile, ReadFile{File: 7, ChunkSize: 65536, Offset: 1024, Request: 99}},
		{KindWriteFile, WriteFile{File: 3, SizeBytes: 1 << 30, Replication: 12}},
		{KindAck, Ack{}},
		{KindError, Error{Text: "disk exploded"}},
		{KindHeartbeat, Heartbeat{RM: 5}},
		{KindKeepalive, Keepalive{Request: 41}},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		c := NewConn(&buf)
		c.SetFastPath(true)
		if err := c.Write(tc.kind, tc.body); err != nil {
			t.Fatalf("%v: %v", tc.kind, err)
		}
		if got := Codec(buf.Bytes()[4]); got != CodecBinary {
			t.Errorf("%v went out as %v, want binary", tc.kind, got)
		}
		r := NewConn(&buf)
		r.SetAcceptBinary(true) // decode must work even under a gobonly default
		msg, err := r.Read()
		if err != nil {
			t.Fatalf("%v: decode: %v", tc.kind, err)
		}
		if msg.Kind != tc.kind {
			t.Errorf("%v decoded as %v", tc.kind, msg.Kind)
		}
		if msg.Payload != tc.body {
			t.Errorf("%v payload: got %+v want %+v", tc.kind, msg.Payload, tc.body)
		}
	}
	// Negative offsets and ids survive the unsigned wire layout.
	var buf bytes.Buffer
	c := NewConn(&buf)
	c.SetFastPath(true)
	if err := c.WriteChunk(-1, []byte{9}); err != nil {
		t.Fatal(err)
	}
	r := NewConn(&buf)
	r.SetAcceptBinary(true)
	msg, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	ch, ok := msg.Chunk()
	if !ok || ch.Offset != -1 || len(ch.Data) != 1 || ch.Data[0] != 9 {
		t.Fatalf("negative-offset chunk mangled: %+v", msg.Payload)
	}
	msg.Release()
}

// TestIneligibleKindsStayOnGob: the administrative kinds (registration
// here) are not in the binary codec's switch, so even a fast-path
// connection frames them as gob.
func TestIneligibleKindsStayOnGob(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	c.SetFastPath(true)
	reg := RegisterRM{Info: ecnp.RMInfo{ID: 3, Capacity: units.Mbps(30), Addr: "127.0.0.1:7301"}, Files: []ids.FileID{1, 2}}
	if err := c.Write(KindRegisterRM, reg); err != nil {
		t.Fatal(err)
	}
	if got := Codec(buf.Bytes()[4]); got != CodecGob {
		t.Fatalf("administrative frame went out as %v, want gob", got)
	}
	msg, err := NewConn(&buf).Read()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(msg.Payload, reg) {
		t.Fatalf("registration mangled: %+v", msg.Payload)
	}
}

func TestFastWriterRejectedByGobOnlyReader(t *testing.T) {
	// Satellite interop contract: a fast-path writer talking to an
	// endpoint that does not accept binary frames (a gobonly build) must
	// fail with a typed *CodecError, not garbage or a panic.
	var buf bytes.Buffer
	w := NewConn(&buf)
	w.SetFastPath(true)
	if err := w.WriteChunk(0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	r := NewConn(&buf)
	r.SetAcceptBinary(false)
	_, err := r.Read()
	var ce *CodecError
	if !errors.As(err, &ce) {
		t.Fatalf("rejection not a CodecError: %v", err)
	}
	if ce.Codec != CodecBinary {
		t.Fatalf("rejected codec %v, want binary", ce.Codec)
	}
	if !strings.Contains(ce.Error(), "not accepted") {
		t.Fatalf("unhelpful rejection: %q", ce.Error())
	}
}

func TestGobWriterReadByFastReader(t *testing.T) {
	// The reverse direction: a gob-pinned writer (legacy peer) must
	// interoperate transparently with a fast-path reader, including for
	// kinds that are binary-eligible.
	var buf bytes.Buffer
	w := NewConn(&buf)
	w.SetFastPath(false)
	data := []byte("gob-framed chunk")
	if err := w.WriteChunk(512, data); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(KindFileEnd, FileEnd{Size: 16, Checksum: 0xabc}); err != nil {
		t.Fatal(err)
	}
	if got := Codec(buf.Bytes()[4]); got != CodecGob {
		t.Fatalf("pinned writer emitted %v", got)
	}
	r := NewConn(&buf)
	msg, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	ch, ok := msg.Chunk()
	if !ok || ch.Offset != 512 || !bytes.Equal(ch.Data, data) {
		t.Fatalf("gob chunk mangled: %+v", msg.Payload)
	}
	msg.Release() // no-op on gob messages, must be safe
	end, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if fe, ok := end.Payload.(FileEnd); !ok || fe.Checksum != 0xabc {
		t.Fatalf("gob FileEnd mangled: %+v", end.Payload)
	}
}

func TestMixedCodecInterleave(t *testing.T) {
	// Administrative frames (gob), negotiation frames and data frames
	// (both binary) interleaved on one stream must all decode: per-frame
	// codec tags, no shared state, no decoder poisoning in either
	// direction.
	var buf bytes.Buffer
	w := NewConn(&buf)
	w.SetFastPath(true)
	chunk0 := []byte("first chunk")
	chunk1 := []byte("second chunk")
	if err := w.Write(KindRegisterRM, RegisterRM{Info: ecnp.RMInfo{ID: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk(0, chunk0); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(KindOpen, ecnp.OpenRequest{Request: 1, File: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteChunk(int64(len(chunk0)), chunk1); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(KindFileEnd, FileEnd{Size: int64(len(chunk0) + len(chunk1))}); err != nil {
		t.Fatal(err)
	}

	r := NewConn(&buf)
	r.SetAcceptBinary(true)
	wantKinds := []Kind{KindRegisterRM, KindFileChunk, KindOpen, KindFileChunk, KindFileEnd}
	var got []byte
	for i, want := range wantKinds {
		msg, err := r.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if msg.Kind != want {
			t.Fatalf("frame %d: kind %v, want %v", i, msg.Kind, want)
		}
		if ch, ok := msg.Chunk(); ok {
			got = append(got, ch.Data...)
		}
		msg.Release()
	}
	if want := string(chunk0) + string(chunk1); string(got) != want {
		t.Fatalf("reassembled %q, want %q", got, want)
	}
}

func TestUnknownCodecTagRejected(t *testing.T) {
	var buf bytes.Buffer
	writeRawFrame(&buf, Codec(7), []byte{1, 2, 3})
	_, err := NewConn(&buf).Read()
	var ce *CodecError
	if !errors.As(err, &ce) {
		t.Fatalf("unknown tag not a CodecError: %v", err)
	}
	if ce.Codec != Codec(7) || !strings.Contains(ce.Reason, "unknown codec") {
		t.Fatalf("misreported: %+v", ce)
	}
}

func TestBinaryMalformedBodiesRejected(t *testing.T) {
	cases := []struct {
		name string
		body []byte
		kind Kind // expected in the CodecError, 0 when never decoded
	}{
		{"empty body", nil, 0},
		{"one-byte body", []byte{0}, 0},
		{"chunk shorter than offset", binaryBody(KindFileChunk, []byte{1, 2, 3}), KindFileChunk},
		{"fileend short", binaryBody(KindFileEnd, make([]byte, 15)), KindFileEnd},
		{"fileend long", binaryBody(KindFileEnd, make([]byte, 17)), KindFileEnd},
		{"readfile wrong len", binaryBody(KindReadFile, make([]byte, 27)), KindReadFile},
		{"writefile wrong len", binaryBody(KindWriteFile, make([]byte, 19)), KindWriteFile},
		{"ack with payload", binaryBody(KindAck, []byte{1}), KindAck},
		{"heartbeat wrong len", binaryBody(KindHeartbeat, make([]byte, 5)), KindHeartbeat},
		{"keepalive wrong len", binaryBody(KindKeepalive, make([]byte, 7)), KindKeepalive},
		{"cfp short", binaryBody(KindCFP, make([]byte, 31)), KindCFP},
		{"cfp long", binaryBody(KindCFP, make([]byte, 33)), KindCFP},
		{"bid wrong len", binaryBody(KindBid, make([]byte, 60)), KindBid},
		{"bid bad bool", binaryBody(KindBid, append(append(make([]byte, 36), 2), make([]byte, 24)...)), KindBid},
		{"open wrong len", binaryBody(KindOpen, make([]byte, 34)), KindOpen},
		{"open bad bool", binaryBody(KindOpen, append(append(make([]byte, 28), 0xff), make([]byte, 4)...)), KindOpen},
		{"openresult empty", binaryBody(KindOpenResult, nil), KindOpenResult},
		{"openresult bad bool", binaryBody(KindOpenResult, []byte{2, 'x'}), KindOpenResult},
		{"close wrong len", binaryBody(KindClose, make([]byte, 9)), KindClose},
		{"lookup wrong len", binaryBody(KindLookup, make([]byte, 3)), KindLookup},
		{"rmlist ragged", binaryBody(KindRMList, make([]byte, 6)), KindRMList},
		{"uncovered kind", binaryBody(KindRegisterRM, nil), KindRegisterRM},
		{"unknown kind", binaryBody(Kind(999), nil), Kind(999)},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		writeRawFrame(&buf, CodecBinary, tc.body)
		r := NewConn(&buf)
		r.SetAcceptBinary(true)
		_, err := r.Read()
		var ce *CodecError
		if !errors.As(err, &ce) {
			t.Errorf("%s: not a CodecError: %v", tc.name, err)
			continue
		}
		if ce.Kind != tc.kind {
			t.Errorf("%s: CodecError kind %v, want %v", tc.name, ce.Kind, tc.kind)
		}
	}
}

func TestWriteTornEnforcesCap(t *testing.T) {
	// Satellite: WriteTorn must apply the same MaxFrame outgoing check as
	// Write — a torn frame simulates "peer died mid-write", never "peer
	// sent an oversized frame" — and must leave nothing on the stream.
	var buf bytes.Buffer
	c := NewConn(&buf)
	err := c.WriteTorn(KindFileChunk, FileChunk{Data: make([]byte, MaxFrame+1)})
	var fe *FrameTooLargeError
	if !errors.As(err, &fe) {
		t.Fatalf("oversize torn write not a FrameTooLargeError: %v", err)
	}
	if !fe.Outgoing || fe.Kind != KindFileChunk {
		t.Fatalf("misreported: %+v", fe)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes leaked onto the stream before the cap check", buf.Len())
	}
}

func TestReleaseIdempotentAndNilsPayload(t *testing.T) {
	var buf bytes.Buffer
	w := NewConn(&buf)
	w.SetFastPath(true)
	if err := w.WriteChunk(64, []byte("once")); err != nil {
		t.Fatal(err)
	}
	r := NewConn(&buf)
	r.SetAcceptBinary(true)
	msg, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.Chunk(); !ok {
		t.Fatalf("payload %T is not a chunk", msg.Payload)
	}
	msg.Release()
	if msg.Payload != nil {
		t.Fatal("Payload survives Release — use-after-release would read recycled bytes silently")
	}
	msg.Release() // second release must be a no-op, not a double-Put
	var gobMsg Msg
	gobMsg.Release() // zero Msg release is safe too
}

func TestCodecStatsObserveBothPaths(t *testing.T) {
	tx0, txg0, rx0, rxg0 := CodecStats()
	var buf bytes.Buffer
	w := NewConn(&buf)
	w.SetFastPath(true)
	if err := w.WriteChunk(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(KindShardMirror, ShardMirror{Op: "AddReplica", File: 1, RM: 2}); err != nil {
		t.Fatal(err)
	}
	r := NewConn(&buf)
	r.SetAcceptBinary(true)
	for i := 0; i < 2; i++ {
		msg, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		msg.Release()
	}
	tx1, txg1, rx1, rxg1 := CodecStats()
	if tx1 <= tx0 || txg1 <= txg0 || rx1 <= rx0 || rxg1 <= rxg0 {
		t.Fatalf("counters did not all advance: tx %d→%d txGob %d→%d rx %d→%d rxGob %d→%d",
			tx0, tx1, txg0, txg1, rx0, rx1, rxg0, rxg1)
	}
}

func TestChecksumUnrolledMatchesScalar(t *testing.T) {
	// The 8-way unrolled ChecksumUpdate must be bit-identical to the
	// scalar FNV-1a definition at every length straddling the unroll
	// boundary, and from arbitrary (non-basis) starting states.
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i*37 + 11)
	}
	for n := 0; n <= len(data); n++ {
		if got, want := ChecksumUpdate(ChecksumBasis, data[:n]), checksumScalar(ChecksumBasis, data[:n]); got != want {
			t.Fatalf("len %d: unrolled %x != scalar %x", n, got, want)
		}
	}
	state := uint64(0x1234_5678_9abc_def0)
	for _, n := range []int{7, 8, 9, 15, 16, 17, 63, 64, 65} {
		if got, want := ChecksumUpdate(state, data[:n]), checksumScalar(state, data[:n]); got != want {
			t.Fatalf("state %x len %d: unrolled %x != scalar %x", state, n, got, want)
		}
	}
	if ChecksumBytesWire := ChecksumUpdate(ChecksumBasis, []byte("abc")); ChecksumBytesWire == ChecksumBasis {
		t.Fatal("checksum did not absorb input")
	}
}

func TestSetDefaultFastPathSeedsNewConns(t *testing.T) {
	prev := SetDefaultFastPath(false)
	defer SetDefaultFastPath(prev)
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.WriteChunk(0, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if got := Codec(buf.Bytes()[4]); got != CodecGob {
		t.Fatalf("conn created under gob default emitted %v", got)
	}
	SetDefaultFastPath(true)
	var buf2 bytes.Buffer
	c2 := NewConn(&buf2)
	if err := c2.WriteChunk(0, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if got := Codec(buf2.Bytes()[4]); got != CodecBinary {
		t.Fatalf("conn created under fast default emitted %v", got)
	}
}

func TestCodecString(t *testing.T) {
	if CodecGob.String() != "gob" || CodecBinary.String() != "binary" {
		t.Fatalf("codec names: %v %v", CodecGob, CodecBinary)
	}
	if got := Codec(9).String(); got != "codec(9)" {
		t.Fatalf("unknown codec renders %q", got)
	}
}

// Fixed identities the per-open codec tests stamp on tag-2 and tag-3
// frames (this file builds under gobonly too, where the traced and tenant
// test files' fixtures are compiled out).
var (
	ctlTC     = trace.SpanContext{Trace: 0x0102030405, Span: 0x77}
	ctlTenant = ids.TenantID(9)
)

// writeUnderTag writes (kind, payload) on c so that an eligible kind
// leaves under the given codec tag: gob pins the connection to gob, tag 2
// attaches a span context, tag 3 stamps a tenant.
func writeUnderTag(c *Conn, tag Codec, kind Kind, payload any) error {
	c.SetFastPath(tag != CodecGob)
	switch tag {
	case CodecBinaryTraced:
		return c.WriteTraced(ctlTC, kind, payload)
	case CodecBinaryTenant:
		c.SetTenant(ctlTenant)
	}
	return c.Write(kind, payload)
}

// roundTripUnderTag sends one frame under tag and decodes it, failing the
// test when the frame left under any other tag.
func roundTripUnderTag(t *testing.T, tag Codec, kind Kind, payload any) Msg {
	t.Helper()
	var buf bytes.Buffer
	w := NewConn(&buf)
	if err := writeUnderTag(w, tag, kind, payload); err != nil {
		t.Fatalf("%v under %v: %v", kind, tag, err)
	}
	if got := Codec(buf.Bytes()[4]); got != tag {
		t.Fatalf("%v went out as %v, want %v", kind, got, tag)
	}
	r := NewConn(&buf)
	r.SetAcceptBinary(true)
	msg, err := r.Read()
	if err != nil {
		t.Fatalf("%v under %v: decode: %v", kind, tag, err)
	}
	if msg.Kind != kind {
		t.Fatalf("%v under %v decoded as %v", kind, tag, msg.Kind)
	}
	if buf.Len() != 0 {
		t.Fatalf("%v under %v left %d bytes unread", kind, tag, buf.Len())
	}
	return msg
}

// fillDistinct sets every field of the struct behind v to a distinct
// non-zero value (n counts up across fields), so a field the codec forgets
// comes back zero and a pair it swaps comes back unequal.
func fillDistinct(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !v.Type().Field(i).IsExported() {
			t.Fatalf("%v has unexported field %s: the codec cannot carry it", v.Type(), v.Type().Field(i).Name)
		}
		*n++
		switch f.Kind() {
		case reflect.Int, reflect.Int32, reflect.Int64:
			f.SetInt(int64(*n))
		case reflect.Float64:
			f.SetFloat(float64(*n) + 0.5)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString(fmt.Sprintf("text-%d", *n))
		case reflect.Slice:
			s := reflect.MakeSlice(f.Type(), 3, 3)
			for j := 0; j < s.Len(); j++ {
				*n++
				s.Index(j).SetInt(int64(*n))
			}
			f.Set(s)
		default:
			t.Fatalf("%v.%s: field kind %v is new to this test — teach fillDistinct and the codec about it",
				v.Type(), v.Type().Field(i).Name, f.Kind())
		}
		if f.IsZero() {
			t.Fatalf("%v.%s still zero after fill", v.Type(), v.Type().Field(i).Name)
		}
	}
}

// TestCtlCodecCoversEveryField is the field-coverage guard for the seven
// per-open bodies: every exported field of each payload type, filled with
// a distinct non-zero value, must survive tags 1, 2 and 3. A field added
// to selection.Bid (or any of the others) without a codec update fails
// here instead of silently zeroing on the wire.
func TestCtlCodecCoversEveryField(t *testing.T) {
	cases := []struct {
		kind    Kind
		payload any // a pointer to the zero value, filled below
	}{
		{KindCFP, new(ecnp.CFP)},
		{KindBid, new(selection.Bid)},
		{KindOpen, new(ecnp.OpenRequest)},
		{KindOpenResult, new(ecnp.OpenResult)},
		{KindClose, new(CloseReq)},
		{KindLookup, new(FileRef)},
		{KindRMList, new(RMList)},
	}
	for _, tc := range cases {
		n := 0
		pv := reflect.ValueOf(tc.payload).Elem()
		fillDistinct(t, pv, &n)
		want := pv.Interface()
		for _, tag := range []Codec{CodecBinary, CodecBinaryTraced, CodecBinaryTenant} {
			msg := roundTripUnderTag(t, tag, tc.kind, want)
			if !reflect.DeepEqual(msg.Payload, want) {
				t.Errorf("%v under %v:\n got %#v\nwant %#v", tc.kind, tag, msg.Payload, want)
			}
			if tag == CodecBinaryTraced && msg.Trace != ctlTC {
				t.Errorf("%v under %v: trace %+v", tc.kind, tag, msg.Trace)
			}
			if tag == CodecBinaryTenant && msg.Tenant != ctlTenant {
				t.Errorf("%v under %v: tenant %v", tc.kind, tag, msg.Tenant)
			}
		}
	}
}

// ctlPayload is one (kind, payload) pair of the per-open protocol.
type ctlPayload struct {
	kind    Kind
	payload any
}

// ctlPayloads is the per-open payload set the equivalence tests share:
// ordinary values plus the edges the layout has to get right (negative
// and non-finite floats, both bool values, empty and long variable
// tails).
func ctlPayloads() []ctlPayload {
	rms16 := make([]ids.RMID, 16)
	for i := range rms16 {
		rms16[i] = ids.RMID(i + 1)
	}
	nanPayload := math.Float64frombits(0x7ff8_0000_dead_beef)
	return []ctlPayload{
		{KindCFP, ecnp.CFP{Request: 9, File: 1, Bitrate: units.Mbps(2), DurationSec: 300, Tenant: 4}},
		{KindCFP, ecnp.CFP{Request: -1, File: -2, Bitrate: units.BytesPerSec(math.Inf(1)), DurationSec: math.Inf(-1)}},
		{KindBid, selection.Bid{RM: 7, Rem: -units.Mbps(2), Trend: nanPayload, OccBias: 0.75, Req: units.Mbps(2),
			HasReplica: true, Assured: units.Mbps(3), Ceil: units.Mbps(9), TenantShare: 0.125}},
		{KindBid, selection.Bid{RM: 1}},
		{KindOpen, ecnp.OpenRequest{Request: 9, File: 1, Bitrate: units.Mbps(2), DurationSec: 300, Firm: true, Tenant: 4}},
		{KindOpen, ecnp.OpenRequest{Request: 1 << 40, File: 3}},
		{KindOpenResult, ecnp.OpenResult{OK: true}},
		{KindOpenResult, ecnp.OpenResult{Reason: "insufficient bandwidth"}},
		{KindOpenResult, ecnp.OpenResult{Reason: strings.Repeat("tenant 4 over quota; ", 400)}},
		{KindClose, CloseReq{Request: 9}},
		{KindLookup, FileRef{File: 42}},
		{KindRMList, RMList{}},
		{KindRMList, RMList{RMs: []ids.RMID{}}},
		{KindRMList, RMList{RMs: rms16}},
	}
}

// bitEqual is reflect.DeepEqual with floats compared by bit pattern, so a
// NaN equals itself and -0 differs from +0.
func bitEqual(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

// TestCtlGobBinaryEquivalence: the same payload over a gob-pinned
// connection and over the fast path decodes to the same value, bit for
// bit — the binary layout changes what a negotiation costs, not what it
// says. That includes gob's habit of decoding an empty list to nil. The
// one value the two codecs frame differently is -0: gob omits any field
// that compares equal to zero, so it arrives as +0, while the binary
// layout carries the sign bit (asserted at the end).
func TestCtlGobBinaryEquivalence(t *testing.T) {
	for _, p := range ctlPayloads() {
		viaGob := roundTripUnderTag(t, CodecGob, p.kind, p.payload)
		for _, tag := range []Codec{CodecBinary, CodecBinaryTraced, CodecBinaryTenant} {
			viaBin := roundTripUnderTag(t, tag, p.kind, p.payload)
			if !bitEqual(reflect.ValueOf(viaGob.Payload), reflect.ValueOf(viaBin.Payload)) {
				t.Errorf("%v: gob and %v disagree:\n gob %#v\n bin %#v", p.kind, tag, viaGob.Payload, viaBin.Payload)
			}
		}
		if l, ok := viaGob.Payload.(RMList); ok && len(l.RMs) == 0 && l.RMs != nil {
			t.Errorf("gob decoded an empty RMList to a non-nil slice; the binary codec mirrors nil")
		}
	}
	negZero := roundTripUnderTag(t, CodecBinary, KindBid, selection.Bid{Trend: math.Copysign(0, -1)})
	if !math.Signbit(negZero.Payload.(selection.Bid).Trend) {
		t.Error("binary codec lost the sign of -0")
	}
}
