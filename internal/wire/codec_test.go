package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// slotCase is one way of filling a binary frame's two optional slots. The
// four cases are the whole header space, so every test that is about the
// header rather than about one payload runs over all of them.
type slotCase struct {
	name   string
	tenant ids.TenantID
	tc     trace.SpanContext
}

var (
	testTC     = trace.SpanContext{Trace: ids.RequestID(0x1122334455), Span: 0x99}
	testTenant = ids.TenantID(42)

	slotPlain       = slotCase{"plain", ids.NoneTenant, trace.SpanContext{}}
	slotTrace       = slotCase{"trace", ids.NoneTenant, testTC}
	slotTenant      = slotCase{"tenant", testTenant, trace.SpanContext{}}
	slotTenantTrace = slotCase{"tenant-trace", testTenant, testTC}
	slotCases       = []slotCase{slotPlain, slotTrace, slotTenant, slotTenantTrace}
)

// header is what a body written under s starts with: the flags byte and
// the slots it announces. (The layout tests pin these bytes literally;
// everything else forges input with the writer's own function.)
func (s slotCase) header() []byte {
	return appendFramePrefix(nil, s.tenant, s.tc)[headerSize:]
}

// body assembles a binary body under s: header, kind field, raw payload.
func (s slotCase) body(kind Kind, payload []byte) []byte {
	return append(binary.BigEndian.AppendUint16(s.header(), uint16(kind)), payload...)
}

// binaryBody is a slotless binary body: flags 0, kind field, raw payload.
func binaryBody(kind Kind, payload []byte) []byte { return slotPlain.body(kind, payload) }

// conn wraps rw in a connection stamped with s's tenant that writes the
// given codec and accepts both, whatever the build's defaults are.
func (s slotCase) conn(rw io.ReadWriter, fast bool) *Conn {
	c := NewConn(rw)
	c.SetFastPath(fast)
	c.SetAcceptBinary(true)
	c.SetTenant(s.tenant)
	return c
}

// checkFrame fails the test unless frame left under the expected codec
// tag and, on the fast path, starts with exactly s's flags and slots.
func (s slotCase) checkFrame(t *testing.T, frame []byte, fast bool) {
	t.Helper()
	want := CodecGob
	if fast {
		want = CodecBinary
	}
	if got := Codec(frame[4]); got != want {
		t.Fatalf("%s: frame went out as %v, want %v", s.name, got, want)
	}
	if fast && !bytes.HasPrefix(frame[headerSize:], s.header()) {
		t.Fatalf("%s: body starts % x, want flags and slots % x", s.name, frame[headerSize:headerSize+len(s.header())], s.header())
	}
}

// read decodes the one frame buffered on c's stream and checks that it
// delivers s's tenant and span context and leaves nothing unread.
func (s slotCase) read(t *testing.T, c *Conn, buf *bytes.Buffer, kind Kind) Msg {
	t.Helper()
	msg, err := c.Read()
	if err != nil {
		t.Fatalf("%s: %v: decode: %v", s.name, kind, err)
	}
	if msg.Kind != kind || msg.Tenant != s.tenant || msg.Trace != s.tc {
		t.Fatalf("%s: decoded kind %v tenant %v trace %+v, want %v %v %+v",
			s.name, msg.Kind, msg.Tenant, msg.Trace, kind, s.tenant, s.tc)
	}
	if buf.Len() != 0 {
		t.Fatalf("%s: %v left %d bytes unread", s.name, kind, buf.Len())
	}
	return msg
}

// roundTrip writes (kind, payload) under s, on the fast path or pinned to
// gob, and reads it back through checkFrame and read.
func (s slotCase) roundTrip(t *testing.T, fast bool, kind Kind, payload any) Msg {
	t.Helper()
	var buf bytes.Buffer
	c := s.conn(&buf, fast)
	if err := c.WriteTraced(s.tc, kind, payload); err != nil {
		t.Fatalf("%s: %v: %v", s.name, kind, err)
	}
	s.checkFrame(t, buf.Bytes(), fast)
	return s.read(t, c, &buf, kind)
}

// chunkRoundTrip sends one chunk under s through the chunk writer and
// checks offset, data, slots and the Release contract.
func (s slotCase) chunkRoundTrip(t *testing.T, fast bool, offset int64, data []byte) {
	t.Helper()
	var buf bytes.Buffer
	c := s.conn(&buf, fast)
	if err := c.WriteChunkTraced(s.tc, offset, data); err != nil {
		t.Fatalf("%s: WriteChunkTraced(%d, %d bytes): %v", s.name, offset, len(data), err)
	}
	s.checkFrame(t, buf.Bytes(), fast)
	msg := s.read(t, c, &buf, KindFileChunk)
	ch, ok := msg.Chunk()
	if !ok || ch.Offset != offset || !bytes.Equal(ch.Data, data) {
		t.Fatalf("%s: chunk mangled: %+v", s.name, msg.Payload)
	}
	msg.Release()
	if fast && msg.Payload != nil {
		t.Fatalf("%s: Release did not nil the payload", s.name)
	}
}

// ctlPayload is one (kind, payload) pair.
type ctlPayload struct {
	kind    Kind
	payload any
}

// fastPayloads is every fast-path kind but FileChunk (which has its own
// writer): one value for each data-plane and liveness kind, then the
// per-open set with its edge cases.
func fastPayloads() []ctlPayload {
	return append([]ctlPayload{
		{KindFileEnd, FileEnd{Size: 1 << 40, Checksum: 0xfeedface}},
		{KindReadFile, ReadFile{File: 7, ChunkSize: 128 << 10, Offset: 8192, Request: 42}},
		{KindReadFile, ReadFile{File: 7, ChunkSize: 65536, Offset: 4096, Request: 99, Length: 131072}},
		{KindWriteFile, WriteFile{File: 3, SizeBytes: 1 << 30, Replication: 12}},
		{KindAck, Ack{}},
		{KindError, Error{Text: "disk exploded"}},
		{KindHeartbeat, Heartbeat{RM: 5}},
		{KindKeepalive, Keepalive{Request: 41}},
	}, ctlPayloads()...)
}

// samePayload compares a decoded payload with the value that was sent:
// floats by bit pattern, a pooled *ReadFile by the value it points at, and
// an empty RMList as the nil list both codecs decode it to.
func samePayload(got, want any) bool {
	if rq, ok := got.(*ReadFile); ok {
		got = *rq
	}
	if l, ok := want.(RMList); ok && len(l.RMs) == 0 {
		want = RMList{}
	}
	return bitEqual(reflect.ValueOf(got), reflect.ValueOf(want))
}

// runSlotRoundTrips round-trips every fast-path payload under s on the
// fast path, one subtest per payload named by its kind plus suffix.
func runSlotRoundTrips(t *testing.T, s slotCase, suffix string) {
	for _, p := range fastPayloads() {
		t.Run(p.kind.String()+suffix, func(t *testing.T) {
			msg := s.roundTrip(t, true, p.kind, p.payload)
			if !samePayload(msg.Payload, p.payload) {
				t.Fatalf("payload = %#v, want %#v", msg.Payload, p.payload)
			}
			msg.Release()
		})
	}
}

// TestFastPathFramesCarryBinaryTag: with no tenant and no trace, every
// eligible kind leaves a fast-path connection under the binary tag with a
// zero flags byte and round-trips intact; negative offsets survive the
// unsigned chunk layout.
func TestFastPathFramesCarryBinaryTag(t *testing.T) {
	runSlotRoundTrips(t, slotPlain, "")
	slotPlain.chunkRoundTrip(t, true, -1, []byte{9})
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

// TestUnknownCodecTagRejected: a tag the reader does not know — the
// retired traced (2) and tenant (3) tags included — is a typed error
// naming the tag, and the stream stays frame-synchronised behind it.
func TestUnknownCodecTagRejected(t *testing.T) {
	for _, tag := range []Codec{2, 3, 7} {
		var buf bytes.Buffer
		writeRawFrame(&buf, tag, slotTenantTrace.body(KindAck, nil))
		writeRawFrame(&buf, CodecBinary, binaryBody(KindAck, nil))
		r := slotPlain.conn(&buf, true)
		_, err := r.Read()
		var ce *CodecError
		if !errors.As(err, &ce) {
			t.Fatalf("tag %d not a CodecError: %v", tag, err)
		}
		if ce.Codec != tag || !strings.Contains(ce.Reason, "unknown codec tag") {
			t.Fatalf("tag %d misreported: %+v", tag, ce)
		}
		slotPlain.read(t, r, &buf, KindAck)
	}
}

func TestBinaryMalformedBodiesRejected(t *testing.T) {
	cases := []struct {
		name string
		body []byte
		kind Kind // expected in the CodecError, 0 when never decoded
	}{
		{"empty body", nil, 0},
		{"flags only", []byte{0}, 0},
		{"half a kind field", []byte{0, 0}, 0},
		{"chunk shorter than offset", binaryBody(KindFileChunk, []byte{1, 2, 3}), KindFileChunk},
		{"fileend short", binaryBody(KindFileEnd, make([]byte, 15)), KindFileEnd},
		{"fileend long", binaryBody(KindFileEnd, make([]byte, 17)), KindFileEnd},
		{"readfile short", binaryBody(KindReadFile, make([]byte, 35)), KindReadFile},
		{"readfile without length field", binaryBody(KindReadFile, make([]byte, 28)), KindReadFile},
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
	// Slots do not change the series: a control frame and a chunk under
	// each combination count as binary, two sent and two received.
	for _, s := range slotCases {
		tx0, _, rx0, _ := CodecStats()
		s.roundTrip(t, true, KindFileEnd, FileEnd{})
		s.chunkRoundTrip(t, true, 0, []byte("y"))
		if tx1, _, rx1, _ := CodecStats(); tx1-tx0 != 2 || rx1-rx0 != 2 {
			t.Errorf("%s: binary counters moved tx=%d rx=%d, want 2/2", s.name, tx1-tx0, rx1-rx0)
		}
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
	for _, unknown := range []Codec{2, 3, 9} { // 2 and 3 were once tags
		if got, want := unknown.String(), fmt.Sprintf("codec(%d)", uint8(unknown)); got != want {
			t.Fatalf("unknown codec renders %q, want %q", got, want)
		}
	}
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
// a distinct non-zero value, must survive every slot combination. A field
// added to selection.Bid (or any of the others) without a codec update
// fails here instead of silently zeroing on the wire.
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
		for _, s := range slotCases {
			msg := s.roundTrip(t, true, tc.kind, want)
			if !reflect.DeepEqual(msg.Payload, want) {
				t.Errorf("%v under %s:\n got %#v\nwant %#v", tc.kind, s.name, msg.Payload, want)
			}
		}
	}
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
		for _, s := range slotCases {
			viaGob := s.roundTrip(t, false, p.kind, p.payload)
			viaBin := s.roundTrip(t, true, p.kind, p.payload)
			if !bitEqual(reflect.ValueOf(viaGob.Payload), reflect.ValueOf(viaBin.Payload)) {
				t.Errorf("%v under %s: gob and binary disagree:\n gob %#v\n bin %#v", p.kind, s.name, viaGob.Payload, viaBin.Payload)
			}
			if l, ok := viaGob.Payload.(RMList); ok && len(l.RMs) == 0 && l.RMs != nil {
				t.Errorf("gob decoded an empty RMList to a non-nil slice; the binary codec mirrors nil")
			}
		}
	}
	negZero := slotPlain.roundTrip(t, true, KindBid, selection.Bid{Trend: math.Copysign(0, -1)})
	if !math.Signbit(negZero.Payload.(selection.Bid).Trend) {
		t.Error("binary codec lost the sign of -0")
	}
}
