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
	"sync"
	"testing"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/selection"
	"dfsqos/internal/testenv"
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

// conn wraps rw in a connection stamped with s's tenant.
func (s slotCase) conn(rw io.ReadWriter) *Conn {
	c := NewConn(rw)
	c.SetTenant(s.tenant)
	return c
}

// checkFrame fails the test unless frame left under the one codec tag and
// starts with exactly s's flags and slots.
func (s slotCase) checkFrame(t *testing.T, frame []byte) {
	t.Helper()
	if got := Codec(frame[4]); got != CodecBinary {
		t.Fatalf("%s: frame went out as %v, want %v", s.name, got, CodecBinary)
	}
	if !bytes.HasPrefix(frame[headerSize:], s.header()) {
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

// roundTrip writes (kind, payload) under s and reads it back through
// checkFrame and read.
func (s slotCase) roundTrip(t *testing.T, kind Kind, payload any) Msg {
	t.Helper()
	var buf bytes.Buffer
	c := s.conn(&buf)
	if err := c.WriteTraced(s.tc, kind, payload); err != nil {
		t.Fatalf("%s: %v: %v", s.name, kind, err)
	}
	s.checkFrame(t, buf.Bytes())
	return s.read(t, c, &buf, kind)
}

// chunkRoundTrip sends one chunk under s through the chunk writer and
// checks offset, data, slots and the Release contract.
func (s slotCase) chunkRoundTrip(t *testing.T, offset int64, data []byte) {
	t.Helper()
	var buf bytes.Buffer
	c := s.conn(&buf)
	if err := c.WriteChunkTraced(s.tc, offset, data); err != nil {
		t.Fatalf("%s: WriteChunkTraced(%d, %d bytes): %v", s.name, offset, len(data), err)
	}
	s.checkFrame(t, buf.Bytes())
	msg := s.read(t, c, &buf, KindFileChunk)
	ch, ok := msg.Chunk()
	if !ok || ch.Offset != offset || !bytes.Equal(ch.Data, data) {
		t.Fatalf("%s: chunk mangled: %+v", s.name, msg.Payload)
	}
	msg.Release()
	if msg.Payload != nil {
		t.Fatalf("%s: Release did not nil the payload", s.name)
	}
}

// ctlPayload is one (kind, payload) pair.
type ctlPayload struct {
	kind    Kind
	payload any
}

// everyPayload is at least one value of every kind but FileChunk (which
// has its own writer): the data-plane and liveness kinds, the per-open set
// with its edge cases, then the registration, replication and shard kinds.
// New entries go at the end of their group: the round-trip subtests are
// named by kind and position.
func everyPayload() []ctlPayload {
	return append(append([]ctlPayload{
		{KindFileEnd, FileEnd{Size: 1 << 40, Checksum: 0xfeedface}},
		{KindReadFile, ReadFile{File: 7, ChunkSize: 128 << 10, Offset: 8192, Request: 42}},
		{KindReadFile, ReadFile{File: 7, ChunkSize: 65536, Offset: 4096, Request: 99, Length: 131072}},
		{KindWriteFile, WriteFile{File: 3, SizeBytes: 1 << 30, Replication: 12}},
		{KindAck, Ack{}},
		{KindError, Error{Text: "disk exploded"}},
		{KindHeartbeat, Heartbeat{RM: 5}},
		{KindKeepalive, Keepalive{Request: 41}},
		{KindError, Error{Code: ecnp.ErrTenantBytes, Text: "rm: RM1 refuses store of file9"}},
		{KindError, Error{Code: ecnp.NumRefusals - 1}},
	}, ctlPayloads()...), adminPayloads()...)
}

// samePayload compares a decoded payload with the value that was sent:
// floats by bit pattern, a pooled *ReadFile or *FileEnd by the value it
// points at, and an empty list as the nil list it decodes to.
func samePayload(got, want any) bool {
	switch p := got.(type) {
	case *ReadFile:
		got = *p
	case *FileEnd:
		got = *p
	}
	return bitEqual(reflect.ValueOf(got), reflect.ValueOf(want))
}

// runSlotRoundTrips round-trips every payload under s, one subtest per
// payload named by its kind plus suffix.
func runSlotRoundTrips(t *testing.T, s slotCase, suffix string) {
	for _, p := range everyPayload() {
		t.Run(p.kind.String()+suffix, func(t *testing.T) {
			msg := s.roundTrip(t, p.kind, p.payload)
			if !samePayload(msg.Payload, p.payload) {
				t.Fatalf("payload = %#v, want %#v", msg.Payload, p.payload)
			}
			msg.Release()
		})
	}
}

// TestFastPathFramesCarryBinaryTag: with no tenant and no trace, every
// kind leaves a connection under the one codec tag with a zero flags byte
// and round-trips intact; negative offsets survive the unsigned chunk
// layout. (The other three slot combinations are slot_codec_test.go's.)
func TestFastPathFramesCarryBinaryTag(t *testing.T) {
	runSlotRoundTrips(t, slotPlain, "")
	slotPlain.chunkRoundTrip(t, -1, []byte{9})
}

// TestEveryPayloadCoversEveryKind keeps the shared table honest: a kind
// added to the enum without a row in everyPayload would be missing from
// every round-trip, hostile-input and fuzz-seed loop built on it.
func TestEveryPayloadCoversEveryKind(t *testing.T) {
	seen := map[Kind]bool{KindFileChunk: true} // the chunk writer's tests
	for _, p := range everyPayload() {
		seen[p.kind] = true
	}
	for k := KindError; k <= KindShardHandoff; k++ {
		if !seen[k] && k != kindDeleted {
			t.Errorf("everyPayload has no %v", k)
		}
	}
}

// TestWriteRefusesMismatchedPayload: a payload that is not the type its
// kind carries is refused where it is written, with a typed error naming
// the kind, and not one byte reaches the stream — the receiver's type
// assertion is no longer the first to notice.
func TestWriteRefusesMismatchedPayload(t *testing.T) {
	for _, tc := range []ctlPayload{
		{KindCFP, selection.Bid{RM: 1}},
		{KindCount, FileRef{File: 1}},
		{KindRegisterRM, nil},
		{KindRMs, Ack{}},
		{KindAck, nil},
		{KindFileEnd, (*FileEnd)(nil)},
		{KindFileChunk, []byte("raw")},
		{Kind(999), Ack{}},
	} {
		var buf bytes.Buffer
		c := NewConn(&buf)
		for name, err := range map[string]error{
			"Write":     c.Write(tc.kind, tc.payload),
			"WriteTorn": c.WriteTorn(tc.kind, tc.payload),
		} {
			var ce *CodecError
			if !errors.As(err, &ce) || ce.Kind != tc.kind {
				t.Errorf("%s(%v, %T): err = %v, want a CodecError naming the kind", name, tc.kind, tc.payload, err)
			}
		}
		if buf.Len() != 0 {
			t.Errorf("(%v, %T): %d bytes reached the stream", tc.kind, tc.payload, buf.Len())
		}
	}
}

// TestEncodeOnlyReadsThePayload: a payload's lists share their backing
// arrays with the sender's copy, and a sender may hand one list to many
// connections at once (the MM's resource list, a handoff's registration
// records), so the walk that encodes must not store through the pointers
// the walk that decodes fills. Run under the race detector (make race),
// which is what would see a store.
func TestEncodeOnlyReadsThePayload(t *testing.T) {
	shared := adminPayloads()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewConn(discardRW{})
			for _, p := range shared {
				if err := c.Write(p.kind, p.payload); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestUnknownCodecTagRejected: a tag the reader does not know — the
// retired gob (0), codeless (1), traced (2) and tenant (3) tags included —
// is a typed error naming the tag, and the stream stays
// frame-synchronised behind it.
func TestUnknownCodecTagRejected(t *testing.T) {
	for _, tag := range []Codec{0, 1, 2, 3, 7} {
		var buf bytes.Buffer
		writeRawFrame(&buf, tag, slotTenantTrace.body(KindAck, nil))
		writeRawFrame(&buf, CodecBinary, binaryBody(KindAck, nil))
		r := slotPlain.conn(&buf)
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

// readRefusal reads the one frame body makes and returns the *CodecError
// it must be refused with.
func readRefusal(t *testing.T, name string, body []byte) *CodecError {
	t.Helper()
	return readCodecError(t, NewConn(bytes.NewBuffer(frameBytes(CodecBinary, body))), name)
}

// restOfBody reports whether kind's layout ends in a field that is the
// rest of the body, so that a body cut short or run long may still be one.
func restOfBody(kind Kind) bool {
	return kind == KindError || kind == KindOpenResult || kind == KindRMList
}

func TestBinaryMalformedBodiesRejected(t *testing.T) {
	be32 := func(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	rmInfo := make([]byte, rmInfoMin) // a zero RMInfo with an empty address
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
		{"open wrong len", binaryBody(KindOpen, make([]byte, 42)), KindOpen},
		{"open without its size", binaryBody(KindOpen, make([]byte, 33)), KindOpen},
		{"open bad bool", binaryBody(KindOpen, append(append(make([]byte, 28), 0xff), make([]byte, 12)...)), KindOpen},
		{"openresult empty", binaryBody(KindOpenResult, nil), KindOpenResult},
		{"openresult bad bool", binaryBody(KindOpenResult, []byte{2, 'x'}), KindOpenResult},
		{"openresult without its code", binaryBody(KindOpenResult, []byte{0}), KindOpenResult},
		{"openresult unknown code", binaryBody(KindOpenResult, []byte{0, byte(ecnp.NumRefusals), 'x'}), KindOpenResult},
		{"error without its code", binaryBody(KindError, nil), KindError},
		{"error unknown code", binaryBody(KindError, []byte{0xff, 'x'}), KindError},
		{"close wrong len", binaryBody(KindClose, make([]byte, 9)), KindClose},
		{"lookup wrong len", binaryBody(KindLookup, make([]byte, 3)), KindLookup},
		{"rmlist ragged", binaryBody(KindRMList, make([]byte, 6)), KindRMList},
		{"unknown kind", binaryBody(Kind(999), nil), Kind(999)},
		// The registration, replication and shard kinds: every bool byte
		// set to 2, every count and string length past the body's end. (A
		// body cut short or run long is the loop's below, for every kind.)
		{"rms with payload", binaryBody(KindRMs, []byte{0}), KindRMs},
		{"endreplication bad bool", binaryBody(KindEndReplication, append(make([]byte, 8), 2)), KindEndReplication},
		{"offerreply bad bool", binaryBody(KindOfferReply, []byte{2}), KindOfferReply},
		{"finishreplica bad bool", binaryBody(KindFinishReplica, append(make([]byte, 8), 2)), KindFinishReplica},
		{"shardmirror bad bool", binaryBody(KindShardMirror, append(make([]byte, 4+4+4+8), 2)), KindShardMirror},
		{"shardmirror op past the end", binaryBody(KindShardMirror, join(be32(18), make([]byte, 17))), KindShardMirror},
		{"registerrm addr past the end", binaryBody(KindRegisterRM, join(make([]byte, 20), be32(5), make([]byte, 4))), KindRegisterRM},
		{"registerrm files past the end", binaryBody(KindRegisterRM, join(rmInfo, be32(2), make([]byte, 7))), KindRegisterRM},
		{"rminfolist count past the end", binaryBody(KindRMInfoList, join(be32(2), rmInfo)), KindRMInfoList},
		{"shardhandoff direction past the end", binaryBody(KindShardHandoff, join(make([]byte, 4), be32(1<<31))), KindShardHandoff},
		{"shardhandoff infos past the end", binaryBody(KindShardHandoff, join(make([]byte, 8), be32(1), make([]byte, rmInfoMin-1))), KindShardHandoff},
		{"shardhandoff entries past the end", binaryBody(KindShardHandoff, join(make([]byte, 12), be32(3), make([]byte, 2*shardEntryMin))), KindShardHandoff},
		{"shardhandoff entry rms past the end", binaryBody(KindShardHandoff, join(make([]byte, 12), be32(1), make([]byte, 4), be32(2), make([]byte, 4))), KindShardHandoff},
	}
	for _, tc := range cases {
		if ce := readRefusal(t, tc.name, tc.body); ce.Kind != tc.kind {
			t.Errorf("%s: CodecError kind %v, want %v", tc.name, ce.Kind, tc.kind)
		}
	}
	// Every layout is canonical, so of a well-formed body no proper prefix
	// and no extension is well-formed too — unless the kind's last field is
	// the rest of the body.
	for _, p := range everyPayload() {
		if restOfBody(p.kind) {
			continue
		}
		body := slotFrame(slotPlain, p)[headerSize:]
		for cut := flagsSize + kindSize; cut < len(body); cut++ {
			name := fmt.Sprintf("%v cut at %d of %d", p.kind, cut, len(body))
			if ce := readRefusal(t, name, body[:cut]); ce.Kind != p.kind {
				t.Errorf("%s: CodecError kind %v", name, ce.Kind)
			}
		}
		name := fmt.Sprintf("%v with a byte behind it", p.kind)
		if ce := readRefusal(t, name, append(bytes.Clone(body), 0)); ce.Kind != p.kind {
			t.Errorf("%s: CodecError kind %v", name, ce.Kind)
		}
	}
}

// TestOversizedCountAllocatesNothing: a count is held against the bytes
// the body still has before anything is sized by it, so four bytes
// announcing 2^30 list entries (or a string of 2^31 bytes) cost what any
// other refused frame costs — the error — and not a gigabyte.
func TestOversizedCountAllocatesNothing(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	count := binary.BigEndian.AppendUint32(nil, 1<<30)
	length := binary.BigEndian.AppendUint32(nil, 1<<31)
	for _, tc := range []struct {
		name string
		kind Kind
		body []byte
	}{
		{"RMInfoList of 2^30", KindRMInfoList, count},
		{"ShardMirror op of 2^31 bytes", KindShardMirror, length},
		{"RegisterRM files of 2^30", KindRegisterRM, append(make([]byte, rmInfoMin), count...)},
		{"ShardHandoff entries of 2^30", KindShardHandoff, append(make([]byte, 12), count...)},
	} {
		r := NewConn(&loopRW{frame: frameBytes(CodecBinary, binaryBody(tc.kind, tc.body))})
		var ce *CodecError
		if _, err := r.Read(); !errors.As(err, &ce) || ce.Kind != tc.kind || !strings.Contains(ce.Reason, "exceeds the bytes left") {
			t.Fatalf("%s: err = %v, want a CodecError about the count", tc.name, err)
		}
		if avg := testing.AllocsPerRun(100, func() { r.Read() }); avg > 1 {
			t.Errorf("%s: refusing it costs %v allocs, want 1 (the error)", tc.name, avg)
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

// TestWriteTornTearsTheFrameWriteSends: the torn frame is the first half
// of exactly what Write puts on the stream for the same message — header
// and slots included — so the fault is a peer that died mid-write and
// nothing else.
func TestWriteTornTearsTheFrameWriteSends(t *testing.T) {
	for _, s := range slotCases {
		for _, p := range []ctlPayload{
			{KindAck, Ack{}},
			{KindCount, Count{N: 42}},
			{KindFileChunk, FileChunk{Offset: 64, Data: []byte("half of this arrives")}},
		} {
			var whole, torn bytes.Buffer
			if err := s.conn(&whole).Write(p.kind, p.payload); err != nil {
				t.Fatal(err)
			}
			if err := s.conn(&torn).WriteTorn(p.kind, p.payload); err != nil {
				t.Fatal(err)
			}
			body := whole.Len() - headerSize
			if want := whole.Bytes()[:headerSize+body/2]; !bytes.Equal(torn.Bytes(), want) {
				t.Errorf("%s %v: torn frame\n got % x\nwant % x", s.name, p.kind, torn.Bytes(), want)
			}
		}
	}
}

func TestReleaseIdempotentAndNilsPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := NewConn(&buf).WriteChunk(64, []byte("once")); err != nil {
		t.Fatal(err)
	}
	msg, err := NewConn(&buf).Read()
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
	var zero Msg
	zero.Release() // zero Msg release is safe too
}

// TestCodecStatsObserveBothPaths: every frame written and every frame read
// is counted once, under its direction — control frames of the old and the
// new layouts, chunks through the writev path, under every slot
// combination — and a refused frame is counted by neither.
func TestCodecStatsObserveBothPaths(t *testing.T) {
	for _, s := range slotCases {
		tx0, rx0 := CodecStats()
		s.roundTrip(t, KindFileEnd, FileEnd{})
		s.roundTrip(t, KindShardMirror, ShardMirror{Op: "AddReplica", File: 1, RM: 2})
		s.chunkRoundTrip(t, 0, []byte("y"))
		if tx1, rx1 := CodecStats(); tx1-tx0 != 3 || rx1-rx0 != 3 {
			t.Errorf("%s: counters moved tx=%d rx=%d, want 3/3", s.name, tx1-tx0, rx1-rx0)
		}
	}
	tx0, rx0 := CodecStats()
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.Write(KindCount, Ack{}); err == nil {
		t.Fatal("mismatched write accepted")
	}
	writeRawFrame(&buf, CodecBinary, binaryBody(KindCount, []byte{1}))
	if _, err := c.Read(); err == nil {
		t.Fatal("malformed frame decoded")
	}
	if tx1, rx1 := CodecStats(); tx1 != tx0 || rx1 != rx0 {
		t.Errorf("refused frames were counted: tx +%d rx +%d", tx1-tx0, rx1-rx0)
	}
}

func TestCodecString(t *testing.T) {
	if CodecBinary.String() != "binary" {
		t.Fatalf("codec name: %v", CodecBinary)
	}
	for _, unknown := range []Codec{0, 2, 3, 9} { // 0, 2 and 3 were once tags
		if got, want := unknown.String(), fmt.Sprintf("codec(%d)", uint8(unknown)); got != want {
			t.Fatalf("unknown codec renders %q, want %q", got, want)
		}
	}
}

// fillDistinct sets every field of the struct behind v to a distinct
// non-zero value (n counts up across fields), nested structs and the
// elements of lists included, so a field the codec forgets comes back zero
// and a pair it swaps comes back unequal.
func fillDistinct(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	for i := 0; i < v.NumField(); i++ {
		if !v.Type().Field(i).IsExported() {
			t.Fatalf("%v has unexported field %s: the codec cannot carry it", v.Type(), v.Type().Field(i).Name)
		}
		fillValue(t, v.Field(i), n, fmt.Sprintf("%v.%s", v.Type(), v.Type().Field(i).Name))
	}
}

// fillValue is fillDistinct for one value, named where for its failures.
func fillValue(t *testing.T, f reflect.Value, n *int, where string) {
	t.Helper()
	*n++
	switch f.Kind() {
	case reflect.Int, reflect.Int32, reflect.Int64:
		f.SetInt(int64(*n))
	case reflect.Uint8, reflect.Uint64:
		f.SetUint(uint64(*n))
	case reflect.Float64:
		f.SetFloat(float64(*n) + 0.5)
	case reflect.Bool:
		f.SetBool(true)
	case reflect.String:
		f.SetString(fmt.Sprintf("text-%d", *n))
	case reflect.Struct:
		fillDistinct(t, f, n)
	case reflect.Slice:
		f.Set(reflect.MakeSlice(f.Type(), 3, 3))
		for j := 0; j < f.Len(); j++ {
			fillValue(t, f.Index(j), n, where+"[]")
		}
	default:
		t.Fatalf("%s: field kind %v is new to this test — teach fillValue and the codec about it", where, f.Kind())
	}
	if f.IsZero() {
		t.Fatalf("%s still zero after fill", where)
	}
}

// TestCtlCodecCoversEveryField is the field-coverage guard for every
// payload struct, nested ones included: every exported field, filled with
// a distinct non-zero value, must survive every slot combination. A field
// added to selection.Bid or ecnp.ReplicaOffer (or any of the others)
// without a layout update fails here instead of silently zeroing on the
// wire.
func TestCtlCodecCoversEveryField(t *testing.T) {
	cases := []struct {
		kind    Kind
		payload any // a pointer to the zero value, filled below
	}{
		{KindError, new(Error)},
		{KindRegisterRM, new(RegisterRM)},
		{KindLookup, new(FileRef)},
		{KindRMsWithout, new(FileRef)},
		{KindAddReplica, new(ReplicaRef)},
		{KindRemoveReplica, new(ReplicaRef)},
		{KindBeginReplication, new(BeginReplication)},
		{KindEndReplication, new(EndReplication)},
		{KindReplicaCount, new(FileRef)},
		{KindAck, new(Ack)},
		{KindRMList, new(RMList)},
		{KindRMInfoList, new(RMInfoList)},
		{KindCount, new(Count)},
		{KindCFP, new(ecnp.CFP)},
		{KindBid, new(selection.Bid)},
		{KindOpen, new(ecnp.OpenRequest)},
		{KindOpenResult, new(ecnp.OpenResult)},
		{KindClose, new(CloseReq)},
		{KindOfferReplica, new(ecnp.ReplicaOffer)},
		{KindOfferReply, new(OfferReply)},
		{KindFinishReplica, new(FinishReplica)},
		{KindReadFile, new(ReadFile)},
		{KindFileChunk, new(FileChunk)},
		{KindFileEnd, new(FileEnd)},
		{KindWriteFile, new(WriteFile)},
		{KindHeartbeat, new(Heartbeat)},
		{KindKeepalive, new(Keepalive)},
		{KindShardBeat, new(ShardBeat)},
		{KindShardMirror, new(ShardMirror)},
		{KindShardHandoff, new(ShardHandoff)},
	}
	covered := map[Kind]bool{KindRMs: true} // carries no payload
	for _, tc := range cases {
		covered[tc.kind] = true
		n := 0
		pv := reflect.ValueOf(tc.payload).Elem()
		fillDistinct(t, pv, &n)
		want := pv.Interface()
		for _, s := range slotCases {
			msg := s.roundTrip(t, tc.kind, want)
			got := msg.Payload
			if pooled := reflect.ValueOf(got); pooled.Kind() == reflect.Pointer { // *ReadFile, *FileEnd, *FileChunk
				got = pooled.Elem().Interface()
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v under %s:\n got %#v\nwant %#v", tc.kind, s.name, got, want)
			}
			msg.Release()
		}
	}
	for k := KindError; k <= KindShardHandoff; k++ {
		if !covered[k] && k != kindDeleted {
			t.Errorf("%v has no row here: its payload's fields are unguarded", k)
		}
	}
}

// ctlPayloads is the per-open payload set: ordinary values plus the edges
// the layout has to get right (negative, non-finite and negative-zero
// floats, both bool values, empty and long variable tails).
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
		{KindBid, selection.Bid{RM: 1, Trend: math.Copysign(0, -1)}},
		{KindOpen, ecnp.OpenRequest{Request: 9, File: 1, Bitrate: units.Mbps(2), DurationSec: 300, Firm: true, Tenant: 4}},
		{KindOpen, ecnp.OpenRequest{Request: 1 << 40, File: 3}},
		{KindOpen, ecnp.OpenRequest{Request: 2, File: 9, Bitrate: units.Mbps(2), DurationSec: 256, Tenant: 4, SizeBytes: 64 * units.MB}},
		{KindOpenResult, ecnp.OpenResult{OK: true}},
		{KindOpenResult, ecnp.OpenResult{Reason: "insufficient bandwidth"}},
		{KindOpenResult, ecnp.OpenResult{Reason: strings.Repeat("tenant 4 over quota; ", 400)}},
		{KindOpenResult, ecnp.OpenResult{Code: ecnp.ErrTenantBandwidth, Reason: "tenant4 over bandwidth quota"}},
		{KindClose, CloseReq{Request: 9}},
		{KindLookup, FileRef{File: 42}},
		{KindRMList, RMList{}},
		{KindRMList, RMList{RMs: []ids.RMID{}}},
		{KindRMList, RMList{RMs: rms16}},
	}
}

// adminPayloads is the registration, replica-bookkeeping, replication and
// shard payload set: each kind once with ordinary values, and the shapes
// the counted layouts have to get right — empty strings and lists, a list
// nested in a list, an address longer than the read-ahead.
func adminPayloads() []ctlPayload {
	rm3 := ecnp.RMInfo{ID: 3, Capacity: units.Mbps(30), StorageBytes: 16 * units.GB, Addr: "127.0.0.1:7301"}
	rm4 := ecnp.RMInfo{ID: 4, Capacity: units.Mbps(18)}
	return []ctlPayload{
		{KindRegisterRM, RegisterRM{Info: rm3, Files: []ids.FileID{1, 2, 3}}},
		{KindRegisterRM, RegisterRM{Info: rm4}},
		{KindRMsWithout, FileRef{File: 42}},
		{KindAddReplica, ReplicaRef{File: 42, RM: 3}},
		{KindRemoveReplica, ReplicaRef{File: 42, RM: 3}},
		{KindBeginReplication, BeginReplication{File: 42, RM: 3, MaxTotal: 8}},
		{KindEndReplication, EndReplication{File: 42, RM: 3, Commit: true}},
		{KindReplicaCount, FileRef{File: 42}},
		{KindRMs, nil},
		{KindRMInfoList, RMInfoList{Infos: []ecnp.RMInfo{rm3, rm4}}},
		{KindRMInfoList, RMInfoList{}},
		{KindCount, Count{N: 3}},
		{KindCount, Count{N: -1}},
		{KindOfferReplica, ecnp.ReplicaOffer{Replication: 7, File: 1, SizeBytes: units.MB, Bitrate: units.Mbps(2),
			DurationSec: 4, Rate: units.Mbps(1.8), Source: 2}},
		{KindOfferReply, OfferReply{Accepted: true}},
		{KindFinishReplica, FinishReplica{Replication: 7, Committed: true}},
		{KindShardBeat, ShardBeat{Shard: 2}},
		{KindShardMirror, ShardMirror{Op: "BeginReplication", File: 12, RM: 3, MaxTotal: 8}},
		{KindShardMirror, ShardMirror{Op: "EndReplication", File: 12, RM: 3, Commit: true}},
		{KindShardHandoff, ShardHandoff{From: 1, Direction: "takeover",
			Infos:   []ecnp.RMInfo{rm3, {ID: 5, Capacity: 1, Addr: strings.Repeat("long-host-name.", 40) + ":7300"}},
			Entries: []ShardEntry{{File: 1, RMs: []ids.RMID{3, 5}}, {File: 2}, {File: 3, RMs: []ids.RMID{5}}}}},
		{KindShardHandoff, ShardHandoff{From: 2, Direction: "heal"}},
	}
}

// bitEqual is reflect.DeepEqual with floats compared by bit pattern, so a
// NaN equals itself and -0 differs from +0, and with an empty list equal
// to the nil list the codec decodes it to.
func bitEqual(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() || (a.IsValid() && a.Type() != b.Type()) {
		return false
	}
	switch a.Kind() {
	case reflect.Invalid: // both nil: the RMs request
		return true
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
		if a.Len() != b.Len() {
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

// TestEmptyListsDecodeToNil: a list that arrives empty is the nil slice,
// whichever way it was sent — receivers that range over it do not care,
// and the one value has one encoding.
func TestEmptyListsDecodeToNil(t *testing.T) {
	got := slotPlain.roundTrip(t, KindRMList, RMList{RMs: []ids.RMID{}}).Payload.(RMList)
	if got.RMs != nil {
		t.Errorf("empty RMList decoded to %#v", got.RMs)
	}
	ho := slotPlain.roundTrip(t, KindShardHandoff, ShardHandoff{Infos: []ecnp.RMInfo{}, Entries: []ShardEntry{{File: 1, RMs: []ids.RMID{}}}}).Payload.(ShardHandoff)
	if ho.Infos != nil || ho.Entries[0].RMs != nil {
		t.Errorf("empty lists in a handoff decoded to %#v", ho)
	}
}
