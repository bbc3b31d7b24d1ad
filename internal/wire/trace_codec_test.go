//go:build !gobonly

package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"testing"

	"dfsqos/internal/ids"
	"dfsqos/internal/trace"
)

var testTC = trace.SpanContext{Trace: ids.RequestID(0x1122334455), Span: 0x99}

// TestWriteTracedBinaryRoundTrip drives every fast-path-eligible kind
// through the traced binary codec (tag 2) and asserts both the payload
// and the span context survive.
func TestWriteTracedBinaryRoundTrip(t *testing.T) {
	cases := []struct {
		kind    Kind
		payload any
	}{
		{KindFileEnd, FileEnd{Size: 4096, Checksum: 0xdeadbeef}},
		{KindReadFile, ReadFile{File: 7, ChunkSize: 128 << 10, Offset: 8192, Request: 42}},
		{KindWriteFile, WriteFile{File: 3, SizeBytes: 1 << 20, Replication: 9}},
		{KindAck, Ack{}},
		{KindError, Error{Text: "boom"}},
		{KindHeartbeat, Heartbeat{RM: 5}},
		{KindKeepalive, Keepalive{Request: 77}},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			var buf bytes.Buffer
			c := NewConn(&buf)
			if err := c.WriteTraced(testTC, tc.kind, tc.payload); err != nil {
				t.Fatal(err)
			}
			if got := Codec(buf.Bytes()[4]); got != CodecBinaryTraced {
				t.Fatalf("frame codec = %v, want binary-traced", got)
			}
			msg, err := c.Read()
			if err != nil {
				t.Fatal(err)
			}
			if msg.Trace != testTC {
				t.Fatalf("trace = %+v, want %+v", msg.Trace, testTC)
			}
			if msg.Kind != tc.kind {
				t.Fatalf("kind = %v, want %v", msg.Kind, tc.kind)
			}
			if msg.Payload != tc.payload {
				t.Fatalf("payload = %#v, want %#v", msg.Payload, tc.payload)
			}
		})
	}
}

func TestWriteChunkTracedRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	data := []byte("traced chunk payload")
	if err := c.WriteChunkTraced(testTC, 1024, data); err != nil {
		t.Fatal(err)
	}
	if got := Codec(buf.Bytes()[4]); got != CodecBinaryTraced {
		t.Fatalf("frame codec = %v, want binary-traced", got)
	}
	msg, err := c.Read()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Trace != testTC {
		t.Fatalf("trace = %+v, want %+v", msg.Trace, testTC)
	}
	ch, ok := msg.Chunk()
	if !ok || ch.Offset != 1024 || !bytes.Equal(ch.Data, data) {
		t.Fatalf("chunk mangled: %+v", msg.Payload)
	}
	msg.Release()
	if msg.Payload != nil {
		t.Fatal("Release did not nil the payload")
	}
}

// TestWriteTracedGobEnvelope covers the kinds the binary codec does not
// (the administrative ones — a shard mirror here): the span context
// rides the gob envelope's Trace field.
func TestWriteTracedGobEnvelope(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	mirror := ShardMirror{Op: "AddReplica", File: 12, RM: 3}
	if err := c.WriteTraced(testTC, KindShardMirror, mirror); err != nil {
		t.Fatal(err)
	}
	if got := Codec(buf.Bytes()[4]); got != CodecGob {
		t.Fatalf("frame codec = %v, want gob", got)
	}
	msg, err := c.Read()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Trace != testTC {
		t.Fatalf("trace = %+v, want %+v", msg.Trace, testTC)
	}
	if got, ok := msg.Payload.(ShardMirror); !ok || got != mirror {
		t.Fatalf("payload mangled: %#v", msg.Payload)
	}
}

// TestWriteTracedGobPinnedConn pins the writer to gob: traced fast-path
// kinds must still carry their span context (via the envelope).
func TestWriteTracedGobPinnedConn(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	c.SetFastPath(false)
	if err := c.WriteTraced(testTC, KindFileEnd, FileEnd{Size: 1, Checksum: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteChunkTraced(testTC, 64, []byte("gob chunk")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got := Codec(buf.Bytes()[4]); got != CodecGob {
			t.Fatalf("frame %d codec = %v, want gob", i, got)
		}
		msg, err := c.Read()
		if err != nil {
			t.Fatal(err)
		}
		if msg.Trace != testTC {
			t.Fatalf("frame %d trace = %+v, want %+v", i, msg.Trace, testTC)
		}
		msg.Release()
	}
}

func TestWriteTracedZeroContextStaysUntraced(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.WriteTraced(trace.SpanContext{}, KindFileEnd, FileEnd{Size: 1}); err != nil {
		t.Fatal(err)
	}
	if got := Codec(buf.Bytes()[4]); got != CodecBinary {
		t.Fatalf("zero-context frame codec = %v, want plain binary", got)
	}
	msg, err := c.Read()
	if err != nil {
		t.Fatal(err)
	}
	if msg.Trace.Valid() {
		t.Fatalf("zero-context frame decoded with trace %+v", msg.Trace)
	}
}

// TestMixedTracedUntracedInterleave interleaves all three codecs on one
// connection: plain binary, traced binary, gob, and traced gob frames
// must each decode independently.
func TestMixedTracedUntracedInterleave(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.Write(KindFileEnd, FileEnd{Size: 1}); err != nil { // binary
		t.Fatal(err)
	}
	if err := c.WriteTraced(testTC, KindFileEnd, FileEnd{Size: 2}); err != nil { // traced binary
		t.Fatal(err)
	}
	if err := c.Write(KindCount, Count{N: 3}); err != nil { // gob
		t.Fatal(err)
	}
	if err := c.WriteTraced(testTC, KindCount, Count{N: 4}); err != nil { // traced gob
		t.Fatal(err)
	}
	if err := c.WriteChunkTraced(testTC, 5, []byte("x")); err != nil { // traced chunk
		t.Fatal(err)
	}
	wantTraced := []bool{false, true, false, true, true}
	for i, want := range wantTraced {
		msg, err := c.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := msg.Trace.Valid(); got != want {
			t.Fatalf("frame %d traced = %v, want %v", i, got, want)
		}
		msg.Release()
	}
}

func TestCallContextPropagatesSpanContext(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()
	got := make(chan trace.SpanContext, 1)
	go func() {
		sc := NewConn(srv)
		msg, err := sc.Read()
		if err != nil {
			return
		}
		got <- msg.Trace
		sc.Write(KindAck, Ack{})
	}()
	ctx := trace.NewContext(context.Background(), testTC)
	cc := NewConn(cli)
	if _, err := cc.CallContext(ctx, KindKeepalive, Keepalive{Request: 1}); err != nil {
		t.Fatal(err)
	}
	if tc := <-got; tc != testTC {
		t.Fatalf("server saw trace %+v, want %+v", tc, testTC)
	}
}

func TestTracedFrameShortTraceSlotRejected(t *testing.T) {
	var buf bytes.Buffer
	body := []byte{1, 2, 3} // shorter than the 16-byte trace slot
	writeRawFrame(&buf, CodecBinaryTraced, body)
	_, err := NewConn(&buf).Read()
	var ce *CodecError
	if !errors.As(err, &ce) || ce.Codec != CodecBinaryTraced {
		t.Fatalf("short trace slot: err = %v, want CodecError{binary-traced}", err)
	}
}

func TestTracedFrameRejectedWhenBinaryNotAccepted(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.WriteTraced(testTC, KindFileEnd, FileEnd{Size: 1}); err != nil {
		t.Fatal(err)
	}
	r := NewConn(&buf)
	r.SetAcceptBinary(false)
	_, err := r.Read()
	var ce *CodecError
	if !errors.As(err, &ce) || ce.Codec != CodecBinaryTraced {
		t.Fatalf("err = %v, want CodecError{binary-traced}", err)
	}
}

// TestTracedStatsCount verifies the traced frames land in the
// binary-traced counter bucket, not the plain binary one.
func TestTracedStatsCount(t *testing.T) {
	tx0, rx0 := CodecTracedStats()
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.WriteTraced(testTC, KindFileEnd, FileEnd{}); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteChunkTraced(testTC, 0, []byte("y")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		msg, err := c.Read()
		if err != nil {
			t.Fatal(err)
		}
		msg.Release()
	}
	tx1, rx1 := CodecTracedStats()
	if tx1-tx0 != 2 || rx1-rx0 != 2 {
		t.Fatalf("traced frame counters moved tx=%d rx=%d, want 2/2", tx1-tx0, rx1-rx0)
	}
}

// TestTracedChunkZeroAllocs is the unit-level guard behind the bench
// gate: steady-state traced chunk encode and decode must not allocate.
func TestTracedChunkZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs in the bench job")
	}
	data := make([]byte, 32<<10)
	w := NewConn(discardRW{})
	if avg := testing.AllocsPerRun(200, func() {
		if err := w.WriteChunkTraced(testTC, 0, data); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("WriteChunkTraced allocs/op = %v, want 0", avg)
	}

	var frame bytes.Buffer
	NewConn(&frame).WriteChunkTraced(testTC, 0, data)
	l := &loopRW{frame: frame.Bytes()}
	r := NewConn(l)
	if avg := testing.AllocsPerRun(200, func() {
		msg, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		msg.Release()
	}); avg != 0 {
		t.Fatalf("traced chunk Read allocs/op = %v, want 0", avg)
	}
}

// TestTracedPrefixLayout pins the tag-2 chunk prefix byte-for-byte so a
// layout drift fails loudly rather than via subtle misparses.
func TestTracedPrefixLayout(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.WriteChunkTraced(testTC, 0x0102030405060708, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) != tracedChunkPrefixLen+1 {
		t.Fatalf("frame len = %d, want %d", len(b), tracedChunkPrefixLen+1)
	}
	if n := binary.BigEndian.Uint32(b[0:4]); int(n) != traceSize+kindSize+8+1 {
		t.Errorf("declared body len = %d", n)
	}
	if b[4] != byte(CodecBinaryTraced) {
		t.Errorf("codec tag = %d", b[4])
	}
	if got := int64(binary.BigEndian.Uint64(b[5:13])); got != int64(testTC.Trace) {
		t.Errorf("trace id slot = %#x", got)
	}
	if got := binary.BigEndian.Uint64(b[13:21]); got != testTC.Span {
		t.Errorf("span id slot = %#x", got)
	}
	if got := Kind(binary.BigEndian.Uint16(b[21:23])); got != KindFileChunk {
		t.Errorf("kind slot = %v", got)
	}
	if got := binary.BigEndian.Uint64(b[23:31]); got != 0x0102030405060708 {
		t.Errorf("offset slot = %#x", got)
	}
	if b[31] != 0xAA {
		t.Errorf("data byte = %#x", b[31])
	}
}
