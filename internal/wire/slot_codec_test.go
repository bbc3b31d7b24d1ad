package wire

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"dfsqos/internal/ecnp"
	"dfsqos/internal/ids"
	"dfsqos/internal/testenv"
	"dfsqos/internal/trace"
)

// The tests in this file are about the frame header — the flags byte and
// the tenant and trace slots — not about any one payload, so each runs the
// shared table (slotCases × everyPayload, codec_test.go) over the slot
// combinations its name stands for. Between them and
// TestFastPathFramesCarryBinaryTag every combination meets every kind —
// a registration, a shard mirror and a store as much as a CFP — and the
// chunk writer: tenant and trace ride every kind.

// TestWriteTracedBinaryRoundTrip: every kind under the trace slot alone.
func TestWriteTracedBinaryRoundTrip(t *testing.T) {
	runSlotRoundTrips(t, slotTrace, "")
}

// TestWriteTenantBinaryRoundTrip: every kind on a tenant-stamped
// connection, untraced (tenant slot alone) and traced (both slots).
func TestWriteTenantBinaryRoundTrip(t *testing.T) {
	runSlotRoundTrips(t, slotTenant, "")
	runSlotRoundTrips(t, slotTenantTrace, "/traced")
}

func TestWriteChunkTracedRoundTrip(t *testing.T) {
	slotTrace.chunkRoundTrip(t, 1024, []byte("traced chunk payload"))
}

// TestWriteChunkTenantRoundTrip proves chunks from a tenant-stamped
// connection carry the tenant slot, with and without a trace, and that
// the borrowed-buffer contract is unchanged.
func TestWriteChunkTenantRoundTrip(t *testing.T) {
	slotTenant.chunkRoundTrip(t, 1024, []byte("tenant chunk payload"))
	slotTenantTrace.chunkRoundTrip(t, 1024, []byte("tenant chunk payload"))
}

// TestWriteReadReqTenant proves the per-segment read request, whole-file
// and ranged, carries the slots of whatever connection and context sent
// it, through the pooled-pointer writer.
func TestWriteReadReqTenant(t *testing.T) {
	for _, s := range slotCases {
		for _, length := range []int64{0, 1 << 20} {
			var buf bytes.Buffer
			c := s.conn(&buf)
			req := ReadFile{File: 9, ChunkSize: 64 << 10, Offset: 4096, Request: 11, Length: length}
			if err := c.WriteReadReq(s.tc, req); err != nil {
				t.Fatal(err)
			}
			s.checkFrame(t, buf.Bytes())
			if want := headerSize + len(s.header()) + kindSize + 36; buf.Len() != want {
				t.Fatalf("%s: length %d request frame is %d bytes, want %d (one layout)", s.name, length, buf.Len(), want)
			}
			msg := s.read(t, c, &buf, KindReadFile)
			if got, ok := msg.ReadReq(); !ok || got != req {
				t.Fatalf("%s: read req = %+v ok=%v, want %+v", s.name, got, ok, req)
			}
			msg.Release()
			if msg.Payload != nil {
				t.Fatalf("%s: Release left the pooled request in Payload", s.name)
			}
		}
	}
}

// TestWriteTracedZeroContextStaysUntraced: a zero span context sets no
// flag and spends no slot, through WriteTraced and WriteChunkTraced alike.
func TestWriteTracedZeroContextStaysUntraced(t *testing.T) {
	for _, s := range []slotCase{slotPlain, slotTenant} {
		var viaTraced, viaPlain bytes.Buffer
		ct, cp := s.conn(&viaTraced), s.conn(&viaPlain)
		if err := ct.WriteTraced(trace.SpanContext{}, KindFileEnd, FileEnd{Size: 1}); err != nil {
			t.Fatal(err)
		}
		if err := ct.WriteChunkTraced(trace.SpanContext{}, 8, []byte("z")); err != nil {
			t.Fatal(err)
		}
		if err := cp.Write(KindFileEnd, FileEnd{Size: 1}); err != nil {
			t.Fatal(err)
		}
		if err := cp.WriteChunk(8, []byte("z")); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(viaTraced.Bytes(), viaPlain.Bytes()) {
			t.Fatalf("%s: zero-context frames differ from untraced ones:\n% x\n% x", s.name, viaTraced.Bytes(), viaPlain.Bytes())
		}
		s.checkFrame(t, viaTraced.Bytes())
	}
}

// TestUntenantedFramesUnchanged pins the slotless frame byte for byte — a
// connection that never saw SetTenant, or had it cleared, spends one flags
// byte and nothing else on the header.
func TestUntenantedFramesUnchanged(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	c.SetTenant(testTenant)
	c.SetTenant(ids.NoneTenant)
	if err := c.Write(KindKeepalive, Keepalive{Request: 0x0102}); err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0, 0, 0, 11, // body length: 1+2+8
		4,                      // codec tag binary
		0,                      // flags: no slots
		0, byte(KindKeepalive), // kind
		0, 0, 0, 0, 0, 0, 1, 2, // request
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("slotless frame bytes\n got %v\nwant %v", buf.Bytes(), want)
	}
}

// checkChunkFrame writes one chunk under s and compares the whole frame
// with the literal bytes want.
func checkChunkFrame(t *testing.T, s slotCase, want []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := s.conn(&buf).WriteChunkTraced(s.tc, 0x0102030405060708, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("%s chunk frame bytes\n got %v\nwant %v", s.name, buf.Bytes(), want)
	}
}

// TestTracedPrefixLayout pins the traced and the slotless chunk frame
// byte-for-byte so a layout drift fails loudly rather than via subtle
// misparses.
func TestTracedPrefixLayout(t *testing.T) {
	checkChunkFrame(t, slotPlain, []byte{
		0, 0, 0, 13, // body length: 1+2+8+2
		4,                      // codec tag binary
		0,                      // flags: no slots
		0, byte(KindFileChunk), // kind
		1, 2, 3, 4, 5, 6, 7, 8, // offset
		0xAA, 0xBB, // data
	})
	checkChunkFrame(t, slotTrace, []byte{
		0, 0, 0, 29, // body length: 1+16+2+8+2
		4,                                     // codec tag binary
		2,                                     // flags: trace
		0, 0, 0, 0x11, 0x22, 0x33, 0x44, 0x55, // trace ID
		0, 0, 0, 0, 0, 0, 0, 0x99, // span ID
		0, byte(KindFileChunk), // kind
		1, 2, 3, 4, 5, 6, 7, 8, // offset
		0xAA, 0xBB, // data
	})
}

// TestTenantFrameLayout pins the tenant-slot layouts documented in
// docs/ARCHITECTURE.md: flags, tenant i32, then the trace slot when bit 1
// says so, kind u16, payload.
func TestTenantFrameLayout(t *testing.T) {
	checkChunkFrame(t, slotTenant, []byte{
		0, 0, 0, 17, // body length: 1+4+2+8+2
		4,           // codec tag binary
		1,           // flags: tenant
		0, 0, 0, 42, // tenant slot
		0, byte(KindFileChunk), // kind
		1, 2, 3, 4, 5, 6, 7, 8, // offset
		0xAA, 0xBB, // data
	})
	checkChunkFrame(t, slotTenantTrace, []byte{
		0, 0, 0, 33, // body length: 1+4+16+2+8+2
		4,           // codec tag binary
		3,           // flags: tenant | trace
		0, 0, 0, 42, // tenant slot
		0, 0, 0, 0x11, 0x22, 0x33, 0x44, 0x55, // trace ID
		0, 0, 0, 0, 0, 0, 0, 0x99, // span ID
		0, byte(KindFileChunk), // kind
		1, 2, 3, 4, 5, 6, 7, 8, // offset
		0xAA, 0xBB, // data
	})
}

// TestMixedTracedUntracedInterleave interleaves every header on one
// connection — slotless, traced, tenant-stamped mid-connection, fixed and
// counted layouts, chunks among control frames: each frame decodes
// independently with exactly its own tenant and span context.
func TestMixedTracedUntracedInterleave(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	type want struct {
		tenant ids.TenantID
		tc     trace.SpanContext
	}
	var wants []want
	send := func(tc trace.SpanContext, kind Kind, payload any) {
		t.Helper()
		if err := c.WriteTraced(tc, kind, payload); err != nil {
			t.Fatal(err)
		}
		wants = append(wants, want{c.tenantID(), tc})
	}
	send(trace.SpanContext{}, KindFileEnd, FileEnd{Size: 1})
	send(testTC, KindFileEnd, FileEnd{Size: 2}) // trace slot
	send(trace.SpanContext{}, KindRegisterRM, RegisterRM{Info: ecnp.RMInfo{ID: 1, Addr: "127.0.0.1:7301"}, Files: []ids.FileID{3}})
	send(testTC, KindCount, Count{N: 4})
	send(testTC, KindFileChunk, FileChunk{Offset: 5, Data: []byte("x")})
	c.SetTenant(testTenant)
	send(trace.SpanContext{}, KindFileChunk, FileChunk{Offset: 6, Data: []byte("y")}) // tenant slot
	send(testTC, KindAck, Ack{})                                                      // both slots
	send(testTC, KindShardMirror, ShardMirror{Op: "AddReplica", File: 7, RM: 2})
	c.SetTenant(ids.NoneTenant)
	send(trace.SpanContext{}, KindAck, Ack{})
	for i, w := range wants {
		msg, err := c.Read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if msg.Tenant != w.tenant || msg.Trace != w.tc {
			t.Fatalf("frame %d: tenant %v trace %+v, want %v %+v", i, msg.Tenant, msg.Trace, w.tenant, w.tc)
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
	if _, err := cc.CallDeadline(ctx, time.Time{}, KindKeepalive, Keepalive{Request: 1}); err != nil {
		t.Fatal(err)
	}
	if tc := <-got; tc != testTC {
		t.Fatalf("server saw trace %+v, want %+v", tc, testTC)
	}
}

// readCodecError reads one frame from c and fails the test unless it is
// refused with a binary-tagged *CodecError, which it returns.
func readCodecError(t *testing.T, c *Conn, what string) *CodecError {
	t.Helper()
	_, err := c.Read()
	var ce *CodecError
	if !errors.As(err, &ce) || ce.Codec != CodecBinary {
		t.Fatalf("%s: err = %v, want a binary CodecError", what, err)
	}
	return ce
}

// TestTracedFrameShortTraceSlotRejected cuts a well-formed body of every
// slot combination at every length short of its kind field: each is a
// typed error naming what was cut, never a panic or a misparse, and the
// next frame on the stream still decodes.
func TestTracedFrameShortTraceSlotRejected(t *testing.T) {
	for _, s := range slotCases {
		full := s.body(KindAck, nil)
		for cut := 0; cut < len(full); cut++ {
			var buf bytes.Buffer
			writeRawFrame(&buf, CodecBinary, full[:cut])
			writeRawFrame(&buf, CodecBinary, full)
			r := s.conn(&buf)
			ce := readCodecError(t, r, s.name)
			want := "kind field"
			switch {
			case cut == 0:
				want = "flags byte"
			case s.tenant.Valid() && cut < flagsSize+tenantSize:
				want = "tenant slot"
			case s.tc.Valid() && cut < len(s.header()):
				want = "trace slot"
			}
			if !strings.Contains(ce.Reason, want) {
				t.Errorf("%s cut at %d: reason %q, want it to name the %s", s.name, cut, ce.Reason, want)
			}
			s.read(t, r, &buf, KindAck)
		}
	}
}

// TestTenantCodecHostileInput proves the rest of the malformed-header
// space surfaces typed CodecErrors with the stream still in step: every
// flag bit the codec does not define, alone and beside the known ones, and
// well-formed slots in front of a body the kind's layout rejects.
func TestTenantCodecHostileInput(t *testing.T) {
	for bit := 2; bit < 8; bit++ {
		for _, s := range slotCases {
			body := s.body(KindAck, nil)
			body[0] |= 1 << bit
			var buf bytes.Buffer
			writeRawFrame(&buf, CodecBinary, body)
			writeRawFrame(&buf, CodecBinary, s.body(KindAck, nil))
			r := s.conn(&buf)
			if ce := readCodecError(t, r, s.name); !strings.Contains(ce.Reason, "unknown flag bits") {
				t.Errorf("%s with bit %d: reason %q", s.name, bit, ce.Reason)
			}
			s.read(t, r, &buf, KindAck)
		}
	}
	for _, s := range slotCases {
		r := NewConn(bytes.NewBuffer(frameBytes(CodecBinary, s.body(KindFileEnd, []byte{1}))))
		if ce := readCodecError(t, r, s.name); ce.Kind != KindFileEnd {
			t.Errorf("%s: bad inner body reported kind %v", s.name, ce.Kind)
		}
	}
}

// TestTracedChunkZeroAllocs is the data plane's allocation gate:
// steady-state chunk encode and decode must not allocate under any slot
// combination — a tenant-stamped traced stream delivers Msg.Tenant and
// Msg.Trace on every chunk for free.
func TestTracedChunkZeroAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	data := make([]byte, 32<<10)
	for _, s := range slotCases {
		w := s.conn(discardRW{})
		if avg := testing.AllocsPerRun(200, func() {
			if err := w.WriteChunkTraced(s.tc, 0, data); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s: WriteChunkTraced allocs/op = %v, want 0", s.name, avg)
		}

		var frame bytes.Buffer
		s.conn(&frame).WriteChunkTraced(s.tc, 0, data)
		r := NewConn(&loopRW{frame: frame.Bytes()})
		if avg := testing.AllocsPerRun(200, func() {
			msg, err := r.Read()
			if err != nil {
				t.Fatal(err)
			}
			if msg.Tenant != s.tenant || msg.Trace != s.tc {
				t.Fatalf("%s: chunk delivered tenant %v trace %+v", s.name, msg.Tenant, msg.Trace)
			}
			msg.Release()
		}); avg != 0 {
			t.Errorf("%s: chunk Read allocs/op = %v, want 0", s.name, avg)
		}
	}
}
